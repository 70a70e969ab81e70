"""Self-check of the benchmark at desk-check size; takes well under a minute.

    python3 benchmarks/selfcheck.py

Runs the same code paths as the real workloads on small inputs (main sweep
at (13, 6), bounds at p = 7, audits at k = 6), untraced and traced, and
asserts that:

- every metric named in BENCHMARK.json is emitted, with its unit;
- outputs match their pins, and count metrics repeat across traced runs;
- self times sum to the traced job's wall time;
- tracing leaves the patched module attributes as it found them;
- an operation given a wrong pinned reference is counted as failed;
- outside a checkout (only BENCHMARK.json and this directory) the
  benchmark exits non-zero without printing a result.

It lives outside the test suite on purpose: it times real work.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import WRAP_POINTS  # noqa: E402
from workloads import TINY_WORKLOADS, WORKLOADS  # noqa: E402

SEED = 7
SECONDS = 1


def check(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def metric_units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def check_declared_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(declared_e2e == run.E2E_UNITS, "end-to-end metrics differ from BENCHMARK.json")
    check(declared_layer == run.LAYER_UNITS, "per-layer metrics differ from BENCHMARK.json")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "workloads differ from BENCHMARK.json")


def originals() -> dict:
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, names in WRAP_POINTS.items()
        for attr in names
    }


def check_workload(workload):
    before = originals()
    _, plain = run.measure(workload, SEED, SECONDS, trace=False)
    check(plain["correct"] and plain["failed"] == 0, f"{workload.name}: untraced run failed")
    check(metric_units(plain) == run.E2E_UNITS, f"{workload.name}: end-to-end metrics missing")

    traced = []
    for _ in range(2):
        detail, result = run.measure(workload, SEED, SECONDS, trace=True)
        check(result["correct"], f"{workload.name}: traced run failed: {detail['failures']}")
        check(metric_units(result) == run.LAYER_UNITS, f"{workload.name}: layer metrics missing")
        values = {name: m["value"] for name, m in result["metrics"].items()}
        wall, self_sum = values["trace.wall_s"], values["trace.self_sum_s"]
        check(abs(wall - self_sum) <= 0.01 * wall + 0.005,
              f"{workload.name}: self times sum to {self_sum}, traced wall is {wall}")
        traced.append(values)
    for name in run.COUNT_UNITS:
        check(traced[0][name] == traced[1][name], f"{workload.name}: {name} differs across runs")
    check(originals() == before, "tracing left a wrapped function behind")
    return traced[0]


def with_wrong_pin(workload):
    if hasattr(workload, "ops"):
        op = workload.ops[0]
        wrong = dataclasses.replace(op, pin=dataclasses.replace(op.pin, sha256="0" * 64))
        return dataclasses.replace(workload, ops=(wrong, *workload.ops[1:]))
    return dataclasses.replace(workload, records_per_audit=workload.records_per_audit + 1)


def check_wrong_pins():
    for workload in TINY_WORKLOADS.values():
        _, result = run.measure(with_wrong_pin(workload), SEED, SECONDS, trace=False)
        rate = result["metrics"]["success_rate"]["value"]
        check(result["failed"] > 0 and rate < 1 and not result["correct"],
              f"{workload.name}: a wrong pin went unnoticed")


def check_outside_checkout():
    (run.ROOT / ".benchwork").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=run.ROOT / ".benchwork"))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "bounds-p11",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "run.py succeeded without the program's sources")
    check('"metrics"' not in proc.stdout, "run.py printed a result without the program")


def main():
    check_declared_metrics()
    layers = {}
    for workload in TINY_WORKLOADS.values():
        layers[workload.name] = check_workload(workload)
    main_sweep = layers["tiny-main-p13k6"]
    check(main_sweep["sweep.pairs_scanned"] == 24024, "main (13, 6) pair count")
    check(main_sweep["sweep.verify.calls"] == 1 and main_sweep["poly.cij.calls"] == 0,
          "main sweep must not reach the algebra")
    audits = layers["tiny-audit-k6"]
    check(audits["audit.audit_sigma_chain.calls"] == 10 and audits["audit.failed_records"] == 0,
          "audit counts")
    check(audits["poly.cij.calls"] > 0 and audits["field.binomial_mod.calls"] > 0,
          "audit must reach poly and field")
    check(layers["tiny-bounds-p7"]["sets.canonical_pair.calls"] == 0, "bounds must not dedup")
    check_wrong_pins()
    check_outside_checkout()
    print("selfcheck passed")


if __name__ == "__main__":
    main()
