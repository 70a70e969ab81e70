"""sumsetlab benchmark: time to a verified verdict, end to end and per layer.

Run from the repository root:

    python3 benchmarks/run.py --workload theorem-p17k7 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 1

One run repeats the workload's job for about ``--seconds`` seconds in this
process and checks every output against its pinned reference. With
``--trace 0`` it reports the end-to-end metrics (tracing off); with
``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics. The last line of standard output is the result object;
the line before it holds the seed, the machine facts and each metric's
median and quartiles. See DESIGN.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from spans import LAYERS, WRAP_POINTS, Recorder  # noqa: E402
from workloads import WORKLOADS, nproc  # noqa: E402

SETUP_SAMPLES = 9
SETUP_CODE = "import sumsetlab, sumsetlab.cli"

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
}

SPAN_NAMES = sorted(
    {"cli.main", "audit.audit_sigma_chain"}
    | {name for names in WRAP_POINTS.values() for name in names.values()}
)
# count metrics: must repeat exactly across traced jobs with the same seed
COUNT_UNITS = {
    **{f"{name}.calls": "count" for name in SPAN_NAMES},
    "sweep.pairs_scanned": "count",
    "sweep.dedup_ratio": "ratio",
    "cli.report_bytes": "bytes",
    "audit.records": "count",
    "audit.failed_records": "count",
}
TIME_UNITS = {
    **{f"{name}.s": "s" for name in SPAN_NAMES},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "sweep.cpu_s": "s",
    "sweep.parallel_util": "ratio",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
}
LAYER_UNITS = {**COUNT_UNITS, **TIME_UNITS, "trace.overhead_s": "s"}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def p90(values: list[float]) -> float:
    """Upper percentile of per-operation times; with 100 audits, ten lie beyond it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = _cache_sizes()
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "cpu_model": model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
    }


def setup_samples() -> list[float]:
    """Seconds for a fresh interpreter to import sumsetlab and its CLI."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode caches
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        samples.append(perf_counter() - t0)
    return samples


def peak_rss_mb(pool_size: int) -> float:
    """Peak resident set of the process tree, as a sum of per-process peaks.

    This process's own peak plus, for each pool worker, the largest peak of
    any worker. Workers are forked, so the figure counts pages they share
    with this process; it bounds the tree's concurrent peak from above.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool_size * worker) / 1024


def layer_metrics(job, summary: dict, pool_size: int) -> dict:
    calls, busy = summary["calls"], summary["busy_s"]
    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = busy.get(name, 0.0)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = summary["self_s"][layer]
    counts = job.counts
    m["sweep.pairs_scanned"] = counts.get("pairs_scanned", 0)
    # every raw hit is canonicalised in both orders
    raw_hits = calls.get("sets.canonical_pair", 0) / 2
    m["sweep.dedup_ratio"] = counts.get("extremal", 0) / raw_hits if raw_hits else 0.0
    m["cli.report_bytes"] = counts.get("report_bytes", 0)
    m["audit.records"] = counts.get("audit_records", 0)
    m["audit.failed_records"] = counts.get("audit_failed_records", 0)
    verify_s = busy.get("sweep.verify", 0.0)
    cpu_s = summary["cpu_s"].get("sweep.verify", 0.0)
    m["sweep.cpu_s"] = cpu_s
    m["sweep.parallel_util"] = cpu_s / (verify_s * max(pool_size, 1)) if verify_s else 0.0
    m["trace.wall_s"] = job.wall_s
    m["trace.self_sum_s"] = sum(summary["self_s"].values())
    return m


def fits(started: float, seconds: int, done: int) -> bool:
    """Whether one more step, as long as the average so far, ends in time."""
    elapsed = perf_counter() - started
    return elapsed + elapsed / done <= seconds


class Run:
    """One measured run of one workload."""

    def __init__(self, workload, seed: int, workdir: str):
        self.workload = workload
        self.inputs = workload.inputs(seed)
        self.workdir = workdir
        self.jobs = []  # every job, untraced and traced, in run order
        self.failures: list[str] = []
        self.failed = 0
        self.attempted = 0

    def job(self, recorder=None):
        if recorder is None:
            job = self.workload.run_job(self.inputs, self.workdir)
        else:
            with recorder.installed():
                job = self.workload.run_job(self.inputs, self.workdir, recorder)
        # outputs must be byte-identical across jobs, traced or not
        first = self.jobs[0].outputs if self.jobs else job.outputs
        for i, (got, want) in enumerate(zip(job.outputs, first)):
            if got != want and i not in job.failures:
                job.failures[i] = f"operation {i}: output differs from the first job's"
        self.attempted += len(job.op_s)
        self.failed += len(job.failures)
        self.failures.extend(job.failures.values())
        self.jobs.append(job)
        return job

    def untraced(self, seconds: int) -> tuple[dict, dict]:
        started = perf_counter()
        self.job()
        while fits(started, seconds, len(self.jobs)):
            self.job()
        rss = peak_rss_mb(self.workload.pool_size())
        setup = setup_samples()
        walls = [j.wall_s for j in self.jobs]
        ops_ms = [t * 1000 for j in self.jobs for t in j.op_s]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
            "success_rate": 1 - self.failed / self.attempted,
            "op_ms_p50": statistics.median(ops_ms),
            "op_ms_p90": p90(ops_ms),
        }
        spread = {
            "wall_s": quartiles(walls),
            "setup_s": quartiles(setup),
            "op_ms": quartiles(ops_ms),
        }
        return values, spread

    def traced(self, seconds: int) -> tuple[dict, dict]:
        started = perf_counter()
        plain, per_job = [], []
        while not per_job or fits(started, seconds, len(per_job)):
            plain.append(self.job())
            recorder = Recorder()
            job = self.job(recorder)
            per_job.append(layer_metrics(job, recorder.summary(), self.workload.pool_size()))
        for metrics in per_job[1:]:
            for name in COUNT_UNITS:
                if metrics[name] != per_job[0][name]:
                    self.failures.append(f"{name} differs across traced jobs")
                    self.failed += 1
        values = {name: per_job[0][name] for name in COUNT_UNITS}
        spread = {}
        for name in TIME_UNITS:
            samples = [m[name] for m in per_job]
            values[name] = statistics.median(samples)
            spread[name] = quartiles(samples)
        plain_wall = statistics.median(j.wall_s for j in plain)
        values["trace.overhead_s"] = values["trace.wall_s"] - plain_wall
        spread["untraced_wall_s"] = quartiles([j.wall_s for j in plain])
        return values, spread


def measure(workload, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (detail, result) as printed."""
    load_before = os.getloadavg()
    (ROOT / ".benchwork").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".benchwork")
    try:
        run = Run(workload, seed, workdir)
        if trace:
            values, spread = run.traced(seconds)
            units = LAYER_UNITS
        else:
            values, spread = run.untraced(seconds)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "inputs": "seeded" if workload.seeded else "exhaustive sweep; the seed is not used",
        "trace": int(trace),
        "jobs": len(run.jobs),
        "pool_workers": workload.pool_size(),
        "machine": machine_facts(),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "spread": spread,
        "failures": run.failures[:20],
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "sumsetlab" / "__init__.py").is_file():
        print(f"error: no sumsetlab sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        # each workload in a fresh process, so peak memory is its own
        worst = 0
        for name in WORKLOADS:
            print(f"# workload {name}", flush=True)
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            worst = max(worst, subprocess.run(argv, cwd=ROOT).returncode)
        return worst

    detail, result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
