"""Workloads: what each one runs, the pinned references it is checked against.

A job is one workload's whole task, run the way a user runs it. A job is
made of operations (one sweep or one audit); an operation fails on an
exception, an unexpected exit code, a mismatch with its pinned reference or
an unclean audit trace. Failures are collected, never raised, so one bad
operation does not abort the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from time import perf_counter


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class JobResult:
    wall_s: float
    op_s: list[float]
    failures: dict[int, str]  # operation index -> what went wrong
    # one digest per operation: report bytes for sweeps, trace lines for audits
    outputs: list[str]
    counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ReportPin:
    """Expected content of one sweep report."""

    pairs_scanned: int
    extremal: int
    counterexamples: int
    violations: int
    sha256: str


@dataclass(frozen=True)
class SweepOp:
    args: tuple[str, ...]  # `sumsetlab verify` arguments, without --workers/--out
    pin: ReportPin


def _span(recorder, name):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


@dataclass(frozen=True)
class SweepWorkload:
    """Exhaustive sweeps through the `sumsetlab verify` entry point."""

    name: str
    why: str
    ops: tuple[SweepOp, ...]
    workers: int
    seeded = False

    def pool_size(self) -> int:
        """Worker processes a sweep starts; 0 when it runs in the caller."""
        workers = min(self.workers, nproc())
        return workers if workers > 1 else 0

    def inputs(self, seed: int):
        return None  # exhaustive: every pair is scanned, nothing is drawn

    def run_job(self, inputs, workdir: str, recorder=None) -> JobResult:
        from sumsetlab import cli

        workers = min(self.workers, nproc())
        op_s, codes, failures = [], [], {}
        started = perf_counter()
        for i, op in enumerate(self.ops):
            argv = ["verify", *op.args, "--workers", str(workers),
                    "--out", os.path.join(workdir, f"report-{i}.json")]
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()), _span(recorder, "cli.main"):
                    codes.append(cli.main(argv))
            except Exception as exc:  # an operation failure, recorded below
                codes.append(f"{type(exc).__name__}: {exc}")
            op_s.append(perf_counter() - t0)
        wall = perf_counter() - started

        outputs = []
        counts = {"pairs_scanned": 0, "extremal": 0, "report_bytes": 0}
        for i, (op, code) in enumerate(zip(self.ops, codes)):
            path = os.path.join(workdir, f"report-{i}.json")
            outputs.append("")
            if code != 0:
                failures[i] = f"verify {' '.join(op.args)}: exit {code}"
                continue
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
                os.remove(path)
                doc = json.loads(data)
                got = ReportPin(doc["pairs_scanned"], doc["extremal_pair_count"],
                                doc["counterexample_count"], doc["violation_count"],
                                hashlib.sha256(data).hexdigest())
            except (OSError, ValueError, KeyError) as exc:
                failures[i] = f"verify {' '.join(op.args)}: unreadable report: {exc!r}"
                continue
            outputs[i] = got.sha256
            counts["pairs_scanned"] += got.pairs_scanned
            counts["extremal"] += got.extremal
            counts["report_bytes"] += len(data)
            if got != op.pin:
                failures[i] = f"verify {' '.join(op.args)}: report {got} != pinned {op.pin}"
        return JobResult(wall, op_s, failures, outputs, counts)


def extremal_shape(k: int, drop: int) -> tuple[int, ...]:
    """0..k with one element removed: the shapes the sweeps find at 2k-2."""
    return tuple(x for x in range(k + 1) if x != drop)


def restricted_size(elems: tuple[int, ...], p: int) -> int:
    """|A +. A| by brute force, independent of sumsetlab."""
    return len({(x + y) % p for x in elems for y in elems if x != y})


@dataclass(frozen=True)
class AuditWorkload:
    """`audit_sigma_chain` on seeded affine images of the extremal shapes."""

    name: str
    why: str
    k: int
    primes: tuple[int, ...]
    count: int
    records_per_audit: int  # length of a clean trace at this k
    seeded = True

    def pool_size(self) -> int:
        return 0

    def inputs(self, seed: int) -> list[tuple[int, tuple[int, ...]]]:
        # primes and shapes take turns, so every seed has the same mix of
        # costs; the seed draws only the affine maps
        rng = random.Random(seed)
        k = self.k
        pairs = []
        for i in range(self.count):
            p = self.primes[i % len(self.primes)]
            shape = extremal_shape(k, k - 1 - (i // len(self.primes)) % 2)
            lam, mu = rng.randrange(1, p), rng.randrange(p)
            elems = tuple(sorted((lam * x + mu) % p for x in shape))
            if restricted_size(elems, p) != 2 * k - 2:
                raise ValueError(f"generated set {elems} mod {p} is not extremal")
            pairs.append((p, elems))
        return pairs

    def run_job(self, inputs, workdir: str, recorder=None) -> JobResult:
        from sumsetlab import audit
        from sumsetlab.sets import FpSet

        sets = [FpSet.of(p, elems) for p, elems in inputs]  # fresh: no cached masks
        op_s, failures, outputs = [], {}, []
        records = failed_records = 0
        for i, a in enumerate(sets):
            t0 = perf_counter()
            try:
                with _span(recorder, "audit.audit_sigma_chain"):
                    trace = audit.audit_sigma_chain(a, a)
            except Exception as exc:  # an operation failure, recorded below
                trace = f"{type(exc).__name__}: {exc}"
            op_s.append(perf_counter() - t0)
            if isinstance(trace, str):
                failures[i] = f"audit {a}: {trace}"
                outputs.append("")
                continue
            lines = "\n".join(trace.iter_lines()).encode()
            outputs.append(hashlib.sha256(lines).hexdigest())
            records += len(trace.records)
            failed_records += len(trace.failed_records())
            if not (trace.clean and trace.sets_equal and trace.warning is None
                    and len(trace.records) == self.records_per_audit):
                failures[i] = (
                    f"audit {a}: clean={trace.clean} sets_equal={trace.sets_equal} "
                    f"records={len(trace.records)} (pinned {self.records_per_audit})"
                )
        counts = {"audit_records": records, "audit_failed_records": failed_records}
        return JobResult(sum(op_s), op_s, failures, outputs, counts)


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "theorem-p17k7",
            "frontier point: orbit-rep filter and mask scan dominate; no dedup or algebra",
            (
                SweepOp(("main", "-p", "17", "-k", "7"), ReportPin(
                    1458600, 2, 0, 0,
                    "61df3e1755100fc1e1a41726dc28c8c4f547281c9076ded185ac4202da860a9e")),
                SweepOp(("karolyi", "-p", "17", "-k", "7"), ReportPin(
                    1458600, 1, 0, 0,
                    "b48f8e856907e70d7873aee7daf91214b91ec93e85563edb881af3764efecc51")),
            ),
            workers=2,
        ),
        SweepWorkload(
            "boundary-p17k9",
            "p = 2k-1: 853 raw hits dedup to 414 orbits, so canonical dedup, "
            "classification and report writing work; single-process baseline",
            (
                SweepOp(("main", "-p", "17", "-k", "9"), ReportPin(
                    2309450, 414, 399, 0,
                    "69eaf0098c0957374b7723ba598fd75f3080398c6297cc2ebca14b98762bb719")),
            ),
            workers=1,
        ),
        SweepWorkload(
            "bounds-p11",
            "4,190,209 ordered pairs through the sumset kernels, sharded over both "
            "cores; no orbit filter, dedup or hits",
            (
                SweepOp(("bounds", "-p", "11"), ReportPin(
                    4190209, 0, 0, 0,
                    "9c7d6d8d3b0c9cf13f48e6dc8c653f0a2063d4bedb38df5687d6c61ab8943d29")),
            ),
            workers=2,
        ),
        AuditWorkload(
            "audit-k18",
            "100 seeded extremal pairs at k = 18: only the algebra layers work, "
            "no sweep",
            k=18,
            primes=(37, 41, 43),
            count=100,
            records_per_audit=279,
        ),
    )
}

# Same code paths at desk-check size, for the benchmark's self-check.
TINY_WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            "tiny-main-p13k6",
            "main sweep at (13, 6)",
            (
                SweepOp(("main", "-p", "13", "-k", "6"), ReportPin(
                    24024, 2, 0, 0,
                    "b36bddd355928f4be71765d29ffb4f5b654f9774dd8e33573b2a2ca99c50f74a")),
            ),
            workers=2,
        ),
        SweepWorkload(
            "tiny-bounds-p7",
            "bounds sweep at p = 7",
            (
                SweepOp(("bounds", "-p", "7"), ReportPin(
                    16129, 0, 0, 0,
                    "346a495f547282c98f302a077702a847e1bc92dbdd82c8b4078f18b99edcc1fd")),
            ),
            workers=2,
        ),
        AuditWorkload(
            "tiny-audit-k6",
            "audits at k = 6",
            k=6,
            primes=(37, 41, 43),
            count=10,
            records_per_audit=57,
        ),
    )
}
