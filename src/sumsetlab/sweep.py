"""Exhaustive desk-scale sweeps over subsets of Z/pZ.

Three sweeps are provided: the diagonal-equality sweep (every pair of
k-subsets whose restricted sumset has size exactly 2k-2 must satisfy A = B),
the progression-structure sweep at size 2k-3, and the classical lower-bound
sweep over all nonempty pairs. The first two share one bitmask engine: A
runs over affine-orbit representatives (every k-subset when unpruned), dealt
to shards by stride, and a depth-first walk over B in increasing order cuts
each branch whose restricted sumset outgrows the target. Each shard
deduplicates its hits on bitmasks, up to common affine maps and swap, and
returns one canonical pair per orbit; the parent takes the union, so reports
are byte-identical for any worker count.
"""

from __future__ import annotations

import itertools
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dataclass_field
from math import comb
from typing import Iterator

from .audit import AuditTrace, audit_sigma_chain
from .errors import CeilingExceeded, InvalidArgument, KTooLarge
from .field import Prime, as_prime
from .sets import (
    ApWitness,
    FpSet,
    canonical_pair,
    classify_pair,
    is_arithmetic_progression,
    restricted_sumset,
    _mask_elements,
    _rotate,
)

__all__ = [
    "PairRecord",
    "SweepReport",
    "enumerate_k_subsets",
    "verify_main_theorem",
    "verify_karolyi_inverse",
    "verify_bounds",
    "audit_all_extremal",
    "make_pair_record",
    "report_to_json",
    "DEFAULT_BOUNDS_CEILING",
    "DEFAULT_THEOREM_CEILING",
]

DEFAULT_BOUNDS_CEILING = 13
DEFAULT_THEOREM_CEILING = 19


def _unrank_combination(n: int, k: int, idx: int) -> list[int]:
    # lexicographic unranking in the combinatorial number system
    combo = []
    x = 0
    for pos in range(k):
        v = x
        while True:
            cnt = comb(n - 1 - v, k - pos - 1)
            if idx < cnt:
                break
            idx -= cnt
            v += 1
        combo.append(v)
        x = v + 1
    return combo


def enumerate_k_subsets(p: Prime | int, k: int, start: int = 0) -> Iterator[FpSet]:
    """All C(p, k) subsets in lexicographic order, restartable from an index."""
    prime = as_prime(p)
    n = prime.value
    if k < 1:
        raise InvalidArgument(f"subset size must be positive, got {k}")
    if k > n:
        raise KTooLarge(f"no {k}-subsets of a {n}-element field")
    if start < 0:
        raise InvalidArgument(f"start index must be nonnegative, got {start}")
    if start >= comb(n, k):
        return
    cur = _unrank_combination(n, k, start)
    while True:
        yield FpSet(prime, tuple(cur))
        i = k - 1
        while i >= 0 and cur[i] == n - k + i:
            i -= 1
        if i < 0:
            return
        cur[i] += 1
        for t in range(i + 1, k):
            cur[t] = cur[t - 1] + 1


@dataclass(frozen=True)
class PairRecord:
    """One stored pair, canonical under the affine action."""

    a: FpSet
    b: FpSet
    k: int
    restricted_size: int
    labels: tuple[str, ...]
    sets_equal: bool
    ap_witness: ApWitness | None

    def to_dict(self) -> dict:
        witness = None
        if self.ap_witness is not None:
            witness = {
                "start": self.ap_witness.start,
                "diff": self.ap_witness.diff,
                "length": self.ap_witness.length,
            }
        return {
            "a": self.a.literal(),
            "b": self.b.literal(),
            "k": self.k,
            "restricted_size": self.restricted_size,
            "labels": list(self.labels),
            "sets_equal": self.sets_equal,
            "ap_witness": witness,
        }


def make_pair_record(a: FpSet, b: FpSet) -> PairRecord:
    """Classify a pair and freeze the result; reproducible from the sets alone."""
    cls = classify_pair(a, b)
    return PairRecord(
        a=a,
        b=b,
        k=len(a),
        restricted_size=cls.restricted_size,
        labels=tuple(sorted(cls.labels)),
        sets_equal=a == b,
        ap_witness=is_arithmetic_progression(a),
    )


@dataclass
class SweepReport:
    """Everything one sweep produced; every field is deterministic."""

    kind: str
    p: int
    k: int | None
    target_size: int | None
    pruned: bool
    pairs_scanned: int
    extremal_pairs: list[PairRecord] = dataclass_field(default_factory=list)
    counterexamples: list[PairRecord] = dataclass_field(default_factory=list)
    violations: list[dict] = dataclass_field(default_factory=list)
    hypothesis_flags: dict = dataclass_field(default_factory=dict)
    expectation_checked: bool = True

    @property
    def extremal_count(self) -> int:
        return len(self.extremal_pairs)

    @property
    def failure_count(self) -> int:
        return len(self.counterexamples) + len(self.violations)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0 or not self.expectation_checked


def report_to_json(report: SweepReport) -> str:
    """Stable machine-readable document; identical sweeps diff clean."""
    doc = {
        "kind": report.kind,
        "p": report.p,
        "k": report.k,
        "target_size": report.target_size,
        "pruned": report.pruned,
        "pairs_scanned": report.pairs_scanned,
        "hypothesis_flags": {k: report.hypothesis_flags[k] for k in sorted(report.hypothesis_flags)},
        "expectation_checked": report.expectation_checked,
        "extremal_pair_count": len(report.extremal_pairs),
        "extremal_pairs": [r.to_dict() for r in report.extremal_pairs],
        "counterexample_count": len(report.counterexamples),
        "counterexamples": [r.to_dict() for r in report.counterexamples],
        "violation_count": len(report.violations),
        "violations": report.violations,
    }
    return json.dumps(doc, indent=2) + "\n"


def _pool_size(workers: int, tasks: int) -> int:
    # a forking pool starts every worker up front: clamp to CPUs and tasks
    if workers < 1:
        raise InvalidArgument(f"workers must be at least 1, got {workers}")
    return max(1, min(workers, os.cpu_count() or 1, tasks))


def _triangle_ranges(total: int, shards: int) -> list[tuple[int, int]]:
    # balance contiguous outer ranges by the triangular inner-loop weight;
    # _pool_size keeps 1 <= shards <= total
    weights = [total - i for i in range(total)]
    goal = sum(weights) / shards
    ranges = []
    lo = 0
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if acc >= goal and len(ranges) < shards - 1:
            ranges.append((lo, i + 1))
            lo = i + 1
            acc = 0.0
    ranges.append((lo, total))
    return ranges


def _is_orbit_rep(mask: int, elems: tuple[int, ...], p: int, full: int) -> bool:
    # A (containing 0) is the lex-least image lam*A+mu of its orbit; equal-size
    # X <lex Y iff the lowest bit of X^Y is in X, and only images with 0 compete
    for lam in range(1, p):
        dilated = [lam * e % p for e in elems]
        image = sum(1 << t for t in dilated)
        for t in dilated:
            shifted = _rotate(image, -t % p, p, full)
            diff = shifted ^ mask
            if diff & -diff & shifted:
                return False
    return True


def _canonical_masks(a_mask: int, b_mask: int, p: int, full: int) -> tuple[int, int]:
    # lex-least common image x -> lam*x - t (t in lam*X) of the pair, over both
    # orders (X, Y), by the _is_orbit_rep rule; each lam dilates A and B once,
    # and Y's image is shifted only when X's image ties or beats the best so far
    best_x = best_y = full + 1  # above every candidate: the first one wins
    a_elems = _mask_elements(a_mask)
    b_elems = _mask_elements(b_mask)
    for lam in range(1, p):
        a_dil = [lam * e % p for e in a_elems]
        b_dil = [lam * e % p for e in b_elems]
        a_img = sum(1 << d for d in a_dil)
        b_img = sum(1 << d for d in b_dil)
        for x_dil, x_img, y_img in ((a_dil, a_img, b_img), (b_dil, b_img, a_img)):
            for t in x_dil:
                # x -> x - t is a right rotation by t
                x = (x_img >> t | x_img << (p - t)) & full
                diff = x ^ best_x
                if diff & -diff & best_x:
                    continue
                y = (y_img >> t | y_img << (p - t)) & full
                if diff:
                    best_x, best_y = x, y
                else:
                    diff = y ^ best_y
                    if diff & -diff & y:
                        best_y = y
    return best_x, best_y


def _extremal_bs(a_mask: int, p: int, k: int, target: int, full: int) -> list[int]:
    # every k-subset B with |A+.B| = target, walking B in increasing order;
    # A+.B only grows with B (so overfull branches are cut) and never passes p
    if target > p:
        return []
    grow = [_rotate(a_mask & ~(1 << b), b, p, full) for b in range(p)]
    hits = []

    def extend(acc: int, b_mask: int, lo: int, left: int) -> None:
        for b in range(lo, p - left + 1):
            acc_b = acc | grow[b]
            size = acc_b.bit_count()
            if size > target:
                continue
            if left > 1:
                extend(acc_b, b_mask | 1 << b, b + 1, left - 1)
            elif size == target:
                hits.append(b_mask | 1 << b)

    extend(0, 0, 0, k)
    return hits


def _outer_masks(p: int, k: int, prune: bool, shard: int, shards: int) -> Iterator[int]:
    # one shard's strided share of the outer sets A: orbit representatives
    # (which all contain 0) when pruning, every k-subset otherwise
    full = (1 << p) - 1
    if prune:
        outer = ((0, *rest) for rest in itertools.combinations(range(1, p), k - 1))
    else:
        outer = itertools.combinations(range(p), k)
    for elems in itertools.islice(outer, shard, None, shards):
        mask = sum(1 << e for e in elems)
        if not prune or _is_orbit_rep(mask, elems, p, full):
            yield mask


def _extremal_shard(args) -> tuple[int, set[tuple[int, int]]]:
    # how many outer sets the shard walked, and the canonical masks of its hits
    p, k, target, prune, shard, shards = args
    full = (1 << p) - 1
    walked = 0
    pairs = set()
    for a_mask in _outer_masks(p, k, prune, shard, shards):
        walked += 1
        for b_mask in _extremal_bs(a_mask, p, k, target, full):
            pairs.add(_canonical_masks(a_mask, b_mask, p, full))
    return walked, pairs


def _run_shards(worker, arg_list):
    if len(arg_list) <= 1:
        return [worker(args) for args in arg_list]
    with ProcessPoolExecutor(max_workers=len(arg_list)) as pool:
        return list(pool.map(worker, arg_list))


def _scan_extremal_pairs(
    prime: Prime, k: int, target: int, prune: bool, workers: int
) -> tuple[int, list[PairRecord]]:
    p = prime.value
    outer = comb(p - 1, k - 1) if prune else comb(p, k)
    shards = _pool_size(workers, outer)
    arg_list = [(p, k, target, prune, s, shards) for s in range(shards)]
    results = _run_shards(_extremal_shard, arg_list)

    # logical count: every walked A is paired with all C(p, k) sets B
    scanned = sum(r[0] for r in results) * comb(p, k)
    orbits = sorted(
        (_mask_elements(a_mask), _mask_elements(b_mask))
        for a_mask, b_mask in set().union(*(r[1] for r in results))
    )
    records = [make_pair_record(FpSet(prime, a), FpSet(prime, b)) for a, b in orbits]
    return scanned, records


def _check_ceiling(prime: Prime, ceiling: int) -> None:
    if ceiling < 2:
        raise InvalidArgument(f"ceiling must be at least 2, got {ceiling}")
    if prime.value > ceiling:
        raise CeilingExceeded(
            f"p = {prime.value} above the exhaustive ceiling {ceiling}"
        )


def _theorem_target(
    prime: Prime, k: int, target: int | None, default: int, ceiling: int
) -> int:
    # validate a theorem sweep's arguments and resolve its target size; the
    # size 0 is attainable (k = 1, A = B) and is main's default there
    if k < 1:
        raise InvalidArgument(f"subset size must be positive, got {k}")
    if k > prime.value:
        raise KTooLarge(f"no {k}-subsets of a {prime.value}-element field")
    if target is not None and not 0 <= target <= prime.value:
        raise InvalidArgument(f"target size must lie in 0..{prime.value}, got {target}")
    _check_ceiling(prime, ceiling)
    return default if target is None else target


def verify_main_theorem(
    p: Prime | int,
    k: int,
    *,
    workers: int = 1,
    prune: bool = True,
    target: int | None = None,
    ceiling: int = DEFAULT_THEOREM_CEILING,
) -> SweepReport:
    """Scan every pair of k-subsets attaining restricted size 2k-2.

    A counterexample is an attaining pair with A != B; for k >= 5 and
    p > 2k-1 the counterexample list must come back empty. At p = 2k-1
    attaining pairs with A != B do exist (e.g. p=11, k=6), so the report
    records them without asserting emptiness; both modulus flags are kept
    so the boundary is visible. Found pairs are stored canonically
    (deduplicated up to simultaneous affine maps and swap), so pruned and
    unpruned scans produce identical lists.
    """
    prime = as_prime(p)
    target = _theorem_target(prime, k, target, 2 * k - 2, ceiling)
    scanned, records = _scan_extremal_pairs(prime, k, target, prune, workers)
    flags = {
        "k_ge_5": k >= 5,
        "p_gt_2k_minus_2": prime.value > 2 * k - 2,
        "p_gt_2k_minus_1": prime.value > 2 * k - 1,
    }
    return SweepReport(
        kind="main",
        p=prime.value,
        k=k,
        target_size=target,
        pruned=prune,
        pairs_scanned=scanned,
        extremal_pairs=records,
        counterexamples=[r for r in records if not r.sets_equal],
        hypothesis_flags=flags,
        expectation_checked=flags["k_ge_5"] and flags["p_gt_2k_minus_1"],
    )


def _ap_sets_of_size(prime: Prime, k: int) -> list[FpSet]:
    p = prime.value
    seen = {
        tuple(sorted((s + t * d) % p for t in range(k)))
        for s in range(p)
        for d in range(1, p)
    }
    return [FpSet(prime, elems) for elems in sorted(seen)]


def verify_karolyi_inverse(
    p: Prime | int,
    k: int,
    *,
    workers: int = 1,
    prune: bool = True,
    target: int | None = None,
    ceiling: int = DEFAULT_THEOREM_CEILING,
) -> SweepReport:
    """Scan pairs attaining restricted size 2k-3 and check both directions.

    Forward: every attaining pair must be a diagonal progression (A = B and
    A an arithmetic progression) when k >= 5 and p > 2k-3. Converse: every
    size-k progression A must attain |A+.A| = min(p, 2k-3). Exceptions in
    either direction land in the counterexample list.
    """
    prime = as_prime(p)
    target = _theorem_target(prime, k, target, 2 * k - 3, ceiling)
    scanned, records = _scan_extremal_pairs(prime, k, target, prune, workers)
    exceptions = [
        r for r in records if not (r.sets_equal and r.ap_witness is not None)
    ]
    required = min(prime.value, 2 * k - 3)
    converse = {}
    for ap_set in _ap_sets_of_size(prime, k):
        if len(restricted_sumset(ap_set, ap_set)) != required:
            # a diagonal pair: swapping it changes nothing
            ca, cb = canonical_pair(ap_set, ap_set).sets
            converse[(ca.elements, cb.elements)] = (ca, cb)
    exceptions.extend(make_pair_record(a, b) for _, (a, b) in sorted(converse.items()))
    flags = {
        "k_ge_5": k >= 5,
        "p_gt_2k_minus_3": prime.value > 2 * k - 3,
    }
    return SweepReport(
        kind="karolyi",
        p=prime.value,
        k=k,
        target_size=target,
        pruned=prune,
        pairs_scanned=scanned,
        extremal_pairs=records,
        counterexamples=exceptions,
        hypothesis_flags=flags,
        expectation_checked=flags["k_ge_5"] and flags["p_gt_2k_minus_3"],
    )


def _bounds_shard(args) -> tuple[int, list[tuple[int, int, str, int, int]]]:
    p, lo, hi = args
    full = (1 << p) - 1
    violations = []
    scanned = 0
    for i in range(lo, hi):
        a_mask = i + 1
        a_elems = _mask_elements(a_mask)
        ka = len(a_elems)
        for b_mask in range(a_mask, full + 1):
            scanned += 1 if b_mask == a_mask else 2
            kb = b_mask.bit_count()
            need = ka + kb - 1
            if need > p:
                need = p
            acc = 0
            for e in a_elems:
                acc |= _rotate(b_mask, e, p, full)
                if acc.bit_count() >= need:
                    break
            size = acc.bit_count()
            if size < need:
                violations.append((a_mask, b_mask, "sumset", size, need))
            need = ka + kb - 3
            if need > p:
                need = p
            if need > 0:
                acc = 0
                for e in a_elems:
                    acc |= _rotate(b_mask & ~(1 << e), e, p, full)
                    if acc.bit_count() >= need:
                        break
                size = acc.bit_count()
                if size < need:
                    violations.append((a_mask, b_mask, "restricted", size, need))
    return scanned, violations


def verify_bounds(
    p: Prime | int, *, workers: int = 1, ceiling: int = DEFAULT_BOUNDS_CEILING
) -> SweepReport:
    """Check the classical lower bounds over all nonempty pairs of subsets.

    For every (A, B): |A+B| >= min(p, |A|+|B|-1) and the restricted sumset
    size is >= min(p, |A|+|B|-3); the diagonal pairs of the second check
    cover the restricted bound min(p, 2|A|-3) for A = B. Zero violations
    expected at any prime; guarded by an exhaustive ceiling.
    """
    prime = as_prime(p)
    _check_ceiling(prime, ceiling)
    total = (1 << prime.value) - 1
    ranges = _triangle_ranges(total, _pool_size(workers, total))
    arg_list = [(prime.value, lo, hi) for lo, hi in ranges]
    results = _run_shards(_bounds_shard, arg_list)
    scanned = sum(r[0] for r in results)
    violations = []
    for _, shard_violations in results:
        for a_mask, b_mask, bound, size, need in shard_violations:
            violations.append(
                {
                    "a": FpSet.from_mask(prime, a_mask).literal(),
                    "b": FpSet.from_mask(prime, b_mask).literal(),
                    "bound": bound,
                    "size": size,
                    "required": need,
                }
            )
    violations.sort(key=lambda v: (v["a"], v["b"], v["bound"]))
    return SweepReport(
        kind="bounds",
        p=prime.value,
        k=None,
        target_size=None,
        pruned=False,
        pairs_scanned=scanned,
        violations=violations,
        hypothesis_flags={},
        expectation_checked=True,
    )


def audit_all_extremal(
    p: Prime | int, k: int, *, workers: int = 1, prune: bool = True
) -> Iterator[AuditTrace]:
    """Replay the coefficient-identity chain on every extremal pair found.

    Pairs come from the diagonal-equality sweep in canonical sorted order;
    each trace must be clean when k >= 5 and p > 2k-1.
    """
    report = verify_main_theorem(p, k, workers=workers, prune=prune)
    for record in report.extremal_pairs:
        yield audit_sigma_chain(record.a, record.b)
