"""Exhaustive desk-scale sweeps over subsets of Z/pZ.

Three sweeps are provided: the diagonal-equality sweep (every pair of
k-subsets whose restricted sumset has size exactly 2k-2 must satisfy A = B),
the progression-structure sweep at size 2k-3, and the classical lower-bound
sweep over all nonempty pairs. All three share one bitmask engine, and one
kernel in it scans the maps x -> lam*x + mu of a set onto a mask, given the
set's images lam*X packed in one int, one doubled image per lane. As that
mask starts with a run 0..r0-1, only the offsets that start an equally long
run of an image are compared, so most images are settled by a few shifts
of that int, every lane at once:

- the outer set A runs over affine-orbit representatives, grown depth-first
  from {0} by orderly generation (a representative stays one when its
  largest element is dropped, so non-representatives are pruned with their
  subtrees). A child's images are its parent's ORed with one precomputed
  row, and the kernel run on A onto itself is the rep test; the maps it
  finds are A's stabiliser. One walk meets every rep of every size once: the
  theorem sweeps keep the reps of size k, the bounds sweep all of them;
- for each A the theorem sweeps walk B inside the complement of A+.B. By
  the complement step of Vosper's theorem, x misses A+.B iff B avoids every
  b with x in (A minus b) + b, so the p - target missed residues are chosen
  first, with the b that avoid them, and the hits are the k-subsets of
  those that cover the rest. The bounds sweep walks B in increasing order,
  checks both bounds at every node and cuts a branch once |B| = |A| (both
  bounds are symmetric in A and B, so a larger B is met from the other
  side, at the representative of its own orbit) or once both sums are
  large enough that no superset below the node can break a bound;
- each theorem hit (A, B) is reduced against the representative A by the
  kernel run on B onto A: it is dropped when an image of B is lex-below A,
  since that orbit is found again from the representative of B, and
  otherwise kept as one canonical pair, whose first set is A. The shard
  classifies each pair it keeps on masks and returns the fields of its
  record. A bounds violation (A, B) is instead expanded in the parent to
  its image under every common affine map, which keeps both bounds, as the
  bounds report lists every pair.

All three sweeps deal work by one rule: their units (the rep prefixes of
size k-3 for the theorem sweeps, the reps for the bounds sweep) go by stride
to up to 16 shards per process. The processes are forked and read the shard
indices from one pipe, so a free process takes the next shard; each sends
its results back through a pipe of its own. A process whose shard fails
empties the index pipe first, so the others stop after the shard they run.
Each canonical pair is kept by the one shard that walks its first set, so
the parent only merges and sorts the shards' results, and reports are
byte-identical for any worker count.
The report's text for each pair record is built once, from a fixed
template, also when the pair is listed twice. A theorem target above p
needs no shard: no pair reaches it, and the reps are counted in closed
form.
"""

from __future__ import annotations

import functools
import json
import os
from bisect import bisect_right
from dataclasses import dataclass, field as dataclass_field
from json.encoder import encode_basestring_ascii as _json_string
from math import comb, gcd
from typing import Iterator

from .audit import AuditTrace, audit_sigma_chain
from .errors import CeilingExceeded, InvalidArgument, KTooLarge, ShardLost
from .field import Prime, as_prime
from .sets import (
    ApWitness,
    FpSet,
    canonical_pair,
    classify_pair,
    is_arithmetic_progression,
    restricted_sumset,
    _classify_masks,
    _least_progression,
    _mask_elements,
    _progressions,
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

DEFAULT_BOUNDS_CEILING = 17
DEFAULT_THEOREM_CEILING = 19

# outer sets are dealt to shards by their first k - _ROOT_LAG elements: orbit
# reps of size k share long initial runs, so shallower prefixes are few and
# carry very uneven work
_ROOT_LAG = 3

# every sweep deals its units to this many shards per process; a free
# process takes the next shard, so a CPU slowed by other load holds up only
# the shards it runs, not a fixed half of the sweep
_SHARDS_PER_PROCESS = 16


def _unrank_combination(n: int, k: int, idx: int) -> list[int]:
    # lexicographic unranking in the combinatorial number system. With r
    # elements still to follow, sum_{u=x..v} C(n-1-u, r) combinations go
    # on with an element in x..v, which is C(n-x, r+1) - C(n-1-v, r+1) (the
    # hockey stick), so each element is found by bisection on v
    combo = []
    x = 0
    for r in range(k - 1, -1, -1):
        total = comb(n - x, r + 1)
        v = x + bisect_right(range(x, n - r), idx - total, key=lambda u: -comb(n - 1 - u, r + 1))
        idx -= total - comb(n - v, r + 1)
        combo.append(v)
        x = v + 1
    return combo


def _check_subset_size(n: int, k: int) -> None:
    if k < 1:
        raise InvalidArgument(f"subset size must be positive, got {k}")
    if k > n:
        raise KTooLarge(f"no {k}-subsets of a {n}-element field")


def enumerate_k_subsets(p: Prime | int, k: int, start: int = 0) -> Iterator[FpSet]:
    """All C(p, k) subsets in lexicographic order, restartable from an index."""
    prime = as_prime(p)
    n = prime.value
    _check_subset_size(n, k)
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
    pairs_scanned: int
    extremal_pairs: list[PairRecord] = dataclass_field(default_factory=list)
    counterexamples: list[PairRecord] = dataclass_field(default_factory=list)
    violations: list[dict] = dataclass_field(default_factory=list)
    hypothesis_flags: dict = dataclass_field(default_factory=dict)
    expectation_checked: bool = True

    @property
    def pruned(self) -> bool:
        # the report lists one pair per orbit; bounds lists every violating pair
        return self.kind != "bounds"

    @property
    def extremal_count(self) -> int:
        return len(self.extremal_pairs)

    @property
    def failure_count(self) -> int:
        return len(self.counterexamples) + len(self.violations)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0 or not self.expectation_checked


# one pair record as json.dumps(record.to_dict(), indent=2) writes it inside
# a report's pair list
_RECORD_JSON = """    {
      "a": %s,
      "b": %s,
      "k": %d,
      "restricted_size": %d,
      "labels": %s,
      "sets_equal": %s,
      "ap_witness": %s
    }"""
_WITNESS_JSON = """{
        "start": %d,
        "diff": %d,
        "length": %d
      }"""


def _json_list(items: list[str], indent: str) -> str:
    # a list as json.dumps(indent=2) writes it, its items written already
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _record_json(r: PairRecord) -> str:
    w = r.ap_witness
    return _RECORD_JSON % (
        _json_string(r.a.literal()),
        _json_string(r.b.literal()),
        r.k,
        r.restricted_size,
        _json_list(["        " + _json_string(label) for label in r.labels], "      "),
        "true" if r.sets_equal else "false",
        "null" if w is None else _WITNESS_JSON % (w.start, w.diff, w.length),
    )


def report_to_json(report: SweepReport) -> str:
    """Stable machine-readable document; identical sweeps diff clean.

    The text is json.dumps(doc, indent=2) of the report's fields. Only the
    header goes through json.dumps, as its encoder runs in pure Python
    whenever it indents; each pair record is written once from a fixed
    template, also when it is listed twice.
    """
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
        "extremal_pairs": [],
        "counterexample_count": len(report.counterexamples),
        "counterexamples": [],
        "violation_count": len(report.violations),
        "violations": report.violations,
    }
    text = json.dumps(doc, indent=2)
    written = {}
    for key, records in (
        ("extremal_pairs", report.extremal_pairs),
        ("counterexamples", report.counterexamples),
    ):
        items = []
        for r in records:
            if id(r) not in written:
                written[id(r)] = _record_json(r)
            items.append(written[id(r)])
        # only a top-level key starts a line after two spaces, as no
        # encoded string holds a newline
        text = text.replace(f'\n  "{key}": []', f'\n  "{key}": ' + _json_list(items, "  "), 1)
    return text + "\n"


def _pool_size(workers: int, tasks: int) -> int:
    # the processes a sweep forks: no more than its tasks and the CPUs this
    # process may run on (the host's count where the platform cannot say),
    # and one, in-process, where the platform cannot fork
    if workers < 1:
        raise InvalidArgument(f"workers must be at least 1, got {workers}")
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(workers, cpus, tasks))


@functools.cache
def _units(n: int) -> tuple[int, ...]:
    # the multipliers lam for which x -> lam*x + mu permutes Z/nZ: every
    # nonzero residue when n is prime
    return tuple(lam for lam in range(1, n) if gcd(lam, n) == 1)


def _orbit_count(p: int, k: int) -> int:
    # the orbits of k-subsets under x -> lam*x + mu at a prime, by Burnside:
    # the identity fixes all C(p, k) sets, a translation (a p-cycle) only
    # {} and F, and a map with lam != 1 (one fixed point, (p-1)/o cycles of
    # length o = ord(lam)) the unions of k // o cycles when k is 0 or 1 mod o
    fixed = comb(p, k) + (p - 1) * (k in (0, p))
    for lam in range(2, p):
        o, x = 1, lam
        while x != 1:
            x = x * lam % p
            o += 1
        if k % o < 2:
            fixed += p * comb((p - 1) // o, k // o)
    return fixed // (p * (p - 1))


@functools.cache
def _dilations(p: int) -> tuple[int, ...]:
    # row e: lam*e for every multiplier lam of _units(p), one lane each.
    # Lane i is 2p bits wide, starts at bit 2p*i and holds its residue r
    # twice, at bits r and r + p, so in the sum of a set's rows each lane
    # holds one image lam*X doubled, and lam*X translated by -t is that
    # lane shifted right by t
    return tuple(
        sum((1 << p | 1) << 2 * p * i + lam * e % p for i, lam in enumerate(_units(p)))
        for e in range(p)
    )


@functools.cache
def _lane_lows(p: int) -> int:
    # the low p bits of every lane: the offsets t = 0..p-1 of each image
    return sum(((1 << p) - 1) << 2 * p * i for i in range(len(_units(p))))


def _images(mask: int, p: int) -> int:
    # the images lam*X of a set in the lanes of _dilations(p): the rows of
    # distinct elements share no bit, so their sum is their OR
    rows = _dilations(p)
    return sum(rows[e] for e in _mask_elements(mask))


def _lane_turn(images: int, lane: int, mu: int, p: int, full: int) -> int:
    # the image in the given lane turned by mu, lam*X + mu, for mu in
    # 0..p-1: the p bits of the doubled lane from bit p - mu
    return images >> 2 * p * lane + p - mu & full


def _maps_onto(images: int, ref: int, p: int, full: int) -> list[tuple[int, int]] | None:
    # the maps x -> lam*x + mu sending a set onto the mask ref, given the
    # set's lanes of images lam*X (see _dilations); None when some image is
    # lex-below ref. Equal-size X <lex Y iff the lowest bit of X^Y is in X,
    # and only images with 0 compete (so a set without 0 is never a rep).
    # With ref the set's own mask this is the orbit-rep test, and the maps
    # it returns, in the order of _units(p), are the stabiliser.
    #
    # ref starts with the run 0..r0-1 and lacks r0. An image translated by
    # -t that misses some bit below r0 sorts above ref, so only the offsets
    # t starting a run of r0 elements are compared: the AND of the lanes
    # shifted right by 0..r0-1 (built by doubling the run length), at the
    # low p bits of each lane, where a run up to r0 stays in its lane. Such
    # a t with t + r0 in the image as well sorts below ref; one test covers
    # every lane. At a prime at most one offset per multiplier can match a
    # ref other than the whole field (r0 = p, where every offset matches
    # and none is below), so few start bits are left to compare.
    r0 = ((ref + 1) & ~ref).bit_length() - 1
    starts, run = images, 1
    while run < r0:
        step = min(run, r0 - run)
        starts &= starts >> step
        run += step
    starts &= _lane_lows(p)
    if r0 < p and starts & images >> r0:
        return None
    maps = []
    units = _units(p)
    while starts:
        low = starts & -starts
        starts ^= low
        at = low.bit_length() - 1
        y = images >> at & full
        diff = y ^ ref
        if not diff:
            lane, t = divmod(at, 2 * p)
            maps.append((units[lane], -t % p))
        elif diff & -diff & y:
            return None
    return maps


def _outer_sets(
    root: int, size: int, p: int, k: int, images: int | None = None
) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    # every orbit rep grown from root, depth-first up to the given size, by
    # elements above its maximum that can still reach k elements (any
    # element for k = 1), each with its stabiliser. Orderly generation: a
    # rep stays a rep when its largest element is dropped, so no rep lies
    # above a non-rep, and each rep is met once. images are root's lanes of
    # images lam*root; a child's are its parent's ORed with one row of
    # _dilations, a bit pair in every lane at once
    if images is None:
        images = _images(root, p)
    have = root.bit_count() + 1
    full = (1 << p) - 1
    rows = _dilations(p)
    for e in range(root.bit_length(), min(p, p - k + have)):
        mask = root | 1 << e
        child = images | rows[e]
        stab = _maps_onto(child, mask, p, full)
        if stab is None:
            continue
        yield mask, stab
        if have < size:
            yield from _outer_sets(mask, size, p, k, child)


def _orbit_pair(
    a_images: int, b_mask: int, stab: list[tuple[int, int]], p: int, full: int
) -> int | None:
    # the lex-least common image of a hit (A, B) over both orders, where A is
    # an orbit rep with stabiliser stab and lanes of images a_images (A
    # itself in the first, for lam = 1); None when an image of B is below A,
    # as then the orbit is found again from rep(B) (A+.B is symmetric).
    # Otherwise the first set is A, and the second, returned, is the least
    # image of B under stab or of A under the maps sending B onto A
    b_images = _images(b_mask, p)
    onto = _maps_onto(b_images, a_images & full, p, full)
    if onto is None:
        return None
    best = full + 1  # above every candidate: the first one wins
    for images, maps in ((b_images, stab), (a_images, onto)):
        for lam, mu in maps:
            # at a prime _units(p) is 1..p-1, so lam*X is in lane lam - 1
            y = _lane_turn(images, lam - 1, mu, p, full)
            diff = y ^ best
            if diff & -diff & y:
                best = y
    return best


def _extremal_bs(a_mask: int, p: int, k: int, target: int, full: int) -> list[int]:
    # every k-subset B with |A+.B| = target, i.e. A+.B = F minus D for one
    # D of size p - target. A+.B is the union of grow[b] = (A minus b) + b
    # over b in B, so x misses it iff B avoids bad[x], the b with x in
    # grow[b] (Vosper's complement step). D is chosen in increasing order,
    # keeping the b that avoid it, and a branch is cut once fewer than k are
    # left; a k-subset of those has A+.B inside F minus D and is a hit iff
    # it fills it, which fixes D, so each hit is found once
    if target > p:
        return []
    grow = [_rotate(a_mask & ~(1 << b), b, p, full) for b in range(p)]
    # b is in bad[x] iff x - b is in A minus b: -A turned by x, less x/2
    neg = sum(1 << -e % p for e in _mask_elements(a_mask))
    bad = [_rotate(neg, x, p, full) for x in range(p)]
    for b in range(p):
        bad[2 * b % p] &= ~(1 << b)
    hits = []

    def extend(acc: int, b_mask: int, cands: tuple[int, ...], start: int, left: int) -> None:
        for i in range(start, len(cands) - left + 1):
            b = cands[i]
            acc_b = acc | grow[b]
            if left > 1:
                extend(acc_b, b_mask | 1 << b, cands, i + 1, left - 1)
            elif acc_b.bit_count() == target:
                hits.append(b_mask | 1 << b)

    def choose(allowed: int, start: int, left: int) -> None:
        # left is how many elements of D are still to choose
        if not left:
            extend(0, 0, _mask_elements(allowed), 0, k)
            return
        for x in range(start, p - left + 1):
            rest = allowed & ~bad[x]
            if rest.bit_count() >= k:
                choose(rest, x + 1, left - 1)

    choose(full, 0, p - target)
    return hits


def _extremal_shard(args) -> tuple[int, list[tuple]]:
    # how many orbit reps the shard walked, and the record fields of each
    # canonical pair it keeps: (elements of A, of B, |A+.B|, sorted labels,
    # A == B, A's least progression generator). A kept pair's first set is
    # the rep it was walked from, so no other shard keeps it
    p, k, target, roots = args
    full = (1 << p) - 1
    walked = 0
    found = []
    for root in roots:
        for a_mask, stab in _outer_sets(root, k, p, k):
            if a_mask.bit_count() < k:
                continue
            walked += 1
            hits = _extremal_bs(a_mask, p, k, target, full)
            if not hits:
                continue
            a_images = _images(a_mask, p)
            kept = {_orbit_pair(a_images, b_mask, stab, p, full) for b_mask in hits}
            kept.discard(None)
            a_elements = _mask_elements(a_mask)
            a_progressions = _progressions(a_mask, p)
            a_witness = _least_progression(a_mask, a_progressions)
            for b_mask in kept:
                # with |A| = |B|, B's generators decide a label only if A has one
                b_progressions = a_progressions and _progressions(b_mask, p)
                _, size, labels = _classify_masks(a_mask, b_mask, p, a_progressions, b_progressions)
                found.append(
                    (a_elements, _mask_elements(b_mask), size, labels, a_mask == b_mask, a_witness)
                )
    return walked, found


def _deal(units: list, processes: int) -> list[list]:
    # the units dealt by stride to up to _SHARDS_PER_PROCESS shards per process
    shards = min(len(units), processes * _SHARDS_PER_PROCESS)
    return [units[s::shards] for s in range(shards)]


def _run_shards(worker, head: tuple, units: list, workers: int) -> list:
    # worker's results on (*head, shard) for every shard of the units, in
    # shard order, on up to workers forked processes
    processes = _pool_size(workers, len(units))
    arg_list = [(*head, shard) for shard in _deal(units, processes)]
    if processes <= 1:
        return [worker(args) for args in arg_list]
    # imported here: only the forking branch needs it
    import pickle

    # every shard index, four bytes each, goes into one pipe before the
    # first fork; at most 16 * processes of them fit easily in a pipe
    # buffer. Each child reads the next index until EOF, so a free process
    # takes the next shard, and runs it on its inherited copy of arg_list
    # (forking is safe here, as the sweeps start no threads)
    tasks, tasks_w = os.pipe()
    os.write(tasks_w, b"".join(i.to_bytes(4, "little") for i in range(len(arg_list))))
    os.close(tasks_w)
    pids, pipes = [], []
    try:
        for _ in range(processes):
            reply_r, reply_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    for fd in (*pipes, reply_r):
                        os.close(fd)
                    try:
                        done = []
                        while index := os.read(tasks, 4):
                            i = int.from_bytes(index, "little")
                            done.append((i, worker(arg_list[i])))
                        reply = pickle.dumps(done)
                    except BaseException as exc:
                        # take every shard left, so the other processes
                        # stop after the one they are running
                        while os.read(tasks, 4096):
                            pass
                        reply = pickle.dumps(exc)
                    with open(reply_w, "wb") as stream:
                        stream.write(reply)
                finally:
                    os._exit(0)
            os.close(reply_w)
            pids.append(pid)
            pipes.append(reply_r)
        results = [None] * len(arg_list)
        while pipes:
            with open(pipes.pop(0), "rb") as stream:
                reply = stream.read()
            if not reply:
                raise ShardLost("a sweep process ended without sending its results")
            done = pickle.loads(reply)
            if isinstance(done, BaseException):
                raise done
            for i, result in done:
                results[i] = result
        return results
    finally:
        # an unread pipe is closed first, so a child blocked writing to it exits
        for fd in (tasks, *pipes):
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def _outer_roots(p: int, k: int) -> list[int]:
    # the prefixes that shards grow into orbit reps, in lex order
    if k <= _ROOT_LAG:
        return [0]
    size = k - _ROOT_LAG
    return [mask for mask, _ in _outer_sets(0, size, p, k) if mask.bit_count() == size]


def _scan_extremal_pairs(
    prime: Prime, k: int, target: int, workers: int
) -> tuple[int, list[PairRecord]]:
    p = prime.value
    if target > p:
        # no B can reach the target: count the reps instead of growing them
        return _orbit_count(p, k) * comb(p, k), []
    results = _run_shards(_extremal_shard, (p, k, target), _outer_roots(p, k), workers)

    # logical count: every walked rep A is paired with all C(p, k) sets B
    scanned = sum(walked for walked, _ in results) * comb(p, k)
    # each pair is kept by one shard; (A, B) alone orders the rows
    rows = sorted(row for _, found in results for row in found)
    records = [
        PairRecord(
            FpSet(prime, a),
            FpSet(prime, b),
            k,
            size,
            labels,
            equal,
            None if witness is None else ApWitness(*witness, k, prime),
        )
        for a, b, size, labels, equal, witness in rows
    ]
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
    _check_subset_size(prime.value, k)
    if target is not None and not 0 <= target <= prime.value:
        raise InvalidArgument(f"target size must lie in 0..{prime.value}, got {target}")
    _check_ceiling(prime, ceiling)
    return default if target is None else target


def verify_main_theorem(
    p: Prime | int,
    k: int,
    *,
    workers: int = 1,
    target: int | None = None,
    ceiling: int = DEFAULT_THEOREM_CEILING,
) -> SweepReport:
    """Scan every pair of k-subsets attaining restricted size 2k-2.

    A counterexample is an attaining pair with A != B; for k >= 5 and
    p > 2k-1 the counterexample list must come back empty. At p = 2k-1
    attaining pairs with A != B do exist (e.g. p=11, k=6), so the report
    records them without asserting emptiness; both modulus flags are kept
    so the boundary is visible. A non-default target is swept and recorded
    but never judged, as the theorem says nothing there. Only affine-orbit
    representatives A are walked, and found pairs are stored canonically
    (one per orbit under simultaneous affine maps and swap); pairs_scanned
    counts every walked A against all C(p, k) sets B.
    """
    prime = as_prime(p)
    target = _theorem_target(prime, k, target, 2 * k - 2, ceiling)
    scanned, records = _scan_extremal_pairs(prime, k, target, workers)
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
        pairs_scanned=scanned,
        extremal_pairs=records,
        counterexamples=[r for r in records if not r.sets_equal],
        hypothesis_flags=flags,
        expectation_checked=flags["k_ge_5"] and flags["p_gt_2k_minus_1"] and target == 2 * k - 2,
    )


def _converse_exceptions(prime: Prime, k: int) -> list[PairRecord]:
    # every size-k progression is an affine image of {0, ..., k-1}, and
    # |A+.A| is affine-invariant, so one check covers them all
    base = FpSet(prime, tuple(range(k)))
    if len(restricted_sumset(base, base)) == min(prime.value, 2 * k - 3):
        return []
    # a diagonal pair: swapping it changes nothing
    return [make_pair_record(*canonical_pair(base, base).sets)]


def verify_karolyi_inverse(
    p: Prime | int,
    k: int,
    *,
    workers: int = 1,
    target: int | None = None,
    ceiling: int = DEFAULT_THEOREM_CEILING,
) -> SweepReport:
    """Scan pairs attaining restricted size 2k-3 and check both directions.

    Forward: every attaining pair must be a diagonal progression (A = B and
    A an arithmetic progression) when k >= 5 and p > 2k-3. Converse: every
    size-k progression A must attain |A+.A| = min(p, 2k-3). Exceptions in
    either direction land in the counterexample list; they are judged only
    at the default target 2k-3.
    """
    prime = as_prime(p)
    target = _theorem_target(prime, k, target, 2 * k - 3, ceiling)
    scanned, records = _scan_extremal_pairs(prime, k, target, workers)
    exceptions = [
        r for r in records if not (r.sets_equal and r.ap_witness is not None)
    ]
    exceptions.extend(_converse_exceptions(prime, k))
    flags = {
        "k_ge_5": k >= 5,
        "p_gt_2k_minus_3": prime.value > 2 * k - 3,
    }
    return SweepReport(
        kind="karolyi",
        p=prime.value,
        k=k,
        target_size=target,
        pairs_scanned=scanned,
        extremal_pairs=records,
        counterexamples=exceptions,
        hypothesis_flags=flags,
        expectation_checked=flags["k_ge_5"] and flags["p_gt_2k_minus_3"] and target == 2 * k - 3,
    )


def _rep_violations(a_mask: int, p: int, full: int) -> list[tuple[int, int, str, int, int]]:
    # every B of size at most |A| breaking a bound against A, walking B in
    # increasing order; each step ORs A+b into A+B and (A minus b)+b into
    # A+.B. A branch is cut once |B| = |A|: both bounds and the report's
    # unordered pairs are symmetric in A and B, so a violating {X, Y} with
    # |X| >= |Y| is found at rep(X), with B an image of Y. It is also cut
    # once no superset below B can break a bound: both sums only grow with
    # B, such a superset has at most top = min(|A|, |B| + p - 1 - max B)
    # elements, and both bounds grow with its size, so it is enough that
    # both sums already reach their bound at size top. This holds over
    # Z/nZ too, as it uses no theorem
    ka = a_mask.bit_count()
    grow = [_rotate(a_mask, b, p, full) for b in range(p)]
    grow_r = [_rotate(a_mask & ~(1 << b), b, p, full) for b in range(p)]
    found = []

    def extend(acc: int, acc_r: int, b_mask: int, kb: int, start: int) -> None:
        # kb is |B| once b joins
        need = min(p, ka + kb - 1)
        need_r = min(p, ka + kb - 3)
        for b in range(start, p):
            s = acc | grow[b]
            r = acc_r | grow_r[b]
            m = b_mask | 1 << b
            size = s.bit_count()
            if size < need:
                found.append((a_mask, m, "sumset", size, need))
            size_r = r.bit_count()
            if size_r < need_r:
                found.append((a_mask, m, "restricted", size_r, need_r))
            if kb < ka:
                top = min(ka, kb + p - 1 - b)
                if size < min(p, ka + top - 1) or size_r < min(p, ka + top - 3):
                    extend(s, r, m, kb + 1, b + 1)

    extend(0, 0, 0, 1, 0)
    return found


def _bounds_shard(args) -> list[tuple[int, int, str, int, int]]:
    # the violations (rep A, B, bound, size, required) of the reps dealt here
    p, reps = args
    full = (1 << p) - 1
    return [v for a_mask in reps for v in _rep_violations(a_mask, p, full)]


def _violating_pairs(
    found: list[tuple[int, int, str, int, int]], p: int
) -> set[tuple[int, int, str, int, int]]:
    # every image of each violation under the maps x -> lam*x + mu, as the
    # unordered pair (min mask, max mask); both bounds are invariant under a
    # common affine map, so this is every violating pair
    full = (1 << p) - 1
    pairs = set()
    for a_mask, b_mask, bound, size, need in found:
        a_images, b_images = _images(a_mask, p), _images(b_mask, p)
        for lane in range(len(_units(p))):
            for mu in range(p):
                x = _lane_turn(a_images, lane, mu, p, full)
                y = _lane_turn(b_images, lane, mu, p, full)
                pairs.add((min(x, y), max(x, y), bound, size, need))
    return pairs


def verify_bounds(
    p: Prime | int, *, workers: int = 1, ceiling: int = DEFAULT_BOUNDS_CEILING
) -> SweepReport:
    """Check the classical lower bounds over all nonempty pairs of subsets.

    For every (A, B): |A+B| >= min(p, |A|+|B|-1) and the restricted sumset
    size is >= min(p, |A|+|B|-3); the diagonal pairs of the second check
    cover the restricted bound min(p, 2|A|-3) for A = B. Zero violations
    expected at any prime; guarded by an exhaustive ceiling. Only
    affine-orbit representatives A are walked, against every B with
    |B| <= |A| (both checks are symmetric in A and B); pairs_scanned counts
    every member of each rep's orbit against every B, and each violation
    found is listed for every pair in its orbit.
    """
    prime = as_prime(p)
    _check_ceiling(prime, ceiling)
    n = prime.value
    reps = list(_outer_sets(0, n, n, 1))
    # logical count: |orbit(A)| = n * |units| / |stab(A)| sets against each B
    scanned = ((1 << n) - 1) * sum(n * len(_units(n)) // len(stab) for _, stab in reps)
    masks = [mask for mask, _ in reps]
    found = [v for shard in _run_shards(_bounds_shard, (n,), masks, workers) for v in shard]
    violations = [
        {
            "a": FpSet.from_mask(prime, a_mask).literal(),
            "b": FpSet.from_mask(prime, b_mask).literal(),
            "bound": bound,
            "size": size,
            "required": need,
        }
        for a_mask, b_mask, bound, size, need in _violating_pairs(found, n)
    ]
    violations.sort(key=lambda v: (v["a"], v["b"], v["bound"]))
    return SweepReport(
        kind="bounds",
        p=n,
        k=None,
        target_size=None,
        pairs_scanned=scanned,
        violations=violations,
        hypothesis_flags={},
        expectation_checked=True,
    )


def audit_all_extremal(
    p: Prime | int, k: int, *, workers: int = 1
) -> Iterator[AuditTrace]:
    """Replay the coefficient-identity chain on every extremal pair found.

    Pairs come from the diagonal-equality sweep in canonical sorted order;
    each trace must be clean when k >= 5 and p > 2k-1.
    """
    report = verify_main_theorem(p, k, workers=workers)
    for record in report.extremal_pairs:
        yield audit_sigma_chain(record.a, record.b)
