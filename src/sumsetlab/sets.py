"""Finite subsets of Z/pZ and their additive structure.

Provides sumsets, restricted sumsets (sums a+b with a != b), arithmetic
progression detection, affine canonicalization of set pairs, and the
classical tightness/structure labels for a pair. Sets are immutable and
stored as sorted residue tuples; the additive kernels run on bitmasks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import EmptySet, ModulusMismatch
from .field import Prime, as_prime

__all__ = [
    "FpSet",
    "ApWitness",
    "CanonicalPair",
    "PairClassification",
    "sumset",
    "restricted_sumset",
    "is_arithmetic_progression",
    "canonical_pair",
    "classify_pair",
    "CAUCHY_DAVENPORT_TIGHT",
    "VOSPER_SINGLETON",
    "VOSPER_COMPLEMENT",
    "VOSPER_AP",
    "HAMIDOUNE_RODSETH",
    "EH_TIGHT",
    "EH_PLUS_ONE",
    "DIAGONAL",
]

CAUCHY_DAVENPORT_TIGHT = "cauchy_davenport_tight"
VOSPER_SINGLETON = "vosper_case_singleton"
VOSPER_COMPLEMENT = "vosper_case_complement"
VOSPER_AP = "vosper_case_ap"
HAMIDOUNE_RODSETH = "hamidoune_rodseth_applicable"
EH_TIGHT = "eh_tight"
EH_PLUS_ONE = "eh_plus_one"
DIAGONAL = "diagonal"


def _rotate(mask: int, shift: int, p: int, full: int) -> int:
    # cyclic left rotation of a p-bit mask: bit e moves to bit (e + shift) % p
    if shift == 0:
        return mask
    return ((mask << shift) | (mask >> (p - shift))) & full


def _mask_elements(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _progressions(mask: int, p: int) -> tuple[tuple[int, int], ...]:
    # every (start, diff) with diff != 0 generating the set, if it has at
    # least 2 elements, in increasing order. A generating diff is
    # +-(x - e0) for e0 the least element and some other x. As x -> x + diff
    # is one cycle through Z/pZ, it generates a proper subset S iff exactly
    # one element of S, the start, is not in S + diff: |S & (S + diff)| = |S| - 1
    elements = _mask_elements(mask)
    m = len(elements)
    if m == p:
        return tuple((a, d) for a in range(p) for d in range(1, p))
    full = (1 << p) - 1
    e0 = elements[0]
    found = []
    for d in {d % p for x in elements[1:] for d in (x - e0, e0 - x)}:
        shifted = _rotate(mask, d, p, full)
        if (mask & shifted).bit_count() == m - 1:
            found.append(((mask & ~shifted).bit_length() - 1, d))
    return tuple(sorted(found))


def _least_progression(
    mask: int, progressions: tuple[tuple[int, int], ...]
) -> tuple[int, int] | None:
    # the (start, diff) a progression witness reports: a singleton {e} is
    # one with diff 1, a larger set takes its least generator, if it has one
    if not mask & (mask - 1):
        return mask.bit_length() - 1, 1
    return progressions[0] if progressions else None


@dataclass(frozen=True)
class FpSet:
    """A set of residues mod p, stored strictly increasing."""

    modulus: Prime
    elements: tuple[int, ...]

    def __post_init__(self):
        p = self.modulus.value
        prev = -1
        for e in self.elements:
            if not 0 <= e < p:
                raise ValueError(f"residue {e} out of range for modulus {p}")
            if e <= prev:
                raise ValueError("elements must be strictly increasing")
            prev = e

    @classmethod
    def of(cls, p: Prime | int, elems: Iterable[int]) -> "FpSet":
        """Build a set, reducing mod p and deduplicating."""
        prime = as_prime(p)
        return cls(prime, tuple(sorted({e % prime.value for e in elems})))

    @classmethod
    def from_mask(cls, p: Prime, mask: int) -> "FpSet":
        return cls(p, _mask_elements(mask))

    @functools.cached_property
    def mask(self) -> int:
        m = 0
        for e in self.elements:
            m |= 1 << e
        return m

    @functools.cached_property
    def _ap_candidates(self) -> tuple[tuple[int, int], ...]:
        return _progressions(self.mask, self.modulus.value)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, residue: int) -> bool:
        return residue in self.elements

    def literal(self) -> str:
        """The comma-separated residue form used by the CLI and report files."""
        return ",".join(str(e) for e in self.elements)

    def __repr__(self) -> str:
        return f"FpSet(p={self.modulus.value}, {{{self.literal()}}})"


def _require_same_modulus(a: FpSet, b: FpSet) -> Prime:
    if a.modulus != b.modulus:
        raise ModulusMismatch(
            f"sets over different moduli: {a.modulus.value} vs {b.modulus.value}"
        )
    return a.modulus


def sumset(a: FpSet, b: FpSet) -> FpSet:
    """All sums x+y with x in a, y in b."""
    prime = _require_same_modulus(a, b)
    p = prime.value
    full = (1 << p) - 1
    acc = 0
    bm = b.mask
    for e in a.elements:
        acc |= _rotate(bm, e, p, full)
    return FpSet.from_mask(prime, acc)


def restricted_sumset(a: FpSet, b: FpSet) -> FpSet:
    """All sums x+y with x in a, y in b and x != y."""
    prime = _require_same_modulus(a, b)
    p = prime.value
    full = (1 << p) - 1
    acc = 0
    bm = b.mask
    for e in a.elements:
        acc |= _rotate(bm & ~(1 << e), e, p, full)
    return FpSet.from_mask(prime, acc)


@dataclass(frozen=True)
class ApWitness:
    """A progression {start + t*diff : 0 <= t < length} reproducing a set."""

    start: int
    diff: int
    length: int
    modulus: Prime

    def expand(self) -> FpSet:
        s, d = self.start, self.diff
        return FpSet.of(self.modulus, (s + t * d for t in range(self.length)))


def is_arithmetic_progression(s: FpSet) -> ApWitness | None:
    """Detect progression structure under any ordering of the elements.

    Sets of size 1 and 2 are progressions by convention (diff 1 for a
    singleton, second minus first for a pair). For larger sets only the
    differences +-(x - e0), e0 the least element, are tried, each by one
    popcount on the mask; the witness returned is the one with
    lexicographically least (start, diff). The set caches its generators,
    so classifying and recording it again costs nothing.
    """
    if not s.elements:
        raise EmptySet("empty set has no progression structure")
    found = _least_progression(s.mask, s._ap_candidates)
    return None if found is None else ApWitness(*found, len(s), s.modulus)


@dataclass(frozen=True)
class CanonicalPair:
    a: FpSet
    b: FpSet
    lam: int
    mu: int

    @property
    def sets(self) -> tuple[FpSet, FpSet]:
        return (self.a, self.b)


def canonical_pair(a: FpSet, b: FpSet) -> CanonicalPair:
    """Lexicographically least simultaneous affine image of the pair.

    Minimizes (sorted(lam*a+mu), sorted(lam*b+mu)) over all lam != 0 and mu,
    breaking ties by least (lam, mu). The least first component always
    contains 0, so only offsets sending an element of lam*a to 0 compete.
    Idempotent: a canonical pair maps to itself under (lam, mu) = (1, 0).
    """
    prime = _require_same_modulus(a, b)
    if not a.elements:
        raise EmptySet("first set must be nonempty for canonicalization")
    p = prime.value
    best = None
    for lam in range(1, p):
        la = sorted(lam * e % p for e in a.elements)
        lb = sorted(lam * e % p for e in b.elements)
        for t in la:
            mu = -t % p
            at = tuple(sorted((x + mu) % p for x in la))
            bt = tuple(sorted((x + mu) % p for x in lb))
            key = (at, bt, lam, mu)
            if best is None or key < best:
                best = key
    at, bt, lam, mu = best
    return CanonicalPair(FpSet(prime, at), FpSet(prime, bt), lam, mu)


@dataclass(frozen=True)
class PairClassification:
    """Sizes of both sumsets plus every structural label that applies."""

    size_a: int
    size_b: int
    sumset_size: int
    restricted_size: int
    labels: frozenset[str]


def _classify_masks(
    a: int, b: int, p: int, progressions_a: tuple, progressions_b: tuple
) -> tuple[int, int, tuple[str, ...]]:
    # |A+B|, |A+.B| and the sorted labels of two nonempty sets, given as
    # masks with their progression generators (_progressions)
    full = (1 << p) - 1
    k, ell = a.bit_count(), b.bit_count()
    s = r = 0
    for e in _mask_elements(a):
        # e + (B minus e) is e + B less 2e when e is in B
        turned = _rotate(b, e, p, full)
        s |= turned
        r |= turned & ~(1 << 2 * e % p) if b >> e & 1 else turned
    s_size, r_size = s.bit_count(), r.bit_count()
    labels = []
    if s_size == k + ell - 1:
        labels.append(CAUCHY_DAVENPORT_TIGHT)
    if min(k, ell) == 1:
        labels.append(VOSPER_SINGLETON)
    if s_size == p - 1:
        # the single missing element c determines the complement candidate
        c = (full ^ s).bit_length() - 1
        if b == full ^ sum(1 << (c - x) % p for x in _mask_elements(a)):
            labels.append(VOSPER_COMPLEMENT)
    # progressions with a common difference; a singleton has every one
    if k == 1 or ell == 1:
        shared = (k == 1 or bool(progressions_a)) and (ell == 1 or bool(progressions_b))
    else:
        shared = not {d for _, d in progressions_a}.isdisjoint(d for _, d in progressions_b)
    if shared:
        labels.append(VOSPER_AP)
    if k >= 3 and ell >= 4 and s_size == k + ell and s_size <= p - 4:
        labels.append(HAMIDOUNE_RODSETH)
    if r_size == k + ell - 3:
        labels.append(EH_TIGHT)
    if r_size == k + ell - 2:
        labels.append(EH_PLUS_ONE)
    if a == b:
        labels.append(DIAGONAL)
    return s_size, r_size, tuple(sorted(labels))


def classify_pair(a: FpSet, b: FpSet) -> PairClassification:
    """Compute both sumset sizes and every applicable structural label.

    Labels cover tight sumset growth (|A+B| = |A|+|B|-1), the three ways a
    pair can be tight (a singleton side, a complement pair when |A+B| = p-1,
    or two progressions sharing a difference), near-tight growth
    (|A+B| = |A|+|B| <= p-4 with |A| >= 3, |B| >= 4), tight and almost-tight
    restricted sumsets, and equality of the two sets.
    """
    prime = _require_same_modulus(a, b)
    if not a.elements or not b.elements:
        raise EmptySet("classification requires nonempty sets")
    s_size, r_size, labels = _classify_masks(
        a.mask, b.mask, prime.value, a._ap_candidates, b._ap_candidates
    )
    return PairClassification(len(a), len(b), s_size, r_size, frozenset(labels))
