"""Numerical replay of the coefficient-identity induction for extremal pairs.

Given A, B with |A| = |B| = k and restricted sumset of size exactly 2k-2,
the locus polynomial f = (x-y) * prod(x+y-c) vanishes on A x B, so it has a
canonical witness f = h_A g_A(x) + h_B g_B(y). Reading the homogeneous
components of h_A and h_B as triangular coefficient grids, a chain of exact
identities forces the symmetric functions of A and B to agree degree by
degree, and hence A = B. This module extracts the grids and checks every
identity in that chain for a concrete pair, recording each comparison as a
trace record. Failures are recorded, never raised: the audit is a
measurement instrument, so a failed identity is a finding, not a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import comb, factorial

from .errors import DegreeTooHigh, HypothesisViolation, NotSplitting, NotVanishing
from .field import Prime, inverse_mod
from .nullstellensatz import CnWitness, cn_decompose, verify_witness
from .poly import (
    SymmetricProfile,
    UniPoly,
    cij,
    elementary_symmetric,
    homogeneous_components,  # unused here; benchmarks/spans.py wraps it in this module
    build_locus_poly,
    roots_over_fp,
    sigma_expansion,
    vanishing_polynomial,
)
from .sets import FpSet, restricted_sumset

__all__ = [
    "CoefficientGrid",
    "CheckRecord",
    "StepSummary",
    "AuditTrace",
    "extract_grids",
    "audit_top_layer",
    "audit_sigma_chain",
    "even_denominator_closed_form",
    "odd_pivot_closed_form",
    "reconstruct_from_sigmas",
]


@dataclass(frozen=True)
class CoefficientGrid:
    """Triangular table rows[i][j] for 0 <= j <= i <= k-1.

    For the A side, rows[i][j] is the coefficient of x^j y^(i-j) in the
    degree-i homogeneous component of h_A; for the B side the indexing is
    mirrored: rows[i][j] is the coefficient of x^(i-j) y^j in h_B's
    component. Absent monomials read as 0.
    """

    k: int
    rows: tuple[tuple[int, ...], ...]

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]


@dataclass(frozen=True)
class CheckRecord:
    """One audited identity: lhs `relation` rhs; the verdict is derived from it."""

    step: int
    parity: str
    label: str
    lhs: int | str
    rhs: int | str
    relation: str  # "eq" or "ne"

    @property
    def passed(self) -> bool:
        return (self.lhs == self.rhs) == (self.relation == "eq")

    def to_line(self) -> str:
        ok = "true" if self.passed else "false"
        return (
            f"step={self.step} parity={self.parity} label={self.label} "
            f"lhs={self.lhs} rhs={self.rhs} relation={self.relation} pass={ok}"
        )


@dataclass(frozen=True)
class StepSummary:
    """Per-step bookkeeping: symmetric values, pivots and closed forms.

    Even steps carry rho and the denominator B[k-1][r-1] + B[k-1][r]; odd
    steps carry the pivot B[k-1][r]. Closed-form values are the published
    formulas evaluated mod p (None when not evaluable); the odd-side formula
    disagrees with the direct value as stated, so its agreement flag is
    informational and never counts toward trace cleanliness.
    """

    index: int
    parity: str
    sigma_a: int
    sigma_b: int
    rho: int | None = None
    denominator: int | None = None
    denominator_closed_form: int | None = None
    pivot: int | None = None
    pivot_closed_form: int | None = None

    @property
    def pivot_closed_form_agrees(self) -> bool | None:
        if self.pivot_closed_form is None:
            return None
        return self.pivot_closed_form == self.pivot


@dataclass
class AuditTrace:
    """Every comparison made while replaying the chain on one pair."""

    p: int
    k: int
    set_a: FpSet
    set_b: FpSet
    records: list[CheckRecord] = dataclass_field(default_factory=list)
    steps: list[StepSummary] = dataclass_field(default_factory=list)
    warning: str | None = None

    @property
    def sets_equal(self) -> bool:
        return self.set_a == self.set_b

    @property
    def clean(self) -> bool:
        return all(r.passed for r in self.records)

    def failed_records(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def iter_lines(self):
        for r in self.records:
            yield r.to_line()


def extract_grids(w: CnWitness, k: int) -> tuple[CoefficientGrid, CoefficientGrid]:
    """Read both triangular grids off the witness; degrees must stay below k."""
    for name, h in (("h_A", w.h_a), ("h_B", w.h_b)):
        if not h.is_zero and h.total_degree > k - 1:
            raise DegreeTooHigh(f"{name} has degree {h.total_degree}, need <= {k - 1}")
    # built from lists: tuple() of a generator over-allocates and resizes, so
    # each freed row sits on CPython's per-size tuple free list until a full
    # collection, and the audit's peak memory creeps up between collections
    rows_a = tuple([
        tuple([w.h_a.get(j, i - j) for j in range(i + 1)]) for i in range(k)
    ])
    rows_b = tuple([
        tuple([w.h_b.get(i - j, j) for j in range(i + 1)]) for i in range(k)
    ])
    return CoefficientGrid(k, rows_a), CoefficientGrid(k, rows_b)


def audit_top_layer(
    grid_a: CoefficientGrid, grid_b: CoefficientGrid, k: int, p: Prime
) -> list[CheckRecord]:
    """Row k-1 of both grids against the expansion coefficients of degree 2k-1.

    For each column t: A[k-1][t] must equal the coefficient of
    x^(k+t) y^(k-t-1) in (x-y)(x+y)^(2k-2), B[k-1][t] must be its negative,
    and the value must be nonzero.
    """
    pv = p.value
    records = []
    for t in range(k):
        expected = cij(2 * k - 1, k + t, p)
        a = grid_a.entry(k - 1, t)
        b = grid_b.entry(k - 1, t)
        records.append(CheckRecord(0, "top", f"top_a_coefficient[{t}]", a, expected, "eq"))
        records.append(CheckRecord(0, "top", f"top_b_antisym[{t}]", b, (-a) % pv, "eq"))
        records.append(CheckRecord(0, "top", f"top_a_nonzero[{t}]", a, 0, "ne"))
    return records


def even_denominator_closed_form(k: int, r: int) -> int:
    """Exact integer -2r(2k-1)(2k-2)! / ((k+r)!(k-r)!) for the even-step denominator."""
    value = Fraction(
        -2 * r * (2 * k - 1) * factorial(2 * k - 2), factorial(k + r) * factorial(k - r)
    )
    if value.denominator != 1:
        raise ArithmeticError(f"closed form is not integral at (k, r) = ({k}, {r})")
    return int(value)


def odd_pivot_closed_form(k: int, r: int) -> Fraction:
    """The published odd-step pivot formula -i/(k-r-1) * C(2k-2, k+r-1), i = 2r+1.

    As stated this disagrees with the directly computed pivot (it is not even
    integral in general); it is evaluated only for side-by-side reporting.
    """
    i = 2 * r + 1
    if k - r - 1 == 0:
        raise ZeroDivisionError("formula denominator k-r-1 vanishes")
    return Fraction(-i, k - r - 1) * comb(2 * k - 2, k + r - 1)


def _sign(exp: int, p: int) -> int:
    return 1 if exp % 2 == 0 else p - 1


def _odd_step(i, k, p, f, grid_a, grid_b, sig_a, sig_b, records):
    r = (i - 1) // 2
    lhs = f.get(k - r - 1, k - r - 1)
    total = 0
    for j in range(r + 1):
        term = (
            sig_a[r + 1 + j] * grid_a.entry(k - r - 1 + j, j)
            + sig_b[r + 1 + j] * grid_b.entry(k - r - 1 + j, j)
        )
        total += _sign(r + 1 + j, p) * term
    total %= p
    records.append(CheckRecord(i, "odd", "odd_grid_identity", lhs, total, "eq"))
    records.append(CheckRecord(i, "odd", "odd_component_vanishes", lhs, 0, "eq"))
    pivot = grid_b.entry(k - 1, r)
    records.append(CheckRecord(i, "odd", "odd_pivot_nonzero", pivot, 0, "ne"))
    records.append(CheckRecord(i, "odd", "sigma_match", sig_a[i], sig_b[i], "eq"))
    cancel = (sig_b[i] - sig_a[i]) * pivot % p
    records.append(CheckRecord(i, "odd", "odd_cancellation", cancel, 0, "eq"))

    pivot_closed = None
    if (k - r - 1) % p != 0:
        frac = odd_pivot_closed_form(k, r)
        pivot_closed = (
            frac.numerator % p * inverse_mod(frac.denominator % p, p) % p
        )
    return StepSummary(
        index=i,
        parity="odd",
        sigma_a=sig_a[i],
        sigma_b=sig_b[i],
        pivot=pivot,
        pivot_closed_form=pivot_closed,
    )


def _even_step(i, k, p, prime, f, grid_a, grid_b, sig_a, sig_b, sig_c, records):
    r = i // 2
    # coefficient of x^(k-r-1) y^(k-r): B-side terms plus the shorter A-side sum
    lhs_low = f.get(k - r - 1, k - r)
    sum_low = 0
    for j in range(r + 1):
        sum_low += _sign(r + j, p) * sig_b[r + j] * grid_b.entry(k - r - 1 + j, j)
    for j in range(r):
        sum_low += _sign(r + 1 + j, p) * sig_a[r + 1 + j] * grid_a.entry(k - r + j, j)
    sum_low %= p
    records.append(CheckRecord(i, "even", "even_grid_identity_low", lhs_low, sum_low, "eq"))
    # mirrored monomial x^(k-r) y^(k-r-1)
    lhs_high = f.get(k - r, k - r - 1)
    sum_high = 0
    for j in range(r + 1):
        sum_high += _sign(r + j, p) * sig_a[r + j] * grid_a.entry(k - r - 1 + j, j)
    for j in range(r):
        sum_high += _sign(r + 1 + j, p) * sig_b[r + 1 + j] * grid_b.entry(k - r + j, j)
    sum_high %= p
    records.append(CheckRecord(i, "even", "even_grid_identity_high", lhs_high, sum_high, "eq"))
    # rho: the low identity with its two top terms split off
    rho = sig_c[i] * cij(2 * k - 2 * r - 1, k - r - 1, prime)
    for j in range(r):
        rho -= _sign(r + j, p) * sig_b[r + j] * grid_b.entry(k - r - 1 + j, j)
    for j in range(r - 1):
        rho -= _sign(r + 1 + j, p) * sig_a[r + 1 + j] * grid_a.entry(k - r + j, j)
    rho %= p
    rho_rhs = (
        sig_b[i] * grid_b.entry(k - 1, r) - sig_a[i] * grid_b.entry(k - 1, r - 1)
    ) % p
    records.append(CheckRecord(i, "even", "even_rho_relation", rho, rho_rhs, "eq"))
    denominator = (grid_b.entry(k - 1, r - 1) + grid_b.entry(k - 1, r)) % p
    records.append(CheckRecord(i, "even", "even_denominator_nonzero", denominator, 0, "ne"))
    closed = even_denominator_closed_form(k, r) % p
    records.append(
        CheckRecord(i, "even", "even_denominator_closed_form", denominator, closed, "eq")
    )
    records.append(CheckRecord(i, "even", "sigma_match", sig_a[i], sig_b[i], "eq"))
    cancel = (sig_b[i] - sig_a[i]) * denominator % p
    records.append(CheckRecord(i, "even", "even_cancellation", cancel, 0, "eq"))
    return StepSummary(
        index=i,
        parity="even",
        sigma_a=sig_a[i],
        sigma_b=sig_b[i],
        rho=rho,
        denominator=denominator,
        denominator_closed_form=closed,
    )


def audit_sigma_chain(
    set_a: FpSet, set_b: FpSet, locus: FpSet | None = None
) -> AuditTrace:
    """Full replay for one pair: witness, grids, top layer, chain, conclusion.

    Requires |A| = |B| = k >= 2, restricted sumset of size exactly 2k-2, and
    p > 2k-2. The chain's nonvanishing checks additionally need p > 2k-1;
    at p = 2k-1 the audit still runs but flags the trace with a warning and
    the even-step denominators vanish. ``locus`` overrides the set used to
    build the locus polynomial (for instrument self-tests); a polynomial
    that fails to vanish on A x B is recorded as a failed check.
    """
    if set_a.modulus != set_b.modulus:
        raise HypothesisViolation("sets live over different moduli")
    k = len(set_a)
    if len(set_b) != k:
        raise HypothesisViolation(f"sizes differ: |A| = {k}, |B| = {len(set_b)}")
    if k < 2:
        raise HypothesisViolation(f"need k >= 2, got k = {k}")
    prime = set_a.modulus
    p = prime.value
    c = restricted_sumset(set_a, set_b)
    if len(c) != 2 * k - 2:
        raise HypothesisViolation(
            f"restricted sumset has size {len(c)}, need 2k-2 = {2 * k - 2}"
        )
    if p <= 2 * k - 2:
        raise HypothesisViolation(f"need p > 2k-2 = {2 * k - 2}, got p = {p}")
    warning = None
    if p == 2 * k - 1:
        warning = (
            f"p = 2k-1 = {p}: nonvanishing checks are not guaranteed; "
            "even-step denominators vanish mod p"
        )

    if locus is None:
        locus = c
    trace = AuditTrace(p=p, k=k, set_a=set_a, set_b=set_b, warning=warning)
    f = build_locus_poly(locus)

    try:
        w = cn_decompose(f, set_a, set_b)
    except NotVanishing as exc:
        a, b = exc.point
        trace.records.append(
            CheckRecord(0, "setup", "locus_vanishes_on_grid", f"f({a},{b})={exc.value}", "0", "eq")
        )
        return trace

    verdict = verify_witness(f, w)
    trace.records.append(
        CheckRecord(
            0, "setup", "witness_identity", "ok" if verdict.ok else verdict.failure, "ok", "eq"
        )
    )
    expansion = "ok" if sigma_expansion(locus) == f else "mismatch"
    trace.records.append(
        CheckRecord(0, "setup", "symmetric_expansion_matches_locus", expansion, "ok", "eq")
    )

    grid_a, grid_b = extract_grids(w, k)
    trace.records.extend(audit_top_layer(grid_a, grid_b, k, prime))

    sig_a = elementary_symmetric(set_a).values
    sig_b = elementary_symmetric(set_b).values
    sig_c = elementary_symmetric(locus).values

    # step i reads f's coefficients of total degree 2k-1-i
    for i in range(1, k):
        if i % 2 == 1:
            summary = _odd_step(i, k, p, f, grid_a, grid_b, sig_a, sig_b, trace.records)
        else:
            summary = _even_step(
                i, k, p, prime, f, grid_a, grid_b, sig_a, sig_b, sig_c, trace.records
            )
        trace.steps.append(summary)
        row = k - i - 1
        for ell in range(2, row + 1):
            a_val = grid_a.entry(row, ell)
            b_val = grid_b.entry(row, ell)
            trace.records.append(
                CheckRecord(
                    i, summary.parity, f"tail_antisym[{row},{ell}]", a_val, (-b_val) % p, "eq"
                )
            )

    g_a = vanishing_polynomial(set_a)
    g_b = vanishing_polynomial(set_b)
    trace.records.append(
        CheckRecord(
            k,
            "final",
            "vanishing_polynomials_equal",
            ",".join(map(str, g_a.coeffs)),
            ",".join(map(str, g_b.coeffs)),
            "eq",
        )
    )
    trace.records.append(
        CheckRecord(k, "final", "sets_equal", set_a.literal(), set_b.literal(), "eq")
    )
    return trace


def reconstruct_from_sigmas(profile: SymmetricProfile, p: Prime | None = None) -> FpSet:
    """Rebuild the set whose elementary symmetric values are the profile.

    Forms z^k - e_1 z^(k-1) + ... + (-1)^k e_k and returns its roots; raises
    NotSplitting when fewer than k distinct roots exist (the profile does not
    come from a k-subset of the field).
    """
    prime = profile.modulus
    if p is not None and p != prime:
        raise HypothesisViolation("profile modulus differs from the requested prime")
    k = len(profile.values) - 1
    coeffs = [0] * (k + 1)
    for i, e in enumerate(profile.values):
        sign = 1 if i % 2 == 0 else -1
        coeffs[k - i] = sign * e % prime.value
    q = UniPoly.of(prime, coeffs)
    roots = roots_over_fp(q)
    if len(roots) < k:
        raise NotSplitting(
            f"only {len(roots)} distinct roots for a degree-{k} profile"
        )
    return roots
