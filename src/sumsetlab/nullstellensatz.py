"""Witness decomposition for polynomials vanishing on a two-set grid.

If f(a, b) = 0 for every a in Sx and b in Sy, then f lies in the ideal
generated by g_A(x) and g_B(y), the vanishing polynomials of the two sets,
and f = h_A * g_A(x) + h_B * g_B(y) with deg(h_A) <= deg(f) - |Sx| and
deg(h_B) <= deg(f) - |Sy|. ``cn_decompose`` produces the canonical such
witness by iterated monomial reduction. ``verify_witness`` re-expands it
on its own, without the reduction: each cell of h_A is shifted along x by
the coefficients of g_A, each cell of h_B along y by those of g_B, and the
sums land in one table holding recomposed - f.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EmptySet, ModulusMismatch, NotVanishing
from .poly import BiPoly, UniPoly, vanishing_polynomial
from .sets import FpSet

__all__ = [
    "CnWitness",
    "WitnessVerdict",
    "vanishes_on_grid",
    "first_nonvanishing_point",
    "cn_decompose",
    "verify_witness",
]


@dataclass(frozen=True)
class CnWitness:
    """The pair (h_A, h_B) certifying f = h_A g_A(x) + h_B g_B(y).

    Canonical form: every monomial of h_B has x-exponent below deg(g_A),
    because reduction runs in x first. degree_bound_* record the certified
    ceilings deg(f) - deg(g_*).
    """

    h_a: BiPoly
    h_b: BiPoly
    g_a: UniPoly
    g_b: UniPoly
    degree_bound_a: int
    degree_bound_b: int


@dataclass(frozen=True)
class WitnessVerdict:
    """Boolean verdict carrying a diagnostic for the first failure."""

    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _check_grid(f: BiPoly, sx: FpSet, sy: FpSet):
    if sx.modulus != sy.modulus or f.modulus != sx.modulus:
        raise ModulusMismatch("polynomial and grid sets must share one modulus")
    if not sx.elements or not sy.elements:
        raise EmptySet("grid sets must be nonempty")


def first_nonvanishing_point(
    f: BiPoly, sx: FpSet, sy: FpSet
) -> tuple[int, int, int] | None:
    """The first (a, b, f(a, b)) with nonzero value, scanning sx then sy."""
    _check_grid(f, sx, sy)
    for a in sx.elements:
        for b in sy.elements:
            v = f.evaluate(a, b)
            if v:
                return (a, b, v)
    return None


def vanishes_on_grid(f: BiPoly, sx: FpSet, sy: FpSet) -> bool:
    """Exhaustively test f(a, b) = 0 over the full grid sx x sy."""
    return first_nonvanishing_point(f, sx, sy) is None


def cn_decompose(f: BiPoly, sx: FpSet, sy: FpSet) -> CnWitness:
    """Canonical witness by reduction: divide out g_A in x, then g_B in y.

    Every x-exponent >= |Sx| is rewritten through the monic relation
    x**|Sx| = g_A(x) - (lower terms), accumulating the quotient into h_A;
    the remainder is then reduced the same way in y. What survives has
    x-degree < |Sx| and y-degree < |Sy|, and vanishes on the grid iff f
    does, hence must be identically zero; otherwise NotVanishing is raised
    with a witness point.
    """
    _check_grid(f, sx, sy)
    prime = f.modulus
    p = prime.value
    g_a = vanishing_polynomial(sx)
    g_b = vanishing_polynomial(sy)
    m, n = len(sx), len(sy)

    work = [list(row) for row in f.table]
    dx = len(work) - 1
    dy = len(work[0]) - 1 if work else -1

    qa = [[0] * (dy + 1) for _ in range(max(dx - m + 1, 0))]
    ga = g_a.coeffs
    for i in range(dx, m - 1, -1):
        for j in range(dy + 1):
            c = work[i][j]
            if not c:
                continue
            qa[i - m][j] = (qa[i - m][j] + c) % p
            for t in range(m + 1):
                work[i - m + t][j] = (work[i - m + t][j] - c * ga[t]) % p

    qb = [[0] * max(dy - n + 1, 0) for _ in range(min(dx + 1, m))]
    gb = g_b.coeffs
    for j in range(dy, n - 1, -1):
        for i in range(min(dx + 1, m)):
            c = work[i][j]
            if not c:
                continue
            qb[i][j - n] = (qb[i][j - n] + c) % p
            for t in range(n + 1):
                work[i][j - n + t] = (work[i][j - n + t] - c * gb[t]) % p

    if any(c for row in work for c in row):
        point = first_nonvanishing_point(f, sx, sy)
        if point is None:
            raise AssertionError("nonzero remainder but f vanishes on the grid")
        a, b, v = point
        raise NotVanishing(
            f"f({a}, {b}) = {v} != 0, so no witness exists", point=(a, b), value=v
        )

    deg_f = f.total_degree
    return CnWitness(
        h_a=BiPoly.of(prime, qa),
        h_b=BiPoly.of(prime, qb),
        g_a=g_a,
        g_b=g_b,
        degree_bound_a=deg_f - m,
        degree_bound_b=deg_f - n,
    )


def verify_witness(f: BiPoly, w: CnWitness) -> WitnessVerdict:
    """Re-expand h_A g_A(x) + h_B g_B(y), compare to f, and check degree bounds."""
    prime = f.modulus
    if any(q.modulus != prime for q in (w.h_a, w.h_b, w.g_a, w.g_b)):
        raise ModulusMismatch("polynomial and witness must share one modulus")
    p = prime.value
    ga, gb = w.g_a.coeffs, w.g_b.coeffs
    rows = 1 + max(f.x_degree, w.h_a.x_degree + w.g_a.degree, w.h_b.x_degree)
    cols = 1 + max(f.y_degree, w.h_a.y_degree, w.h_b.y_degree + w.g_b.degree)
    diff = [[0] * cols for _ in range(rows)]  # recomposed - f, unreduced
    for i, row in enumerate(f.table):
        for j, c in enumerate(row):
            diff[i][j] -= c
    for i, row in enumerate(w.h_a.table):  # h_A x^i y^j times g_A(x): shift along x
        for j, c in enumerate(row):
            if c:
                for t, g in enumerate(ga):
                    diff[i + t][j] += c * g
    for i, row in enumerate(w.h_b.table):  # h_B x^i y^j times g_B(y): shift along y
        out = diff[i]
        for j, c in enumerate(row):
            if c:
                for t, g in enumerate(gb):
                    out[j + t] += c * g
    bad = [(i + j, i, c % p) for i, row in enumerate(diff) for j, c in enumerate(row) if c % p]
    if bad:
        d, i, c = min(bad)
        return WitnessVerdict(False, f"monomial x^{i} y^{d - i}: recomposed - f = {c} != 0")
    bound_a = f.total_degree - w.g_a.degree
    bound_b = f.total_degree - w.g_b.degree
    if not w.h_a.is_zero and w.h_a.total_degree > bound_a:
        return WitnessVerdict(
            False, f"deg(h_A) = {w.h_a.total_degree} exceeds bound {bound_a}"
        )
    if not w.h_b.is_zero and w.h_b.total_degree > bound_b:
        return WitnessVerdict(
            False, f"deg(h_B) = {w.h_b.total_degree} exceeds bound {bound_b}"
        )
    return WitnessVerdict(True)
