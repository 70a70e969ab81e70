"""Witness decomposition for polynomials vanishing on a two-set grid.

If f(a, b) = 0 for every a in Sx and b in Sy, then f lies in the ideal
generated by g_A(x) and g_B(y), the vanishing polynomials of the two sets,
and f = h_A * g_A(x) + h_B * g_B(y) with deg(h_A) <= deg(f) - |Sx| and
deg(h_B) <= deg(f) - |Sy|. ``cn_decompose`` produces the canonical such
witness by iterated reduction on packed rows: each row of f is one int, so
one pivot row is divided out with one big-int operation per coefficient of
g_A. ``verify_witness`` re-expands it on its own, without the reduction:
h_A g_A(x) and h_B g_B(y) are whole-table products by the Kronecker kernel
of ``poly``, and their sum is compared with f cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .errors import EmptySet, ModulusMismatch, NotVanishing
from .poly import BiPoly, UniPoly, _mul_tables, _pack, _slot_width, _unpack, vanishing_polynomial
from .sets import FpSet

__all__ = [
    "CnWitness",
    "WitnessVerdict",
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

    # one int per row of f, one slot per column; a slot starts below p and
    # takes at most max(m, n) additions below p**2 before it is read back
    width = _slot_width(p + max(m, n) * p * p)
    cols = len(f.table[0]) if f.table else 0
    packed = [_pack(row, width) for row in f.table]

    qa = []  # top row first, reversed below
    ga = g_a.coeffs
    for i in range(len(packed) - 1, m - 1, -1):
        # row i, reduced, is the quotient row of x^(i-m); subtracting it times
        # x^(i-m) g_A(x) clears row i and adds -g_A[t] times it to row i-m+t
        row = [c % p for c in _unpack(packed[i], cols, width)]
        qa.append(row)
        q = _pack(row, width)
        for t in range(m):
            packed[i - m + t] += (p - ga[t]) * q
    qa.reverse()

    # the rows below |Sx| are left; repack them by column and reduce in y
    low = [[c % p for c in _unpack(r, cols, width)] for r in packed[:m]]
    packed = [_pack(col, width) for col in zip(*low)]
    qb_cols = []
    gb = g_b.coeffs
    for j in range(len(packed) - 1, n - 1, -1):
        col = [c % p for c in _unpack(packed[j], len(low), width)]
        qb_cols.append(col)
        q = _pack(col, width)
        for t in range(n):
            packed[j - n + t] += (p - gb[t]) * q
    qb = zip(*reversed(qb_cols))  # back to rows

    if any([c % p for r in packed[:n] for c in _unpack(r, len(low), width)]):
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
    prod_a = _mul_tables(w.h_a.table, [[g] for g in w.g_a.coeffs], p)  # g_A(x): one column
    prod_b = _mul_tables(w.h_b.table, [w.g_b.coeffs], p)  # g_B(y): one row
    # recomposed - f, cell by cell; a table shorter than another reads as 0
    bad = [
        (i + j, i, c)
        for i, rows in enumerate(zip_longest(prod_a, prod_b, f.table, fillvalue=()))
        for j, c in enumerate([(x + y - z) % p for x, y, z in zip_longest(*rows, fillvalue=0)])
        if c
    ]
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
