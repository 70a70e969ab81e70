"""Dense polynomials over Z/pZ, univariate and bivariate.

Univariate polynomials are ascending coefficient tuples; bivariate ones are
rectangular tables indexed by (x-exponent, y-exponent). They are coefficient
containers of plain ints with evaluation and text I/O and no ring operators.
Each builder below fills its table directly, except the locus polynomial: it
is a product of tables by the one exact product kernel, ``_mul_tables``,
which packs whole tables into single ints (Kronecker substitution). The
witness re-expansion in ``nullstellensatz`` uses the same kernel.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import EmptySet, IndexOutOfRange, ZeroPolynomial
from .field import Prime, as_prime, binomial_mod
from .sets import FpSet

__all__ = [
    "UniPoly",
    "BiPoly",
    "SymmetricProfile",
    "elementary_symmetric",
    "vanishing_polynomial",
    "build_locus_poly",
    "homogeneous_components",
    "cij",
    "cij_exact",
    "sigma_expansion",
    "roots_over_fp",
]


@dataclass(frozen=True)
class UniPoly:
    """Polynomial in one variable; coeffs[i] multiplies z**i.

    The zero polynomial is the empty tuple and reports degree -1; nonzero
    polynomials always carry a nonzero leading coefficient.
    """

    modulus: Prime
    coeffs: tuple[int, ...]

    def __post_init__(self):
        p = self.modulus.value
        for c in self.coeffs:
            if not 0 <= c < p:
                raise ValueError(f"coefficient {c} not reduced mod {p}")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @classmethod
    def of(cls, p: Prime | int, coeffs: Iterable[int]) -> "UniPoly":
        prime = as_prime(p)
        reduced = [c % prime.value for c in coeffs]
        while reduced and reduced[-1] == 0:
            reduced.pop()
        return cls(prime, tuple(reduced))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def evaluate(self, x: int) -> int:
        p = self.modulus.value
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def __repr__(self) -> str:
        return f"UniPoly(p={self.modulus.value}, coeffs={self.coeffs})"


@dataclass(frozen=True)
class BiPoly:
    """Polynomial in x and y as a dense (dx+1) x (dy+1) coefficient table.

    table[i][j] is the coefficient of x**i y**j. The table is trimmed: no
    trailing all-zero rows or columns; the zero polynomial has an empty table.
    """

    modulus: Prime
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        p = self.modulus.value
        widths = {len(row) for row in self.table}
        if len(widths) > 1:
            raise ValueError("coefficient table must be rectangular")
        for row in self.table:
            for c in row:
                if not 0 <= c < p:
                    raise ValueError(f"coefficient {c} not reduced mod {p}")

    @classmethod
    def of(cls, p: Prime | int, rows: Iterable[Iterable[int]]) -> "BiPoly":
        prime = as_prime(p)
        data = [[c % prime.value for c in row] for row in rows]
        width = max((len(r) for r in data), default=0)
        for r in data:
            r.extend([0] * (width - len(r)))
        while data and not any(data[-1]):
            data.pop()
        while data and width and not any(row[width - 1] for row in data):
            width -= 1
        data = [row[:width] for row in data]
        # from a list, as in audit.extract_grids: see the note there
        return cls(prime, tuple([tuple(row) for row in data]))

    @classmethod
    def zero(cls, p: Prime | int) -> "BiPoly":
        return cls.of(p, [])

    @property
    def is_zero(self) -> bool:
        return not self.table

    @property
    def x_degree(self) -> int:
        return len(self.table) - 1

    @property
    def y_degree(self) -> int:
        return len(self.table[0]) - 1 if self.table else -1

    @functools.cached_property
    def total_degree(self) -> int:
        best = -1
        for i, row in enumerate(self.table):
            for j in range(len(row) - 1, best - i, -1):  # only cells that beat best
                if row[j]:
                    best = i + j
                    break
        return best

    def get(self, i: int, j: int) -> int:
        if 0 <= i < len(self.table) and 0 <= j < len(self.table[i]):
            return self.table[i][j]
        return 0

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """Nonzero (coefficient, i, j), sorted by (total degree, x-exponent)."""
        found = [
            (i + j, i, self.table[i][j])
            for i in range(len(self.table))
            for j in range(len(self.table[i]))
            if self.table[i][j]
        ]
        for d, i, c in sorted(found):
            yield c, i, d - i

    def evaluate(self, x: int, y: int) -> int:
        p = self.modulus.value
        acc = 0
        xp = 1
        for row in self.table:
            inner = 0
            for c in reversed(row):
                inner = (inner * y + c) % p
            acc = (acc + xp * inner) % p
            xp = xp * x % p
        return acc

    def to_text(self) -> str:
        """One 'c:i,j' line per nonzero monomial, in (total degree, i) order."""
        return "\n".join(f"{c}:{i},{j}" for c, i, j in self.terms())

    @classmethod
    def from_text(cls, p: Prime | int, text: str) -> "BiPoly":
        prime = as_prime(p)
        entries = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                c_part, ij = line.split(":")
                i_part, j_part = ij.split(",")
                c, i, j = int(c_part), int(i_part), int(j_part)
            except ValueError as exc:
                raise ValueError(f"bad monomial line {lineno}: {raw!r}") from exc
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent on line {lineno}: {raw!r}")
            entries[(i, j)] = entries.get((i, j), 0) + c
        if not entries:
            return cls.zero(prime)
        rows = max(i for i, _ in entries) + 1
        cols = max(j for _, j in entries) + 1
        table = [[0] * cols for _ in range(rows)]
        for (i, j), c in entries.items():
            table[i][j] = c % prime.value
        return cls.of(prime, table)

    def __repr__(self) -> str:
        return f"BiPoly(p={self.modulus.value}, deg={self.total_degree})"


@dataclass(frozen=True)
class SymmetricProfile:
    """Values e_0..e_m of the elementary symmetric polynomials of a set."""

    modulus: Prime
    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values or self.values[0] != 1:
            raise ValueError("profile must start with e_0 = 1")

    def __len__(self) -> int:
        return len(self.values)


def elementary_symmetric(s: FpSet) -> SymmetricProfile:
    """e_i(s) for 0 <= i <= |s| via the incremental product (z+x_1)(z+x_2)..."""
    p = s.modulus.value
    es = [1]
    for x in s.elements:
        es.append(0)
        for i in range(len(es) - 1, 0, -1):
            es[i] = (es[i] + x * es[i - 1]) % p
    return SymmetricProfile(s.modulus, tuple(es))


def vanishing_polynomial(s: FpSet) -> UniPoly:
    """The monic product of (z - x) over x in s; degree |s|."""
    if not s.elements:
        raise EmptySet("vanishing polynomial of the empty set is not defined")
    p = s.modulus.value
    coeffs = [1]
    for x in s.elements:
        coeffs = [0] + coeffs
        minus = (-x) % p
        for i in range(len(coeffs) - 1):
            coeffs[i] = (coeffs[i] + minus * coeffs[i + 1]) % p
    return UniPoly.of(s.modulus, coeffs)


# array typecode of each machine slot width in bytes
_MACHINE_CODES = {array(code).itemsize: code for code in "BHILQ"}


def _slot_width(bound: int) -> int:
    """Bytes per packed slot holding 0..bound: a machine width when one fits."""
    size = (bound.bit_length() + 7) // 8
    return next((w for w in (1, 2, 4, 8) if size <= w), size)


def _pack(values, width: int) -> int:
    """One int whose slot s (``width`` bytes, little-endian) holds values[s]."""
    code = _MACHINE_CODES.get(width)
    if code is None:  # wider than a machine word: exact for any prime
        return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in values]), "little")
    slots = array(code, values)
    if sys.byteorder == "big":
        slots.byteswap()
    return int.from_bytes(slots, "little")


def _unpack(n: int, count: int, width: int) -> list[int]:
    """The first ``count`` slots of n, inverse to ``_pack``."""
    raw = n.to_bytes(count * width, "little")
    code = _MACHINE_CODES.get(width)
    if code is None:
        return [int.from_bytes(raw[s:s + width], "little") for s in range(0, len(raw), width)]
    slots = array(code, raw)
    if sys.byteorder == "big":
        slots.byteswap()
    return slots.tolist()


def _mul_tables(a, b, p: int) -> list[list[int]]:
    """Product mod p of two reduced coefficient tables, by Kronecker substitution.

    Rows are x-exponents, columns y-exponents; the product is the full dense
    table, or [] when a factor is empty. Both tables are packed row by row
    into one int with the product's width as row stride, so x^i y^j sits at
    slot i * cols + j and no cell of the product spills into another. Each
    slot sums at most min(rows) * min(cols) products of at most (p-1)**2,
    which sets the slot width; one big-int multiply gives every coefficient.
    """
    if not a or not b or not a[0] or not b[0]:
        return []
    rows, cols = len(a) + len(b) - 1, len(a[0]) + len(b[0]) - 1
    width = _slot_width((p - 1) ** 2 * min(len(a), len(b)) * min(len(a[0]), len(b[0])))
    product = 1
    for table in (a, b):
        pad = [0] * (cols - len(table[0]))
        flat = []
        for row in table:
            flat += row
            flat += pad
        product *= _pack(flat, width)
    flat = [c % p for c in _unpack(product, rows * cols, width)]
    return [flat[s:s + cols] for s in range(0, rows * cols, cols)]


def build_locus_poly(c: FpSet) -> BiPoly:
    """(x - y) times the product of (x + y - t) over t in c; degree |c|+1.

    The linear factors are multiplied pairwise, in a balanced tree.
    """
    p = c.modulus.value
    level = [[[0, p - 1], [1, 0]]] + [[[-t % p, 1], [1, 0]] for t in c.elements]
    while len(level) > 1:
        pairs = [_mul_tables(level[s], level[s + 1], p) for s in range(0, len(level) - 1, 2)]
        level = pairs + level[-1:] if len(level) % 2 else pairs
    return BiPoly.of(c.modulus, level[0])


def homogeneous_components(f: BiPoly) -> list[BiPoly]:
    """Components by total degree 0..deg(f); they sum back to f exactly."""
    comps = [[[0] * (d + 1) for _ in range(d + 1)] for d in range(f.total_degree + 1)]
    for c, i, j in f.terms():
        comps[i + j][i][j] = c
    return [BiPoly.of(f.modulus, rows) for rows in comps]


def cij(i: int, j: int, p: Prime | int) -> int:
    """Coefficient of x**j y**(i-j) in (x - y)(x + y)**(i-1), mod p.

    This table is the only form of the antisymmetric kernel the library
    builds. Edge columns are +-1; interior columns are the binomial
    difference C(i-1, j-1) - C(i-1, j). Requires 1 <= i and 0 <= j <= i.
    """
    prime = as_prime(p)
    if i < 1 or j < 0 or j > i:
        raise IndexOutOfRange(f"no coefficient at (i, j) = ({i}, {j})")
    if j == i:
        return 1
    if j == 0:
        return prime.value - 1
    diff = binomial_mod(i - 1, j - 1, prime) - binomial_mod(i - 1, j, prime)
    return diff % prime.value


def cij_exact(i: int, j: int) -> int:
    """Same coefficient as an exact integer."""
    if i < 1 or j < 0 or j > i:
        raise IndexOutOfRange(f"no coefficient at (i, j) = ({i}, {j})")
    if j == i:
        return 1
    if j == 0:
        return -1
    return math.comb(i - 1, j - 1) - math.comb(i - 1, j)


@functools.lru_cache(maxsize=None)
def _kernel_row(d: int, prime: Prime) -> tuple[int, ...]:
    # cij(d, j) for 0 <= j <= d, read once per degree and prime
    return tuple([cij(d, j, prime) for j in range(d + 1)])


def sigma_expansion(c: FpSet) -> BiPoly:
    """Rebuild the locus polynomial of c from its symmetric function values.

    Returns the sum over 0 <= i <= m = |c| of (-1)**i e_i(c) times the kernel
    (x - y)(x + y)**(m - i), which must equal build_locus_poly(c)
    identically. Each kernel is homogeneous of degree d = m + 1 - i, so its
    coefficients cij(d, j) land directly at x**j y**(d - j); each degree's
    row of them is built once per prime and cached.
    """
    prime = c.modulus
    m = len(c)
    sig = elementary_symmetric(c).values
    table = [[0] * (m + 2) for _ in range(m + 2)]
    for i in range(m + 1):
        e = sig[i] if i % 2 == 0 else -sig[i]
        d = m + 1 - i
        for j, coeff in enumerate(_kernel_row(d, prime)):
            table[j][d - j] += e * coeff
    return BiPoly.of(prime, table)


def roots_over_fp(q: UniPoly) -> FpSet:
    """All r with q(r) = 0, by trial evaluation; multiplicity ignored."""
    if q.is_zero:
        raise ZeroPolynomial("every residue is a root of the zero polynomial")
    p = q.modulus.value
    return FpSet.of(q.modulus, (r for r in range(p) if q.evaluate(r) == 0))
