"""Dense polynomials over Z/pZ, univariate and bivariate.

Univariate polynomials are ascending coefficient tuples; bivariate ones are
rectangular tables indexed by (x-exponent, y-exponent). They are coefficient
containers with evaluation and text I/O and no ring arithmetic: each builder
below fills its table directly. Degrees stay small (a few dozen), so the
tables hold plain ints.
"""

from __future__ import annotations

import functools
import math
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
    "splits_with_distinct_roots",
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
            for j, c in enumerate(row):
                if c and i + j > best:
                    best = i + j
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


def build_locus_poly(c: FpSet) -> BiPoly:
    """(x - y) times the product of (x + y - t) over t in c; degree |c|+1."""
    p, n = c.modulus.value, len(c) + 3  # row and column n-1 stay zero, so index -1 reads 0
    g = [[0] * n for _ in range(n)]
    g[1][0], g[0][1] = 1, p - 1  # x - y
    for d, t in enumerate(c.elements, 2):  # g * (x + y - t) in place; its degree is d
        for i in range(d, -1, -1):  # downward, so g[i - 1] and g[i][j - 1] are still old
            row, low = g[i], g[i - 1]
            for j in range(d - i, -1, -1):
                row[j] = (low[j] + row[j - 1] - t * row[j]) % p
    return BiPoly.of(c.modulus, g)


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


def sigma_expansion(c: FpSet) -> BiPoly:
    """Rebuild the locus polynomial of c from its symmetric function values.

    Returns the sum over 0 <= i <= m = |c| of (-1)**i e_i(c) times the kernel
    (x - y)(x + y)**(m - i), which must equal build_locus_poly(c)
    identically. Each kernel is homogeneous of degree d = m + 1 - i, so its
    coefficients cij(d, j) land directly at x**j y**(d - j).
    """
    prime = c.modulus
    m = len(c)
    sig = elementary_symmetric(c).values
    table = [[0] * (m + 2) for _ in range(m + 2)]
    for i in range(m + 1):
        e = sig[i] if i % 2 == 0 else -sig[i]
        d = m + 1 - i
        for j in range(d + 1):
            table[j][d - j] += e * cij(d, j, prime)
    return BiPoly.of(prime, table)


def roots_over_fp(q: UniPoly) -> FpSet:
    """All r with q(r) = 0, by trial evaluation; multiplicity ignored."""
    if q.is_zero:
        raise ZeroPolynomial("every residue is a root of the zero polynomial")
    p = q.modulus.value
    return FpSet.of(q.modulus, (r for r in range(p) if q.evaluate(r) == 0))


def splits_with_distinct_roots(q: UniPoly) -> bool:
    """True iff q has deg(q) distinct roots in the field."""
    return not q.is_zero and len(roots_over_fp(q)) == q.degree
