import itertools
import random
from fractions import Fraction

import pytest

from sumsetlab import (
    BiPoly,
    EmptySet,
    FpSet,
    IndexOutOfRange,
    Prime,
    UniPoly,
    ZeroPolynomial,
    build_locus_poly,
    cij,
    cij_exact,
    elementary_symmetric,
    homogeneous_components,
    restricted_sumset,
    roots_over_fp,
    sigma_expansion,
    vanishing_polynomial,
)

from sumsetlab.poly import _mul_tables, _pack, _slot_width, _unpack

from oracles import (
    antisym_row,
    brute_bipoly_product,
    brute_bipoly_sum,
    brute_locus_coefficients,
    pascal_rows,
)

P7 = Prime(7)
P11 = Prime(11)


def _random_set(rng, p, size):
    return FpSet.of(p, rng.sample(range(p.value), size))


def _kernel(i, p):
    """(x - y)(x + y)**(i-1) as a BiPoly, from the oracle's integer row."""
    rows = [[0] * (i + 1) for _ in range(i + 1)]
    for j, c in enumerate(antisym_row(i)):
        rows[j][i - j] = c
    return BiPoly.of(p, rows)


def test_unipoly_normalization_and_degree():
    q = UniPoly.of(P7, [1, 2, 0, 0])
    assert q.coeffs == (1, 2)
    assert q.degree == 1
    zero = UniPoly.of(P7, [0, 0])
    assert zero.is_zero and zero.degree == -1
    with pytest.raises(ValueError):
        UniPoly(P7, (1, 0))


def test_bipoly_text_round_trip():
    f = BiPoly.of(P11, [[3, 0, 1], [0, 5, 0], [7, 0, 0]])
    text = f.to_text()
    assert BiPoly.from_text(P11, text) == f
    # lines sorted by (total degree, x-exponent)
    keys = [(i + j, i) for line in text.splitlines()
            for i, j in [tuple(map(int, line.split(":")[1].split(",")))]]
    assert keys == sorted(keys)
    with pytest.raises(ValueError):
        BiPoly.from_text(P11, "1:2")


def test_elementary_symmetric_examples():
    assert elementary_symmetric(FpSet.of(P11, [])).values == (1,)
    prof = elementary_symmetric(FpSet.of(P11, [0, 1, 2, 3, 5]))
    assert prof.values[0] == 1
    assert prof.values[1] == (0 + 1 + 2 + 3 + 5) % 11 == 0
    assert prof.values[5] == 0  # product includes 0
    assert len(prof.values) == 6


def test_elementary_symmetric_against_brute_products():
    import itertools
    import math

    rng = random.Random(9)
    for _ in range(30):
        s = _random_set(rng, P11, rng.randint(0, 6))
        prof = elementary_symmetric(s)
        for i in range(len(s) + 1):
            expected = sum(
                math.prod(combo) for combo in itertools.combinations(s.elements, i)
            ) % 11
            assert prof.values[i] == expected


def test_vanishing_polynomial_examples():
    assert vanishing_polynomial(FpSet.of(P7, [0])).coeffs == (0, 1)
    q = vanishing_polynomial(FpSet.of(P7, [1, 2]))
    assert q.coeffs == (2, 4, 1)  # z^2 - 3z + 2
    with pytest.raises(EmptySet):
        vanishing_polynomial(FpSet.of(P7, []))
    rng = random.Random(10)
    for _ in range(30):
        s = _random_set(rng, P11, rng.randint(1, 8))
        q = vanishing_polynomial(s)
        assert q.degree == len(s)
        assert q.coeffs[-1] == 1
        assert all(q.evaluate(e) == 0 for e in s.elements)
        # signed symmetric values appear as coefficients
        prof = elementary_symmetric(s).values
        k = len(s)
        for i in range(k + 1):
            assert q.coefficient(k - i) == (-1) ** i * prof[i] % 11


def test_build_locus_poly_shape():
    assert build_locus_poly(FpSet.of(P11, [])) == BiPoly.of(P11, [[0, 10], [1, 0]])
    c = FpSet.of(P11, range(1, 9))
    f = build_locus_poly(c)
    assert f.total_degree == 9
    assert f.get(9, 0) == 1
    got = {(i, j): v for v, i, j in f.terms()}
    assert got == brute_locus_coefficients(c.elements, 11)


def test_locus_poly_vanishes_on_grid():
    rng = random.Random(12)
    for _ in range(20):
        a = _random_set(rng, P11, rng.randint(1, 5))
        b = _random_set(rng, P11, rng.randint(1, 5))
        f = build_locus_poly(restricted_sumset(a, b))
        assert all(f.evaluate(x, y) == 0 for x in a.elements for y in b.elements)


def test_homogeneous_components_reassemble():
    rng = random.Random(14)
    for _ in range(20):
        rows = [
            [rng.randrange(11) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(1, 5))
        ]
        f = BiPoly.of(P11, rows)
        comps = homogeneous_components(f)
        assert len(comps) == f.total_degree + 1 if not f.is_zero else not comps
        total = {}
        for d, comp in enumerate(comps):
            terms = {(i, j): c for c, i, j in comp.terms()}
            assert all(i + j == d for i, j in terms)
            total = brute_bipoly_sum(total, terms, 11)
        assert total == {(i, j): c for c, i, j in f.terms()}
    hom = _kernel(4, P11)
    comps = homogeneous_components(hom)
    assert sum(1 for c in comps if not c.is_zero) == 1
    # locus polynomials at the audit primes, up to |c| = 36: each component
    # holds exactly the degree-d terms of the naive expansion
    rng = random.Random(15)
    for pv in (37, 41, 43):
        p = Prime(pv)
        for size in range(37):
            c = _random_set(rng, p, size)
            comps = homogeneous_components(build_locus_poly(c))
            assert len(comps) == size + 2
            brute = brute_locus_coefficients(c.elements, pv)
            for d, comp in enumerate(comps):
                got = {(i, j): coeff for coeff, i, j in comp.terms()}
                assert got == {ij: v for ij, v in brute.items() if sum(ij) == d}


def test_homogeneous_top_of_locus_is_antisymmetric_kernel():
    c = FpSet.of(P11, range(1, 9))
    f = build_locus_poly(c)
    assert homogeneous_components(f)[9] == _kernel(9, P11)


def test_cij_examples():
    for i in range(1, 12):
        assert cij(i, i, P11) == 1
        assert cij(i, 0, P11) == 10
    assert cij(3, 2, P11) == 1
    assert cij(4, 2, P11) == 0
    assert cij(9, 5, P11) == 3  # 70 - 56 = 14
    assert all(type(cij(9, j, P11)) is int for j in range(10))
    with pytest.raises(IndexOutOfRange):
        cij(3, 4, P11)
    with pytest.raises(IndexOutOfRange):
        cij(0, 0, P11)
    with pytest.raises(IndexOutOfRange):
        cij(3, -1, P11)


def test_cij_against_expansion_oracle():
    # direct convolution expansion, exact integers, then reduced
    for i in range(1, 51):
        row = antisym_row(i)
        for j in range(i + 1):
            assert cij_exact(i, j) == row[j]
    for pv in (11, 13, 17):
        p = Prime(pv)
        for i in range(1, pv):
            row = antisym_row(i)
            for j in range(i + 1):
                assert cij(i, j, p) == row[j] % pv


def test_cij_antisymmetry_and_closed_form_agreement():
    rows = pascal_rows(60)
    for i in range(1, 51):
        for j in range(i + 1):
            assert cij_exact(i, j) == -cij_exact(i, i - j)
        for j in range(1, i):
            diff = rows[i - 1][j - 1] - rows[i - 1][j]
            ratio = Fraction(2 * j - i, j) * rows[i - 1][j - 1]
            assert Fraction(diff) == ratio
            assert cij_exact(i, j) == diff
    for pv in (11, 13, 17):
        p = Prime(pv)
        for i in range(1, pv + 1):
            for j in range(i + 1):
                assert cij(i, j, p) == (-cij(i, i - j, p)) % pv


def test_sigma_expansion_equals_locus_product():
    assert sigma_expansion(FpSet.of(P11, [])) == BiPoly.of(P11, [[0, 10], [1, 0]])
    c = FpSet.of(P11, range(1, 9))
    f = build_locus_poly(c)
    expanded = sigma_expansion(c)
    assert expanded == f
    # all 55 dense coefficients of the degree-9 triangle agree
    assert sum(1 for _ in f.terms()) <= 55
    rng = random.Random(21)
    for _ in range(50):
        pv = rng.choice((11, 13, 17))
        p = Prime(pv)
        size = rng.randint(2, min(12, pv - 1))
        c = _random_set(rng, p, size)
        assert sigma_expansion(c) == build_locus_poly(c)
    # every size 0..36 at the audit primes, odd sizes included, also against
    # the naive expansion; |c| = 34 is the restricted sumset at k = 18
    rng = random.Random(23)
    for pv in (37, 41, 43):
        p = Prime(pv)
        for size in range(37):
            c = _random_set(rng, p, size)
            expanded = sigma_expansion(c)
            assert expanded == build_locus_poly(c)
            terms = {(i, j): coeff for coeff, i, j in expanded.terms()}
            assert terms == brute_locus_coefficients(c.elements, pv)
            assert expanded.total_degree == size + 1


def test_roots_examples():
    assert roots_over_fp(UniPoly.of(P7, [1, 0, 1])).elements == ()
    assert roots_over_fp(UniPoly.of(Prime(13), [1, 0, 1])).elements == (5, 8)
    with pytest.raises(ZeroPolynomial):
        roots_over_fp(UniPoly.of(P7, []))
    rng = random.Random(22)
    for _ in range(50):
        s = _random_set(rng, P11, rng.randint(1, 8))
        q = vanishing_polynomial(s)
        assert roots_over_fp(q) == s
        assert len(roots_over_fp(q)) == q.degree
    q = UniPoly.of(P7, [1, 0, 1])
    assert len(roots_over_fp(q)) != q.degree


def _cells(table):
    """A dense table as the oracles' {(i, j): c} dict of nonzero cells."""
    return {(i, j): c for i, row in enumerate(table) for j, c in enumerate(row) if c}


def test_pack_unpack_round_trip():
    assert [_slot_width(b) for b in (0, 1, 255, 256, 65535, 65536, 2**32, 2**64 - 1, 2**64)] == [
        1, 1, 1, 2, 2, 4, 8, 8, 9
    ]
    rng = random.Random(32)
    for width in (1, 2, 4, 8, 9, 16):
        top = 256**width - 1
        # slot s sits at bit 8 * width * s, lowest first
        assert _pack([1, 2, 3], width) == 1 + (2 << 8 * width) + (3 << 16 * width)
        for count in (1, 5, 40):
            values = [rng.choice((0, top, rng.randrange(top + 1))) for _ in range(count)]
            packed = _pack(values, width)
            assert _unpack(packed, count, width) == values
            assert _unpack(packed, count + 3, width) == values + [0, 0, 0]
        with pytest.raises(OverflowError):  # a value too wide for its slot is refused
            _pack([top + 1], width)


def test_mul_tables_against_oracle_product():
    # random reduced tables against the naive dict product: edge shapes,
    # rectangles up to 40 x 40 and tables with all-zero rows and columns, at
    # primes that between them use every slot width
    rng = random.Random(31)
    edge = [(1, 1), (1, 9), (9, 1), (1, 40), (40, 1), (40, 40)]
    widths = set()
    for pv in (2, 3, 11, 251, 65537, 2**31 - 1):
        shapes = list(itertools.product(edge, repeat=2))
        while len(shapes) < 45:
            pair = tuple((rng.randint(1, 40), rng.randint(1, 40)) for _ in range(2))
            if pair[0][0] * pair[0][1] * pair[1][0] * pair[1][1] <= 40_000:
                shapes.append(pair)
        for (ra, ca), (rb, cb) in shapes:
            if ra * ca * rb * cb > 100_000:
                continue  # the oracle is quadratic in cells
            a = [[rng.randrange(pv) for _ in range(ca)] for _ in range(ra)]
            b = [[rng.randrange(pv) for _ in range(cb)] for _ in range(rb)]
            if rng.random() < 0.3:  # an all-zero row and column inside
                i, j = rng.randrange(ra), rng.randrange(ca)
                a[i] = [0] * ca
                for row in a:
                    row[j] = 0
            got = _mul_tables(a, b, pv)
            assert len(got) == ra + rb - 1 and {len(row) for row in got} == {ca + cb - 1}
            assert _cells(got) == brute_bipoly_product(_cells(a), _cells(b), pv)
            widths.add(_slot_width((pv - 1) ** 2 * min(ra, rb) * min(ca, cb)))
        assert _mul_tables([], [[1]], pv) == _mul_tables([[1]], [], pv) == []
    assert {1, 2, 4, 8} < widths and max(widths) > 8
