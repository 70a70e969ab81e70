import random

import pytest

from sumsetlab import (
    BiPoly,
    CnWitness,
    FpSet,
    ModulusMismatch,
    NotVanishing,
    Prime,
    build_locus_poly,
    cn_decompose,
    first_nonvanishing_point,
    restricted_sumset,
    vanishing_polynomial,
    verify_witness,
)

from oracles import (
    brute_bipoly_product,
    brute_bipoly_sum,
    brute_cn_decompose,
    brute_first_nonzero,
    brute_vanishing,
)

P11 = Prime(11)


def _random_set(rng, p, size):
    return FpSet.of(p, rng.sample(range(p.value), size))


def _random_bipoly(rng, p, max_deg=4):
    rows = [
        [rng.randrange(p.value) for _ in range(rng.randint(1, max_deg))]
        for _ in range(rng.randint(1, max_deg))
    ]
    return BiPoly.of(p, rows)


def _terms(f):
    """A BiPoly as the oracles' {(i, j): c} dict."""
    return {(i, j): c for c, i, j in f.terms()}


def _in_x(q):
    return {(t, 0): c for t, c in enumerate(q.coeffs) if c}


def _in_y(q):
    return {(0, t): c for t, c in enumerate(q.coeffs) if c}


def _bipoly(p, terms):
    """The BiPoly with the given {(i, j): c} coefficients."""
    rows = [[0] * (1 + max((j for _, j in terms), default=0))
            for _ in range(1 + max((i for i, _ in terms), default=0))]
    for (i, j), c in terms.items():
        rows[i][j] = c
    return BiPoly.of(p, rows)


def _recomposed(h_a, h_b, g_a, g_b, p):
    """h_A g_A(x) + h_B g_B(y) as an oracle dict."""
    return brute_bipoly_sum(
        brute_bipoly_product(h_a, _in_x(g_a), p),
        brute_bipoly_product(h_b, _in_y(g_b), p),
        p,
    )


def _first_difference(h_a, h_b, g_a, g_b, f, p):
    """verify_witness's failure text for the least monomial of recomposed - f."""
    minus_f = {key: -c % p for key, c in f.items()}
    diff = brute_bipoly_sum(_recomposed(h_a, h_b, g_a, g_b, p), minus_f, p)
    if not diff:
        return None
    i, j = min(diff, key=lambda ij: (ij[0] + ij[1], ij[0]))
    return f"monomial x^{i} y^{j}: recomposed - f = {diff[i, j]} != 0"


def test_vanishes_on_grid_basics():
    a = FpSet.of(P11, [0, 1, 2])
    b = FpSet.of(P11, [4, 5])
    g_a = _in_x(vanishing_polynomial(a))
    rng = random.Random(1)
    anything = _terms(_random_bipoly(rng, P11))
    f = _bipoly(P11, brute_bipoly_product(g_a, anything, 11))
    assert first_nonvanishing_point(f, a, b) is None
    one = BiPoly.of(P11, [[1]])
    assert first_nonvanishing_point(one, a, b) == (0, 4, 1)
    f = build_locus_poly(restricted_sumset(a, b))
    assert first_nonvanishing_point(f, a, b) is None
    with pytest.raises(ModulusMismatch):
        first_nonvanishing_point(one, a, FpSet.of(Prime(7), [1]))


def test_decompose_trivial_cases():
    a = FpSet.of(P11, [0, 1, 2])
    b = FpSet.of(P11, [4, 5])
    g_a = vanishing_polynomial(a)
    g_b = vanishing_polynomial(b)
    w = cn_decompose(_bipoly(P11, _in_x(g_a)), a, b)
    assert w.h_a == BiPoly.of(P11, [[1]])
    assert w.h_b.is_zero
    assert verify_witness(_bipoly(P11, _in_x(g_a)), w).ok

    # f = g_A(x)*y + g_B(y)*x -> h_A = y, h_B = x
    y = BiPoly.of(P11, [[0, 1]])
    x = BiPoly.of(P11, [[0], [1]])
    f = _bipoly(P11, _recomposed(_terms(y), _terms(x), g_a, g_b, 11))
    w = cn_decompose(f, a, b)
    assert w.h_a == y
    assert w.h_b == x
    assert w.h_b.x_degree < len(a)
    assert verify_witness(f, w).ok


def test_decompose_extremal_instance():
    a = FpSet.of(P11, [0, 1, 2, 3, 5])
    f = build_locus_poly(restricted_sumset(a, a))
    w = cn_decompose(f, a, a)
    assert w.h_a.total_degree <= 4
    assert w.h_b.total_degree <= 4
    assert w.degree_bound_a == 4
    assert w.degree_bound_b == 4
    assert verify_witness(f, w).ok
    # evaluation cross-check, independent of the coefficient comparison
    recomposed = _bipoly(P11, _recomposed(_terms(w.h_a), _terms(w.h_b), w.g_a, w.g_b, 11))
    for x in range(11):
        for y in range(11):
            assert recomposed.evaluate(x, y) == f.evaluate(x, y)


def test_decompose_canonical_and_deterministic():
    rng = random.Random(2)
    for _ in range(30):
        a = _random_set(rng, P11, rng.randint(2, 6))
        b = _random_set(rng, P11, rng.randint(2, 6))
        f = build_locus_poly(restricted_sumset(a, b))
        w1 = cn_decompose(f, a, b)
        w2 = cn_decompose(f, a, b)
        assert w1 == w2
        assert w1.h_b.is_zero or w1.h_b.x_degree < len(a)


def test_decompose_rejects_nonvanishing_input():
    rng = random.Random(3)
    rejected = 0
    for _ in range(100):
        a = _random_set(rng, P11, rng.randint(1, 5))
        b = _random_set(rng, P11, rng.randint(1, 5))
        f = _random_bipoly(rng, P11)
        if first_nonvanishing_point(f, a, b) is None:
            continue  # astronomically unlikely for random f, but stay honest
        rejected += 1
        with pytest.raises(NotVanishing) as info:
            cn_decompose(f, a, b)
        x, y = info.value.point
        assert f.evaluate(x, y) == info.value.value != 0
    assert rejected > 90


def test_decompose_completeness_on_locus_polynomials():
    rng = random.Random(4)
    for _ in range(60):
        pv = rng.choice((11, 13, 17))
        p = Prime(pv)
        a = _random_set(rng, p, rng.randint(2, 6))
        b = _random_set(rng, p, rng.randint(2, 6))
        f = build_locus_poly(restricted_sumset(a, b))
        w = cn_decompose(f, a, b)
        assert verify_witness(f, w).ok
        bound_a = f.total_degree - len(a)
        bound_b = f.total_degree - len(b)
        assert w.h_a.is_zero or w.h_a.total_degree <= bound_a
        assert w.h_b.is_zero or w.h_b.total_degree <= bound_b


@pytest.mark.parametrize("pv", [11, 13, 2**31 - 1])
def test_decompose_matches_scalar_reduction_oracle(pv):
    # vanishing f = h_A g_A(x) + h_B g_B(y) from random h over random grids:
    # the packed reduction returns the scalar oracle's quotients. Then one
    # cell of f is perturbed: where f no longer vanishes, the oracle leaves
    # a remainder and NotVanishing names the first nonvanishing grid point
    rng = random.Random(pv)
    p = Prime(pv)
    rejected = 0
    for _ in range(40):
        a = _random_set(rng, p, rng.randint(1, 6))
        b = _random_set(rng, p, rng.randint(1, 6))
        g_a, g_b = vanishing_polynomial(a), vanishing_polynomial(b)
        assert list(g_a.coeffs) == brute_vanishing(a.elements, pv)
        h_a = _terms(_random_bipoly(rng, p, 7))
        h_b = _terms(_random_bipoly(rng, p, 7))
        f = _recomposed(h_a, h_b, g_a, g_b, pv)
        qa, qb, rest = brute_cn_decompose(_bipoly(p, f).table, a.elements, b.elements, pv)
        assert not any(map(any, rest))
        w = cn_decompose(_bipoly(p, f), a, b)
        assert (w.h_a, w.h_b) == (BiPoly.of(p, qa), BiPoly.of(p, qb))

        cell = (rng.randrange(8), rng.randrange(8))
        f[cell] = (f.get(cell, 0) + rng.randrange(1, pv)) % pv
        point = brute_first_nonzero(f, a.elements, b.elements, pv)
        qa, qb, rest = brute_cn_decompose(_bipoly(p, f).table, a.elements, b.elements, pv)
        assert any(map(any, rest)) == (point is not None)
        if point is None:  # x^i y^j vanishes on the grid when a = {0} and i > 0
            w = cn_decompose(_bipoly(p, f), a, b)
            assert (w.h_a, w.h_b) == (BiPoly.of(p, qa), BiPoly.of(p, qb))
            continue
        rejected += 1
        with pytest.raises(NotVanishing) as info:
            cn_decompose(_bipoly(p, f), a, b)
        assert (*info.value.point, info.value.value) == point
    assert rejected > 30


def test_verify_witness_detects_corruption():
    a = FpSet.of(P11, [0, 1, 2, 3, 5])
    f = build_locus_poly(restricted_sumset(a, a))
    w = cn_decompose(f, a, a)

    perturbed_rows = [list(row) for row in w.h_a.table]
    perturbed_rows[0][0] = (perturbed_rows[0][0] + 1) % 11
    bad = type(w)(
        h_a=BiPoly.of(P11, perturbed_rows),
        h_b=w.h_b,
        g_a=w.g_a,
        g_b=w.g_b,
        degree_bound_a=w.degree_bound_a,
        degree_bound_b=w.degree_bound_b,
    )
    verdict = verify_witness(f, bad)
    assert not verdict.ok
    # recomposed - f is exactly g_A(x), whose least monomial is x^1 (0 is in A)
    expected = _first_difference(
        _terms(bad.h_a), _terms(bad.h_b), bad.g_a, bad.g_b, _terms(f), 11
    )
    assert verdict.failure == expected == "monomial x^1 y^0: recomposed - f = 8 != 0"

    # any part of the witness, or f, over another modulus
    p13 = Prime(13)
    g13 = vanishing_polynomial(FpSet.of(p13, a.elements))
    h13 = BiPoly.of(p13, [list(row) for row in w.h_a.table])
    for bad in (
        CnWitness(w.h_a, w.h_b, g13, w.g_b, w.degree_bound_a, w.degree_bound_b),
        CnWitness(w.h_a, w.h_b, w.g_a, g13, w.degree_bound_a, w.degree_bound_b),
        CnWitness(h13, w.h_b, w.g_a, w.g_b, w.degree_bound_a, w.degree_bound_b),
    ):
        with pytest.raises(ModulusMismatch):
            verify_witness(f, bad)
    with pytest.raises(ModulusMismatch):
        verify_witness(BiPoly.of(p13, [list(row) for row in f.table]), w)


def test_verify_witness_rejects_degree_violation():
    # an exact identity whose h_A has degree deg(f) - |Sx| + 1: for
    # f = g_A g_B take h_A = (1+y) g_B(y) and h_B = -y g_A(x)
    a = FpSet.of(P11, [0, 1])
    b = FpSet.of(P11, [2, 3])
    g_a = vanishing_polynomial(a)
    g_b = vanishing_polynomial(b)
    # degree 4, both bounds are 2
    f = _bipoly(P11, brute_bipoly_product(_in_x(g_a), _in_y(g_b), 11))
    w = cn_decompose(f, a, b)
    assert verify_witness(f, w).ok
    bad = type(w)(
        h_a=_bipoly(P11, brute_bipoly_product({(0, 0): 1, (0, 1): 1}, _in_y(g_b), 11)),
        h_b=_bipoly(P11, brute_bipoly_product({(0, 1): 10}, _in_x(g_a), 11)),
        g_a=g_a,
        g_b=g_b,
        degree_bound_a=2,
        degree_bound_b=2,
    )
    verdict = verify_witness(f, bad)
    assert not verdict.ok
    assert "bound" in verdict.failure


def test_verify_witness_against_oracle():
    # random witnesses over random grids: f is the oracle's h_A g_A + h_B g_B,
    # then one or two cells of f, h_A or h_B are perturbed and the failure
    # must name the oracle's least differing monomial and its coefficient;
    # two cells can differ in the order of (total degree, x) and of x alone
    rng = random.Random(7)
    for _ in range(60):
        p = Prime(rng.choice((11, 13)))
        pv = p.value
        a = _random_set(rng, p, rng.randint(1, 5))
        b = _random_set(rng, p, rng.randint(1, 5))
        g_a, g_b = vanishing_polynomial(a), vanishing_polynomial(b)
        h_a = _terms(_random_bipoly(rng, p))
        h_b = _terms(_random_bipoly(rng, p))
        f = _recomposed(h_a, h_b, g_a, g_b, pv)
        deg_f = max((i + j for i, j in f), default=-1)
        bounds_hold = all(
            i + j <= deg_f - len(s) for h, s in ((h_a, a), (h_b, b)) for i, j in h
        )
        w = CnWitness(_bipoly(p, h_a), _bipoly(p, h_b), g_a, g_b,
                      deg_f - len(a), deg_f - len(b))
        verdict = verify_witness(_bipoly(p, f), w)
        assert verdict.ok == bounds_hold
        if not bounds_hold:
            assert "exceeds bound" in verdict.failure

        parts = {"f": dict(f), "h_a": dict(h_a), "h_b": dict(h_b)}
        for _ in range(rng.randint(1, 2)):
            part = parts[rng.choice(sorted(parts))]
            cell = (rng.randrange(6), rng.randrange(6))
            part[cell] = (part.get(cell, 0) + rng.randrange(1, pv)) % pv
            if not part[cell]:
                del part[cell]
        w = CnWitness(_bipoly(p, parts["h_a"]), _bipoly(p, parts["h_b"]), g_a, g_b,
                      deg_f - len(a), deg_f - len(b))
        verdict = verify_witness(_bipoly(p, parts["f"]), w)
        expected = _first_difference(parts["h_a"], parts["h_b"], g_a, g_b, parts["f"], pv)
        assert expected is not None
        assert not verdict.ok
        assert verdict.failure == expected
