import itertools
import random

import pytest

from sumsetlab import (
    EmptySet,
    FpSet,
    ModulusMismatch,
    Prime,
    canonical_pair,
    classify_pair,
    is_arithmetic_progression,
    restricted_sumset,
    sumset,
)
from sumsetlab.sets import (
    CAUCHY_DAVENPORT_TIGHT,
    DIAGONAL,
    EH_PLUS_ONE,
    EH_TIGHT,
    HAMIDOUNE_RODSETH,
    VOSPER_AP,
    VOSPER_COMPLEMENT,
    VOSPER_SINGLETON,
    _classify_masks,
    _least_progression,
    _progressions,
)

from oracles import (
    brute_ap_witnesses,
    brute_canonical_pair,
    brute_classify,
    brute_restricted,
    brute_sumset,
)

P11 = Prime(11)
P7 = Prime(7)


def _random_set(rng, p, size):
    return FpSet.of(p, rng.sample(range(p.value), size))


def _image(s, lam, mu):
    """{lam*x + mu : x in s}, element by element."""
    return FpSet.of(s.modulus, (lam * e + mu for e in s.elements))


def test_fpset_invariants():
    s = FpSet.of(P11, [5, 1, 1, 16])
    assert s.elements == (1, 5)  # reduced and deduplicated
    with pytest.raises(ValueError):
        FpSet(P11, (3, 2))
    with pytest.raises(ValueError):
        FpSet(P11, (0, 11))
    assert FpSet.of(P11, []).elements == ()


def test_sumset_examples():
    a = FpSet.of(P7, [0, 1])
    assert sumset(a, a).elements == (0, 1, 2)
    b = FpSet.of(P7, [2, 4, 5])
    assert sumset(FpSet.of(P7, [0]), b) == b
    big = FpSet.of(P11, range(5))
    assert sumset(big, big).elements == tuple(sorted(brute_sumset(range(5), range(5), 11)))
    assert sumset(big, big).elements == tuple(range(9))


def test_restricted_sumset_examples():
    single = FpSet.of(P7, [2])
    assert restricted_sumset(single, single).elements == ()
    a = FpSet.of(P11, range(5))
    expected = tuple(sorted(brute_restricted(range(5), range(5), 11)))
    assert restricted_sumset(a, a).elements == expected
    assert len(restricted_sumset(a, a)) == 7  # 2k-3
    b = FpSet.of(P11, [0, 1, 2, 3, 5])
    expected = tuple(sorted(brute_restricted(b.elements, b.elements, 11)))
    assert restricted_sumset(b, b).elements == expected
    assert len(restricted_sumset(b, b)) == 8  # 2k-2


def test_sumset_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        sumset(FpSet.of(P7, [1]), FpSet.of(P11, [1]))
    with pytest.raises(ModulusMismatch):
        restricted_sumset(FpSet.of(P7, [1]), FpSet.of(P11, [1]))


def test_restricted_subset_of_sumset_with_diagonal_difference():
    rng = random.Random(7)
    for _ in range(200):
        ka, kb = rng.randint(1, 6), rng.randint(1, 6)
        a = _random_set(rng, P11, ka)
        b = _random_set(rng, P11, kb)
        s = set(sumset(a, b).elements)
        r = set(restricted_sumset(a, b).elements)
        assert r <= s
        common = set(a.elements) & set(b.elements)
        for missing in s - r:
            assert any(2 * x % 11 == missing for x in common)
        assert restricted_sumset(a, b) == restricted_sumset(b, a)


def test_ap_detection_examples():
    w = is_arithmetic_progression(FpSet.of(P11, [3]))
    assert (w.start, w.diff, w.length) == (3, 1, 1)
    w = is_arithmetic_progression(FpSet.of(P11, [0, 2, 4, 6]))
    assert (w.start, w.diff, w.length) == (0, 2, 4)
    assert is_arithmetic_progression(FpSet.of(P7, [0, 1, 3])) is None
    assert not brute_ap_witnesses((0, 1, 3), 7)
    # a prime far above any sweep: both witnesses, and none for a non-progression
    big = Prime(1000003)
    s = FpSet.of(big, [0, 2, 4, 6])
    assert s._ap_candidates == ((0, 2), (6, big.value - 2))
    w = is_arithmetic_progression(s)
    assert (w.start, w.diff, w.length) == (0, 2, 4)
    assert is_arithmetic_progression(FpSet.of(big, [0, 1, 2, 3, 5])) is None
    with pytest.raises(EmptySet):
        is_arithmetic_progression(FpSet.of(P7, []))


def test_ap_detection_against_brute_force():
    # every nonempty subset of F_7 and F_11; sets of size 1 and 2 are
    # progressions by convention, and the convention is the least witness
    for pv in (7, 11):
        p = Prime(pv)
        for size in range(1, pv + 1):
            for elems in itertools.combinations(range(pv), size):
                witnesses = brute_ap_witnesses(elems, pv)
                got = is_arithmetic_progression(FpSet(p, elems))
                if size <= 2:
                    assert witnesses
                if witnesses:
                    assert got is not None
                    assert (got.start, got.diff, got.length) == (*min(witnesses), size)
                    assert got.expand().elements == elems
                else:
                    assert got is None


def test_ap_witness_expand_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        s = _random_set(rng, P11, rng.randint(1, 7))
        w = is_arithmetic_progression(s)
        if w is not None:
            assert w.expand() == s


def test_affine_equivariance_of_restricted_sumset():
    rng = random.Random(11)
    for _ in range(100):
        a = _random_set(rng, P11, rng.randint(1, 6))
        b = _random_set(rng, P11, rng.randint(1, 6))
        lam = rng.randint(1, 10)
        mu = rng.randint(0, 10)
        lhs = restricted_sumset(_image(a, lam, mu), _image(b, lam, mu))
        rhs = _image(restricted_sumset(a, b), lam, 2 * mu)
        assert lhs == rhs
        ls = sumset(_image(a, lam, mu), _image(b, lam, mu))
        assert ls == _image(sumset(a, b), lam, 2 * mu)


def test_ap_detection_affine_invariant():
    rng = random.Random(13)
    for _ in range(100):
        s = _random_set(rng, P11, rng.randint(1, 7))
        lam = rng.randint(1, 10)
        mu = rng.randint(0, 10)
        image = _image(s, lam, mu)
        assert (is_arithmetic_progression(s) is None) == (
            is_arithmetic_progression(image) is None
        )


def test_canonical_pair_examples():
    a = FpSet.of(P11, [5, 6, 7])
    got = canonical_pair(a, a)
    assert got.a.elements == (0, 1, 2)
    assert got.b.elements == (0, 1, 2)
    assert (got.lam, got.mu) == (1, 6)
    again = canonical_pair(*got.sets)
    assert again.sets == got.sets
    assert (again.lam, again.mu) == (1, 0)


def test_canonical_pair_matches_full_scan_and_merges_orbits():
    rng = random.Random(17)
    for _ in range(60):
        a = _random_set(rng, P11, rng.randint(1, 5))
        b = _random_set(rng, P11, rng.randint(0, 5))
        got = canonical_pair(a, b)
        expect = brute_canonical_pair(a.elements, b.elements, 11)
        assert (got.a.elements, got.b.elements) == expect
        # affinely scrambled copies land on the same canonical pair
        lam, mu = rng.randint(1, 10), rng.randint(0, 10)
        got2 = canonical_pair(_image(a, lam, mu), _image(b, lam, mu))
        assert got2.sets == got.sets


def test_classify_pair_examples():
    p13 = Prime(13)
    cls = classify_pair(FpSet.of(p13, [1, 2, 3]), FpSet.of(p13, [5, 6, 7, 8]))
    assert cls.sumset_size == 6 == 3 + 4 - 1
    assert CAUCHY_DAVENPORT_TIGHT in cls.labels
    assert VOSPER_AP in cls.labels

    cls = classify_pair(FpSet.of(P7, [0]), FpSet.of(P7, [0, 3]))
    assert VOSPER_SINGLETON in cls.labels

    a = FpSet.of(P11, range(5))
    cls = classify_pair(a, a)
    assert EH_TIGHT in cls.labels
    assert cls.restricted_size == 7
    assert DIAGONAL in cls.labels

    # a singleton shares every difference, found without listing them all
    big = Prime(1000003)
    single = FpSet.of(big, [7])
    assert VOSPER_AP in classify_pair(single, FpSet.of(big, [0, 2, 4, 6])).labels
    assert VOSPER_AP in classify_pair(FpSet.of(big, [5]), single).labels
    assert VOSPER_AP not in classify_pair(FpSet.of(big, [0, 1, 2, 3, 5]), single).labels


def test_classify_pair_complement_case():
    # B = F \ (c - A) with c the unique element missing from A+B
    p = Prime(7)
    a = FpSet.of(p, [0, 1])
    c = 5
    b = FpSet.of(p, set(range(7)) - {(c - x) % 7 for x in a.elements})
    cls = classify_pair(a, b)
    assert cls.sumset_size == 6
    assert VOSPER_COMPLEMENT in cls.labels


def _checked_progressions(elems, p):
    # the mask generators of a set, checked against every witness
    mask = sum(1 << e for e in elems)
    progressions = _progressions(mask, p)
    witnesses = brute_ap_witnesses(elems, p)
    assert progressions == (() if len(elems) == 1 else tuple(sorted(witnesses)))
    assert _least_progression(mask, progressions) == (min(witnesses) if witnesses else None)
    return mask, progressions


def _check_mask_classifier(a, b, p, sets):
    for x in (a, b):
        if x not in sets:
            sets[x] = _checked_progressions(x, p)
    (a_mask, a_progressions), (b_mask, b_progressions) = sets[a], sets[b]
    s_size, r_size, labels = brute_classify(a, b, p)
    got = _classify_masks(a_mask, b_mask, p, a_progressions, b_progressions)
    assert got == (s_size, r_size, tuple(sorted(labels))), (a, b)
    return labels


def test_mask_classifier_matches_brute_force():
    # every pair of nonempty subsets at p = 5 and 7: singletons, the
    # complement label at |A+B| = p-1 and the whole field
    seen = set()
    for p in (5, 7):
        subsets = [x for k in range(1, p + 1) for x in itertools.combinations(range(p), k)]
        sets = {}
        for a in subsets:
            for b in subsets:
                seen |= _check_mask_classifier(a, b, p, sets)
    # |A+B| = |A|+|B| <= p-4 with |A| >= 3, |B| >= 4 needs p >= 11
    assert seen == {
        CAUCHY_DAVENPORT_TIGHT, VOSPER_SINGLETON, VOSPER_COMPLEMENT, VOSPER_AP,
        EH_TIGHT, EH_PLUS_ONE, DIAGONAL,
    }
    rng = random.Random(4099)
    for p in (11, 13):
        sets = {}
        assert HAMIDOUNE_RODSETH in _check_mask_classifier((0, 1, 3), (0, 1, 2, 3), p, sets)
        for _ in range(300):
            a = tuple(sorted(rng.sample(range(p), rng.randint(1, p))))
            b = tuple(sorted(rng.sample(range(p), rng.randint(1, p))))
            _check_mask_classifier(a, b, p, sets)


def test_classify_labels_consistent_with_sizes():
    rng = random.Random(23)
    for _ in range(150):
        a = _random_set(rng, P11, rng.randint(1, 6))
        b = _random_set(rng, P11, rng.randint(1, 6))
        cls = classify_pair(a, b)
        k, ell = len(a), len(b)
        assert (EH_TIGHT in cls.labels) == (cls.restricted_size == k + ell - 3)
        assert (EH_PLUS_ONE in cls.labels) == (cls.restricted_size == k + ell - 2)
        assert (CAUCHY_DAVENPORT_TIGHT in cls.labels) == (cls.sumset_size == k + ell - 1)
        assert (DIAGONAL in cls.labels) == (a == b)
        if HAMIDOUNE_RODSETH in cls.labels:
            assert k >= 3 and ell >= 4 and cls.sumset_size == k + ell <= 7


def test_hamidoune_rodseth_conclusion_holds_where_applicable():
    # wherever the label applies over F_11, both sets embed in progressions
    # with one shared difference and lengths |A|+1, |B|+1
    p = Prime(11)

    def covered(elems, d, max_len):
        # minimal progression cover with difference d, circular gap argument
        inv = pow(d, 9, 11)
        line = sorted(x * inv % 11 for x in elems)
        gaps = [
            (line[(i + 1) % len(line)] - line[i]) % 11 for i in range(len(line))
        ]
        return 11 - max(gaps) + 1 <= max_len

    # only |A| = 3, |B| = 4 can satisfy |A+B| = |A|+|B| <= p-4 at p = 11
    applicable = 0
    for a_elems in itertools.combinations(range(11), 3):
        for b_elems in itertools.combinations(range(11), 4):
            if len(brute_sumset(a_elems, b_elems, 11)) != 7:
                continue
            a, b = FpSet(p, a_elems), FpSet(p, b_elems)
            assert HAMIDOUNE_RODSETH in classify_pair(a, b).labels
            applicable += 1
            assert any(
                covered(a_elems, d, 4) and covered(b_elems, d, 5)
                for d in range(1, 11)
            )
    assert applicable > 0
