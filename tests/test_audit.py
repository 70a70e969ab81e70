import hashlib
import random
from fractions import Fraction

import pytest

from sumsetlab import (
    DegreeTooHigh,
    FpSet,
    HypothesisViolation,
    NotSplitting,
    Prime,
    SymmetricProfile,
    audit_sigma_chain,
    audit_top_layer,
    build_locus_poly,
    cij,
    cij_exact,
    cn_decompose,
    elementary_symmetric,
    even_denominator_closed_form,
    extract_grids,
    odd_pivot_closed_form,
    reconstruct_from_sigmas,
    restricted_sumset,
)
from sumsetlab.nullstellensatz import CnWitness
from sumsetlab.poly import BiPoly

P11 = Prime(11)

EXTREMAL = FpSet.of(P11, [0, 1, 2, 3, 5])  # |A| = 5, restricted sumset size 8


def _witness(a=EXTREMAL, b=EXTREMAL):
    f = build_locus_poly(restricted_sumset(a, b))
    return cn_decompose(f, a, b)


def test_extract_grids_shape_and_values():
    w = _witness()
    grid_a, grid_b = extract_grids(w, 5)
    assert len(grid_a.rows) == 5
    for i in range(5):
        assert len(grid_a.rows[i]) == i + 1
        assert len(grid_b.rows[i]) == i + 1
    # row k-1 matches the degree-(2k-1) expansion coefficients
    assert grid_a.entry(4, 0) == cij(9, 5, P11) == 3
    for t in range(5):
        assert grid_a.entry(4, t) == cij(9, 5 + t, P11)


def test_extract_grids_zero_padding_and_degree_guard():
    w = _witness()
    zeroed = CnWitness(
        h_a=BiPoly.zero(P11),
        h_b=w.h_b,
        g_a=w.g_a,
        g_b=w.g_b,
        degree_bound_a=w.degree_bound_a,
        degree_bound_b=w.degree_bound_b,
    )
    grid_a, _ = extract_grids(zeroed, 5)
    assert all(v == 0 for row in grid_a.rows for v in row)
    with pytest.raises(DegreeTooHigh):
        extract_grids(w, 4)


def test_top_layer_all_pass_at_p11_k5():
    w = _witness()
    grid_a, grid_b = extract_grids(w, 5)
    records = audit_top_layer(grid_a, grid_b, 5, P11)
    assert len(records) == 15
    assert all(r.passed for r in records)


def test_top_layer_nonzero_even_at_boundary_prime():
    # at p = 2k-1 the individual coefficients are +-1 or +-2 mod p and never
    # vanish; what vanishes there are the even-step denominators
    k, p = 6, 11
    for t in range(k):
        assert cij(2 * k - 1, k + t, P11) != 0
    for r in range(1, k - 1):
        total = cij(2 * k - 1, k - r, P11) + cij(2 * k - 1, k - r - 1, P11)
        assert total % p == 0


def test_audit_clean_on_extremal_instance():
    trace = audit_sigma_chain(EXTREMAL, EXTREMAL)
    assert trace.clean
    assert trace.sets_equal
    assert trace.warning is None
    assert [s.index for s in trace.steps] == [1, 2, 3, 4]
    assert trace.steps[0].sigma_a == trace.steps[0].sigma_b == 0
    assert trace.steps[1].sigma_a == trace.steps[1].sigma_b == 8
    # recovered values agree with an independent recomputation
    sig = elementary_symmetric(EXTREMAL).values
    for s in trace.steps:
        assert s.sigma_a == sig[s.index]
    # trace lines serialize one identity per line
    lines = list(trace.iter_lines())
    assert len(lines) == len(trace.records)
    assert all("pass=true" in line for line in lines)


def _trace_sha(trace):
    return hashlib.sha256("\n".join(trace.iter_lines()).encode()).hexdigest()


def test_audit_trace_pinned_at_k18():
    # one extremal set at the largest audited size: {0..18} without 17, whose
    # restricted sumset has 34 elements mod 37; the sha256 pins every record
    a = FpSet.of(Prime(37), [x for x in range(19) if x != 17])
    assert len(restricted_sumset(a, a)) == 34
    trace = audit_sigma_chain(a, a)
    assert trace.clean and trace.sets_equal and len(trace.records) == 279
    assert _trace_sha(trace) == (
        "e4c17b2d49ad8ee0160744dadd79e8870ed23e560aaac083823b463c12433960"
    )
    # failing traces are pinned too, so a derived verdict that differed from
    # the comparison it reports would change the pass= fields and show here
    b = FpSet.of(P11, [0, 1, 2, 4, 9, 10])
    trace = audit_sigma_chain(FpSet.of(P11, range(6)), b)
    assert (len(trace.records), len(trace.failed_records())) == (57, 13)
    assert _trace_sha(trace) == (
        "9a7fce35922199f51dca7510627121d3d58d64c56b98f6dad68af631e863528d"
    )
    a = FpSet.of(P11, [0, 1, 2, 3, 4, 6])
    trace = audit_sigma_chain(a, a)
    assert [r.label for r in trace.failed_records()] == ["even_denominator_nonzero"] * 2
    assert _trace_sha(trace) == (
        "37cee64e92a507f724d729a36e365e44425638f658ba2623d57a361f0d34c298"
    )
    c = restricted_sumset(EXTREMAL, EXTREMAL)
    trace = audit_sigma_chain(EXTREMAL, EXTREMAL, locus=FpSet.of(P11, c.elements[:-1]))
    assert _trace_sha(trace) == (
        "8526d167a7fc6a55f5112b6df47b9cd70aa5b342fb4bb651080d1d8cf5fcf153"
    )


def test_audit_even_denominator_values():
    trace = audit_sigma_chain(EXTREMAL, EXTREMAL)
    step2 = trace.steps[1]
    assert step2.parity == "even"
    # C_{9,4} + C_{9,3} = -42, and -42 = 2 mod 11
    assert cij_exact(9, 4) + cij_exact(9, 3) == -42
    assert step2.denominator == 2
    assert step2.denominator_closed_form == 2
    assert even_denominator_closed_form(5, 1) == -42


def test_even_denominator_closed_form_matches_direct_integers():
    for k in range(2, 14):
        for r in range(1, k):
            direct = cij_exact(2 * k - 1, k - r) + cij_exact(2 * k - 1, k - r - 1)
            assert even_denominator_closed_form(k, r) == direct


def test_odd_pivot_closed_form_disagrees_as_published():
    # the published odd form gives -70/4 at (k, r) = (5, 0); the direct pivot
    # coefficient is C_{9,4} = -14, so the audit must flag the discrepancy
    # while the direct nonvanishing check passes
    assert odd_pivot_closed_form(5, 0) == Fraction(-70, 4)
    assert cij_exact(9, 4) == -14
    trace = audit_sigma_chain(EXTREMAL, EXTREMAL)
    step1 = trace.steps[0]
    assert step1.parity == "odd"
    assert step1.pivot == (-14) % 11
    assert step1.pivot_closed_form_agrees is False
    assert any(
        r.label == "odd_pivot_nonzero" and r.passed for r in trace.records
    )
    assert trace.clean


def test_audit_hypothesis_guards():
    with pytest.raises(HypothesisViolation):
        audit_sigma_chain(EXTREMAL, FpSet.of(P11, [0, 1, 2, 3]))
    with pytest.raises(HypothesisViolation):
        audit_sigma_chain(FpSet.of(P11, range(5)), FpSet.of(P11, range(5)))
    with pytest.raises(HypothesisViolation):
        # p = 7 <= 2k-2 = 8 for k = 5
        a = FpSet.of(Prime(7), [0, 1, 2, 3, 4])
        audit_sigma_chain(a, a)
    with pytest.raises(HypothesisViolation):
        audit_sigma_chain(EXTREMAL, FpSet.of(Prime(13), [0, 1, 2, 3, 5]))


def test_audit_boundary_prime_flags_denominators():
    # p = 2k-1: audit runs, warns, and the even denominators vanish
    import itertools

    found = None
    for elems in itertools.combinations(range(11), 6):
        s = FpSet(P11, elems)
        if len(restricted_sumset(s, s)) == 10:
            found = s
            break
    assert found is not None
    trace = audit_sigma_chain(found, found)
    assert trace.warning is not None
    assert not trace.clean
    failed = {r.label for r in trace.failed_records()}
    assert failed == {"even_denominator_nonzero"}
    # the top layer is unaffected at the boundary
    assert all(r.passed for r in trace.records if r.parity == "top")


def test_audit_detects_shrunken_locus():
    # removing one target sum leaves a polynomial that no longer vanishes on
    # the grid; the audit records that as a failed check instead of raising
    c = restricted_sumset(EXTREMAL, EXTREMAL)
    shrunk = FpSet.of(P11, c.elements[:-1])
    trace = audit_sigma_chain(EXTREMAL, EXTREMAL, locus=shrunk)
    assert not trace.clean
    assert [r.label for r in trace.failed_records()] == ["locus_vanishes_on_grid"]


def test_audit_nondiagonal_extremal_pair_at_boundary():
    # a genuine A != B attaining pair exists at p = 2k-1 = 11, k = 6; the
    # audit must run and report the symmetric-value mismatches it finds
    a = FpSet.of(P11, [0, 1, 2, 3, 4, 5])
    b = FpSet.of(P11, [0, 1, 2, 4, 9, 10])
    assert len(restricted_sumset(a, b)) == 10
    trace = audit_sigma_chain(a, b)
    assert not trace.sets_equal
    assert not trace.clean
    assert any(r.label == "sets_equal" and not r.passed for r in trace.records)


def test_reconstruct_from_sigmas_examples():
    prof = SymmetricProfile(P11, (1, 0, 8))
    assert reconstruct_from_sigmas(prof).elements == (5, 6)
    prof = SymmetricProfile(Prime(7), (1, 1, 1))
    assert reconstruct_from_sigmas(prof).elements == (3, 5)
    with pytest.raises(NotSplitting):
        # z^2 + 1 has no roots over F_7
        reconstruct_from_sigmas(SymmetricProfile(Prime(7), (1, 0, 1)))


def test_reconstruct_round_trip_random():
    rng = random.Random(33)
    for _ in range(100):
        pv = rng.choice((11, 13, 17))
        p = Prime(pv)
        elems = rng.sample(range(pv), rng.randint(1, 8))
        s = FpSet.of(p, elems)
        assert reconstruct_from_sigmas(elementary_symmetric(s)) == s
