"""Acceptance suite: every criterion at its stated tolerance (all exact).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import json
import random
from fractions import Fraction

from sumsetlab import (
    FpSet,
    Prime,
    audit_all_extremal,
    build_locus_poly,
    cij,
    cij_exact,
    cn_decompose,
    elementary_symmetric,
    even_denominator_closed_form,
    reconstruct_from_sigmas,
    restricted_sumset,
    roots_over_fp,
    sigma_expansion,
    vanishing_polynomial,
    verify_witness,
)
from sumsetlab.cli import main

from oracles import antisym_row, pascal_rows


def _report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _run_verify(args, out_path):
    code = main(args + ["--out", str(out_path)])
    return code, json.loads(out_path.read_text())


def test_criterion_1_main_theorem_exhaustive(tmp_path):
    ok = True
    for p, k in ((11, 5), (13, 5), (13, 6)):
        out = tmp_path / f"main-{p}-{k}.json"
        code, doc = _run_verify(["verify", "main", "-p", str(p), "-k", str(k)], out)
        ok = ok and code == 0 and doc["counterexample_count"] == 0
        ok = ok and doc["expectation_checked"] and doc["extremal_pair_count"] > 0
    _report(1, "restricted size 2k-2 forces A = B at (11,5), (13,5), (13,6)", ok)


def test_criterion_2_karolyi_inverse_exhaustive(tmp_path):
    ok = True
    for p, k in ((11, 5), (13, 5)):
        out = tmp_path / f"karolyi-{p}-{k}.json"
        code, doc = _run_verify(["verify", "karolyi", "-p", str(p), "-k", str(k)], out)
        ok = ok and code == 0 and doc["counterexample_count"] == 0
        ok = ok and all(
            rec["sets_equal"] and rec["ap_witness"] is not None
            for rec in doc["extremal_pairs"]
        )
        # converse direction: every size-k progression attains 2k-3
        prime = Prime(p)
        for start in range(p):
            for diff in range(1, p):
                ap = FpSet.of(prime, ((start + t * diff) % p for t in range(k)))
                ok = ok and len(restricted_sumset(ap, ap)) == 2 * k - 3
    _report(2, "size 2k-3 pairs are exactly the diagonal progressions", ok)


def test_criterion_3_classical_bounds_exhaustive(tmp_path):
    ok = True
    for p in (5, 7, 11):
        out = tmp_path / f"bounds-{p}.json"
        code, doc = _run_verify(["verify", "bounds", "-p", str(p)], out)
        ok = ok and code == 0 and doc["violation_count"] == 0
    _report(3, "sumset and restricted-sumset lower bounds at p = 5, 7, 11", ok)


def test_criterion_4_witness_round_trip():
    rng = random.Random(20260810)
    ok = True
    for _ in range(200):
        p = Prime(rng.choice((11, 13, 17)))
        a = FpSet.of(p, rng.sample(range(p.value), rng.randint(2, 6)))
        b = FpSet.of(p, rng.sample(range(p.value), rng.randint(2, 6)))
        f = build_locus_poly(restricted_sumset(a, b))
        w = cn_decompose(f, a, b)
        verdict = verify_witness(f, w)
        ok = ok and verdict.ok
        ok = ok and (w.h_a.is_zero or w.h_a.total_degree <= f.total_degree - len(a))
        ok = ok and (w.h_b.is_zero or w.h_b.total_degree <= f.total_degree - len(b))
    _report(4, "200 random witness decompositions verify with degree bounds", ok)


def test_criterion_5_symmetric_expansion_identity():
    rng = random.Random(5)
    ok = True
    for _ in range(50):
        p = Prime(rng.choice((11, 13, 17)))
        size = rng.randint(2, min(12, p.value - 1))
        c = FpSet.of(p, rng.sample(range(p.value), size))
        ok = ok and sigma_expansion(c) == build_locus_poly(c)
    _report(5, "signed symmetric expansion equals the locus product, exactly", ok)


def test_criterion_6_coefficient_table():
    rows = pascal_rows(60)
    ok = True
    for i in range(1, 51):
        direct = antisym_row(i)
        for j in range(i + 1):
            ok = ok and cij_exact(i, j) == direct[j]
            ok = ok and cij_exact(i, j) == -cij_exact(i, i - j)
        for j in range(1, i):
            first_form = rows[i - 1][j - 1] - rows[i - 1][j]
            second_form = Fraction(2 * j - i, j) * rows[i - 1][j - 1]
            ok = ok and Fraction(direct[j]) == first_form == second_form
    for pv in (11, 13, 17):
        p = Prime(pv)
        for i in range(1, pv):
            direct = antisym_row(i)
            for j in range(i + 1):
                ok = ok and cij(i, j, p) == direct[j] % pv
                ok = ok and cij(i, j, p) == (-cij(i, i - j, p)) % pv
    _report(6, "coefficient table antisymmetry and closed forms, exact", ok)


def test_criterion_7_proof_audit():
    ok = True
    traces = list(audit_all_extremal(11, 5))
    ok = ok and len(traces) > 0
    odd_disagreement_reported = False
    for trace in traces:
        ok = ok and trace.clean and trace.sets_equal
        for step in trace.steps:
            if step.parity == "odd" and step.pivot_closed_form_agrees is False:
                odd_disagreement_reported = True
                ok = ok and step.pivot != 0
    ok = ok and odd_disagreement_reported
    for k in range(2, 14):
        for r in range(1, k):
            direct = cij_exact(2 * k - 1, k - r) + cij_exact(2 * k - 1, k - r - 1)
            ok = ok and even_denominator_closed_form(k, r) == direct
    _report(
        7,
        "clean audits at (11,5); even closed form exact; odd discrepancy flagged",
        ok,
    )


def test_criterion_8_round_trips():
    rng = random.Random(8)
    ok = True
    for pv in (11, 13, 17):
        p = Prime(pv)
        for _ in range(100):
            s = FpSet.of(p, rng.sample(range(pv), rng.randint(1, min(10, pv - 1))))
            ok = ok and roots_over_fp(vanishing_polynomial(s)) == s
            ok = ok and reconstruct_from_sigmas(elementary_symmetric(s)) == s
    _report(8, "vanishing-polynomial and symmetric-profile round trips", ok)


def test_criterion_9_determinism_across_workers(tmp_path):
    blobs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"main-11-5-w{workers}.json"
        code = main(
            [
                "verify", "main", "-p", "11", "-k", "5",
                "--workers", str(workers), "--out", str(out),
            ]
        )
        assert code == 0
        blobs.append(out.read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(9, "byte-identical reports for worker counts 1, 4, 8", ok)
