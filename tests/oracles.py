"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive: set comprehensions, big-integer
Pascal rows built by addition, and full scans over every candidate, so the
tests never share a code path with the library they check.
"""

import functools
import itertools
import json


def pascal_rows(n):
    """Rows 0..n of Pascal's triangle as exact integers, by addition only."""
    rows = [[1]]
    for _ in range(n):
        prev = rows[-1]
        rows.append([1] + [prev[i] + prev[i + 1] for i in range(len(prev) - 1)] + [1])
    return rows


def brute_sumset(a, b, p):
    return {(x + y) % p for x in a for y in b}


def brute_restricted(a, b, p):
    return {(x + y) % p for x in a for y in b if x != y}


def brute_ap_witnesses(elems, p):
    """All (start, diff) with diff != 0 whose progression equals the set."""
    target = set(elems)
    m = len(target)
    out = []
    for start in range(p):
        for d in range(1, p):
            if {(start + t * d) % p for t in range(m)} == target:
                out.append((start, d))
    return out


@functools.cache
def _ap_differences(elems, p):
    return {d for _, d in brute_ap_witnesses(elems, p)}


def brute_classify(a, b, p):
    """|A+B|, |A+.B| and the set of label names of a pair, by definition.

    The sizes come from the brute sums, and the progression label from the
    witnesses of both sets: a singleton {e} is {e + t*d : t < 1} for every d,
    so it shares each difference of the other set.
    """
    a, b = tuple(sorted(set(a))), tuple(sorted(set(b)))
    k, ell = len(a), len(b)
    s = brute_sumset(a, b, p)
    r = brute_restricted(a, b, p)
    labels = set()
    if len(s) == k + ell - 1:
        labels.add("cauchy_davenport_tight")
    if min(k, ell) == 1:
        labels.add("vosper_case_singleton")
    if len(s) == p - 1:
        (c,) = set(range(p)) - s
        if set(b) == set(range(p)) - {(c - x) % p for x in a}:
            labels.add("vosper_case_complement")
    if _ap_differences(a, p) & _ap_differences(b, p):
        labels.add("vosper_case_ap")
    if k >= 3 and ell >= 4 and len(s) == k + ell <= p - 4:
        labels.add("hamidoune_rodseth_applicable")
    if len(r) == k + ell - 3:
        labels.add("eh_tight")
    if len(r) == k + ell - 2:
        labels.add("eh_plus_one")
    if a == b:
        labels.add("diagonal")
    return len(s), len(r), labels


def antisym_row(i):
    """Integer coefficients of (x - y)(x + y)**(i-1) by repeated convolution.

    Entry j is the coefficient of x**j y**(i-j); starts from [-1, 1] and
    multiplies by (x + y) one step at a time, using additions only.
    """
    row = [-1, 1]
    for _ in range(i - 1):
        row = [row[0]] + [row[t] + row[t + 1] for t in range(len(row) - 1)] + [row[-1]]
    return row


def brute_canonical_pair(a, b, p):
    """Least (sorted lam*a+mu, sorted lam*b+mu) over every lam != 0 and mu."""
    best = None
    for lam in range(1, p):
        for mu in range(p):
            at = tuple(sorted((lam * x + mu) % p for x in a))
            bt = tuple(sorted((lam * x + mu) % p for x in b))
            if best is None or (at, bt) < best:
                best = (at, bt)
    return best


def brute_locus_coefficients(c_elems, p):
    """Dense table of (x - y) * prod(x + y - c) by naive dict expansion."""
    terms = {(1, 0): 1, (0, 1): -1}
    for c in c_elems:
        new = {}
        for (i, j), v in terms.items():
            for (di, dj, f) in ((1, 0, 1), (0, 1, 1), (0, 0, -c)):
                key = (i + di, j + dj)
                new[key] = (new.get(key, 0) + v * f) % p
        terms = new
    return {k: v % p for k, v in terms.items() if v % p}


def brute_bipoly_product(f, g, p):
    """Product of two {(i, j): c} polynomials by naive dict expansion, mod p."""
    out = {}
    for (i, j), u in f.items():
        for (di, dj), v in g.items():
            key = (i + di, j + dj)
            out[key] = (out.get(key, 0) + u * v) % p
    return {k: v for k, v in out.items() if v}


def brute_vanishing(elems, p):
    """Ascending coefficients of the product of (z - e) over elems, mod p."""
    coeffs = [1]
    for e in elems:
        coeffs = [(lo - e * hi) % p for lo, hi in zip([0, *coeffs], [*coeffs, 0])]
    return coeffs


def brute_first_nonzero(f, a, b, p):
    """The first (x, y, f(x, y)) with a nonzero value, x over a, then y over b."""
    for x in a:
        for y in b:
            v = sum(c * pow(x, i, p) * pow(y, j, p) for (i, j), c in f.items()) % p
            if v:
                return x, y, v
    return None


def brute_cn_decompose(f, a, b, p):
    """Reduce a dense table f cell by cell: by g_A(x) in x, then by g_B(y) in y.

    Every nonzero cell at x-exponent i >= |a| is moved into the quotient q_a
    and rewritten through x**|a| = x**|a| - g_A(x); then the same in y on the
    rows left. Returns (q_a, q_b, remainder) as dense tables; f vanishes on
    a x b exactly when the remainder is zero.
    """
    m, n = len(a), len(b)
    ga, gb = brute_vanishing(a, p), brute_vanishing(b, p)
    work = [list(row) for row in f]
    dx = len(work) - 1
    dy = len(work[0]) - 1 if work else -1

    qa = [[0] * (dy + 1) for _ in range(max(dx - m + 1, 0))]
    for i in range(dx, m - 1, -1):
        for j in range(dy + 1):
            c = work[i][j]
            if not c:
                continue
            qa[i - m][j] = (qa[i - m][j] + c) % p
            for t in range(m + 1):
                work[i - m + t][j] = (work[i - m + t][j] - c * ga[t]) % p

    qb = [[0] * max(dy - n + 1, 0) for _ in range(min(dx + 1, m))]
    for j in range(dy, n - 1, -1):
        for i in range(min(dx + 1, m)):
            c = work[i][j]
            if not c:
                continue
            qb[i][j - n] = (qb[i][j - n] + c) % p
            for t in range(n + 1):
                work[i][j - n + t] = (work[i][j - n + t] - c * gb[t]) % p
    return qa, qb, work


def brute_bipoly_sum(f, g, p):
    """Sum of two {(i, j): c} polynomials, mod p."""
    out = {}
    for key, v in [*f.items(), *g.items()]:
        out[key] = (out.get(key, 0) + v) % p
    return {k: v for k, v in out.items() if v}


def all_subsets(p, min_size=1):
    universe = range(p)
    for size in range(min_size, p + 1):
        yield from itertools.combinations(universe, size)


def burnside_orbit_count(p, k):
    """Orbits of the maps x -> lam*x + mu (lam != 0) on k-subsets, by Burnside.

    Each map fixes exactly the k-subsets that are unions of its cycles; the
    cycles are found by iterating the map and the unions of total size k are
    counted by a subset-sum table. The orbit count is the mean over all maps.
    """
    fixed = 0
    for lam in range(1, p):
        for mu in range(p):
            ways = [1] + [0] * k
            seen = set()
            for x in range(p):
                length = 0
                while x not in seen:
                    seen.add(x)
                    x = (lam * x + mu) % p
                    length += 1
                if length:
                    ways = [ways[s] + (ways[s - length] if s >= length else 0)
                            for s in range(k + 1)]
            fixed += ways[k]
    group = p * (p - 1)
    assert fixed % group == 0
    return fixed // group


def brute_orbit_reps(p, k):
    """Lex-least sorted image of every affine orbit on k-subsets."""
    reps = set()
    done = set()
    for subset in itertools.combinations(range(p), k):
        if subset in done:
            continue
        orbit = {
            tuple(sorted((lam * x + mu) % p for x in subset))
            for lam in range(1, p)
            for mu in range(p)
        }
        done |= orbit
        reps.add(min(orbit))
    return reps


def _mask_elements(mask):
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def _least_map(mask, p):
    """The first map x -> lam*x + mu sending X to its least image.

    Compares sorted tuples over every map, so it shares nothing with the
    orderly generator's bit tests.
    """
    elems = _mask_elements(mask)
    _, lam, mu = min(
        (sorted((lam * e + mu) % p for e in elems), lam, mu)
        for lam in range(1, p)
        for mu in range(p)
    )
    return lam, mu


def _canonical_masks(a_mask, b_mask, p, full):
    """Lex-least common image of a mask pair over both orders: a second dedup path.

    Scans every x -> lam*x - t with t in lam*X for both orders (X, Y) of the
    pair, comparing equal-size masks by "X <lex Y iff the lowest bit of X^Y
    is in X", first sets first.
    """
    best_x = best_y = full + 1  # above every candidate: the first one wins
    a_elems = _mask_elements(a_mask)
    b_elems = _mask_elements(b_mask)
    for lam in range(1, p):
        a_dil = [lam * e % p for e in a_elems]
        b_dil = [lam * e % p for e in b_elems]
        a_img = sum(1 << d for d in a_dil)
        b_img = sum(1 << d for d in b_dil)
        for x_dil, x_img, y_img in ((a_dil, a_img, b_img), (b_dil, b_img, a_img)):
            for t in x_dil:
                # x -> x - t is a right rotation by t
                x = (x_img >> t | x_img << (p - t)) & full
                diff = x ^ best_x
                if diff & -diff & best_x:
                    continue
                y = (y_img >> t | y_img << (p - t)) & full
                if diff:
                    best_x, best_y = x, y
                else:
                    diff = y ^ best_y
                    if diff & -diff & y:
                        best_y = y
    return best_x, best_y


def ap_converse_exceptions(p, k):
    """Canonical diagonal pairs of the size-k progressions with |A+.A| != min(p, 2k-3).

    Loops over every progression {s + t*d} (d != 0) and canonicalises each
    failing one, so it shares nothing with the one-set check it is compared to.
    """
    progressions = {
        tuple(sorted((s + t * d) % p for t in range(k)))
        for s in range(p)
        for d in range(1, p)
    }
    required = min(p, 2 * k - 3)
    return sorted({
        brute_canonical_pair(ap, ap, p)
        for ap in progressions
        if len(brute_restricted(ap, ap, p)) != required
    })


def reference_report_json(report):
    """A sweep report as json.dumps(doc, indent=2) writes the dict of its fields."""

    def record(r):
        w = r.ap_witness
        return {
            "a": ",".join(str(e) for e in r.a.elements),
            "b": ",".join(str(e) for e in r.b.elements),
            "k": r.k,
            "restricted_size": r.restricted_size,
            "labels": list(r.labels),
            "sets_equal": r.sets_equal,
            "ap_witness": None if w is None else {"start": w.start, "diff": w.diff, "length": w.length},
        }

    doc = {
        "kind": report.kind,
        "p": report.p,
        "k": report.k,
        "target_size": report.target_size,
        "pruned": report.pruned,
        "pairs_scanned": report.pairs_scanned,
        "hypothesis_flags": dict(sorted(report.hypothesis_flags.items())),
        "expectation_checked": report.expectation_checked,
        "extremal_pair_count": len(report.extremal_pairs),
        "extremal_pairs": [record(r) for r in report.extremal_pairs],
        "counterexample_count": len(report.counterexamples),
        "counterexamples": [record(r) for r in report.counterexamples],
        "violation_count": len(report.violations),
        "violations": report.violations,
    }
    return json.dumps(doc, indent=2) + "\n"
