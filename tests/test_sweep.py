import functools
import hashlib
import importlib.util
import itertools
import json
import os
import random
import sys
import time
from math import comb, gcd
from pathlib import Path

import pytest

from sumsetlab import (
    CeilingExceeded,
    FpSet,
    InvalidArgument,
    KTooLarge,
    Prime,
    ShardLost,
    audit_all_extremal,
    classify_pair,
    enumerate_k_subsets,
    make_pair_record,
    report_to_json,
    restricted_sumset,
    verify_bounds,
    verify_karolyi_inverse,
    verify_main_theorem,
)
from sumsetlab import cli, sweep
from sumsetlab.sets import ApWitness, _mask_elements, _rotate, canonical_pair
from sumsetlab.sweep import (
    DEFAULT_THEOREM_CEILING,
    PairRecord,
    SweepReport,
    _bounds_shard,
    _converse_exceptions,
    _deal,
    _extremal_bs,
    _extremal_shard,
    _images,
    _lane_turn,
    _maps_onto,
    _orbit_count,
    _orbit_pair,
    _outer_roots,
    _outer_sets,
    _pool_size,
    _run_shards,
    _unrank_combination,
    _units,
    _violating_pairs,
)

import oracles
from oracles import (
    ap_converse_exceptions,
    brute_canonical_pair,
    brute_orbit_reps,
    brute_restricted,
    brute_sumset,
    burnside_orbit_count,
)


def _mask(elems):
    return sum(1 << e for e in elems)


def _image_of(elems, lam, mu, p):
    # the mask of lam*X + mu, built from the elements of X
    return _mask((lam * x + mu) % p for x in elems)


def _images_of(elems, n):
    # the images lam*X for the units lam of Z/nZ in increasing order, packed
    # as the kernel takes them, from the elements of X and not through
    # sweep._dilations: lane i is 2n bits wide, starts at bit 2n*i and
    # holds the i-th image twice, at bits r and r + n for each r in it
    units = [lam for lam in range(1, n) if gcd(lam, n) == 1]
    packed = 0
    for i, lam in enumerate(units):
        image = _mask(lam * x % n for x in elems)
        packed |= (image | image << n) << 2 * n * i
    return packed


def _reps_of_size(root, p, k):
    # the reps of size k grown from root, each with its stabiliser
    return [(m, stab) for m, stab in _outer_sets(root, k, p, k) if m.bit_count() == k]


def _orbit_reps(p, k):
    return [_mask_elements(m) for m, _ in _reps_of_size(0, p, k)]


def _every_rep(n):
    # the reps of every size 1..n from one walk, as the bounds sweep takes them
    return list(_outer_sets(0, n, n, 1))


def test_enumerate_counts_and_order():
    only = list(enumerate_k_subsets(5, 5))
    assert len(only) == 1 and only[0].elements == (0, 1, 2, 3, 4)
    sets7 = list(enumerate_k_subsets(7, 2))
    assert len(sets7) == 21 == comb(7, 2)
    assert [s.elements for s in sets7] == list(itertools.combinations(range(7), 2))
    assert sum(1 for _ in enumerate_k_subsets(11, 5)) == 462


def test_enumerate_restart_index():
    full = [s.elements for s in enumerate_k_subsets(11, 3)]
    for start in (0, 1, 17, 100, len(full) - 1, len(full), len(full) + 5):
        tail = [s.elements for s in enumerate_k_subsets(11, 3, start=start)]
        assert tail == full[start:]


def test_unranking_matches_combinations_order():
    for n in range(1, 12):
        for k in range(1, n + 1):
            for idx, combo in enumerate(itertools.combinations(range(n), k)):
                assert tuple(_unrank_combination(n, k, idx)) == combo


def test_enumerate_guards():
    with pytest.raises(KTooLarge):
        list(enumerate_k_subsets(5, 6))
    with pytest.raises(ValueError):
        list(enumerate_k_subsets(5, 0))
    with pytest.raises(InvalidArgument):
        list(enumerate_k_subsets(5, 2, start=-1))


def test_main_theorem_small_sweep():
    report = verify_main_theorem(11, 5)
    assert report.counterexamples == []
    assert report.extremal_count > 0
    assert report.passed
    extremal_keys = {(r.a.elements, r.b.elements) for r in report.extremal_pairs}
    # the reference extremal instance appears as its own canonical form
    c = canonical_pair(FpSet.of(Prime(11), [0, 1, 2, 3, 5]), FpSet.of(Prime(11), [0, 1, 2, 3, 5]))
    assert (c.a.elements, c.b.elements) in extremal_keys
    assert all(r.sets_equal for r in report.extremal_pairs)
    assert report.hypothesis_flags == {
        "k_ge_5": True,
        "p_gt_2k_minus_2": True,
        "p_gt_2k_minus_1": True,
    }


def test_main_theorem_below_threshold_records_flags():
    report = verify_main_theorem(7, 3)
    assert report.hypothesis_flags["k_ge_5"] is False
    assert not report.expectation_checked
    assert report.passed  # exceptions recorded, nothing asserted


def test_main_theorem_boundary_prime_has_recorded_counterexamples():
    # p = 2k-1 = 11, k = 6: attaining pairs with A != B exist, so the
    # stronger modulus hypothesis is the one under which emptiness holds
    report = verify_main_theorem(11, 6)
    assert report.hypothesis_flags["p_gt_2k_minus_2"] is True
    assert report.hypothesis_flags["p_gt_2k_minus_1"] is False
    assert not report.expectation_checked
    assert len(report.counterexamples) > 0
    for rec in report.counterexamples:
        assert not rec.sets_equal
        assert len(restricted_sumset(rec.a, rec.b)) == 10


def _every_subset_orbits(p, k, target):
    # a walk of every k-subset A, each hit reduced by the second dedup
    # kernel: shares neither the orderly generator nor _orbit_pair
    full = (1 << p) - 1
    orbits = set()
    for a in itertools.combinations(range(p), k):
        for b_mask in _extremal_bs(_mask(a), p, k, target, full):
            orbits.add(oracles._canonical_masks(_mask(a), b_mask, p, full))
    return sorted((_mask_elements(x), _mask_elements(y)) for x, y in orbits)


def test_pruning_soundness():
    # the orbit-rep sweep against a walk of every k-subset, also at the
    # boundary p = 2k-1 (which has counterexamples), at a non-default
    # target, and where the target reaches p (karolyi at (7, 5))
    cases = (
        (verify_main_theorem, 11, 4, None),
        (verify_main_theorem, 11, 6, None),
        (verify_main_theorem, 11, 4, 6),
        (verify_main_theorem, 13, 7, None),
        (verify_karolyi_inverse, 7, 5, None),
    )
    for verify, p, k, target in cases:
        report = verify(p, k, target=target)
        assert report.pruned is True
        assert report.pairs_scanned == burnside_orbit_count(p, k) * comb(p, k)
        expected = _every_subset_orbits(p, k, report.target_size)
        assert expected
        assert report.extremal_pairs == [
            make_pair_record(FpSet.of(p, a), FpSet.of(p, b)) for a, b in expected
        ]
        if target is not None:
            assert report.target_size == target
    assert report.target_size == 7 == p


def test_orbit_reps_match_burnside_count():
    expected = {(13, 6): 14, (17, 7): 75, (17, 8): 95, (19, 8): 228, (19, 9): 280}
    for (p, k), count in expected.items():
        assert burnside_orbit_count(p, k) == count
        assert len(_orbit_reps(p, k)) == count
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, p + 1):
            assert len(_orbit_reps(p, k)) == burnside_orbit_count(p, k)


def test_orbit_reps_are_lex_least_images():
    # the orderly generator against lex-least images over whole orbits
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, p + 1):
            reps = _orbit_reps(p, k)
            assert reps == sorted(reps)
            assert len(reps) == len(set(reps))
            assert set(reps) == brute_orbit_reps(p, k)


def test_strided_shards_partition_outer_sets(monkeypatch):
    # one shard per process gives the strides 1, 2, 3 and 7
    monkeypatch.setattr(sweep, "_SHARDS_PER_PROCESS", 1)
    for p, k in ((13, 5), (13, 7), (11, 6)):
        roots = _outer_roots(p, k)
        whole = _reps_of_size(0, p, k)
        for processes in (1, 2, 3, 7):
            parts = [
                a
                for shard in _deal(roots, processes)
                for root in shard
                for a in _reps_of_size(root, p, k)
            ]
            assert sorted(parts) == sorted(whole)
            assert len(parts) == len({mask for mask, _ in parts})
    # more processes than prefixes: no shard is dealt nothing
    assert len(_outer_roots(13, 5)) < 7
    assert all(_deal(_outer_roots(13, 5), 7))


def test_deal_puts_every_unit_in_one_shard():
    per_process = sweep._SHARDS_PER_PROCESS
    assert per_process == 16
    for units in (5, 31, 32, 33, 200):
        for processes in (1, 2, 3):
            shards = _deal(list(range(units)), processes)
            assert len(shards) == min(units, processes * per_process)
            assert sorted(u for shard in shards for u in shard) == list(range(units))
            assert all(shards)
    # fewer units than shards: one unit each; more: dealt by stride
    assert _deal([7, 8, 9], 2) == [[7], [8], [9]]
    assert _deal(list(range(40)), 2)[0] == [0, 32]


def _brute_unordered_canonical(a, b, p):
    return min(brute_canonical_pair(a, b, p), brute_canonical_pair(b, a, p))


def test_unpruned_walk_matches_naive_double_loop():
    p = 7
    full = (1 << p) - 1
    for k in range(1, p + 1):
        subsets = list(itertools.combinations(range(p), k))
        by_size = {}
        for a in subsets:
            for b in subsets:
                size = len(brute_restricted(a, b, p))
                by_size.setdefault(size, set()).add((a, b))
        for target in range(p + 2):  # p + 1 is main's default target at k = 5
            naive = by_size.get(target, set())
            raw = {
                (_mask(a), b_mask)
                for a in subsets
                for b_mask in _extremal_bs(_mask(a), p, k, target, full)
            }
            assert raw == {(_mask(a), _mask(b)) for a, b in naive}
            walked, rows = _extremal_shard((p, k, target, _outer_roots(p, k)))
            assert walked == burnside_orbit_count(p, k)
            orbits = {_brute_unordered_canonical(a, b, p) for a, b in naive}
            assert len(rows) == len({(a, b) for a, b, *_ in rows})
            assert {(a, b) for a, b, *_ in rows} == orbits
            # each pair's record fields, as make_pair_record gives them
            for a, b, size, labels, equal, witness in rows:
                record = make_pair_record(FpSet(Prime(p), a), FpSet(Prime(p), b))
                w = record.ap_witness
                assert (size, labels, equal) == (record.restricted_size, record.labels, record.sets_equal)
                assert witness == (None if w is None else (w.start, w.diff))
    # p = 11 near the top, where the complement walk chooses the missed set
    # D of size p - target = 2, 1 or 0, or returns nothing (target p + 1);
    # the naive loop runs over all mask pairs, with A+.B the union of
    # A+.{b} over b in B, built for every mask B from B minus its top bit
    p = 11
    full = (1 << p) - 1
    found = set()
    for k in range(1, p + 1):
        subsets = sorted(_mask(c) for c in itertools.combinations(range(p), k))
        for a_mask in subsets:
            a = _mask_elements(a_mask)
            sums = [0]
            for b in range(p):
                single = _mask(brute_restricted(a, (b,), p))
                sums += [s | single for s in sums]
            sizes = [sums[b_mask].bit_count() for b_mask in subsets]
            for target in range(p - 2, p + 2):
                naive = [b_mask for b_mask, size in zip(subsets, sizes) if size == target]
                assert sorted(_extremal_bs(a_mask, p, k, target, full)) == naive
                if naive:
                    found.add(target)
    assert found == {p - 2, p - 1, p}


def _orbit_pair_elements(a, b, p):
    # the dedup kernel on the hit (A, B) with A mapped to its rep by a scan
    # of every map and B carried along
    full = (1 << p) - 1
    lam, mu = oracles._least_map(_mask(a), p)
    rep = _mask_elements(_image_of(a, lam, mu, p))
    images = _images_of(rep, p)
    stab = _maps_onto(images, _mask(rep), p, full)
    second = _orbit_pair(images, _image_of(b, lam, mu, p), stab, p, full)
    return None if second is None else (rep, _mask_elements(second))


def _canonical_elements(a, b, p):
    # a pair's orbit is kept from the order whose first set has the lesser rep
    return _orbit_pair_elements(a, b, p) or _orbit_pair_elements(b, a, p)


def _check_orbit_pair(a, b, p, reps):
    # reps caches each set's lex-least image, as in oracles.brute_orbit_reps
    a, b = tuple(a), tuple(b)
    for x in (a, b):
        if x not in reps:
            reps[x] = brute_canonical_pair(x, x, p)[0]
    expected = _brute_unordered_canonical(a, b, p)
    got = _orbit_pair_elements(a, b, p)
    if reps[b] < reps[a]:
        assert got is None
        got = _orbit_pair_elements(b, a, p)
    assert got == expected
    second = oracles._canonical_masks(_mask(a), _mask(b), p, (1 << p) - 1)
    assert tuple(map(_mask_elements, second)) == expected


def test_canonical_masks_match_brute_force():
    for p in (5, 7):
        reps = {}
        for k in range(1, p + 1):
            subsets = list(itertools.combinations(range(p), k))
            for a in subsets:
                for b in subsets:
                    _check_orbit_pair(a, b, p, reps)
    rng = random.Random(20241)
    for p in (11, 13):
        for _ in range(200):
            k = rng.randint(1, p)
            a = sorted(rng.sample(range(p), k))
            b = sorted(rng.sample(range(p), k))
            _check_orbit_pair(a, b, p, {})


def test_stabiliser_fixes_the_rep():
    # the stabiliser the orderly generator yields with each rep
    for p in (5, 7, 11):
        for k in range(1, p + 1):
            for rep_mask, stab in _reps_of_size(0, p, k):
                rep = _mask_elements(rep_mask)
                maps = {
                    (lam, mu)
                    for lam in range(1, p)
                    for mu in range(p)
                    if sorted((lam * x + mu) % p for x in rep) == list(rep)
                }
                assert sorted(stab) == sorted(maps)


def test_images_pack_every_multiplier_into_doubled_lanes():
    # every mask over Z/nZ, at primes and at the composite n the bounds
    # tests walk, against the packing built from the elements
    for n in (5, 7, 11, 4, 6, 8):
        for mask in range(1 << n):
            assert _images(mask, n) == _images_of(_mask_elements(mask), n), (n, mask)
    # the image in lane lam - 1 turned by mu, as _orbit_pair and
    # _violating_pairs read it, is lam*X + mu: every mask at p = 7 and
    # seeded ones at 11 and 13, for every lam and mu
    rng = random.Random(1429)
    for p, masks in ((7, range(1 << 7)), (11, rng.sample(range(1 << 11), 150)),
                     (13, rng.sample(range(1 << 13), 150))):
        full = (1 << p) - 1
        for mask in masks:
            images = _images(mask, p)
            for lam in range(1, p):
                dilated = _mask(lam * x % p for x in _mask_elements(mask))
                for mu in range(p):
                    expected = _rotate(dilated, mu, p, full)
                    assert _lane_turn(images, lam - 1, mu, p, full) == expected, (p, mask, lam, mu)


def _check_maps_onto(a, b, p):
    # None exactly when some image of B sorts below A, else every map
    # sending B onto A, in multiplier order
    images = {
        (lam, mu): sorted((lam * x + mu) % p for x in b)
        for lam in range(1, p)
        for mu in range(p)
    }
    got = _maps_onto(_images_of(b, p), _mask(a), p, (1 << p) - 1)
    if any(image < list(a) for image in images.values()):
        assert got is None
    else:
        onto = [m for m, image in images.items() if image == list(a)]
        assert got is not None
        assert sorted(got) == onto
        assert [lam for lam, _ in got] == [lam for lam, _ in onto]


def test_maps_onto_matches_brute_force():
    # every A containing 0 against every B of its size
    for p in (5, 7):
        for k in range(1, p + 1):
            subsets = list(itertools.combinations(range(p), k))
            for a in subsets:
                if a[0] != 0:
                    continue
                for b in subsets:
                    _check_maps_onto(a, b, p)
    # seeded references with a leading run 0..r0-1 of every length r0,
    # without 0 (r0 = 0) up to the whole field (r0 = p), and their least
    # images, against random sets and images of the reference
    rng = random.Random(2718)
    for p in (11, 13):
        for r0 in range(p + 1):
            for _ in range(4):
                rest = [x for x in range(r0 + 1, p) if rng.random() < 0.5]
                a = list(range(r0)) + rest
                if not a:
                    continue
                for ref in (a, list(brute_canonical_pair(a, a, p)[0])):
                    for _ in range(4):
                        lam, mu = rng.randrange(1, p), rng.randrange(p)
                        _check_maps_onto(ref, [(lam * x + mu) % p for x in ref], p)
                        _check_maps_onto(ref, rng.sample(range(p), len(ref)), p)


def test_canonical_masks_invariant_under_affine_maps_and_swap():
    rng = random.Random(7)
    for p in (7, 11, 13, 17):
        for _ in range(50):
            k = rng.randint(1, p)
            a = rng.sample(range(p), k)
            b = rng.sample(range(p), k)
            lam, mu = rng.randrange(1, p), rng.randrange(p)
            a2 = [(lam * x + mu) % p for x in a]
            b2 = [(lam * x + mu) % p for x in b]
            expected = _canonical_elements(a, b, p)
            assert _canonical_elements(a2, b2, p) == expected
            assert _canonical_elements(b2, a2, p) == expected


def test_pool_size_clamps_to_cpus_and_tasks(monkeypatch):
    # without an affinity call, the host's CPU count
    monkeypatch.delattr(sweep.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)
    assert _pool_size(1, 100) == 1
    assert _pool_size(10**6, 100) == 4
    assert _pool_size(3, 2) == 2
    assert _pool_size(3, 0) == 1
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
    assert _pool_size(8, 100) == 1
    # with one, only the CPUs this process may run on
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert _pool_size(10**6, 100) == 3
    assert _pool_size(2, 100) == 2
    assert _pool_size(8, 1) == 1
    for workers in (0, -5):
        with pytest.raises(InvalidArgument):
            _pool_size(workers, 100)


@pytest.fixture
def no_child_left():
    # a forked run leaves no child behind, running or zombie
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _allow_cpus(monkeypatch, n):
    monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def test_forked_shards_return_in_shard_order(monkeypatch, no_child_left):
    # each shard takes 5 ms, so every process takes some, in turn
    _allow_cpus(monkeypatch, 4)
    units = list(range(100))

    def worker(args):
        tag, shard = args
        time.sleep(0.005)
        return tag, shard, os.getpid()

    for processes in (2, 3):
        shards = _deal(units, processes)
        assert len(shards) == 16 * processes < len(units)
        results = _run_shards(worker, ("t",), units, processes)
        assert [r[:2] for r in results] == [("t", shard) for shard in shards]
        pids = {r[2] for r in results}
        assert len(pids) == processes and os.getpid() not in pids


def test_forked_shard_result_larger_than_a_pipe_buffer(monkeypatch, no_child_left):
    _allow_cpus(monkeypatch, 2)
    blob = bytes(range(256)) * 4096  # 1 MiB per shard; a pipe buffers 64 KiB
    results = _run_shards(lambda args: (args[0], blob), (), list(range(4)), 2)
    assert results == [([u], blob) for u in range(4)]


def test_forked_shard_exception_reaches_the_caller(monkeypatch, no_child_left):
    # the process that takes shard 0 fails at once; when the parent reads
    # that one first, the other is left blocked on sending up to 7 MiB
    # until the parent closes its pipe unread
    _allow_cpus(monkeypatch, 2)
    blob = bytes(range(256)) * 4096

    def worker(args):
        (shard,) = args
        if 0 in shard:
            raise KTooLarge(f"shard {shard}")
        return blob

    with pytest.raises(KTooLarge, match=r"shard \[0\]"):
        _run_shards(worker, (), list(range(8)), 2)


def test_a_failed_shard_stops_the_other_processes(monkeypatch, tmp_path, no_child_left):
    # every other shard records that it ran, then holds its process until
    # shard 0 has failed and a while longer; the failing process takes the
    # shards left, so each other process runs at most the one it holds
    failed, ran = tmp_path / "failed", tmp_path / "ran"

    def worker(args):
        (shard,) = args
        if 0 in shard:
            failed.touch()
            raise KTooLarge(f"shard {shard}")
        with open(ran, "ab") as log:
            log.write(b".")
        deadline = time.monotonic() + 10
        while not failed.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.2)

    for processes in (2, 3):
        _allow_cpus(monkeypatch, processes)
        ran.write_bytes(b"")
        failed.unlink(missing_ok=True)
        assert len(_deal(list(range(32)), processes)) == 32
        with pytest.raises(KTooLarge, match=r"shard \[0\]"):
            _run_shards(worker, (), list(range(32)), processes)
        assert len(ran.read_bytes()) <= processes - 1


def test_memory_error_in_a_forked_shard_exits_4(monkeypatch, tmp_path, capsys, no_child_left):
    _allow_cpus(monkeypatch, 2)
    monkeypatch.chdir(tmp_path)

    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(sweep, "_extremal_shard", exhausted)
    assert len(_outer_roots(13, 7)) > 1
    assert cli.main(["verify", "main", "-p", "13", "-k", "7", "--workers", "2"]) == cli.EXIT_GUARD
    assert capsys.readouterr().err == "guard: out of memory\n"


def test_a_shard_process_that_ends_without_a_result(monkeypatch, tmp_path, capsys, no_child_left):
    # as a child killed by the system does: exit 4 with one line, no traceback
    _allow_cpus(monkeypatch, 2)
    monkeypatch.chdir(tmp_path)
    parent = os.getpid()

    def vanish(args):
        if os.getpid() == parent:
            raise AssertionError("the shard ran in the parent")
        os._exit(1)

    with pytest.raises(ShardLost):
        _run_shards(vanish, (), list(range(8)), 2)
    monkeypatch.setattr(sweep, "_extremal_shard", vanish)
    assert cli.main(["verify", "main", "-p", "13", "-k", "7", "--workers", "2"]) == cli.EXIT_GUARD
    assert capsys.readouterr().err == "guard: a sweep process ended without sending its results\n"


def test_without_fork_sweeps_run_in_process(monkeypatch):
    main_bytes = report_to_json(verify_main_theorem(13, 7, workers=1))
    bounds_bytes = report_to_json(verify_bounds(7, workers=1))
    _allow_cpus(monkeypatch, 2)
    monkeypatch.delattr(os, "fork")
    assert _pool_size(2, 100) == 1
    assert report_to_json(verify_main_theorem(13, 7, workers=2)) == main_bytes
    assert report_to_json(verify_bounds(7, workers=2)) == bounds_bytes


def test_theorem_sweep_argument_guards():
    for kwargs in ({"target": 12}, {"target": -1}, {"workers": 0}):
        with pytest.raises(InvalidArgument):
            verify_main_theorem(11, 4, **kwargs)
        with pytest.raises(InvalidArgument):
            verify_karolyi_inverse(11, 4, **kwargs)
    with pytest.raises(InvalidArgument):
        verify_main_theorem(11, 0)
    with pytest.raises(KTooLarge):
        verify_karolyi_inverse(5, 6)


def test_theorem_ceiling_guard():
    assert DEFAULT_THEOREM_CEILING == 19
    with pytest.raises(CeilingExceeded):
        verify_main_theorem(23, 3)
    with pytest.raises(CeilingExceeded):
        verify_karolyi_inverse(13, 5, ceiling=11)
    assert verify_main_theorem(7, 3, ceiling=7).passed
    for ceiling in (1, -1):
        with pytest.raises(InvalidArgument):
            verify_main_theorem(7, 3, ceiling=ceiling)
        with pytest.raises(InvalidArgument):
            verify_bounds(5, ceiling=ceiling)


def test_reports_deterministic_across_workers(monkeypatch):
    base = report_to_json(verify_main_theorem(11, 4, workers=1))
    assert report_to_json(verify_main_theorem(11, 4, workers=3)) == base
    assert report_to_json(verify_main_theorem(11, 4, workers=8)) == base
    # main (13, 7): 43 orbits below p; prefixes dealt to more shards than
    # the CPU clamp allows still give the same walked count and orbits
    single = verify_main_theorem(13, 7, workers=1)
    assert single.extremal_count == 43
    assert report_to_json(verify_main_theorem(13, 7, workers=2)) == report_to_json(single)
    roots = _outer_roots(13, 7)
    dealt = {}
    for per_process in (1, 16):
        monkeypatch.setattr(sweep, "_SHARDS_PER_PROCESS", per_process)
        for processes in (1, 2, 3, 7):
            results = [_extremal_shard((13, 7, 12, shard)) for shard in _deal(roots, processes)]
            dealt[per_process, processes] = (
                sum(r[0] for r in results),
                set().union(*(r[1] for r in results)),
            )
    assert dealt[1, 1][0] == burnside_orbit_count(13, 7)
    assert len(dealt[1, 1][1]) == 43
    assert all(dealt[key] == dealt[1, 1] for key in dealt)
    # each shard returns its own set of orbits; the parent takes their union
    single = verify_karolyi_inverse(11, 7, workers=1)
    assert single.extremal_count == 518
    assert report_to_json(verify_karolyi_inverse(11, 7, workers=2)) == report_to_json(single)


# report sha256 computed before the orderly generator, the candidate-filtered
# walk and the dedup against the outer rep replaced the earlier engine, and
# (bounds) before the bounds sweep walked orbit reps instead of every pair
REPORT_PINS = {
    ("main", 13, 7): "26ca234cbec43ccd902f7df5e499648b1f88f1a45514f32f3d7cf493496b4f59",
    ("main", 17, 9): "69eaf0098c0957374b7723ba598fd75f3080398c6297cc2ebca14b98762bb719",
    ("karolyi", 11, 7): "0e8029ad8f45aace6fb6b63f58028aca98e1401b3ff0678cb27792b3b8449562",
    # 1,366 orbits: the largest boundary listing inside the default ceiling
    ("main", 19, 10): "489ca6c1f9efc160f34ab87ed6561e8a979bdcbb76623bcd30c0239362f1e47b",
    # 5,378 orbits, where the target 2k-3 equals p
    ("karolyi", 13, 8): "617991a029a876b200d9d5f117d151ebd13e18fa22a378f673513b1fc78d3e2e",
}
BOUNDS_PINS = {
    5: "b447e58cac7269c93c97c4fccf69c9d5375eca47a6274194dfaae6e7331123b5",
    13: "635e5e0e1bef4747938d66bbb4b6aee68c7156d91f89a8838864061d862864fe",
}
BOUNDS_P17_PIN = "3f476e2f963d94936e0f14f96f08d1b9506459b36fabf7e0c4bd9ef9db0dfc81"


VERIFY = {"main": verify_main_theorem, "karolyi": verify_karolyi_inverse}


@functools.cache
def _pinned_report(kind, p, k, workers):
    # the sweeps of REPORT_PINS, run once for the pins and the writer check
    return VERIFY[kind](p, k, workers=workers)


def _sha256(report):
    return hashlib.sha256(report_to_json(report).encode()).hexdigest()


def test_report_pins(monkeypatch):
    for (kind, p, k), pin in REPORT_PINS.items():
        for workers in (1, 2):
            assert _sha256(_pinned_report(kind, p, k, workers)) == pin, (kind, p, k, workers)
    for p, pin in BOUNDS_PINS.items():
        for workers in (1, 2):
            assert _sha256(verify_bounds(p, workers=workers)) == pin, (p, workers)
    # the default bounds ceiling, once: worker counts are covered above
    assert _sha256(verify_bounds(17, workers=2)) == BOUNDS_P17_PIN
    # the same bytes the benchmark pins for boundary-p17k9, tiny-bounds-p7
    # and bounds-p11
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    (op,) = workloads.WORKLOADS["boundary-p17k9"].ops
    assert op.args == ("main", "-p", "17", "-k", "9")
    assert op.pin.sha256 == REPORT_PINS[("main", 17, 9)]
    bounds = {7: workloads.TINY_WORKLOADS["tiny-bounds-p7"], 11: workloads.WORKLOADS["bounds-p11"]}
    for p, workload in bounds.items():
        (op,) = workload.ops
        assert op.args == ("bounds", "-p", str(p))
        for workers in (1, 2):
            assert _sha256(verify_bounds(p, workers=workers)) == op.pin.sha256, (p, workers)


# main (23, 12), at the boundary p = 2k-1 above the default ceiling: 16,079
# orbits from 32,326 raw hits, the densest dedup load. sha256 computed
# while each image of a set was still a mask of its own
BOUNDARY_P23_PIN = "4d6242c3316655ccba75e00f86f7587312b630e77bd8520985e4c6c87b969769"


def test_boundary_pin_at_p23():
    report = verify_main_theorem(23, 12, workers=2, ceiling=23)
    assert report.extremal_count == 16079
    assert _sha256(report) == BOUNDARY_P23_PIN


# report sha256 of sweeps whose target exceeds p, computed while every
# shard still grew the reps of size k to count them
COUNTED_PINS = {
    ("main", 11, 8): "b4396c4f6b08b3406e7ad08c1bac9f75c8cbf59b30d786ff05a83a57b6fdbb98",
    ("main", 13, 9): "6fe4d8dc5098982907e57d4820999cc82059e0cfcb50edf5cea0f3f0b15abc34",
    ("karolyi", 11, 8): "cf00c25b40916602795ab935c846517de826c184b5b838e5fc1395fffdbb6066",
}


def test_target_above_p_counts_orbits_without_shards(monkeypatch):
    # the closed Burnside count against the oracle's cycle-by-cycle count
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        for k in range(1, p + 1):
            assert _orbit_count(p, k) == burnside_orbit_count(p, k), (p, k)

    def no_shards(worker, head, units, workers):
        raise AssertionError("a shard was started")

    monkeypatch.setattr(sweep, "_run_shards", no_shards)
    verify = {"main": verify_main_theorem, "karolyi": verify_karolyi_inverse}
    for (kind, p, k), pin in COUNTED_PINS.items():
        for workers in (1, 2):
            assert _sha256(verify[kind](p, k, workers=workers)) == pin, (kind, p, k, workers)
    report = verify_main_theorem(23, 13, ceiling=23)
    assert report.pairs_scanned == burnside_orbit_count(23, 13) * comb(23, 13)
    assert report.extremal_pairs == [] and report.passed


def test_report_writer_matches_reference():
    # the template writer against json.dumps(doc, indent=2) of the fields
    reports = [_pinned_report(kind, p, k, 1) for kind, p, k in REPORT_PINS]
    reports += [VERIFY[kind](p, k) for kind, p, k in COUNTED_PINS]
    reports += [verify_bounds(5), verify_bounds(7)]
    prime = Prime(11)
    bare = PairRecord(
        FpSet.of(prime, [0, 1, 2, 3, 5]), FpSet.of(prime, [0, 1, 2, 4, 9]), 5, 8, (), False, None
    )
    single = make_pair_record(FpSet.of(prime, [3]), FpSet.of(prime, [3]))
    assert single.ap_witness == ApWitness(3, 1, 1, prime) and single.labels
    progression = make_pair_record(FpSet.of(prime, range(5)), FpSet.of(prime, range(5)))
    assert progression.ap_witness.length == 5
    flags = {"p_gt_2k_minus_1": False, "k_ge_5": True, "p_gt_2k_minus_2": True}
    # the three violating pairs over Z/4Z, as verify_bounds would list them
    violations = [
        {"a": a, "b": b, "bound": "sumset", "size": 2, "required": 3}
        for a, b in (("0,2", "0,2"), ("0,2", "1,3"), ("1,3", "1,3"))
    ]
    reports += [
        SweepReport("main", 11, 5, 8, 0),
        SweepReport(
            "karolyi", 11, 5, 7, 462,
            extremal_pairs=[bare, single, progression],
            # listed twice, and one listed only here
            counterexamples=[bare, single, make_pair_record(bare.b, bare.a)],
            hypothesis_flags=flags,
            expectation_checked=False,
        ),
        SweepReport("bounds", 4, None, None, 225, violations=violations),
    ]
    for report in reports:
        assert report_to_json(report) == oracles.reference_report_json(report)


def test_extremal_scan_matches_brute_force():
    # p = 7, k = 4, target 2k-2 = 6 (98 ordered hits, most with A != B):
    # cross-check the full list of attaining unordered pairs against a
    # naive double loop
    target = 6
    brute_hits = set()
    subsets = list(itertools.combinations(range(7), 4))
    for i, a in enumerate(subsets):
        for b in subsets[i:]:
            if len(brute_restricted(a, b, 7)) == target:
                ca, cb = canonical_pair(FpSet.of(7, a), FpSet.of(7, b)).sets
                cb2, ca2 = canonical_pair(FpSet.of(7, b), FpSet.of(7, a)).sets
                brute_hits.add(
                    min((ca.elements, cb.elements), (cb2.elements, ca2.elements))
                )
    report = verify_main_theorem(7, 4)
    got = {(r.a.elements, r.b.elements) for r in report.extremal_pairs}
    assert got == brute_hits
    assert any(a != b for a, b in got) and any(a == b for a, b in got)


def test_pair_records_reproducible():
    report = verify_main_theorem(11, 5)
    for rec in report.extremal_pairs:
        again = make_pair_record(rec.a, rec.b)
        assert again == rec
        cls = classify_pair(rec.a, rec.b)
        assert tuple(sorted(cls.labels)) == rec.labels
        assert cls.restricted_size == rec.restricted_size


def test_karolyi_sweep_both_directions():
    report = verify_karolyi_inverse(11, 5)
    assert report.counterexamples == []
    assert report.extremal_count > 0
    for rec in report.extremal_pairs:
        assert rec.sets_equal
        assert rec.ap_witness is not None
    # forward direction example: the base progression attains 2k-3
    base = FpSet.of(Prime(11), range(5))
    assert len(restricted_sumset(base, base)) == 7
    # below the size threshold exceptions are recorded, not asserted
    small = verify_karolyi_inverse(11, 3)
    assert not small.expectation_checked
    assert small.passed


def test_karolyi_converse_matches_progression_loop():
    # one check of {0, ..., k-1} against every progression of size k; at
    # k = 1 the converse fails by design (|A+.A| = 0, required min(p, -1))
    for p in (5, 7, 11):
        for k in range(1, p + 1):
            got = _converse_exceptions(Prime(p), k)
            expected = ap_converse_exceptions(p, k)
            assert [(r.a.elements, r.b.elements) for r in got] == expected
            assert got == [make_pair_record(FpSet.of(p, a), FpSet.of(p, b)) for a, b in expected]
            if k == 1:
                assert len(got) == 1
            report = verify_karolyi_inverse(p, k)
            assert report.counterexamples[len(report.counterexamples) - len(got):] == got


def test_bounds_sweep_small_primes():
    for pv in (5, 7):
        report = verify_bounds(pv)
        assert report.violations == []
        n = 2 ** pv - 1
        assert report.pairs_scanned == n * n
    # spot-check against naive evaluation for p = 5
    for a in itertools.combinations(range(5), 2):
        for b in itertools.combinations(range(5), 3):
            assert len(brute_sumset(a, b, 5)) >= min(5, len(a) + len(b) - 1)
            assert len(brute_restricted(a, b, 5)) >= min(5, len(a) + len(b) - 3)


def test_bounds_shards_find_every_violation(monkeypatch):
    # Z/nZ with n composite breaks both bounds (e.g. {0, 2} + {0, 2} in
    # Z/4Z), so the reduced path is checked against a brute loop over
    # unordered mask pairs, for several stride dealings: the shards walk B
    # against the orbit reps under the maps with unit multipliers, and the
    # violations they find expand to every violating pair
    for n, count in ((4, 3), (6, 33), (8, 138)):
        full = (1 << n) - 1
        expected = set()
        for a_mask in range(1, full + 1):
            a = _mask_elements(a_mask)
            for b_mask in range(a_mask, full + 1):
                b = _mask_elements(b_mask)
                for bound, size, need in (
                    ("sumset", len(brute_sumset(a, b, n)), min(n, len(a) + len(b) - 1)),
                    ("restricted", len(brute_restricted(a, b, n)), min(n, len(a) + len(b) - 3)),
                ):
                    if size < need:
                        expected.add((a_mask, b_mask, bound, size, need))
        assert len(expected) == count
        reps = [mask for mask, _ in _every_rep(n)]
        for per_process in (1, 16):
            monkeypatch.setattr(sweep, "_SHARDS_PER_PROCESS", per_process)
            for processes in (1, 2, 3, 7):
                results = [_bounds_shard((n, shard)) for shard in _deal(reps, processes)]
                found = [v for violations in results for v in violations]
                assert len(found) == len(set(found))
                assert {v[0] for v in found} <= set(reps)
                assert _violating_pairs(found, n) == expected


def test_bounds_violations_are_closed_under_unit_maps():
    # over Z/10Z the unit multipliers 3 and 7 move some violating pairs off
    # every translate of the pair found at the rep (A = B = {0, 1, 5, 6} is
    # found; its image under x -> 3x, A = B = {0, 3, 5, 8}, is no translate
    # of it), so the expansion must use them: every listed pair breaks its
    # bound, and the list of unordered pairs is closed under x -> lam*x + mu
    n = 10
    units = [lam for lam in range(1, n) if gcd(lam, n) == 1]
    reps = [mask for mask, _ in _every_rep(n)]
    pairs = _violating_pairs(_bounds_shard((n, reps)), n)
    assert len(pairs) == 621
    for a_mask, b_mask, bound, size, need in pairs:
        a, b = _mask_elements(a_mask), _mask_elements(b_mask)
        brute = brute_sumset if bound == "sumset" else brute_restricted
        slack = 1 if bound == "sumset" else 3
        assert a_mask <= b_mask
        assert size == len(brute(a, b, n)) < need == min(n, len(a) + len(b) - slack)
        for lam in units:
            for mu in range(n):
                x = _mask([(lam * e + mu) % n for e in a])
                y = _mask([(lam * e + mu) % n for e in b])
                assert (min(x, y), max(x, y), bound, size, need) in pairs


def test_orbit_sizes_of_every_rep_sum_to_the_nonempty_sets():
    # the count behind the bounds sweep's logical pairs_scanned: the orbits
    # of the reps of every size, |orbit(A)| = n * |units| / |stab(A)|,
    # partition the 2^n - 1 nonempty sets, over Z/nZ with n composite too
    assert [_units(n) for n in (4, 6, 8)] == [(1, 3), (1, 5), (1, 3, 5, 7)]
    for n in (5, 7, 11, 13, 4, 6, 8):
        units = [lam for lam in range(1, n) if gcd(lam, n) == 1]
        assert list(_units(n)) == units
        group = n * len(units)
        reps = _every_rep(n)
        assert all(group % len(stab) == 0 for _, stab in reps)
        assert sum(group // len(stab) for _, stab in reps) == 2 ** n - 1
    # at composite n each rep is the lex-least image of its orbit under the
    # maps with unit multipliers (test_orbit_reps_are_lex_least_images
    # covers the primes size by size)
    for n in (4, 6, 8):
        units = [lam for lam in range(1, n) if gcd(lam, n) == 1]
        least = {
            min(
                tuple(sorted((lam * e + mu) % n for e in x))
                for lam in units
                for mu in range(n)
            )
            for k in range(1, n + 1)
            for x in itertools.combinations(range(n), k)
        }
        reps = [_mask_elements(mask) for mask, _ in _every_rep(n)]
        assert len(reps) == len(set(reps))
        assert sorted(reps, key=lambda x: (len(x), x)) == sorted(least, key=lambda x: (len(x), x))
    assert len(_every_rep(11)) == 29 and len(_every_rep(13)) == 73
    for p in (5, 7, 11, 13):
        assert len(_every_rep(p)) == sum(burnside_orbit_count(p, k) for k in range(1, p + 1))


def test_bounds_ceiling_guard():
    assert sweep.DEFAULT_BOUNDS_CEILING == 17
    with pytest.raises(CeilingExceeded):
        verify_bounds(19)
    report = verify_bounds(5, ceiling=5)
    assert report.violations == []


def test_audit_all_extremal_clean_at_p11_k5():
    traces = list(audit_all_extremal(11, 5))
    assert traces
    assert all(t.clean for t in traces)
    assert all(t.sets_equal for t in traces)


def test_audit_all_extremal_flags_boundary():
    traces = list(audit_all_extremal(11, 6))
    assert traces
    diagonal = [t for t in traces if t.sets_equal]
    nondiagonal = [t for t in traces if not t.sets_equal]
    assert nondiagonal, "attaining pairs with A != B exist at p = 2k-1"
    assert all(not t.clean for t in traces)
    assert all(t.warning is not None for t in traces)
    # diagonal traces fail only on the vanishing denominators
    for t in diagonal:
        assert {r.label for r in t.failed_records()} == {"even_denominator_nonzero"}


def test_report_json_shape():
    report = verify_main_theorem(7, 4)
    doc = json.loads(report_to_json(report))
    assert doc["kind"] == "main"
    assert doc["p"] == 7 and doc["k"] == 4
    assert doc["target_size"] == 6
    assert doc["pruned"] is True
    assert doc["extremal_pair_count"] == len(doc["extremal_pairs"]) > 0
    for rec in doc["extremal_pairs"]:
        assert set(rec) == {
            "a", "b", "k", "restricted_size", "labels", "sets_equal", "ap_witness",
        }
    assert "wall_time" not in doc and "workers" not in doc
