"""Sketching layer: PRFs, L0 samplers, sparsifiers, ledger, switch check."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchmatch as sm
from sketchmatch.sketch import (
    L0SampleError,
    L0Sketch,
    PromiseViolationError,
    all_cut_values,
    forest_count,
    prf_u64,
    prf_uniform,
)

from conftest import EPS


class TestPrf:
    def test_deterministic(self):
        assert prf_u64(7, "a", 3) == prf_u64(7, "a", 3)

    def test_domain_separation(self):
        assert prf_u64(7, "a", 3) != prf_u64(7, "a", 4)
        assert prf_u64(7, "ab", "c") != prf_u64(7, "a", "bc")

    def test_uniform_range(self):
        vals = [prf_uniform(1, "t", i) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert 0.4 < sum(vals) / len(vals) < 0.6


class TestL0:
    def test_single_coordinate(self):
        sk = L0Sketch(domain=8, seed=3)
        sk.update(5, 1)
        assert sk.sample() == 5

    def test_two_coordinate_frequencies(self):
        hits = {2: 0, 6: 0}
        for seed in range(10_000):
            sk = L0Sketch(domain=8, seed=seed)
            sk.update(2, 1)
            sk.update(6, 1)
            try:
                hits[sk.sample()] += 1
            except L0SampleError:
                pass
        total = hits[2] + hits[6]
        # with three repetitions a 2-element support fails ~3.8% of the
        # time (all repetitions hash both items to the same depth)
        assert total >= 9_400
        assert 0.3 <= hits[2] / total <= 0.7
        assert 0.3 <= hits[6] / total <= 0.7

    def test_empty_signals(self):
        sk = L0Sketch(domain=8, seed=3)
        with pytest.raises(L0SampleError):
            sk.sample()

    def test_linearity_deletion(self):
        sk = L0Sketch(domain=8, seed=11)
        sk.update(1, 1)
        sk.update(4, 1)
        sk.update(1, -1)
        assert sk.sample() == 4

    def test_merge_equals_union(self):
        a = L0Sketch(domain=16, seed=9)
        bm = L0Sketch(domain=16, seed=9)
        u = L0Sketch(domain=16, seed=9)
        for c in (1, 5):
            a.update(c, 1)
            u.update(c, 1)
        for c in (8, 12):
            bm.update(c, 1)
            u.update(c, 1)
        a.merge(bm)
        assert np.array_equal(a.count, u.count)
        assert np.array_equal(a.idsum, u.idsum)
        assert np.array_equal(a.fp, u.fp)


def _cut_dev(n, edges_a, wa, edges_b, wb):
    ca = all_cut_values(n, edges_a, wa)
    cb = all_cut_values(n, edges_b, wb)
    live = ca > 0
    if (~live & (cb != 0)).any():
        return math.inf
    if not live.any():
        return 0.0
    return float(np.max(np.abs(cb[live] - ca[live]) / ca[live]))


class TestStreamingSparsifier:
    def test_forest_identity(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        weights = [2.0, 5.0, 0.5]
        sp = sm.build_streaming_sparsifier(4, edges, weights, 0.25, seed=1)
        assert sorted(sp.edge_ids) == [0, 1, 2]
        kept = dict(zip(sp.edge_ids, sp.weights))
        for e, w in enumerate(weights):
            assert kept[e] == pytest.approx(w)

    def test_single_edge(self):
        sp = sm.build_streaming_sparsifier(2, [(0, 1)], [3.0], 0.25, seed=0)
        assert list(sp.edge_ids) == [0]
        assert sp.weights[0] == pytest.approx(3.0)

    def test_k4_cut_fidelity(self):
        n = 4
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        weights = [1.0] * len(edges)
        passing = 0
        for seed in range(100):
            sp = sm.build_streaming_sparsifier(n, edges, weights, 0.25, seed=seed)
            dev = _cut_dev(
                n, edges, weights, list(sp.endpoints), list(sp.weights)
            )
            if dev <= 0.25:
                passing += 1
        assert passing >= 99

    def test_edge_count_bound(self):
        n, xi = 8, 0.5
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        weights = [float(1 + (i * 7) % 13) for i in range(len(edges))]
        sp = sm.build_streaming_sparsifier(n, edges, weights, xi, seed=3)
        k = forest_count(n, xi)
        bound = k * (n - 1) * (math.log2(len(edges)) + 1)
        assert len(sp.edge_ids) <= bound

    def test_forest_count_formula(self):
        assert forest_count(4, 0.25) == math.ceil(
            16.0 * math.log(5.0) ** 2 / 0.0625
        )


class TestDeferredSketch:
    def test_forest_all_stored(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        promise = [1.0, 2.0, 4.0]
        sk = sm.build_deferred(4, edges, promise, chi=3.0, xi=0.25, seed=5)
        assert sorted(sk.stored_edge_ids()) == [0, 1, 2]
        for _e, _i, _j, _pr, p_keep, _d in sk.entries:
            assert p_keep == 1.0

    def test_refine_identity_on_promise(self):
        edges = [(0, 1), (1, 2)]
        promise = [1.5, 2.5]
        sk = sm.build_deferred(3, edges, promise, chi=2.0, xi=0.25, seed=5)
        out = sm.refine_deferred(sk, {0: 1.5, 1: 2.5})
        assert out == {0: pytest.approx(1.5), 1: pytest.approx(2.5)}

    def test_refine_deletion(self):
        edges = [(0, 1), (1, 2)]
        sk = sm.build_deferred(3, edges, [1.0, 1.0], chi=2.0, xi=0.25, seed=5)
        out = sm.refine_deferred(sk, {0: 1.0, 1: 0.0})
        assert 1 not in out

    def test_promise_violation_raises(self):
        edges = [(0, 1)]
        sk = sm.build_deferred(2, edges, [1.0], chi=2.0, xi=0.25, seed=5)
        with pytest.raises(PromiseViolationError):
            sm.refine_deferred(sk, {0: 5.0})

    def test_zero_promise_skipped(self):
        edges = [(0, 1), (1, 2)]
        sk = sm.build_deferred(3, edges, [1.0, 0.0], chi=2.0, xi=0.25, seed=5)
        assert sorted(sk.stored_edge_ids()) == [0]

    def test_deferred_dominates_plain_with_coupled_seed(self):
        # chi >= 1 only raises keep probabilities; same PRF stream
        n = 6
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        promise = [1.0] * len(edges)
        plain = sm.build_deferred(n, edges, promise, chi=1.0, xi=0.4, seed=9)
        wide = sm.build_deferred(n, edges, promise, chi=2.0, xi=0.4, seed=9)
        assert set(plain.stored_edge_ids()) <= set(wide.stored_edge_ids())

    def test_adversarial_within_promise_fidelity(self):
        # K5, promise 1, true weights pushed to both band edges
        n, xi, chi = 5, 0.25, 2.0
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        promise = [1.0] * len(edges)
        passing = 0
        for seed in range(100):
            true = {
                e: (chi if prf_u64(seed, "adv", e) % 2 else 1.0 / chi)
                for e in range(len(edges))
            }
            sk = sm.build_deferred(n, edges, promise, chi=chi, xi=xi, seed=seed)
            out = sm.refine_deferred(sk, {e: true[e] for e in sk.stored_edge_ids()})
            dev = _cut_dev(
                n,
                edges,
                [true[e] for e in range(len(edges))],
                [edges[e] for e in out],
                list(out.values()),
            )
            if dev <= xi:
                passing += 1
        assert passing >= 99

    def test_union_of_per_level_sparsifiers(self):
        # sparsifying two edge-disjoint halves separately preserves the
        # cuts of the union
        n = 6
        all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        half_a = all_edges[: len(all_edges) // 2]
        half_b = all_edges[len(all_edges) // 2 :]
        wa = [1.0 + (e % 3) for e in range(len(half_a))]
        wb = [2.0 + (e % 2) for e in range(len(half_b))]
        passing = 0
        for seed in range(60):
            sa = sm.build_streaming_sparsifier(n, half_a, wa, 0.3, seed=seed)
            sb = sm.build_streaming_sparsifier(n, half_b, wb, 0.3, seed=seed + 7_000)
            union_ends = list(sa.endpoints) + list(sb.endpoints)
            union_w = list(sa.weights) + list(sb.weights)
            dev = _cut_dev(
                n, all_edges, wa + wb, union_ends, union_w
            )
            if dev <= 0.6:  # xi_a + xi_b in the worst case
                passing += 1
        assert passing >= 58


class TestRoundLedger:
    def test_fresh(self):
        ledger = sm.RoundLedger()
        assert ledger.n_rounds == 0
        assert ledger.peak_space == 0

    def test_one_round(self):
        ledger = sm.RoundLedger()
        ledger.begin_round("r1")
        assert ledger.n_rounds == 1

    def test_peak_is_max_over_rounds(self):
        ledger = sm.RoundLedger()
        ledger.begin_round("r1")
        ledger.record_space(5)
        ledger.begin_round("r2")
        ledger.record_space(3)
        assert ledger.peak_space == 5

    def test_within_round_accumulates(self):
        ledger = sm.RoundLedger()
        ledger.begin_round("r1")
        ledger.record_space(2)
        ledger.record_space(3)
        assert ledger.peak_space == 5

    def test_record_before_round_raises(self):
        with pytest.raises(RuntimeError):
            sm.RoundLedger().record_space(1)


def _switch_fixture():
    g = sm.load_graph("0 1 4\n1 2 8\n0 2 6\n2 3 5\n1 3 7\n")
    lv = sm.discretize(g, EPS)
    odd = sm.enumerate_small_odd_sets(g, EPS)
    index = sm.SystemIndex(lv, EPS, odd)
    return g, lv, index


class TestVerifySwitch:
    def test_zero_iterate_vacuous(self):
        _g, _lv, index = _switch_fixture()
        u = {e: 1.0 for (e, _i, _j, _k) in index.rows}
        it = sm.DualIterate.zeros(index, beta=1.0)
        rep = sm.verify_switch(index, u, u, it)
        assert not rep.hypothesis_cover
        assert rep.ok  # implication holds vacuously

    def test_identity_sparsifier(self):
        _g, lv, index = _switch_fixture()
        u = {e: 1.0 for (e, _i, _j, _k) in index.rows}
        it = sm.DualIterate.zeros(index, beta=1.0)
        for _e, i, j, k in index.rows:
            w = lv.level_weight(k)
            ti, tj = index.vrow_of[(i, k)], index.vrow_of[(j, k)]
            it.x_level[ti] = max(it.x_level[ti], w)
            it.x_level[tj] = max(it.x_level[tj], w)
        for i in range(lv.base.n):
            tops = [v for (vi, _k), v in zip(index.vrows, it.x_level) if vi == i]
            if tops:
                it.x_top[i] = max(tops)
        rep = sm.verify_switch(index, u, u, it)
        assert rep.hypothesis_cover and rep.conclusion and rep.ok

    def test_good_sparsifier_implication(self):
        _g, lv, index = _switch_fixture()
        u = {e: 1.0 for (e, _i, _j, _k) in index.rows}
        # a (1 +- eps/16)-accurate reweighting stands in for u
        u_s = {
            e: 1.0 * (1 + (EPS / 16 if e % 2 else -EPS / 16))
            for (e, _i, _j, _k) in index.rows
        }
        it = sm.DualIterate.zeros(index, beta=1.0)
        for _e, i, j, k in index.rows:
            w = lv.level_weight(k)
            ti, tj = index.vrow_of[(i, k)], index.vrow_of[(j, k)]
            it.x_level[ti] = max(it.x_level[ti], w / 2)
            it.x_level[tj] = max(it.x_level[tj], w / 2)
        for i in range(lv.base.n):
            tops = [v for (vi, _k), v in zip(index.vrows, it.x_level) if vi == i]
            if tops:
                it.x_top[i] = max(tops)
        rep = sm.verify_switch(index, u, u_s, it)
        assert rep.hypothesis_cover and rep.ok and rep.conclusion


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1 << 32))
def test_all_cut_values_matches_pure_python(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    take = [p for p in pairs if rng.random() < 0.7]
    if not take:
        take = [pairs[0]]
    weights = [float(rng.integers(1, 10)) for _ in take]
    fast = all_cut_values(n, take, weights)
    triples = [(i, j, w) for (i, j), w in zip(take, weights)]
    ok, worst = sm.enumerate_cuts_check(n, triples, triples, 1e-12)
    assert ok
    # spot-check one specific cut against manual arithmetic
    side = 1  # vertex 0 vs the rest
    manual = sum(
        w for (i, j), w in zip(take, weights) if (i == 0) != (j == 0)
    )
    assert fast[side - 1] == pytest.approx(manual)
