"""The dual-step oracle, its checkers, and integral extraction."""

from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchmatch as sm
from sketchmatch import oracle
from sketchmatch.oracle import (
    DualStep,
    PrimalCertificate,
    _populated_segments,
    check_dual_step,
    check_primal_certificate,
    extract_integral,
    initial_solution,
    matching_oracle,
    maximal_bmatching_rounds,
    offline_bmatching,
    verify_switch,
)
from sketchmatch.sketch import prf_uniform

from conftest import EPS, set_z_prices, z_prices


def _index_for(text: str, eps: float = EPS):
    g = sm.load_graph(text)
    lv = sm.discretize(g, eps)
    return g, lv, sm.SystemIndex(lv, eps)


def _triangle():
    return _index_for("0 1 10\n0 2 10\n1 2 10\n")


class TestMatchingOracleBranches:
    def test_low_penalty_yields_certificate(self):
        _g, _lv, index = _triangle()
        u = np.ones(len(index.rows))
        zeta = np.ones(len(index.vrows))
        out = matching_oracle(index, u, zeta, 1e-4, 1.0)
        assert isinstance(out, PrimalCertificate)
        assert out.objective == pytest.approx(0.9545454545454545)
        assert out.objective >= (1.0 - EPS) * 1.0
        ok, report = check_primal_certificate(index, out)
        assert ok, report

    @pytest.mark.parametrize("dropped", range(3))
    def test_certificate_prices_only_sampled_rows(self, dropped):
        # A row the round's sketch did not store has u = 0; the
        # certificate's y is positive exactly where u is.
        _g, _lv, index = _triangle()
        u = np.ones(len(index.rows))
        u[dropped] = 0.0
        out = matching_oracle(index, u, np.ones(len(index.vrows)), 1e-4, 1.0)
        assert isinstance(out, PrimalCertificate)
        assert np.array_equal(out.y > 0.0, u > 0.0)
        ok, report = check_primal_certificate(index, out)
        assert ok, report

    def test_vertex_branch(self):
        _g, _lv, index = _triangle()
        u = np.ones(len(index.rows))
        zeta = np.ones(len(index.vrows))
        out = matching_oracle(index, u, zeta, 0.3, 20.0)
        assert isinstance(out, DualStep)
        assert out.branch == "vertex"
        # gamma is the penalized slack usc - penalty * zeta.q
        usc = index.multiplier_cover_target(u)
        zq = index.zeta_degree_target(zeta)
        assert out.gamma == pytest.approx(usc - 0.3 * zq)
        # the step attains its own penalized value exactly
        cover = float(u @ index.cover_values(out.iterate))
        load = float(zeta @ index.degree_values(out.iterate))
        assert cover - 0.3 * load == pytest.approx(out.gamma)
        assert sm.budget_value(index, out.iterate) <= 20.0 + 1e-9
        ok, report = check_dual_step(index, u, zeta, out)
        assert ok, report

    def test_high_penalty_yields_zero_branch(self):
        _g, _lv, index = _triangle()
        u = np.ones(len(index.rows))
        zeta = np.ones(len(index.vrows))
        out = matching_oracle(index, u, zeta, 1.0, 1.0)
        assert isinstance(out, DualStep)
        assert out.branch == "zero"
        assert out.gamma < 0.0
        assert not out.iterate.x_top.any() and not len(out.iterate.z_value)
        ok, report = check_dual_step(index, u, zeta, out)
        assert ok, report

    def test_odd_branch_frozen_instance(self):
        # a cheap triangle at the bottom level plus one heavy edge far
        # above it; mass only on the bottom level forces set pricing
        _g, _lv, index = _index_for("0 1 1.25\n0 2 1.25\n1 2 1.25\n3 4 100\n")
        u = np.array([1.0 if k == 0 else 0.0 for (_e, _i, _j, k) in index.rows])
        zeta = np.array([0.01 if k == 0 else 0.001 for (_i, k) in index.vrows])
        out = matching_oracle(index, u, zeta, 1.0, 1.0)
        assert isinstance(out, DualStep)
        assert out.branch == "odd"
        assert out.gamma == pytest.approx(2.438116449543723)
        priced = {
            (index.odd_sets.members(t), lev): v for (t, lev), v in z_prices(out.iterate).items()
        }
        assert set(priced) == {((0, 1, 2), 0)}
        assert priced[((0, 1, 2), 0)] == pytest.approx(0.8209146294760009)
        ok, report = check_dual_step(index, u, zeta, out)
        assert ok, report


def test_populated_segments_span_level_gaps():
    # populated levels 6, 10, 60 and 75, with gaps between them
    _g, lv, index = _index_for("0 1 100\n2 3 2\n4 5 1.5\n1 2 40\n")
    assert sorted(lv.levels) == [6, 10, 60, 75]
    segments = _populated_segments(index)
    assert segments == [(61, 75), (11, 60), (7, 10), (0, 6)]
    # every level of a segment sees the same populated suffix as its top
    populated = set(index.row_levels.tolist())
    for lo, p in segments:
        for lev in range(lo, p + 1):
            assert {k for k in populated if k >= lev} == {k for k in populated if k >= p}


class TestCheckDualStep:
    def test_zero_step_with_zero_penalty_fails_target(self):
        _g, _lv, index = _triangle()
        u = np.ones(len(index.rows))
        zeta = np.ones(len(index.vrows))
        ok, report = check_dual_step(index, u, zeta, DualStep.zeros(index, 5.0))
        assert not ok
        assert report["penalized_target"] is False

    def test_tampered_set_price_breaks_cap(self):
        _g, _lv, index = _index_for("0 1 1.25\n0 2 1.25\n1 2 1.25\n3 4 100\n")
        u = np.array([1.0 if k == 0 else 0.0 for (_e, _i, _j, k) in index.rows])
        zeta = np.array([0.01 if k == 0 else 0.001 for (_i, k) in index.vrows])
        step = matching_oracle(index, u, zeta, 1.0, 1.0)
        level = int(step.iterate.z_level[0])
        step.iterate.z_value[0] = 25.0 / EPS * index.leveled.level_weight(level) * 2.0
        ok, report = check_dual_step(index, u, zeta, step)
        assert not ok
        assert report["z_caps"] is False

    @pytest.mark.parametrize(
        "priced, disjoint",
        [
            ({((0, 1, 2), "low"), ((2, 3, 4), "low")}, False),
            ({((0, 1, 2), "high"), ((1,), "high")}, False),
            ({((0, 1, 2), "low"), ((2, 3, 4), "high")}, True),
            ({((0, 1, 2), "low"), ((3,), "low")}, True),
        ],
    )
    def test_level_disjointness(self, priced, disjoint):
        # sets priced at one level must not share a vertex; the same
        # overlapping pair at two different levels is fine
        _g, _lv, index = _index_for("0 1 1.25\n0 2 1.25\n1 2 1.25\n3 4 100\n")
        family = index.odd_sets
        position = {family.members(t): t for t in range(len(family))}
        level = {"low": 0, "high": int(index.row_levels.max())}
        z = {(position[members], level[lev]): 0.01 for members, lev in sorted(priced)}
        it = set_z_prices(sm.DualIterate.zeros(index), z)
        u = np.ones(len(index.rows))
        zeta = np.ones(len(index.vrows))
        _ok, report = check_dual_step(index, u, zeta, DualStep(it, "odd", 1.0, 1.0, 1.0))
        assert report["level_disjoint"] is disjoint


def _flags(report):
    return {k: v for k, v in report.items() if isinstance(v, bool)}


class TestCheckPrimalCertificate:
    """Tampered certificates flip exactly the report field that guards them."""

    def _assert_only_fails(self, index, cert, field):
        ok, report = check_primal_certificate(index, cert)
        assert not ok
        assert {k for k, v in _flags(report).items() if not v} == {field}

    def test_half_integral_unit_triangle_breaks_odd_set_row(self):
        # y = 1/2 on every edge meets every degree row of b = 1, but
        # the triangle's odd-set row allows floor(3/2) = 1, not 3/2
        _g, _lv, index = _index_for("0 1 1\n1 2 1\n0 2 1\n")
        y = np.full(len(index.rows), 0.5)
        mu = np.zeros(index.level_capacity.shape)
        objective = math.fsum(index.cover_rhs * y)
        cert = PrimalCertificate(
            y=y, mu=mu, y_caps=np.ones(len(index.vrows)), objective=objective, beta=objective
        )
        self._assert_only_fails(index, cert, "odd_set_rows")

    def test_misstated_objective(self):
        _g, _lv, index = _triangle()
        u, zeta = np.ones(len(index.rows)), np.ones(len(index.vrows))
        cert = matching_oracle(index, u, zeta, 1e-4, 1.0)
        assert check_primal_certificate(index, cert)[0]
        tampered = dataclasses.replace(cert, objective=cert.objective * 1.01)
        self._assert_only_fails(index, tampered, "objective_stated")

    def test_level_row_over_its_cap(self):
        _g, _lv, index = _triangle()
        u, zeta = np.ones(len(index.rows)), np.ones(len(index.vrows))
        cert = matching_oracle(index, u, zeta, 1e-4, 1.0)
        y_caps = cert.y_caps.copy()
        t = int(np.argmax(y_caps))
        assert y_caps[t] > 1e-3
        y_caps[t] *= 0.5
        tampered = dataclasses.replace(cert, y_caps=y_caps)
        self._assert_only_fails(index, tampered, "level_rows")


    def test_empty_family_has_no_odd_set_row(self):
        # every capacity even: no set is odd, so no odd-set row can fail
        g = sm.load_graph("0 1 5\n1 2 5\n0 2 5\n")
        g = sm.Graph(n=g.n, edges=g.edges, b=(2, 2, 2))
        index = sm.SystemIndex(sm.discretize(g, EPS), EPS)
        assert len(index.odd_sets) == 0
        u, zeta = np.ones(len(index.rows)), np.ones(len(index.vrows))
        cert = matching_oracle(index, u, zeta, 1e-5, 1.0)
        ok, report = check_primal_certificate(index, cert)
        assert ok, report
        assert report["odd_set_rows"] is True and report["odd_set_worst"] == -math.inf


class TestVerifySwitch:
    GRAPH = "0 1 4\n1 2 8\n0 2 6\n2 3 5\n1 3 7\n"

    def test_zero_iterate_vacuous(self):
        _g, _lv, index = _index_for(self.GRAPH)
        u = np.ones(len(index.rows))
        it = sm.DualIterate.zeros(index)
        ok, rep = verify_switch(index, u, u, it)
        assert not rep["hypothesis_cover"]
        assert ok  # implication holds vacuously
        target = index.multiplier_cover_target(u)
        assert rep == {
            "hypothesis_cover": False,
            "hypothesis_balance": True,
            "hypothesis_shape": True,
            "conclusion": False,
            "sparse_product": 0.0,
            "sparse_target": target,
            "full_product": 0.0,
            "full_target": target,
        }

    def test_identity_sparsifier(self):
        _g, lv, index = _index_for(self.GRAPH)
        u = np.ones(len(index.rows))
        it = sm.DualIterate.zeros(index)
        for _e, i, j, k in index.rows:
            w = lv.level_weight(k)
            ti, tj = index.vrows.index((i, k)), index.vrows.index((j, k))
            it.x_level[ti] = max(it.x_level[ti], w)
            it.x_level[tj] = max(it.x_level[tj], w)
        for i in range(lv.base.n):
            tops = [v for (vi, _k), v in zip(index.vrows, it.x_level) if vi == i]
            if tops:
                it.x_top[i] = max(tops)
        ok, rep = verify_switch(index, u, u, it)
        assert rep["hypothesis_cover"] and rep["conclusion"] and ok

    def test_good_sparsifier_implication(self):
        _g, lv, index = _index_for(self.GRAPH)
        u = np.ones(len(index.rows))
        # a (1 +- eps/16)-accurate reweighting stands in for u
        u_s = np.array(
            [1.0 * (1 + (EPS / 16 if e % 2 else -EPS / 16)) for (e, _i, _j, _k) in index.rows]
        )
        it = sm.DualIterate.zeros(index)
        for _e, i, j, k in index.rows:
            w = lv.level_weight(k)
            ti, tj = index.vrows.index((i, k)), index.vrows.index((j, k))
            it.x_level[ti] = max(it.x_level[ti], w / 2)
            it.x_level[tj] = max(it.x_level[tj], w / 2)
        for i in range(lv.base.n):
            tops = [v for (vi, _k), v in zip(index.vrows, it.x_level) if vi == i]
            if tops:
                it.x_top[i] = max(tops)
        ok, rep = verify_switch(index, u, u_s, it)
        assert rep["hypothesis_cover"] and ok and rep["conclusion"]


def wide_family_graph(m: int) -> sm.Graph:
    """n = 20, b = 1 (524,288 small odd sets): ``m`` shuffled pairs, weights 1..100."""
    rng = random.Random(0)
    pairs = [(i, j) for i in range(20) for j in range(i + 1, 20)]
    rng.shuffle(pairs)
    edges = tuple((i, j, float(rng.randint(1, 100))) for (i, j) in sorted(pairs[:m]))
    return sm.Graph(n=20, edges=edges, b=(1,) * 20)


@pytest.mark.parametrize("m", [33, 60])
def test_widest_family_certifies_in_bounded_memory(m):
    # The float odd-set geometry is built block by block, so the odd
    # branch and the certificate check work at the n = 20 cap whatever
    # the edge count, in bounded memory.
    index = sm.SystemIndex(sm.discretize(wide_family_graph(m), EPS), EPS)
    assert len(index.rows) == m and len(index.odd_sets) == 1 << 19
    u, zeta = np.ones(len(index.rows)), np.ones(len(index.vrows))
    tracemalloc.start()
    try:
        cert = matching_oracle(index, u, zeta, 1e-5, 1.0)
        ok, report = check_primal_certificate(index, cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(cert, PrimalCertificate)
    assert ok, report
    assert peak < 150 * 2**20


class TestCertificateConstruction:
    """``oracle._certificate`` against the dict reference in conftest.py.

    The session fixture ``certificates_match_dict_reference`` wraps the
    construction, so every certificate a test builds is compared entry
    for entry with ``certificate_reference``.
    """

    def test_oracle_certificates_pass_through_the_reference(
        self, certificates_match_dict_reference
    ):
        _g, _lv, index = _triangle()
        before = certificates_match_dict_reference.calls
        out = matching_oracle(index, np.ones(len(index.rows)), np.ones(len(index.vrows)), 1e-4, 1.0)
        assert isinstance(out, PrimalCertificate)
        assert certificates_match_dict_reference.calls == before + 1

    def test_bumps_where_a_member_has_no_degree_row(self, certificates_match_dict_reference):
        # No oracle query in the suite selects a set on the certificate
        # branch, so the bump path is driven directly: the triangle is
        # selected on its own level and on the segment above it, where
        # its members have no degree rows.
        _g, _lv, index = _index_for("0 1 1.25\n0 2 1.25\n1 2 1.25\n3 4 100\n")
        family = index.odd_sets
        t = next(t for t in range(len(family)) if family.members(t) == (0, 1, 2))
        z_level = np.concatenate([np.arange(lo, p + 1) for lo, p in _populated_segments(index)])
        z_set = np.full(len(z_level), t)
        before = certificates_match_dict_reference.calls
        cert = oracle._certificate(
            index,
            np.ones(len(index.rows)),
            np.full(len(index.vrows), 0.01),
            z_set,
            z_level,
            2.0,
            0.5,
            1.0,
        )
        assert certificates_match_dict_reference.calls == before + 1
        no_row = np.ones(cert.mu.shape, dtype=bool)
        no_row[index.vrow_vertex, index.vrow_level] = False
        assert (cert.mu[no_row] > 0.0).any()
        assert (cert.mu[~no_row] > 0.0).any()
        # The bumped certificate is a fractional matching.  Its objective
        # bound is left out: gamma and beta here are made up, and the
        # bound holds only for a query that reaches the certificate
        # branch, where matching_oracle checks it.
        _ok, report = check_primal_certificate(index, cert)
        for field in ("nonnegative", "level_rows", "capacity_rows", "odd_set_rows"):
            assert report[field] is True, (field, report)


class TestExtractIntegral:
    def test_single_edge(self):
        g = sm.load_graph("0 1 7\n")
        lv = sm.discretize(g, EPS)
        rows = list(lv.retained())
        bm = extract_integral(lv, [rows[0][0]])
        assert bm.edges == ((0, 1, 1),)
        assert bm.weight == pytest.approx(lv.level_weight(rows[0][3]))

    def test_unit_triangle_keeps_heaviest_edge(self):
        g = sm.load_graph(f"0 1 1\n0 2 1\n1 2 {10 * EPS}\n")
        lv = sm.discretize(g, EPS)
        rows = list(lv.retained())
        bm = extract_integral(lv, [e for (e, _i, _j, _k) in rows])
        assert len(bm.edges) == 1
        top = max(lv.level_weight(k) for (_e, _i, _j, k) in rows)
        assert bm.weight == pytest.approx(top)

    def test_matches_exact_offline_below_threshold(self):
        g = sm.load_graph(
            "0 1 9\n0 2 5\n1 2 7\n2 3 8\n3 4 6\n4 5 9\n1 4 4\n"
        )
        lv = sm.discretize(g, EPS)
        rows = list(lv.retained())
        lifted = [(i, j, lv.level_weight(k)) for (_e, i, j, k) in rows]
        bm = extract_integral(lv, [e for (e, _i, _j, _k) in rows])
        exact = offline_bmatching(lifted, g.b)
        assert bm.weight == pytest.approx(exact.weight)

    def test_beats_one_minus_eps_of_discretized_optimum(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = 8
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            take = [p for p in pairs if rng.random() < 0.5] or [pairs[0]]
            text = "\n".join(
                f"{i} {j} {int(rng.integers(1, 100))}" for i, j in take
            )
            g = sm.load_graph(text + "\n")
            lv = sm.discretize(g, EPS)
            rows = list(lv.retained())
            bm = extract_integral(lv, [e for (e, _i, _j, _k) in rows])
            opt, _ = sm.brute_force_bmatching(g)
            # discretization may shave a (1+eps) factor but no more
            assert bm.weight * lv.scale >= (1.0 - EPS) * opt / (1.0 + EPS) - 1e-9


class TestOfflineBMatching:
    def test_single_edge(self):
        bm = offline_bmatching([(0, 1, 7.0)], [1, 1])
        assert bm.edges == ((0, 1, 1),)
        assert bm.weight == pytest.approx(7.0)

    def test_two_disjoint_edges(self):
        bm = offline_bmatching([(0, 1, 5.0), (2, 3, 3.0)], [1, 1, 1, 1])
        assert bm.weight == pytest.approx(8.0)
        assert sorted(bm.edges) == [(0, 1, 1), (2, 3, 1)]

    def test_k4_matches_brute_force(self):
        edges = [
            (0, 1, 9.0), (0, 2, 4.0), (0, 3, 6.0),
            (1, 2, 5.0), (1, 3, 3.0), (2, 3, 8.0),
        ]
        text = "\n".join(f"{i} {j} {w}" for i, j, w in edges)
        g = sm.load_graph(text + "\n")
        opt, _ = sm.brute_force_bmatching(g)
        bm = offline_bmatching(edges, [1, 1, 1, 1])
        assert bm.weight == pytest.approx(opt)

    def test_respects_capacities(self):
        bm = offline_bmatching([(0, 1, 5.0), (0, 2, 4.0), (0, 3, 3.0)], [2, 1, 1, 1])
        used = {}
        for i, j, m in bm.edges:
            used[i] = used.get(i, 0) + m
            used[j] = used.get(j, 0) + m
        assert used.get(0, 0) <= 2
        assert bm.weight == pytest.approx(9.0)


class TestMaximalRounds:
    def test_single_edge_saturates(self):
        take, samples = maximal_bmatching_rounds(2, [(0, 0, 1)], [2, 3], 2.0, 0)
        assert take == {0: 2}
        assert len(samples) >= 1

    def test_path_picks_one_edge_maximally(self):
        take, _ = maximal_bmatching_rounds(
            3, [(0, 0, 1), (1, 1, 2)], [1, 1, 1], 2.0, 0
        )
        # whichever edge is taken, the other must be blocked
        assert sum(take.values()) == 1

    def test_star_center_saturated(self):
        for seed in range(10):
            take, _ = maximal_bmatching_rounds(
                6, [(e, 0, e + 1) for e in range(5)], [2, 1, 1, 1, 1, 1], 2.0, seed
            )
            assert sum(take.values()) == 2

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 1 << 32))
    def test_saturation_maximality(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        take_pairs = [p for p in pairs if rng.random() < 0.6]
        if not take_pairs:
            take_pairs = [pairs[0]]
        edges = [(e, i, j) for e, (i, j) in enumerate(take_pairs)]
        b = [int(rng.integers(1, 4)) for _ in range(n)]
        take, _ = maximal_bmatching_rounds(n, edges, b, 2.0, int(seed))
        rem = list(b)
        for e, m in take.items():
            _e, i, j = edges[e]
            rem[i] -= m
            rem[j] -= m
        assert all(r >= 0 for r in rem)
        for _e, i, j in edges:
            assert rem[i] == 0 or rem[j] == 0  # no augmenting edge left

    @staticmethod
    def rounds_reference(n, edges, b, p, seed):
        """The round loop with a capacity copy per attempt and a relisted live set per round."""
        for attempt in range(oracle.MAX_RETRIES + 1):
            rem, take, live, samples = list(b), {}, list(edges), []
            for rnd in range(1, math.ceil(oracle.ROUNDS_MULT * p) + 1):
                if not live:
                    break
                rate = oracle.SAMPLE_RATE_MULT * n ** (1.0 + 1.0 / p) / len(live)
                sampled = live
                if rate < 1.0:
                    sampled = [
                        t
                        for t in live
                        if prf_uniform(seed, "maximal", "", attempt, rnd, t[0]) < rate
                    ]
                samples.append(len(sampled))
                for e, i, j in sampled:
                    m = min(rem[i], rem[j])
                    if m > 0:
                        take[e] = take.get(e, 0) + m
                        rem[i] -= m
                        rem[j] -= m
                live = [(e, i, j) for (e, i, j) in live if rem[i] > 0 and rem[j] > 0]
            if not live:
                return take, samples
        raise RuntimeError("no attempt finished")

    def test_rate_one_boundary(self, monkeypatch):
        # At p = 2 a level on n = 81 vertices has rate 1 up to
        # 4 * 81^1.5 = 2,916 live edges (K81 has 3,240).
        n, p, seed = 81, 2.0, 0
        assert oracle.SAMPLE_RATE_MULT * n ** (1.0 + 1.0 / p) == 2916
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        random.Random(0).shuffle(pairs)
        edges = [(e, i, j) for e, (i, j) in enumerate(pairs[:2917])]
        b = [1 + i % 3 for i in range(n)]
        full = self.rounds_reference(n, edges[:2916], b, p, seed)
        sampled = self.rounds_reference(n, edges, b, p, seed)
        assert sampled[1][0] < 2917  # the first round dropped an edge

        def no_draw(*_args):
            raise AssertionError("a rate-1 round drew")

        with monkeypatch.context() as m:
            m.setattr(oracle, "prf_uniform", no_draw)
            assert maximal_bmatching_rounds(n, edges[:2916], b, p, seed) == full
        assert full[1] == [2916]
        assert maximal_bmatching_rounds(n, edges, b, p, seed) == sampled


class TestInitialSolution:
    def test_single_edge_start_coverage(self):
        _g, lv, index = _index_for("0 1 7\n")
        it, beta0, lam0 = initial_solution(index, 2.0, 0)
        assert lam0 == EPS / 128.0
        (e, i, j, k) = next(iter(lv.retained()))
        w = lv.level_weight(k)
        assert it.x_level[index.vrows.index((i, k))] == pytest.approx((EPS / 256.0) * w)
        assert it.x_level[index.vrows.index((j, k))] == pytest.approx((EPS / 256.0) * w)
        assert beta0 == pytest.approx((EPS / 128.0) * w)
        lam, _row = index.coverage_lambda(index.cover_values(it))
        assert lam == pytest.approx(EPS / 128.0)

    def test_two_levels_add_their_budgets(self):
        _g, lv, index = _index_for("0 1 1\n2 3 100\n")
        it, beta0, lam0 = initial_solution(index, 2.0, 3)
        want = sum(
            (EPS / 128.0) * lv.level_weight(k) for (_e, _i, _j, k) in lv.retained()
        )
        assert beta0 == pytest.approx(want)
        assert lam0 == pytest.approx(EPS / 128.0)

    def test_every_row_covered_at_rate(self):
        _g, lv, index = _index_for("0 1 9\n0 2 5\n1 2 7\n2 3 8\n")
        it, _beta0, lam0 = initial_solution(index, 2.0, 1)
        cov = index.cover_values(it)
        rhs = np.array([lv.level_weight(k) for (_e, _i, _j, k) in index.rows])
        assert (cov >= (EPS / 256.0) * rhs * (1.0 - 1e-9)).all()
        assert lam0 >= EPS / 256.0 - 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1 << 32), st.sampled_from([0.05, 0.2, 0.5]))
def test_oracle_answers_always_check_clean(seed, penalty):
    """Any (multipliers, penalty, budget) combination yields a step or
    certificate that its own verifier accepts."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    take = [p for p in pairs if rng.random() < 0.7] or [pairs[0]]
    text = "\n".join(f"{i} {j} {int(rng.integers(1, 50))}" for i, j in take)
    g = sm.load_graph(text + "\n")
    lv = sm.discretize(g, EPS)
    index = sm.SystemIndex(lv, EPS)
    u = rng.random(len(index.rows))
    zeta = rng.random(len(index.vrows)) + 0.01
    beta = float(rng.choice([0.5, 2.0, 20.0]))
    out = matching_oracle(index, u, zeta, penalty, beta)
    if isinstance(out, PrimalCertificate):
        ok, report = check_primal_certificate(index, out)
        assert ok, report
        assert out.objective >= (1.0 - EPS) * beta - 1e-9
    else:
        ok, report = check_dual_step(index, u, zeta, out)
        assert ok, report


@pytest.mark.parametrize("penalty", [0.0, -1.0])
def test_input_checks_raise(penalty):
    _g, _lv, index = _triangle()
    with pytest.raises(ValueError, match="penalty must be positive"):
        matching_oracle(index, np.ones(len(index.rows)), np.ones(len(index.vrows)), penalty, 1.0)
