"""Odd-set detection: auxiliary flow graph, cut tree, dense-set scan."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchmatch as sm
from sketchmatch.oddsets import (
    build_auxiliary,
    collect_violated_sets,
    find_dense_odd_sets,
    gomory_hu,
    max_flow,
)

from conftest import EPS

TRIANGLE = [(0, 1), (0, 2), (1, 2)]


class TestBuildAuxiliary:
    def test_zero_mass_unit_allowance(self):
        # K = 8 / eps^3 = 64 at eps = 1/2; all allowance goes to the apex
        aux = build_auxiliary(3, TRIANGLE, [0, 0, 0], [1, 1, 1], 0.5)
        assert aux.kappa == 64
        assert aux.apex == 3
        for i in range(3):
            assert aux.cap[i, aux.apex] == 64
        assert aux.cap[0, 1] == 0

    def test_single_saturated_edge(self):
        aux = build_auxiliary(2, [(0, 1)], [1.0], [1.0, 1.0], 0.5)
        assert aux.cap[0, 1] == 64
        assert aux.cap[0, aux.apex] == 0
        assert aux.cap[1, aux.apex] == 0

    def test_overloaded_vertex_rejected(self):
        with pytest.raises(ValueError, match="vertex 0"):
            build_auxiliary(2, [(0, 1)], [2.0], [1.0, 1.0], 0.5)

    def test_exact_rational_snapping(self):
        # 0.75 * 64 = 48 exactly; float noise must not drop it to 47
        aux = build_auxiliary(2, [(0, 1)], [0.15 * 5], [1.0, 1.0], 0.5)
        assert aux.cap[0, 1] == 48


def _brute_mincut(cap, s, t):
    n = cap.shape[0]
    best = None
    others = [v for v in range(n) if v not in (s, t)]
    for r in range(len(others) + 1):
        for extra in itertools.combinations(others, r):
            side = {s, *extra}
            val = int(
                sum(cap[i, j] for i in side for j in range(n) if j not in side)
            )
            best = val if best is None else min(best, val)
    return best


class TestMaxFlow:
    def test_two_nodes(self):
        cap = np.array([[0, 3], [3, 0]], dtype=np.int64)
        value, side = max_flow(cap, 0, 1)
        assert value == 3
        assert side == frozenset({0})

    def test_matches_brute_cut_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            cap = np.zeros((n, n), dtype=np.int64)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.7:
                        c = int(rng.integers(0, 15))
                        cap[i, j] = cap[j, i] = c
            s, t = 0, n - 1
            value, side = max_flow(cap, s, t)
            assert value == _brute_mincut(cap, s, t)
            out = int(
                sum(cap[i, j] for i in side for j in range(n) if j not in side)
            )
            assert out == value  # returned side is itself a min cut

    def test_source_equals_sink_raises(self):
        with pytest.raises(ValueError):
            max_flow(np.zeros((2, 2), dtype=np.int64), 1, 1)


class TestGomoryHu:
    def test_two_nodes(self):
        cap = np.array([[0, 3], [3, 0]], dtype=np.int64)
        tree = gomory_hu(cap)
        assert tree.mincut(0, 1) == 3

    def test_path_graph(self):
        # 0 -2- 1 -5- 2
        cap = np.array([[0, 2, 0], [2, 0, 5], [0, 5, 0]], dtype=np.int64)
        tree = gomory_hu(cap)
        assert tree.mincut(0, 2) == 2
        assert tree.mincut(1, 2) == 5
        assert tree.mincut(0, 1) == 2

    def test_star_unit_spokes(self):
        n = 5
        cap = np.zeros((n, n), dtype=np.int64)
        for leaf in range(1, n):
            cap[0, leaf] = cap[leaf, 0] = 1
        tree = gomory_hu(cap)
        for a, b in itertools.combinations(range(1, n), 2):
            assert tree.mincut(a, b) == 1

    def test_matches_direct_max_flow_all_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            cap = np.zeros((n, n), dtype=np.int64)
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.6:
                        c = int(rng.integers(0, 20))
                        cap[i, j] = cap[j, i] = c
            tree = gomory_hu(cap)
            for a, b in itertools.combinations(range(n), 2):
                value, _ = max_flow(cap, a, b)
                assert tree.mincut(a, b) == value

    def test_tree_partitions_are_minimum_cuts(self):
        # the partition below each tree edge must achieve the stored flow
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            cap = np.zeros((n, n), dtype=np.int64)
            for i in range(n):
                for j in range(i + 1, n):
                    c = int(rng.integers(0, 12))
                    cap[i, j] = cap[j, i] = c
            tree = gomory_hu(cap)
            for v in range(1, n):
                side = tree.side_below(v)
                val = int(
                    sum(cap[i, j] for i in side for j in range(n) if j not in side)
                )
                assert val == tree.flow[v]


class TestFindDenseOddSets:
    def test_dense_triangle_found(self):
        out = find_dense_odd_sets(
            3, TRIANGLE, [1, 1, 1], [2, 2, 2], 0.5, [1, 1, 1]
        )
        assert out == ((0, 1, 2),)

    def test_no_mass_no_sets(self):
        out = find_dense_odd_sets(
            3, TRIANGLE, [0, 0, 0], [1.5, 1.5, 1.5], 0.5, [1, 1, 1]
        )
        assert out == ()

    def test_two_disjoint_triangles_both_found(self):
        edges = TRIANGLE + [(3, 4), (3, 5), (4, 5)]
        out = find_dense_odd_sets(
            6, edges, [1] * 6, [2] * 6, 0.5, [1] * 6
        )
        assert sorted(out) == [(0, 1, 2), (3, 4, 5)]

    def test_returned_sets_disjoint(self):
        edges = TRIANGLE + [(3, 4), (3, 5), (4, 5)]
        out = find_dense_odd_sets(6, edges, [1] * 6, [2] * 6, 0.5, [1] * 6)
        seen: set[int] = set()
        for members in out:
            assert not (set(members) & seen)
            seen |= set(members)

    def test_check_bounds_contract_fuzz(self):
        rng = np.random.default_rng(42)
        runs = 0
        for _ in range(60):
            n = int(rng.integers(3, 8))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            take = [p for p in pairs if rng.random() < 0.7]
            if not take:
                continue
            bvec = [int(rng.integers(1, 3)) for _ in range(n)]
            eps = float(rng.choice([0.5, 0.25]))
            qv = [float(rng.integers(0, 4)) / 4.0 for _ in take]
            load = [0.0] * n
            for (i, j), v in zip(take, qv):
                load[i] += v
                load[j] += v
            qh = [
                max(bvec[i], load[i]) + float(rng.integers(0, 3)) / 2.0
                for i in range(n)
            ]
            lines = "\n".join(f"{i} {j} 1" for i, j in take)
            btext = "\n".join(f"{i} {bvec[i]}" for i in range(n))
            g = sm.load_graph(lines + "\n", btext)
            odd = sm.enumerate_small_odd_sets(g, eps)
            find_dense_odd_sets(g.n, take, qv, qh, eps, bvec, odd_sets=odd)
            runs += 1
        assert runs >= 40


def _index_for(text: str, eps: float = EPS, btext: str | None = None):
    g = sm.load_graph(text, btext)
    lv = sm.discretize(g, eps)
    return g, lv, sm.SystemIndex(lv, eps)


class TestCollectViolatedSets:
    def test_zero_mass_empty(self):
        _g, _lv, index = _index_for("0 1 4\n0 2 4\n1 2 4\n", eps=0.5)
        q = np.zeros(len(index.rows))
        q_hat = np.array([1.0, 1.0, 1.0])
        selected, values = collect_violated_sets(index, q, q_hat)
        assert selected == []
        assert values.shape == (len(index.odd_sets),)

    def test_dense_triangle_selected(self):
        _g, _lv, index = _index_for("0 1 4\n0 2 4\n1 2 4\n", eps=0.5)
        # candidacy: internal 2.85 > (allowance - (1 - eps))/2 = 2.75
        q = np.full(len(index.rows), 0.95)
        q_hat = np.array([2.0, 2.0, 2.0])
        selected, values = collect_violated_sets(index, q, q_hat)
        assert len(selected) == 1
        t = selected[0]
        assert index.odd_sets.members(t) == (0, 1, 2)
        # value = internal - (allowance - bnorm)/2 = 2.85 - (6 - 3)/2
        assert values[t] == pytest.approx(2.85 - 1.5)

    def test_below_bar_not_selected(self):
        _g, _lv, index = _index_for("0 1 4\n0 2 4\n1 2 4\n", eps=0.5)
        # internal mass 0.3 * 3 = 0.9 <= (3 - 0.5)/2 = 1.25 bar
        q = np.full(len(index.rows), 0.3)
        q_hat = np.array([1.0, 1.0, 1.0])
        selected, _values = collect_violated_sets(index, q, q_hat)
        assert selected == []

    def test_allowance_below_capacity_rejected(self):
        _g, _lv, index = _index_for("0 1 4\n0 2 4\n1 2 4\n", eps=0.5)
        q = np.zeros(len(index.rows))
        with pytest.raises(AssertionError, match="vertex"):
            collect_violated_sets(index, q, np.array([0.5, 1.0, 1.0]))

    def test_disjoint_selection_property(self):
        _g, _lv, index = _index_for(
            "0 1 4\n0 2 4\n1 2 4\n3 4 4\n3 5 4\n4 5 4\n", eps=0.5
        )
        q = np.full(len(index.rows), 0.95)
        q_hat = np.full(6, 2.0)
        selected, _ = collect_violated_sets(index, q, q_hat)
        members = [index.odd_sets.members(t) for t in selected]
        assert sorted(members) == [(0, 1, 2), (3, 4, 5)]
        seen: set[int] = set()
        for ms in members:
            assert not (set(ms) & seen)
            seen |= set(ms)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1 << 32))
def test_flow_route_agrees_with_exhaustive_exclusion(seed):
    """Untouched small odd sets never exceed the exclusion bound."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    take = [p for p in pairs if rng.random() < 0.8]
    if not take:
        take = [pairs[0]]
    eps = 0.5
    qv = [float(rng.integers(0, 3)) / 2.0 for _ in take]
    load = [0.0] * n
    for (i, j), v in zip(take, qv):
        load[i] += v
        load[j] += v
    qh = [max(1.0, load[i]) + float(rng.integers(0, 2)) for i in range(n)]
    lines = "\n".join(f"{i} {j} 1" for i, j in take)
    g = sm.load_graph(lines + "\n")
    odd = sm.enumerate_small_odd_sets(g, eps)
    chosen = find_dense_odd_sets(g.n, take, qv, qh, eps, [1] * n, odd_sets=odd)
    # independent restatement of the exclusion bound
    for t in range(len(odd)):
        members = odd.members(t)
        if any(set(members) & set(ms) for ms in chosen):
            continue
        internal = sum(v for (i, j), v in zip(take, qv) if i in members and j in members)
        allowance = sum(qh[i] for i in members)
        assert internal <= 0.5 * (allowance - (1.0 - eps)) + 1e-9


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(
            lambda: build_auxiliary(2, [(0, 1)], [-0.5], [1.0, 1.0], 0.5),
            r"negative edge mass on \(0, 1\)",
            id="negative_mass",
        ),
        pytest.param(
            lambda: gomory_hu(np.array([[0, 3], [3, 0]], dtype=np.int64)).mincut(1, 1),
            "mincut of a vertex with itself",
            id="mincut_same_vertex",
        ),
    ],
)
def test_input_checks_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()
