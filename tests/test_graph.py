"""Graph loading, weight discretization, and the small odd-set family."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sketchmatch as sm
from sketchmatch.graph import GraphFormatError

from conftest import EPS, random_instance, triangle_paper


class TestGraph:
    @pytest.mark.parametrize("w", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_nonpositive_or_non_finite_weight(self, w):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) weight must be positive and finite"):
            sm.Graph(n=3, edges=((0, 1, w), (1, 2, 1.0)), b=(1, 1, 1))


class TestLoadGraph:
    def test_smallest_graph(self):
        g = sm.load_graph("0 1 1.0", "0 1\n1 1")
        assert g.n == 2
        assert g.edges == ((0, 1, 1.0),)
        assert g.b == (1, 1)

    def test_triangle(self):
        g = sm.load_graph("0 1 1\n1 2 1\n0 2 0.5")
        assert g.n == 3 and g.m == 3
        assert g.b == (1, 1, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError):
            sm.load_graph("0 0 1.0")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphFormatError):
            sm.load_graph("0 1 1\n1 0 2")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(GraphFormatError):
            sm.load_graph("0 1 0")

    def test_bad_capacity_rejected(self):
        with pytest.raises(GraphFormatError):
            sm.load_graph("0 1 1", "0 0")

    def test_comments_and_blank_lines(self):
        g = sm.load_graph("# header\n\n0 1 2.5  # trailing\n")
        assert g.edges == ((0, 1, 2.5),)


class TestFindMaxWeight:
    def test_paper_triangle(self):
        edge, wstar = sm.find_max_weight(triangle_paper())
        assert wstar == 1.0

    def test_single_edge(self):
        edge, wstar = sm.find_max_weight(sm.load_graph("0 1 7"))
        assert edge == (0, 1, 7.0) and wstar == 7.0

    def test_tie_breaks_to_smaller_pair(self):
        g = sm.load_graph("0 1 3\n0 2 5\n1 2 5")
        edge, wstar = sm.find_max_weight(g)
        assert wstar == 5.0
        assert (edge[0], edge[1]) == (0, 2)

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            sm.find_max_weight(sm.Graph(n=2, edges=(), b=(1, 1)))


class TestDiscretize:
    def test_worked_example(self):
        # W*=100, B=10, eps=1/2: scale 5; 5*1.5^2 = 11.25 <= 12 < 16.875.
        g = sm.Graph(
            n=4,
            edges=((0, 1, 100.0), (2, 3, 12.0)),
            b=(3, 3, 2, 2),
        )
        lv = sm.discretize(g, 0.5)
        assert lv.scale == pytest.approx(5.0)
        assert lv.level_of[1] == 2
        assert lv.level_weight(2) == pytest.approx(2.25)

    def test_boundary_weight_gets_level_zero(self):
        g = sm.Graph(n=4, edges=((0, 1, 64.0), (2, 3, 2.0)), b=(1, 1, 1, 1))
        # scale = (1/16)*64/4 = 1; w=2 -> r=2 -> level floor(log_{1+eps} 2)
        lv = sm.discretize(g, EPS)
        assert lv.scale == pytest.approx(1.0)
        g2 = sm.Graph(n=4, edges=((0, 1, 64.0), (2, 3, 1.0)), b=(1, 1, 1, 1))
        lv2 = sm.discretize(g2, EPS)
        assert lv2.level_of[1] == 0
        assert lv2.level_weight(0) == 1.0

    def test_below_scale_dropped(self):
        g = sm.Graph(n=4, edges=((0, 1, 64.0), (2, 3, 0.5)), b=(1, 1, 1, 1))
        lv = sm.discretize(g, EPS)
        assert lv.level_of[1] == -1
        assert lv.retained_count == 1

    @given(st.integers(0, 10_000))
    def test_level_sandwich_invariant(self, seed):
        g = random_instance(seed % 50)
        lv = sm.discretize(g, EPS)
        for e, i, j, k in lv.retained():
            r = g.edges[e][2] / lv.scale
            assert lv.level_weight(k) <= r * (1 + 1e-9)
            assert r < lv.level_weight(k + 1) * (1 + 1e-9)

    @given(st.integers(0, 10_000))
    def test_dropped_iff_below_scale(self, seed):
        g = random_instance(seed % 50)
        lv = sm.discretize(g, EPS)
        for e, (_i, _j, w) in enumerate(g.edges):
            if lv.level_of[e] == -1:
                assert w < lv.scale * (1 + 1e-9)
            else:
                assert w >= lv.scale * (1 - 1e-9)


def _loop_family(g: sm.Graph, epsilon: float) -> tuple[list[list[bool]], list[int]]:
    """Reference: member rows and capacities by a Python loop over masks."""
    member, bnorm = [], []
    for mask in range(1, 1 << g.n):
        bn = 0
        mm = mask
        while mm:
            low = mm & (-mm)
            bn += g.b[low.bit_length() - 1]
            mm ^= low
        if bn % 2 == 1 and bn <= 4.0 / epsilon:
            member.append([bool(mask >> i & 1) for i in range(g.n)])
            bnorm.append(bn)
    return member, bnorm


def _all_members(sets: sm.OddSetFamily) -> list[tuple[int, ...]]:
    return sorted(sets.members(t) for t in range(len(sets)))


class TestEnumerateSmallOddSets:
    def test_unit_triangle(self):
        g = sm.Graph(n=3, edges=(), b=(1, 1, 1))
        sets = sm.enumerate_small_odd_sets(g, EPS)
        assert _all_members(sets) == [(0,), (0, 1, 2), (1,), (2,)]

    def test_two_vertices_parity(self):
        g = sm.Graph(n=2, edges=(), b=(1, 1))
        sets = sm.enumerate_small_odd_sets(g, EPS)
        assert _all_members(sets) == [(0,), (1,)]

    def test_mixed_capacities(self):
        # b = [2,1,1]: odd-mass subsets are {1},{2},{0,1},{0,2};
        # {0,1,2} has mass 4 (even) and is excluded.
        g = sm.Graph(n=3, edges=(), b=(2, 1, 1))
        sets = sm.enumerate_small_odd_sets(g, EPS)
        assert _all_members(sets) == [(0, 1), (0, 2), (1,), (2,)]

    def test_vertex_count_capped(self):
        g = sm.Graph(n=21, edges=(), b=(1,) * 21)
        with pytest.raises(ValueError, match="n <= 20"):
            sm.enumerate_small_odd_sets(g, EPS)

    @given(st.integers(0, 10_000), st.sampled_from(("suite", "bound_bites", "huge")))
    def test_family_is_exactly_odd_and_small(self, seed, capacities):
        g = random_instance(seed % 30)
        if capacities != "suite":
            # b_i in 5..40 makes the 4/eps = 64 bound cut most odd sets;
            # one b_i = 10**30 must be clipped, not overflow int64.
            rng = random.Random(seed)
            b = [rng.randint(5, 40) if capacities == "bound_bites" else bi for bi in g.b]
            if capacities == "huge":
                b[rng.randrange(g.n)] = 10**30
            g = sm.Graph(n=g.n, edges=g.edges, b=tuple(b))
        sets = sm.enumerate_small_odd_sets(g, EPS)
        assert sets.member.dtype == bool and sets.member.flags.c_contiguous
        assert sets.member.shape == (len(sets), g.n)
        seen = set()
        for t in range(len(sets)):
            members = sets.members(t)
            bn = int(sets.bnorm[t])
            assert bn % 2 == 1
            assert bn <= 4.0 / EPS
            assert bn == sum(g.b[i] for i in members)
            assert members not in seen
            seen.add(members)
        # the same sets, in the same order, as the per-mask loop
        member, bnorm = _loop_family(g, EPS)
        assert np.array_equal(sets.member, np.array(member, dtype=bool).reshape(-1, g.n))
        assert sets.bnorm.tolist() == bnorm

    @given(
        st.integers(0, 10_000),
        st.integers(1, 12),
        st.sampled_from(("unit", "bound_bites", "huge")),
        st.sampled_from((EPS, 0.25, 0.3)),
    )
    def test_count_matches_enumeration(self, seed, n, capacities, eps):
        rng = random.Random(seed)
        if capacities == "unit":
            b = [rng.choice((1, 2)) for _ in range(n)]
        else:
            b = [rng.randint(1, 40) for _ in range(n)]
            if capacities == "huge":
                b[rng.randrange(n)] = 10**30
        g = sm.Graph(n=n, edges=(), b=tuple(b))
        assert sm.count_small_odd_sets(g, eps) == len(sm.enumerate_small_odd_sets(g, eps))

    def test_half_capacity(self):
        # the odd-set bound floor(bnorm / 2) of {0, 1} and {1}
        family = sm.enumerate_small_odd_sets(sm.Graph(n=3, edges=(), b=(2, 1, 1)), EPS)
        half = {family.members(t): int(bn) // 2 for t, bn in enumerate(family.bnorm)}
        assert half[(0, 1)] == 1
        assert half[(1,)] == 0


class TestLevelCount:
    def test_level_count_bound(self):
        for seed in range(20):
            g = random_instance(seed)
            lv = sm.discretize(g, EPS)
            bound = math.ceil(math.log(g.B / EPS) / math.log1p(EPS)) + 1
            assert lv.L <= bound


def _graph(n=3, edges=((0, 1, 1.0),), b=(1, 1, 1)):
    return sm.Graph(n=n, edges=edges, b=b)


@pytest.mark.parametrize(
    "call, exc, match",
    [
        pytest.param(lambda: _graph(n=0, b=()), ValueError, "at least one vertex", id="no_vertex"),
        pytest.param(
            lambda: _graph(b=(1, 1)), ValueError, "expected 3 capacities, got 2",
            id="short_b",
        ),
        pytest.param(
            lambda: _graph(b=(1, 0, 1)),
            ValueError, "capacity of vertex 1 must be an integer >= 1, got 0",
            id="zero_b",
        ),
        pytest.param(
            lambda: _graph(b=(1, 1.0, 1)), ValueError, "capacity of vertex 1 .* got 1.0",
            id="float_b",
        ),
        pytest.param(
            lambda: _graph(n=2, b=(True, True)), ValueError, "capacity of vertex 0 .* got True",
            id="bool_b",
        ),
        pytest.param(
            lambda: _graph(n=2.0, b=(1, 1)), ValueError, "vertex count must be an integer, got 2.0",
            id="float_n",
        ),
        pytest.param(
            lambda: _graph(edges=((0.0, 1.0, 1.0),)),
            ValueError, r"edge \(0.0, 1.0\) endpoints must be integers",
            id="float_ids",
        ),
        pytest.param(
            lambda: _graph(edges=((False, True, 1.0),)),
            ValueError, r"edge \(False, True\) endpoints must be integers",
            id="bool_ids",
        ),
        pytest.param(
            lambda: _graph(edges=((1, 1, 1.0),)), ValueError, "self-loop at vertex 1",
            id="self_loop",
        ),
        pytest.param(
            lambda: _graph(edges=((0, 3, 1.0),)),
            ValueError, r"edge \(0, 3\) out of range for n=3",
            id="out_of_range",
        ),
        pytest.param(
            lambda: _graph(edges=((2, 0, 1.0),)),
            ValueError, r"edge \(2, 0\) must be stored with i < j",
            id="unordered",
        ),
        pytest.param(
            lambda: _graph(edges=((0, 1, 1.0), (0, 1, 2.0))),
            ValueError, r"duplicate edge \(0, 1\)",
            id="duplicate",
        ),
        pytest.param(
            lambda: sm.load_graph("0 1\n"), GraphFormatError, "line 1: expected 'i j w'",
            id="short_edge_line",
        ),
        pytest.param(
            lambda: sm.load_graph("0 1 1\nx 1 1\n"), GraphFormatError, "line 2: invalid literal",
            id="bad_vertex_id",
        ),
        pytest.param(
            lambda: sm.load_graph("-1 1 1\n"), GraphFormatError, "line 1: negative vertex id",
            id="negative_id",
        ),
        pytest.param(
            lambda: sm.load_graph("0 1 1\n1 0 2\n"),
            GraphFormatError, r"line 2: duplicate edge \(0, 1\)",
            id="duplicate_edge_line",
        ),
        pytest.param(
            lambda: sm.load_graph("0 1 1", "0\n"), GraphFormatError, "line 1: expected 'i b_i'",
            id="short_b_line",
        ),
        pytest.param(
            lambda: sm.load_graph("0 1 1", "0 two\n"), GraphFormatError, "line 1: invalid literal",
            id="bad_b_value",
        ),
        pytest.param(
            lambda: sm.load_graph("0 1 1", "0 1\n-1 1\n"),
            GraphFormatError, "line 2: vertex -1 out of range for n=2",
            id="b_vertex_out_of_range",
        ),
        pytest.param(
            lambda: sm.load_graph("0 1 1", "0 1\n0 2\n"),
            GraphFormatError, "line 2: duplicate capacity for vertex 0",
            id="duplicate_b",
        ),
        pytest.param(
            lambda: sm.load_graph("# nothing\n"), GraphFormatError, "no edges found",
            id="no_edges",
        ),
        pytest.param(
            lambda: sm.discretize(triangle_paper(), 1.0),
            ValueError, r"epsilon must be in \(0, 1\), got 1.0",
            id="discretize_eps",
        ),
    ],
)
def test_input_checks_raise(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
