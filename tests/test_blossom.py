"""The exact harvest: weighted blossom matching and the vertex-split b-matching."""

from __future__ import annotations

import collections
import math
import random
from fractions import Fraction
from typing import Sequence

import pytest

import sketchmatch as sm
from sketchmatch.blossom import _Search, max_weight_matching
from sketchmatch.oracle import MAX_SPLIT_WORK, BMatching, offline_bmatching

from conftest import EPS, networkx_matching_weight, random_instance, wide_random_instance


def _exact_bmatching(
    edges: Sequence[tuple[int, int, float]], b: Sequence[int]
) -> BMatching:
    """Branch and bound over every multiplicity of every edge (the reference).

    Exponential in the capacities; edges are tried heaviest first.
    """
    order = sorted(range(len(edges)), key=lambda t: (-edges[t][2], edges[t][:2]))
    seq = [edges[t] for t in order]
    n_edges = len(seq)
    rem = list(b)
    best_weight = 0.0
    best: dict[int, int] = {}
    chosen: dict[int, int] = {}

    def bound(idx: int) -> float:
        return sum(
            w * min(rem[i], rem[j]) for (i, j, w) in seq[idx:] if rem[i] and rem[j]
        )

    def walk(idx: int, weight: float) -> None:
        nonlocal best_weight, best
        if weight > best_weight:
            best_weight = weight
            best = dict(chosen)
        if idx >= n_edges or weight + bound(idx) <= best_weight:
            return
        i, j, w = seq[idx]
        top = min(rem[i], rem[j])
        for mult in range(top, -1, -1):
            if mult:
                rem[i] -= mult
                rem[j] -= mult
                chosen[idx] = mult
            walk(idx + 1, weight + w * mult)
            if mult:
                rem[i] += mult
                rem[j] += mult
                del chosen[idx]

    walk(0, 0.0)
    out = sorted((seq[t][0], seq[t][1], m) for t, m in best.items())
    return BMatching(edges=tuple(out), weight=best_weight)


def assert_optimal_duals(search: _Search) -> None:
    """The final duals certify the matching: feasible and complementary.

    Vertex duals are stored doubled, so an edge's doubled reduced cost is
    ``y_i + y_j - 2 w + 2 sum z_B`` over the blossoms holding both ends.
    """
    n = search.n
    assert min(search.dual[:n], default=0) >= 0
    live = [b for b in range(n, 2 * n) if search.base[b] >= 0]
    assert all(search.dual[b] >= 0 for b in live)

    def chain(v: int) -> list[int]:
        out = [v]
        while search.parent[out[-1]] != -1:
            out.append(search.parent[out[-1]])
        return out[::-1]

    for k, w in enumerate(search.weight):
        i, j = search.ends[2 * k], search.ends[2 * k + 1]
        slack = search.dual[i] + search.dual[j] - 2 * w
        for bi, bj in zip(chain(i), chain(j)):
            if bi != bj:
                break
            slack += 2 * search.dual[bi]
        assert slack >= 0
        if search.mate[i] == 2 * k + 1:
            assert slack == 0
    for v in range(n):
        if search.mate[v] == -1:
            assert search.dual[v] == 0
    for b in live:
        if search.dual[b] > 0:
            inside = set(search.leaves(b))
            mates = [search.ends[search.mate[v]] for v in inside if search.mate[v] != -1]
            assert sum(1 for u in mates if u in inside) == len(inside) - 1


def assert_is_matching(n: int, edges, picked: list[int]) -> None:
    used = [0] * n
    for k in picked:
        i, j, _w = edges[k]
        used[i] += 1
        used[j] += 1
    assert max(used, default=0) <= 1


def exact_weight(edges, picked) -> Fraction:
    return sum((Fraction(edges[k][2]) for k in picked), Fraction(0))


def random_graph(rng: random.Random, n: int, weight) -> list[tuple[int, int, float]]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    return [(i, j, weight()) for (i, j) in pairs[: rng.randint(0, len(pairs))]]


class TestMaxWeightMatching:
    @pytest.mark.parametrize("kind", ["float", "ties", "levels"])
    def test_matches_networkx_on_random_graphs(self, kind):
        nx = pytest.importorskip("networkx")
        for seed in range(80):
            rng = random.Random(f"{kind}-{seed}")
            weight = {
                "float": lambda: rng.uniform(0.5, 100.0),
                "ties": lambda: float(rng.randint(1, 3)),
                "levels": lambda: (1.0 + EPS) ** rng.randint(0, 40),
            }[kind]
            n = rng.randint(1, 16)
            edges = random_graph(rng, n, weight)
            ratios = [w.as_integer_ratio() for (_i, _j, w) in edges]
            denom = max((d for _num, d in ratios), default=1)
            scaled = [(i, j, num * (denom // d)) for (i, j, _w), (num, d) in zip(edges, ratios)]
            search = _Search(n, scaled)
            search.run()
            assert_optimal_duals(search)
            picked = max_weight_matching(n, scaled)
            assert_is_matching(n, edges, picked)
            graph = nx.Graph()
            graph.add_weighted_edges_from(edges)
            theirs = nx.max_weight_matching(graph)
            index = {(i, j): k for k, (i, j, _w) in enumerate(edges)}
            ref = [index[(min(u, v), max(u, v))] for (u, v) in theirs]
            assert exact_weight(edges, picked) == exact_weight(edges, ref)

    def test_empty_graphs(self):
        assert max_weight_matching(0, []) == []
        assert max_weight_matching(3, []) == []
        assert max_weight_matching(2, [(0, 1, 0), (0, 1, -4)]) == []

    def test_parallel_edges_take_the_heaviest(self):
        assert max_weight_matching(2, [(0, 1, 3), (1, 0, 7), (0, 1, 5)]) == [1]

    # (edges on vertices 1.., the blossom events the run must go through)
    HAND_BUILT = {
        "nested_shrink": (
            [(1, 2, 9), (1, 3, 9), (2, 3, 10), (2, 4, 8), (3, 5, 8), (4, 5, 10), (5, 6, 6)],
            {"shrink_nested"},
        ),
        "nested_shrink_end_of_stage_expand": (
            [(1, 2, 8), (1, 3, 8), (2, 3, 10), (2, 4, 12), (3, 5, 12), (4, 5, 14),
             (4, 6, 12), (5, 7, 12), (6, 7, 14), (7, 8, 12)],
            {"shrink_nested", "end_nested"},
        ),
        "inner_blossom_expands": (
            [(1, 2, 23), (1, 5, 22), (1, 6, 15), (2, 3, 25), (3, 4, 22), (4, 5, 25),
             (4, 8, 14), (5, 7, 13)],
            {"mid"},
        ),
        "nested_inner_blossom_expands": (
            [(1, 2, 45), (1, 7, 45), (2, 3, 50), (3, 4, 45), (4, 5, 95), (4, 6, 94),
             (5, 6, 94), (6, 7, 50), (1, 8, 30), (3, 11, 35), (5, 9, 36), (7, 10, 26),
             (11, 12, 5)],
            {"shrink_nested", "mid_nested"},
        ),
    }

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_blossoms_shrink_and_expand(self, name):
        edges, events = self.HAND_BUILT[name]
        seen = collections.Counter()

        class Counting(_Search):
            def shrink(self, base, k):
                super().shrink(base, k)
                b = self.outer[self.ends[2 * k]]
                nested = any(c >= self.n for c in self.children[b])
                seen["shrink_nested" if nested else "shrink"] += 1

            def expand(self, b, end_of_stage):
                nested = any(c >= self.n for c in self.children[b])
                seen[("end" if end_of_stage else "mid") + ("_nested" if nested else "")] += 1
                super().expand(b, end_of_stage)

        n = 1 + max(max(i, j) for (i, j, _w) in edges)
        search = Counting(n, edges)
        search.run()
        assert events <= set(seen)
        assert_optimal_duals(search)
        picked = sorted({p >> 1 for p in search.mate if p != -1})
        g = sm.Graph(n=n, edges=tuple((i, j, float(w)) for (i, j, w) in edges), b=(1,) * n)
        opt, _ = sm.brute_force_bmatching(g)
        assert sum(edges[k][2] for k in picked) == opt


class TestOfflineBMatching:
    def test_matches_branch_and_bound_on_random_instances(self):
        for seed in range(150):
            rng = random.Random(seed)
            n = rng.randint(2, 7)
            b = [rng.randint(1, 3) for _ in range(n)]
            weight = (
                (lambda: float(rng.randint(1, 4)))
                if seed % 2
                else (lambda: (1.0 + EPS) ** rng.randint(0, 30))
            )
            edges = random_graph(rng, n, weight)[:12]
            got = offline_bmatching(edges, b)
            assert got.exact
            assert got.weight == _exact_bmatching(edges, b).weight
            load = [0] * n
            for i, j, m in got.edges:
                load[i] += m
                load[j] += m
            assert all(load[i] <= b[i] for i in range(n))

    def test_matches_branch_and_bound_on_suite_supports(self):
        for seed in range(1000, 1100):
            g = random_instance(seed)
            lv = sm.discretize(g, EPS)
            support = [e for (e, _i, _j, _k) in lv.retained()]
            got = sm.extract_integral(lv, support)
            chosen = [(i, j, lv.level_weight(k)) for (_e, i, j, k) in sorted(lv.retained())]
            assert got.exact
            assert got.weight == _exact_bmatching(chosen, g.b).weight

    def test_zero_capacity_vertex_is_never_matched(self):
        edges = [(0, 1, 9.0), (1, 2, 4.0), (0, 2, 5.0), (2, 3, 1.0)]
        got = offline_bmatching(edges, [0, 2, 1, 1])
        assert got.exact
        assert got.edges == ((1, 2, 1),)
        assert got.weight == 4.0

    def test_empty_edge_list(self):
        assert offline_bmatching([], [1, 2]) == BMatching(edges=(), weight=0.0, exact=True)

    def test_multiplicities_up_to_the_capacities(self):
        # three copies of the heaviest edge would leave vertex 2 unmatched
        got = offline_bmatching([(0, 1, 3.0), (1, 2, 2.0), (0, 2, 2.0)], [3, 3, 2])
        assert got.exact
        assert got.edges == ((0, 1, 2), (0, 2, 1), (1, 2, 1))
        assert got.weight == 10.0

    def test_split_work_cap_boundary(self):
        # One edge between capacities k splits into K_{k,k}: V * E = 2k^3,
        # which is 8,346,562 at k = 161 and 8,503,056 at k = 162.
        assert 2 * 161**3 <= MAX_SPLIT_WORK < 2 * 162**3
        under = offline_bmatching([(0, 1, 5.0)], [161, 161])
        assert under.exact and under.edges == ((0, 1, 161),)
        over = offline_bmatching([(0, 1, 5.0)], [162, 162])
        assert not over.exact and over.edges == ((0, 1, 162),)
        # a vertex splits into at most its neighbours' total capacity
        assert offline_bmatching([(0, 1, 5.0)], [161, 10**6]).exact

    def test_every_split_graph_up_to_256_vertices_is_exact(self):
        # K_256 at b = 1 is the largest simple split graph on 256 vertices.
        assert MAX_SPLIT_WORK >= 256 * (256 * 255 // 2)
        rng = random.Random(256)
        edges = [(i, j, float(rng.randint(1, 100))) for i in range(256) for j in range(i + 1, 256)]
        got = offline_bmatching(edges, [1] * 256)
        used = collections.Counter(v for (i, j, _m) in got.edges for v in (i, j))
        assert got.exact and len(got.edges) == 128 and max(used.values()) == 1

    @pytest.mark.parametrize("cap", [100, 10**6])
    def test_large_capacity_triangles_go_to_greedy(self, cap):
        # b = 100 splits into V * E = 300 * 30,000 = 9.0e6, just over the cap.
        edges = [(0, 1, 5.0), (1, 2, 5.0), (0, 2, 5.0)]
        got = offline_bmatching(edges, [cap] * 3)
        assert not got.exact
        assert got.weight == math.fsum(5.0 * m for (_i, _j, m) in got.edges)

    def test_matches_networkx_past_the_enumeration_cap(self):
        g = wide_random_instance(300)
        got = offline_bmatching(g.edges, g.b)
        assert got.exact and got.weight == networkx_matching_weight(g) == 11339.0
