"""Independent exact oracles: brute force, rational LPs, cut enumeration."""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchmatch as sm
import sketchmatch.exact as exact_mod
from sketchmatch.exact import BRUTE_FORCE_MAX_B_TOTAL, LPUnboundedError, solve_lp_max

from conftest import EPS, random_instance, set_z_prices, triangle_paper


def edge_bound_bmatching(g: sm.Graph) -> tuple[float, tuple[tuple[int, int, int], ...]]:
    """Branch and bound pruned by the edge bound alone: every remaining
    edge at its cap ``min(rem_i, rem_j)``.  The reference for the
    vertex-bounded search of ``brute_force_bmatching``."""
    order = sorted(range(g.m), key=lambda e: (-g.edges[e][2], g.edges[e][0], g.edges[e][1]))
    edges = [g.edges[e] for e in order]
    m = len(edges)
    rem = list(g.b)
    best_weight = 0.0
    best_choice = [0] * m
    choice = [0] * m

    def bound(idx: int) -> float:
        out = 0.0
        for t in range(idx, m):
            i, j, w = edges[t]
            cap = min(rem[i], rem[j])
            if cap > 0:
                out += w * cap
        return out

    def rec(idx: int, acc: float) -> None:
        nonlocal best_weight, best_choice
        if acc > best_weight + 1e-12:
            best_weight = acc
            best_choice = choice.copy()
        if idx >= m:
            return
        if acc + bound(idx) <= best_weight + 1e-12:
            return
        i, j, w = edges[idx]
        cap = min(rem[i], rem[j])
        for mult in range(cap, -1, -1):
            choice[idx] = mult
            rem[i] -= mult
            rem[j] -= mult
            rec(idx + 1, acc + w * mult)
            rem[i] += mult
            rem[j] += mult
            choice[idx] = 0

    rec(0, 0.0)
    picked = [(edges[t][0], edges[t][1], best_choice[t]) for t in range(m) if best_choice[t] > 0]
    picked.sort()
    return best_weight, tuple(picked)


class TestBruteForce:
    def test_vertex_bound_returns_the_edge_bound_answer(self):
        # fractional weights, ties, and capacities up to the total cap
        rng = random.Random(17)
        for trial in range(60):
            n = rng.randint(3, 9)
            b = [rng.randint(1, BRUTE_FORCE_MAX_B_TOTAL // n) for _ in range(n)]
            if trial % 3 == 0:  # total capacity at the cap
                while sum(b) < BRUTE_FORCE_MAX_B_TOTAL:
                    b[rng.randrange(n)] += 1
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            rng.shuffle(pairs)
            ties = [rng.uniform(0.1, 10.0) for _ in range(3)]
            edges = tuple(
                (i, j, rng.choice(ties) if rng.random() < 0.3 else rng.uniform(0.01, 10.0))
                for (i, j) in sorted(pairs[: rng.randint(1, min(len(pairs), 14))])
            )
            g = sm.Graph(n=n, edges=edges, b=tuple(b))
            assert g.B <= BRUTE_FORCE_MAX_B_TOTAL
            assert sm.brute_force_bmatching(g) == edge_bound_bmatching(g)

    def test_vertex_bound_on_suite_instances(self):
        for seed in range(1000, 1016):
            g = random_instance(seed)
            assert sm.brute_force_bmatching(g) == edge_bound_bmatching(g)

    def test_unit_triangle(self):
        g = sm.Graph(
            n=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)), b=(1, 1, 1)
        )
        value, _ = sm.brute_force_bmatching(g)
        assert value == 1.0

    def test_paper_triangle(self):
        value, _ = sm.brute_force_bmatching(triangle_paper())
        assert value == 1.0

    def test_two_disjoint_edges(self):
        g = sm.Graph(n=4, edges=((0, 1, 5.0), (2, 3, 3.0)), b=(1, 1, 1, 1))
        value, witness = sm.brute_force_bmatching(g)
        assert value == 8.0
        assert sorted(witness) == [(0, 1, 1), (2, 3, 1)]

    def test_witness_reevaluates(self):
        for seed in range(10):
            g = random_instance(seed)
            value, witness = sm.brute_force_bmatching(g)
            w_of = {(i, j): w for (i, j, w) in g.edges}
            assert value == pytest.approx(
                sum(w_of[(i, j)] * m for (i, j, m) in witness)
            )
            used = [0] * g.n
            for i, j, m in witness:
                used[i] += m
                used[j] += m
            assert all(u <= cap for u, cap in zip(used, g.b))

    def test_cross_check_networkx_unit_capacities(self):
        # independent route: blossom algorithm on b == 1 instances
        rng = random.Random(5)
        for trial in range(15):
            n = rng.randint(4, 9)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            rng.shuffle(pairs)
            edges = tuple(
                (i, j, float(rng.randint(1, 50)))
                for (i, j) in sorted(pairs[: rng.randint(3, 2 * n)])
            )
            g = sm.Graph(n=n, edges=edges, b=(1,) * n)
            value, _ = sm.brute_force_bmatching(g)
            gx = nx.Graph()
            gx.add_nodes_from(range(n))
            for i, j, w in edges:
                gx.add_edge(i, j, weight=w)
            mate = nx.max_weight_matching(gx)
            nx_value = sum(gx[i][j]["weight"] for i, j in mate)
            assert value == pytest.approx(nx_value)

    def test_caps_enforced(self):
        g = sm.Graph(n=15, edges=((0, 1, 1.0),), b=(1,) * 15)
        with pytest.raises(ValueError):
            sm.brute_force_bmatching(g)
        g = sm.Graph(n=13, edges=((0, 1, 1.0),), b=(2,) * 12 + (1,))
        with pytest.raises(ValueError, match="total capacity <= 24, got 25"):
            sm.brute_force_bmatching(g)
        value, _ = sm.brute_force_bmatching(sm.Graph(n=12, edges=((0, 1, 1.0),), b=(2,) * 12))
        assert value == 2.0


def dense_pivot(tableau, basis, row, col) -> None:
    """The pivot that rewrites every entry of every row it eliminates."""
    inv = Fraction(1) / tableau[row][col]
    tableau[row] = [v * inv for v in tableau[row]]
    for r, vec in enumerate(tableau):
        if r != row and vec[col] != 0:
            factor = vec[col]
            tableau[r] = [v - factor * p for v, p in zip(vec, tableau[row])]
    basis[row] = col


class TestSimplex:
    def test_sparse_pivot_matches_dense_pivot(self, monkeypatch):
        graphs = [triangle_paper(), random_instance(1009)]
        got = [sm.exact_lp_values(g, EPS, include_layered=True) for g in graphs]
        monkeypatch.setattr(exact_mod, "_pivot", dense_pivot)
        assert got == [sm.exact_lp_values(g, EPS, include_layered=True) for g in graphs]

    def test_value_point_and_row_prices(self):
        # max x1 + x2  s.t.  x1 + 2 x2 <= 4, 3 x1 + x2 <= 6; its dual
        # min 4 p1 + 6 p2  s.t.  p1 + 3 p2 >= 1, 2 p1 + p2 >= 1.
        value, x, prices = solve_lp_max([1, 1], [[1, 2], [3, 1]], [4, 6])
        assert value == Fraction(14, 5)
        assert x == [Fraction(8, 5), Fraction(6, 5)]
        assert prices == [Fraction(2, 5), Fraction(1, 5)]

    def test_negative_right_hand_side_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            solve_lp_max([1], [[1]], [-1])

    def test_unbounded(self):
        with pytest.raises(LPUnboundedError):
            solve_lp_max([1, 1], [[1, -1]], [0])


class TestExactLpValues:
    def test_paper_triangle_values(self):
        res = sm.exact_lp_values(triangle_paper(), EPS)
        assert float(res.beta_bipartite) == pytest.approx(1.0 + 5.0 * EPS, abs=1e-9)
        assert float(res.beta_star) == pytest.approx(1.0, abs=1e-9)

    def test_single_edge_all_equal(self):
        g = sm.Graph(n=2, edges=((0, 1, 6.0),), b=(1, 1))
        res = sm.exact_lp_values(g, EPS)
        assert res.beta_star == 6
        assert res.beta_bipartite == 6
        assert float(res.beta_hat_discrete) * float(res.scale) == pytest.approx(
            6.0, rel=EPS
        )

    def test_k4_unit_weights(self):
        edges = tuple(
            (i, j, 1.0) for i in range(4) for j in range(i + 1, 4)
        )
        g = sm.Graph(n=4, edges=edges, b=(1, 1, 1, 1))
        res = sm.exact_lp_values(g, EPS)
        assert res.beta_star == 2

    def test_relaxation_sandwich(self):
        for seed in range(8):
            g = random_instance(seed)
            if g.n > 10:
                continue
            res = sm.exact_lp_values(g, EPS)
            assert res.beta_star <= res.beta_bipartite
            assert res.beta_bipartite <= Fraction(3, 2) * res.beta_star

    def test_vertex_count_capped(self):
        with pytest.raises(ValueError, match="n <= 14, got 15"):
            sm.exact_lp_values(sm.Graph(n=15, edges=((0, 1, 1.0),), b=(1,) * 15), EPS)

    def test_bipartite_values_match_double_cover_matching(self):
        # Independent route: the bipartite relaxation is half the best
        # b-matching of the bipartite double cover (that LP is integral).
        # Splitting each copy of vertex i into b_i vertices turns the
        # b-matching into a matching networkx can solve.
        def double_cover_half(b, weighted_edges):
            gx = nx.Graph()
            for i, j, w in weighted_edges:
                for u, v in ((i, j), (j, i)):
                    for s in range(b[u]):
                        for t in range(b[v]):
                            gx.add_edge(("L", u, s), ("R", v, t), weight=w)
            mate = nx.max_weight_matching(gx)
            return sum(gx[p][q]["weight"] for p, q in mate) / 2.0

        checked = 0
        for seed in range(40):
            g = random_instance(seed)
            if g.n > 9:
                continue
            res = sm.exact_lp_values(g, EPS)
            assert float(res.beta_bipartite) == pytest.approx(
                double_cover_half(g.b, g.edges), rel=1e-9
            )
            lv = sm.discretize(g, EPS)
            leveled = [(i, j, lv.level_weight(k)) for (_e, i, j, k) in lv.retained()]
            assert float(res.beta_bipartite_discrete) == pytest.approx(
                double_cover_half(g.b, leveled), rel=1e-9
            )
            checked += 1
        assert checked >= 10

    def test_beta_star_at_least_integral_opt(self):
        for seed in range(8):
            g = random_instance(seed)
            if g.n > 10:
                continue
            res = sm.exact_lp_values(g, EPS)
            value, _ = sm.brute_force_bmatching(g)
            assert float(res.beta_star) >= value - 1e-9

    @pytest.mark.parametrize("name", ["diamond_tail", "suite_1003", "suite_1004"])
    def test_layered_between_bounds(self, name):
        # beta-tilde sandwich vs the discrete odd-set optimum
        res = sm.exact_lp_values(self.layered_graph(name), EPS, include_layered=True)
        assert res.beta_hat_layered is not None
        eps = Fraction(1, 16)
        assert res.beta_hat_layered >= (1 - 3 * eps) * res.beta_hat_discrete
        assert res.beta_hat_layered <= (1 + eps) * res.beta_hat_discrete

    # Frozen from the solver's own small-odd-set enumeration, before the
    # layered LP read its family from ``_all_odd_sets_masks``.  The
    # (21, 21, 23) triangle has ||V||_b = 65 > 4/eps, so its odd-set row
    # is in the full LP but not in the layered one (ratio 65/64).
    LAYERED = {
        "diamond_tail": (
            "708688224704645965712084034276698342238449632366102186178269417150523162183194782273/"
            "7588550360256754183279148073529370729071901715047420004889892225542594864082845696"
        ),
        "triangle_heavy": (
            "39610432323319216319877402550060057313581011069419666813098727281314596289368514815295617/"
            "497323236409786642155382248146820840100456150797347717440463976893159497012533375533056"
        ),
        "triangle_b65": (
            "12136414307024232121037347279243289939972861213381244298069339651222965042707804388561863879039"
            "669304334236287333190124575836576288403920140385/"
            "3721414268393507279612537896386583215890643766719068468641229819804873155140597367430098179654"
            "46945567110411062408283101969716033850703872"
        ),
        "triangle_b63": (
            "57881360541192491654178117793314152021409030402279780498484542951986448665221836314679658500035"
            "34591297866537035829136336168213306777254220799/"
            "1860707134196753639806268948193291607945321883359534234320614909902436577570298683715049089827"
            "23472783555205531204141550984858016925351936"
        ),
    }

    @staticmethod
    def layered_graph(name: str) -> sm.Graph:
        if name.startswith("suite_"):
            return random_instance(int(name.removeprefix("suite_")))
        tri = "0 1 10\n0 2 10\n1 2 10\n"
        return {
            "diamond_tail": sm.Graph(
                n=4,
                edges=((0, 1, 16.0), (1, 2, 16.0), (0, 2, 16.0), (2, 3, 8.0)),
                b=(1, 1, 1, 1),
            ),
            "triangle_heavy": sm.load_graph("0 1 1.25\n0 2 1.25\n1 2 1.25\n3 4 100\n"),
            "triangle_b65": sm.load_graph(tri, "0 21\n1 21\n2 23\n"),
            "triangle_b63": sm.load_graph(tri, "0 21\n1 21\n2 21\n"),
        }[name]

    @pytest.mark.parametrize("name", sorted(LAYERED))
    def test_layered_value_frozen(self, name):
        g = self.layered_graph(name)
        res = sm.exact_lp_values(g, EPS, include_layered=True)
        assert res.beta_hat_layered == Fraction(self.LAYERED[name])
        if name == "triangle_b65":
            assert res.beta_hat_layered == Fraction(65, 64) * res.beta_hat_discrete
        else:
            assert res.beta_hat_layered == res.beta_hat_discrete


    @pytest.mark.parametrize("name", sorted(LAYERED) + ["unit_k5", "suite_1003", "suite_1004"])
    def test_layered_dual_is_an_exact_optimum(self, name):
        # Every row of the layered program, rebuilt here in Fractions:
        # the point must satisfy each one exactly and attain the value.
        if name == "unit_k5":
            g = sm.Graph(
                n=5, edges=tuple((i, j, 1.0) for i in range(5) for j in range(i + 1, 5)), b=(1,) * 5
            )
        else:
            g = self.layered_graph(name)
        res = sm.exact_lp_values(g, EPS, include_layered=True)
        x_level, x_top, z = res.layered_dual
        lv = sm.discretize(g, EPS)
        assert sorted(x_level) == list(lv.vertex_rows())
        assert sorted(x_top) == list(range(g.n))
        eps = Fraction(EPS)
        bnorm = {mask: sum(g.b[i] for i in range(g.n) if mask >> i & 1) for mask, _lev in z}
        assert all(bn % 2 == 1 and bn <= 4 / eps for bn in bnorm.values())
        assert {lev for _mask, lev in z} == set(lv.levels)

        def z_sum(k, *ends):
            return sum(
                (v for (mask, lev), v in z.items() if lev <= k and all(mask >> i & 1 for i in ends)),
                Fraction(0),
            )

        assert min([*x_level.values(), *x_top.values(), *z.values()]) >= 0
        for _e, i, j, k in lv.retained():
            assert x_level[(i, k)] + x_level[(j, k)] + z_sum(k, i, j) >= (1 + eps) ** k
        for (i, k), v in x_level.items():
            assert 2 * v + z_sum(k, i) <= 3 * (1 + eps) ** k
            assert x_top[i] >= v
        objective = sum(g.b[i] * v for i, v in x_top.items()) + sum(
            (bnorm[mask] // 2) * v for (mask, _lev), v in z.items()
        )
        assert objective == res.beta_hat_layered

    def test_layered_dual_needs_the_flag(self):
        assert sm.exact_lp_values(triangle_paper(), EPS).layered_dual is None


class TestDualFeasible:
    def test_overpaying_cover(self):
        g = sm.load_graph("0 1 4\n1 2 8")
        lv = sm.discretize(g, EPS)
        _edge, wstar = sm.find_max_weight(g)
        ok, _, _ = sm.check_dual_feasible(
            lv, {i: wstar / lv.scale for i in range(g.n)}, {}
        )
        assert ok

    def test_zeros_infeasible(self):
        g = sm.load_graph("0 1 4")
        lv = sm.discretize(g, EPS)
        ok, _, _ = sm.check_dual_feasible(lv, {}, {})
        assert not ok

    def test_converted_iterate_from_covering_point(self):
        # Hand-build an iterate at full coverage; the flattening /(1-3eps)
        # must give a feasible leveled dual.
        g = sm.load_graph("0 1 4\n1 2 8\n0 2 6")
        lv = sm.discretize(g, EPS)
        index = sm.SystemIndex(lv, EPS)
        it = sm.DualIterate.zeros(index)
        for _e, i, j, k in index.rows:
            w = lv.level_weight(k)
            ti, tj = index.vrows.index((i, k)), index.vrows.index((j, k))
            it.x_level[ti] = max(it.x_level[ti], w / 2)
            it.x_level[tj] = max(it.x_level[tj], w / 2)
        for i in range(g.n):
            tops = [v for (vi, _k), v in zip(index.vrows, it.x_level) if vi == i]
            if tops:
                it.x_top[i] = max(tops)
        lam, _row = index.coverage_lambda(index.cover_values(it))
        assert lam >= 1.0 - 3.0 * EPS
        x, z = sm.convert_to_matching_dual(index, it)
        ok, obj, _ = sm.check_dual_feasible(lv, x, z)
        assert ok


    def test_odd_set_price_covers_its_edges(self):
        # Unit triangle, priced only by the set {0, 1, 2} at the level
        # weight of its edges: floor(3/2) = 1, so the objective is w_k.
        g = sm.Graph(n=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)), b=(1, 1, 1))
        lv = sm.discretize(g, EPS)
        (k,) = lv.levels
        w_k = lv.level_weight(k)
        whole = 0b111
        ok, worst, objective = sm.check_dual_feasible(lv, {}, {whole: w_k})
        assert ok and worst == 0.0 and objective == w_k
        ok, worst, objective = sm.check_dual_feasible(lv, {}, {whole: 0.99 * w_k})
        assert not ok
        assert worst == pytest.approx(0.01)
        assert objective == 0.99 * w_k

        index = sm.SystemIndex(lv, EPS)
        family = index.odd_sets
        (row,) = [t for t in range(len(family)) if family.members(t) == (0, 1, 2)]
        it = set_z_prices(sm.DualIterate.zeros(index), {(row, k): (1.0 - 3.0 * EPS) * w_k})
        x, z = sm.convert_to_matching_dual(index, it)
        assert x == {} and list(z) == [whole]
        ok, _worst, _objective = sm.check_dual_feasible(lv, x, z)
        assert ok


class TestCutEnumeration:
    def test_identical_graphs_pass(self):
        edges = [(0, 1, 2.0), (1, 2, 3.0), (0, 2, 4.0)]
        ok, worst = sm.enumerate_cuts_check(3, edges, edges, 0.1)
        assert ok and worst == pytest.approx(0.0)

    def test_scaled_graph_detected(self):
        edges = [(0, 1, 2.0), (1, 2, 3.0)]
        doubled = [(i, j, 2.0 * w) for (i, j, w) in edges]
        ok, worst = sm.enumerate_cuts_check(3, edges, doubled, 0.25)
        assert not ok
        assert worst == pytest.approx(1.0)

    def test_cap(self):
        with pytest.raises(ValueError):
            sm.enumerate_cuts_check(20, [], [], 0.5)


def test_exact_imports_no_solver_module():
    # The reference must not share code with the solver it judges: of
    # the package it may import only the graph model.
    tree = ast.parse(Path(exact_mod.__file__).read_text())
    package = exact_mod.__name__.rpartition(".")[0]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            if node.module is None:  # from . import a, b
                imported.update(f"{module}.{alias.name}" for alias in node.names)
            else:
                imported.add(module)
    ours = {name for name in imported if name == package or name.startswith(package + ".")}
    assert ours == {f"{package}.graph"}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_weak_duality_observed(seed):
    g = random_instance(seed % 40)
    if g.n > 9:
        return
    res = sm.exact_lp_values(g, EPS)
    value, _ = sm.brute_force_bmatching(g)
    # LP1 optimum sits between the integral optimum and the relaxation
    assert value - 1e-9 <= float(res.beta_star) <= float(res.beta_bipartite) + 1e-9
