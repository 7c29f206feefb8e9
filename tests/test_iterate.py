"""The array-backed dual iterate against the dict code it replaced.

``DictIterate`` and the ``dict_*`` functions below are the iterate with
``(vertex, level)``- and ``(set, level)``-keyed price dicts and the
per-key loops the solver ran on it, kept as references.  Every
comparison with them is exact: the array code does the same float
operations, a key missing on one side of a blend adds an exact ``0.0``,
and the odd-set price arrays keep the dict's key order.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass

import numpy as np
import pytest

import sketchmatch as sm
import sketchmatch.driver as driver_mod
from sketchmatch.oracle import (
    DualStep,
    check_dual_step,
    initial_solution,
    matching_oracle,
    maximal_bmatching_rounds,
)

from conftest import (
    EPS,
    inexact_harvests,
    oddset_wide_instance,
    profile_edge_graphs,
    random_instance,
    set_z_prices,
    z_prices,
)

# -- reference: the dict iterate and its loops --------------------------------


@dataclass
class DictIterate:
    x_level: dict[tuple[int, int], float]
    x_top: dict[int, float]
    z: dict
    beta: float

    def blend(self, other: "DictIterate", sigma: float) -> "DictIterate":
        out = DictIterate(x_level={}, x_top={}, z={}, beta=self.beta)
        keep = 1.0 - sigma
        for key, v in self.x_level.items():
            out.x_level[key] = keep * v
        for key, v in other.x_level.items():
            out.x_level[key] = out.x_level.get(key, 0.0) + sigma * v
        for key, v in self.x_top.items():
            out.x_top[key] = keep * v
        for key, v in other.x_top.items():
            out.x_top[key] = out.x_top.get(key, 0.0) + sigma * v
        for key, v in self.z.items():
            out.z[key] = keep * v
        for key, v in other.z.items():
            out.z[key] = out.z.get(key, 0.0) + sigma * v
        return out


def to_vectors(index, d: DictIterate) -> sm.DualIterate:
    """The array iterate holding the prices of ``d`` (keys located in ``index.vrows``)."""
    it = sm.DualIterate.zeros(index)
    for key, v in d.x_level.items():
        it.x_level[index.vrows.index(key)] = v
    for i, v in d.x_top.items():
        it.x_top[i] = v
    return set_z_prices(it, d.z)


def assert_same(it: sm.DualIterate, want: sm.DualIterate) -> None:
    assert np.array_equal(it.x_level, want.x_level)
    assert np.array_equal(it.x_top, want.x_top)
    assert list(z_prices(it).items()) == list(z_prices(want).items())
    for got, ref in ((it.z_set, want.z_set), (it.z_level, want.z_level)):
        assert got.dtype == ref.dtype == np.int64


def dict_vertex_step(index, u_sparse, zeta, penalty, beta):
    """The vertex branch's per-vertex loop; ``None`` where it does not fire."""
    eps = index.epsilon
    n = index.leveled.base.n
    w_of = index.level_weights
    n_levels = len(w_of)
    usc = index.multiplier_cover_target(u_sparse)
    gamma = usc - penalty * float(zeta @ index.degree_rhs_outer)
    if gamma <= 0.0:
        return None
    rv = index.row_vrow
    edge_mass = np.zeros(len(index.vrows))
    np.add.at(edge_mass, rv[:, 0], u_sparse)
    np.add.at(edge_mass, rv[:, 1], u_sparse)
    surplus_pos = np.maximum(edge_mass - 2.0 * penalty * zeta, 0.0)
    vv, vl = index.vrow_vertex, index.vrow_level
    smat = np.zeros((n, n_levels))
    smat[vv, vl] = surplus_pos
    prefix_weighted = np.cumsum(smat * w_of, axis=1)
    prefix_plain = np.cumsum(smat, axis=1)
    delta = prefix_weighted + w_of * (prefix_plain[:, -1:] - prefix_plain)
    qualifies = delta > (gamma / beta) * index.level_capacity
    violated = qualifies.any(axis=1)
    k_star = np.where(violated, n_levels - 1 - qualifies[:, ::-1].argmax(axis=1), -1)
    viol_ids = np.nonzero(violated)[0]
    gamma_v = float(delta[viol_ids, k_star[viol_ids]].sum()) if len(viol_ids) else 0.0
    if gamma_v < eps * gamma / 24.0:
        return None
    it = DictIterate(x_level={}, x_top={}, z={}, beta=beta)
    for t in np.nonzero(surplus_pos > 0.0)[0]:
        i = int(vv[t])
        if not violated[i]:
            continue
        lev = int(vl[t])
        it.x_level[(i, lev)] = gamma * w_of[min(lev, int(k_star[i]))] / gamma_v
    for i in viol_ids:
        it.x_top[int(i)] = gamma * w_of[int(k_star[i])] / gamma_v
    return it


def dict_initial_prices(index, p, seed):
    """The start prices as dicts, and their budget."""
    lv = index.leveled
    r = index.epsilon / 256.0
    b = lv.base.b
    n = lv.base.n
    by_level: dict[int, list] = {}
    for e, i, j, k in lv.retained():
        by_level.setdefault(k, []).append((e, i, j))
    it = DictIterate(x_level={}, x_top={}, z={}, beta=0.0)
    for k in sorted(by_level):
        take, _samples = maximal_bmatching_rounds(
            n, by_level[k], b, p, seed, salt=f"init-{k}"
        )
        ends = {e: (i, j) for (e, i, j) in by_level[k]}
        used = [0] * n
        for e, m in take.items():
            i, j = ends[e]
            used[i] += m
            used[j] += m
        for i in range(n):
            if used[i] == b[i]:
                it.x_level[(i, k)] = r * lv.level_weight(k)
    for (i, _k), v in it.x_level.items():
        it.x_top[i] = max(it.x_top.get(i, 0.0), v)
    it.beta = math.fsum(b[i] * v for i, v in it.x_top.items())
    return it


# -- fixtures ------------------------------------------------------------------


def suite_index(seed: int):
    g = random_instance(seed)
    lv = sm.discretize(g, EPS)
    return sm.SystemIndex(lv, EPS)


def random_dict_iterate(index, rng: random.Random, beta: float) -> DictIterate:
    """Prices on a random part of the rows, vertices and (set, level) pairs.

    The pairs come from a pool of 8 sets at one or two levels each, in
    random key order, so two draws often share pairs; some draws price
    no set at all.
    """
    it = DictIterate(x_level={}, x_top={}, z={}, beta=beta)
    for key in index.vrows:
        if rng.random() < 0.5:
            it.x_level[key] = rng.uniform(0.0, 4.0)
    for i in range(index.leveled.base.n):
        if rng.random() < 0.5:
            it.x_top[i] = rng.uniform(0.0, 4.0)
    levels = sorted({int(k) for k in index.row_levels})
    pool = range(min(8, len(index.odd_sets)))
    for t in rng.sample(pool, rng.randint(0, len(pool))):
        for lev in rng.sample(levels, min(len(levels), rng.randint(1, 2))):
            it.z[(t, lev)] = rng.uniform(0.0, 2.0)
    return it


# -- blend ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1000, 1007, 1031])
def test_blend_matches_dict_loop(seed):
    index = suite_index(seed)
    rng = random.Random(seed)
    shapes = set()
    for _trial in range(20):
        a = random_dict_iterate(index, rng, beta=rng.uniform(1.0, 9.0))
        b = random_dict_iterate(index, rng, beta=rng.uniform(1.0, 9.0))
        shapes.add((bool(a.z), bool(b.z), bool(a.z.keys() & b.z.keys()), bool(b.z.keys() - a.z.keys())))
        for sigma in (rng.random(), 1e-12, 0.0, 1.0):
            got = to_vectors(index, a).blend(to_vectors(index, b), sigma)
            assert_same(got, to_vectors(index, a.blend(b, sigma)))
    # shared pairs, pairs only on the right, and an empty side all occur
    assert any(shared for _a, _b, shared, _new in shapes)
    assert any(new for _a, _b, _shared, new in shapes)
    assert any(not (a_z and b_z) for a_z, b_z, _shared, _new in shapes)


def test_mix_matches_dict_loop():
    index = suite_index(1003)
    rng = random.Random(5)
    for _trial in range(20):
        a = random_dict_iterate(index, rng, beta=1.0)
        b = random_dict_iterate(index, rng, beta=2.0)
        w, beta = rng.random(), rng.uniform(1.0, 9.0)
        lo = DualStep(to_vectors(index, a), "vertex", 0.5, 1.0, 1.0)
        hi = DualStep(to_vectors(index, b), "zero", 0.5, 1.0, 2.0)
        mixed = lo.mix(hi, w, beta)
        want = a.blend(b, w)
        assert mixed.branch == "mixed"
        assert mixed.beta == beta
        assert_same(mixed.iterate, to_vectors(index, want))


def test_vrow_mass_matches_two_scatters():
    # one weight level, so every degree row sums many cover rows
    k9_edges = tuple((i, j, 1.0) for i in range(9) for j in range(i + 1, 9))
    k9 = sm.Graph(n=9, edges=k9_edges, b=(1,) * 9)
    k9_index = sm.SystemIndex(sm.discretize(k9, EPS), EPS)
    for seed in range(1000, 1010):
        index = suite_index(seed) if seed % 2 else k9_index
        # magnitudes far apart, so a different addition order shows in the bits
        u = 10.0 ** np.random.default_rng(seed).uniform(-6.0, 6.0, len(index.rows))
        rv = index.row_vrow
        want = np.zeros(len(index.vrows))
        np.add.at(want, rv[:, 0], u)
        np.add.at(want, rv[:, 1], u)
        assert np.array_equal(index.vrow_mass(u), want)


# -- the oracle's vertex step --------------------------------------------------


def random_queries(index, rng, count: int):
    """Random oracle queries at the scales of a solve's queries.

    The penalty is near the first one of the search and the budget
    near the harvested weight.
    """
    for _trial in range(count):
        u = np.where(rng.random(len(index.rows)) < 0.7, rng.random(len(index.rows)), 0.0)
        zeta = rng.random(len(index.vrows))
        usc = float(u @ index.cover_rhs)
        zq = float(zeta @ index.degree_rhs_outer)
        penalty = EPS * usc / (16.0 * zq) * float(rng.uniform(0.5, 20.0))
        beta = float(rng.uniform(50.0, 2000.0))
        yield u, zeta, penalty, beta


def vertex_steps_match(index, queries) -> int:
    """Compare the oracle with the dict loop on ``queries``; count vertex steps."""
    fired = 0
    for u, zeta, penalty, beta in queries:
        want = dict_vertex_step(index, u, zeta, penalty, beta)
        out = matching_oracle(index, u, zeta, penalty, beta)
        if want is None:
            assert not (isinstance(out, DualStep) and out.branch == "vertex")
            continue
        fired += 1
        assert out.branch == "vertex"
        assert out.beta == beta
        assert_same(out.iterate, to_vectors(index, want))
    return fired


def test_vertex_step_matches_dict_loop_on_random_queries():
    fired = 0
    for seed in range(1000, 1012):
        index = suite_index(seed)
        fired += vertex_steps_match(index, random_queries(index, np.random.default_rng(seed), 10))
    assert 30 <= fired < 120  # both outcomes of the branch test occur


@pytest.mark.parametrize("name", sorted(profile_edge_graphs()))
def test_vertex_step_matches_dict_loop_on_packed_row_edge_cases(name):
    # an isolated vertex, a vertex whose edges are all dropped (its
    # packed row is slot 0 alone), and degree rows at levels 0 and L
    g = profile_edge_graphs()[name]
    index = sm.SystemIndex(sm.discretize(g, EPS), EPS)
    fired = vertex_steps_match(index, random_queries(index, np.random.default_rng(7), 40))
    assert fired > 0


def first_vertex_steps_match(monkeypatch, graph) -> None:
    """The first 60 oracle answers of a solve of ``graph`` against the dict loop."""
    calls = []
    real = driver_mod.matching_oracle

    def recording(index, u, zeta, penalty, beta, **kw):
        out = real(index, u, zeta, penalty, beta, **kw)
        if len(calls) < 60:
            calls.append((index, u.copy(), zeta.copy(), penalty, beta, out))
        return out

    monkeypatch.setattr(driver_mod, "matching_oracle", recording)
    sm.solve(graph, sm.SolverConfig(max_rounds=8))
    assert len(calls) == 60
    for index, u, zeta, penalty, beta, out in calls:
        assert out.branch == "vertex"
        want = dict_vertex_step(index, u, zeta, penalty, beta)
        assert_same(out.iterate, to_vectors(index, want))


def test_vertex_steps_of_a_solve_match_dict_loop(monkeypatch):
    # with no harvest final, the solve runs every round up to its cap
    inexact_harvests(monkeypatch)
    first_vertex_steps_match(monkeypatch, random_instance(1000))


def test_vertex_steps_of_an_oddset_wide_solve_match_dict_loop(monkeypatch):
    # n = 16, m = 48, b = 1: the shape of the oddset_wide benchmark graphs
    inexact_harvests(monkeypatch)
    first_vertex_steps_match(monkeypatch, oddset_wide_instance(0, 16))


# -- the start point -------------------------------------------------------------


def test_initial_prices_match_dict_loop():
    for seed in range(1000, 1030):
        index = suite_index(seed)
        it, beta0, _lam0 = initial_solution(index, 2.0, seed)
        want = dict_initial_prices(index, 2.0, seed)
        assert beta0 == want.beta
        assert_same(it, to_vectors(index, want))


# -- planted violations ----------------------------------------------------------


def _triangle_vertex_step():
    g = sm.load_graph("0 1 10\n0 2 10\n1 2 10\n")
    lv = sm.discretize(g, EPS)
    index = sm.SystemIndex(lv, EPS)
    u = np.ones(len(index.rows))
    zeta = np.ones(len(index.vrows))
    step = matching_oracle(index, u, zeta, 0.3, 20.0)
    assert step.branch == "vertex"
    return index, u, zeta, step


def _planted(step, x_level, x_top):
    return dataclasses.replace(
        step, iterate=dataclasses.replace(step.iterate, x_level=x_level, x_top=x_top)
    )


def test_check_dual_step_flags_planted_shape_violation():
    index, u, zeta, step = _triangle_vertex_step()
    ok, report = check_dual_step(index, u, zeta, step)
    assert ok and report["price_shape"] is True
    x_level = step.iterate.x_level.copy()
    t = int(np.argmax(x_level))
    i = index.vrows[t][0]
    x_level[t] = step.iterate.x_top[i] * (1.0 + 1e-9)
    ok, report = check_dual_step(index, u, zeta, _planted(step, x_level, step.iterate.x_top))
    assert not ok
    assert report["price_shape"] is False


def test_check_dual_step_flags_planted_cap_violation():
    index, u, zeta, step = _triangle_vertex_step()
    ok, report = check_dual_step(index, u, zeta, step)
    assert ok and report["x_caps"] is True
    x_level = step.iterate.x_level.copy()
    x_top = step.iterate.x_top.copy()
    t = 0
    i, k = index.vrows[t]
    x_level[t] = 2.0 * (24.0 / EPS) * index.leveled.level_weight(k)
    x_top[i] = x_level[t]
    ok, report = check_dual_step(index, u, zeta, _planted(step, x_level, x_top))
    assert not ok
    assert report["x_caps"] is False
    assert report["price_shape"] is True


def test_verify_switch_flags_planted_shape_violation():
    g = sm.load_graph("0 1 4\n1 2 8\n0 2 6\n2 3 5\n1 3 7\n")
    lv = sm.discretize(g, EPS)
    index = sm.SystemIndex(lv, EPS)
    u = np.ones(len(index.rows))
    it = sm.DualIterate.zeros(index)
    for t, (i, k) in enumerate(index.vrows):
        it.x_level[t] = lv.level_weight(k)
        it.x_top[i] = max(it.x_top[i], it.x_level[t])
    assert sm.verify_switch(index, u, u, it)[1]["hypothesis_shape"]
    it.x_top[index.vrows[0][0]] *= 0.5
    _ok, rep = sm.verify_switch(index, u, u, it)
    assert not rep["hypothesis_shape"]


def test_shape_slack_is_absolute_or_relative():
    index = suite_index(1000)
    it = sm.DualIterate.zeros(index)
    t = 0
    i = index.vrows[t][0]
    for price, gap, atol, rtol, shaped in [
        (0.5, 0.5e-12, 1e-12, 0.0, True),
        (0.5, 2e-12, 1e-12, 0.0, False),
        (1000.0, 0.5e-6, 1e-9, 1e-9, True),
        (1000.0, 2e-6, 1e-9, 1e-9, False),
        (1000.0, 2e-6, 1e-9, 0.0, False),
    ]:
        it.x_level[t] = price
        it.x_top[i] = price - gap
        assert index.is_shaped(it, atol=atol, rtol=rtol) is shaped
