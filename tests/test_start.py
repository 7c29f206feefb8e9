"""The maximal-matching start against a reference copy of its earlier form.

``reference_start`` keeps the start as it stood before the one-pass
rewrite: a mask of the cover rows per level, the saturation priced level
by level, and a draw for every live edge in every round, also at rate 1.
The current :func:`~sketchmatch.oracle.initial_solution` must give the
same iterate, budget, coverage and ledger rounds, and draw only in
rounds whose rate is below 1.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import sketchmatch as sm
from sketchmatch import driver, oracle
from sketchmatch.oracle import initial_solution
from sketchmatch.sketch import RoundLedger

from conftest import EPS, WARM_START_GRAPHS, oddset_wide_instance, random_instance


def reference_rounds(n, edges, b, p, seed, *, salt=""):
    """Maximal matching rounds that draw for every live edge, also at rate 1."""
    cap = math.ceil(oracle.ROUNDS_MULT * p)
    for attempt in range(oracle.MAX_RETRIES + 1):
        rem = list(b)
        take = {}
        live = list(edges)
        samples = []
        for rnd in range(1, cap + 1):
            if not live:
                break
            rate = min(1.0, oracle.SAMPLE_RATE_MULT * n ** (1.0 + 1.0 / p) / len(live))
            sampled = [
                t for t in live if oracle.prf_uniform(seed, "maximal", salt, attempt, rnd, t[0]) < rate
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
    raise RuntimeError("maximal matching did not finish within its round budget")


def reference_start(index, p, seed, *, ledger=None):
    """The start with one row mask and one saturation loop per level."""
    lv = index.leveled
    r = index.epsilon / oracle.START_RATE_DIVISOR
    n = lv.base.n
    edge_rows = np.column_stack((index.row_edge, index.row_ends))
    results = {
        k: reference_rounds(
            n,
            [tuple(t) for t in edge_rows[index.row_levels == k].tolist()],
            lv.base.b,
            p,
            seed,
            salt=f"init-{k}",
        )
        for k in sorted(lv.levels)
    }
    if ledger is not None:
        depth = max((len(s) for _t, s in results.values()), default=0)
        for rnd in range(depth):
            ledger.begin_round(f"init-{rnd}")
            ledger.record_space(sum(s[rnd] for _t, s in results.values() if rnd < len(s)))
    it = sm.DualIterate.zeros(index)
    for k, (take, _samples) in results.items():
        used = np.zeros(n, dtype=np.int64)
        for e, m in take.items():
            used[index.row_ends[index.row_of_edge[e]]] += m
        saturated = (used == index.capacity)[index.vrow_vertex] & (index.vrow_level == k)
        it.x_level[saturated] = r * lv.level_weight(k)
    np.maximum.at(it.x_top, index.vrow_vertex, it.x_level)
    beta0 = sm.budget_value(index, it)
    lambda0, _arg = index.coverage_lambda(index.cover_values(it))
    return it, beta0, lambda0


def unit_clique(n: int) -> sm.Graph:
    return sm.Graph(n=n, edges=tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)), b=(1,) * n)


def two_level_clique() -> sm.Graph:
    """K20 with b = 2 and weights 1 and 2 on alternating edges: 95 edges per level."""
    pairs = [(i, j) for i in range(20) for j in range(i + 1, 20)]
    return sm.Graph(n=20, edges=tuple((i, j, 1.0 + t % 2) for t, (i, j) in enumerate(pairs)), b=(2,) * 20)


START_CASES = (
    [(f"suite_{1000 + s}", lambda s=s: random_instance(1000 + s), 2.0) for s in range(100)]
    + [(f"warm_{name}", lambda name=name: WARM_START_GRAPHS[name][0], 2.0) for name in sorted(WARM_START_GRAPHS)]
    + [
        ("oddset_wide_0_16", lambda: oddset_wide_instance(0, 16), 2.0),
        ("unit_k20_p16", lambda: unit_clique(20), 16.0),
        ("two_level_k20_p64", two_level_clique, 64.0),
    ]
)


@pytest.mark.parametrize("name,build,p", START_CASES, ids=[c[0] for c in START_CASES])
def test_start_matches_reference(name, build, p):
    index = sm.SystemIndex(sm.discretize(build(), EPS), EPS)
    seed = sm.SolverConfig().seed
    want_ledger, got_ledger = RoundLedger(), RoundLedger()
    want, want_beta, want_lam = reference_start(index, p, seed, ledger=want_ledger)
    got, got_beta, got_lam = initial_solution(index, p, seed, ledger=got_ledger)
    for field in ("x_level", "x_top", "z_set", "z_level", "z_value"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert got_beta == want_beta
    assert got_lam == want_lam
    assert got_ledger.as_dict() == want_ledger.as_dict()
    if name == "unit_k20_p16":
        assert [r["space"] for r in got_ledger.as_dict()["rounds"]] == [86, 1]
    if name == "two_level_k20_p64":
        assert got_ledger.as_dict()["rounds"][0]["space"] < 190


@pytest.fixture
def draws(monkeypatch):
    """Count the calls to ``oracle.prf_uniform``; ``draws.calls`` holds the count."""
    real = oracle.prf_uniform

    def counted(*args):
        counted.calls += 1
        return real(*args)

    counted.calls = 0
    monkeypatch.setattr(oracle, "prf_uniform", counted)
    return counted


def _reference_solve(monkeypatch, g, cfg):
    with monkeypatch.context() as mp:
        mp.setattr(driver, "initial_solution", reference_start)
        return sm.solve(g, cfg)


def test_default_suite_solve_draws_nothing(draws):
    sm.solve(random_instance(1000))
    assert draws.calls == 0


@pytest.mark.parametrize("p,draws_now,draws_before", [(2.0, 0, 190), (16.0, 190, 191)])
def test_unit_k20_draws_only_below_rate_one(monkeypatch, draws, p, draws_now, draws_before):
    g, cfg = unit_clique(20), sm.SolverConfig(p=p)
    got = sm.solve(g, cfg).as_dict()
    assert draws.calls == draws_now
    draws.calls = 0
    want = _reference_solve(monkeypatch, g, cfg).as_dict()
    assert draws.calls == draws_before
    assert got == want
