"""Checks of the benchmark's own pieces.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import networkx as nx  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import sketchmatch as sm  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _conftest():
    spec = importlib.util.spec_from_file_location("suite_conftest", ROOT / "tests" / "conftest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _triangle() -> sm.Graph:
    return sm.Graph(n=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 0.625)), b=(1, 1, 1))


def test_suite_generator_matches_acceptance_instances():
    random_instance = _conftest().random_instance
    for seed in range(1000, 1010):
        assert workloads.suite_graph(seed) == random_instance(seed)


def test_relabelled_inputs_are_isomorphic_copies():
    wl = workloads.workload("suite")
    texts = workloads.instance_texts(wl, seed=7)
    assert texts == workloads.instance_texts(wl, seed=7)
    assert texts != workloads.instance_texts(wl, seed=8)
    for base, (edge_text, cap_text) in list(zip(wl.base, texts))[:6]:
        g = sm.load_graph(edge_text, cap_text)
        assert (g.n, g.m) == (base.n, base.m)
        assert sorted(w for *_ij, w in g.edges) == sorted(w for *_ij, w in base.edges)
        assert sorted(g.b) == sorted(base.b)
        assert workloads.reference_optimum(g) == workloads.reference_optimum(base)


def test_oddset_wide_optima_agree_with_networkx():
    wl = workloads.workload("oddset_wide")
    assert sorted({g.n for g in wl.base}) == [16, 17, 18]
    for g in wl.base:
        assert g.m == 3 * g.n and set(g.b) == {1}
        nxg = nx.Graph()
        nxg.add_weighted_edges_from(g.edges)
        pairs = nx.max_weight_matching(nxg)
        expected = sum(nxg[i][j]["weight"] for i, j in pairs)
        assert workloads.reference_optimum(g) == pytest.approx(expected, rel=1e-12)


def test_check_rejects_broken_reports():
    g = _triangle()
    opt = workloads.reference_optimum(g)
    rep = sm.solve(g, sm.SolverConfig(max_rounds=24))
    assert run._check(g, opt, rep) is None
    bad = [
        dataclasses.replace(rep, matching=((0, 1, 1), (1, 2, 1))),
        dataclasses.replace(rep, matching=((0, 1, 1), (3, 4, 1))),
        dataclasses.replace(rep, weight=rep.weight + 1.0),
        dataclasses.replace(rep, matching=(), weight=0.0),
        dataclasses.replace(rep, rounds=rep.round_cap + 1),
        dataclasses.replace(rep, peak_space=int(rep.space_cap) + 1),
    ]
    for broken in bad:
        assert run._check(g, opt, broken) is not None


def test_seed_reference_worker_answers_and_exits():
    texts = [workloads.relabel_text(_triangle(), random.Random(0))]
    ref = run.SeedReference(texts, {"max_rounds": 24})
    try:
        assert ref.solve(0) > 0.0
    finally:
        ref.close()
    assert ref._proc.returncode == 0


def test_tail_keeps_ten_solves_beyond():
    times = [float(t) for t in range(40)]
    value, pct = run._tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == 75


def test_traced_solve_matches_untraced_and_counts_repeat():
    g = workloads.suite_graph(1002)
    cfg = sm.SolverConfig(max_rounds=40)
    originals = (sm.driver.matching_oracle, sm.system.SystemIndex.cover_values)
    plain = sm.solve(g, cfg)
    tracer = Tracer()
    first = tracer.solve(0, g, cfg)
    second = tracer.solve(0, g, cfg)
    assert (sm.driver.matching_oracle, sm.system.SystemIndex.cover_values) == originals
    assert first.as_dict() == plain.as_dict() == second.as_dict()
    rows = tracer.per_solve()
    counts = [{k: v for k, v in r.items() if not k.endswith("_s")} for r in rows]
    assert counts[0] == counts[1]
    assert counts[0]["driver.solve_calls"] == 1
    assert counts[0]["oracle.matching_oracle_calls"] > 0
    branches = sum(counts[0].get(f"oracle.branch_{b}", 0) for b in ("zero", "vertex", "odd", "mixed", "certificate"))
    assert branches == counts[0]["mwu.lagrangian_search_calls"]
    a = tracer.arrays()
    for s in range(2):
        root = (a["solve"] == s) & (a["parent"] == -1)
        total = float((a["end"] - a["start"])[root].sum())
        self_sum = sum(v for k, v in rows[s].items() if k.endswith("_s"))
        assert self_sum == pytest.approx(total, rel=1e-9)


def test_benchmark_spec_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["end_to_end"]:
        assert run.END_TO_END_UNITS[m["name"]] == m["unit"]
    for m in spec["per_layer"]:
        assert run.PER_LAYER_UNITS[m["name"]] == m["unit"]
    for w in spec["workloads"]:
        assert workloads.workload(w["name"]).base
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_inputs_depend_only_on_seed():
    rng_state = random.getstate()
    first = workloads.instance_texts(workloads.workload("oddset_wide"), seed=3)
    random.seed(12345)
    assert workloads.instance_texts(workloads.workload("oddset_wide"), seed=3) == first
    random.setstate(rng_state)
