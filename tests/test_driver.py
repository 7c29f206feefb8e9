"""End-to-end solver runs and the command-line interface."""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchmatch as sm
from sketchmatch.cli import build_parser, main
from sketchmatch.driver import ContractViolation

from conftest import (
    EPS,
    WARM_START_GRAPHS,
    build_deferred_reference,
    build_deferred_stack_reference,
    inexact_harvests,
    random_instance,
    refine_deferred_reference,
    triangle_paper,
    warm_start,
)

REPORT_KEYS = {
    "matching",
    "weight",
    "rescaled_weight",
    "ratio_bound",
    "rounds",
    "peak_space",
    "round_cap",
    "space_cap",
    "lambda_start",
    "lambda_final",
    "certified",
    "stop_reason",
    "beta_final",
    "steps",
    "certificates",
    "harvests",
    "lambda_trace",
    "beta_trace",
    "round_spaces",
    "weight_vs_beta",
    "config_echo",
    "n",
    "m",
    "levels",
    "scale",
}


def covering_states(monkeypatch) -> list:
    """Collect every ``CoveringState`` created while ``monkeypatch`` is active."""
    from sketchmatch.mwu import CoveringState

    states = []
    real = CoveringState.__post_init__
    monkeypatch.setattr(
        CoveringState, "__post_init__", lambda self: states.append(self) or real(self)
    )
    return states


def test_star_import_resolves_every_export():
    # a name left in __all__ after its object is gone fails the import
    modules = [f"sketchmatch.{m.name}" for m in pkgutil.iter_modules(sm.__path__)]
    for module in ["sketchmatch", *modules]:
        names: dict[str, object] = {}
        exec(f"from {module} import *", names)
        assert set(importlib.import_module(module).__all__) <= set(names), module


XREF = re.compile(r":(?:func|class|meth|data|attr):`~?([^`]+)`")


def _has(obj, parts):
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _resolves(module, target):
    """Sphinx's lookup of a cross-reference written in ``module``.

    An absolute ``sketchmatch.`` name resolves through its longest
    importable module prefix; any other name against the module's
    globals, then against a class the module defines.
    """
    parts = target.split(".")
    if parts[0] == "sketchmatch":
        for cut in range(len(parts), 0, -1):
            try:
                base = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            return _has(base, parts[cut:])
    classes = [
        obj
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    ]
    return any(_has(scope, parts) for scope in [module, *classes])


def test_docstring_cross_references_resolve():
    # a reference left to a deleted or renamed name fails here
    missing, seen = [], 0
    for path in sorted(Path(sm.__file__).parent.glob("*.py")):
        name = "sketchmatch" if path.stem == "__init__" else f"sketchmatch.{path.stem}"
        module = importlib.import_module(name)
        for target in XREF.findall(path.read_text()):
            seen += 1
            if not _resolves(module, target):
                missing.append(f"{name}: {target}")
    assert seen and not missing, missing


class TestSolve:
    def test_single_edge(self):
        g = sm.load_graph("0 1 5\n")
        rep = sm.solve(g, sm.SolverConfig())
        assert rep.weight == pytest.approx(5.0)
        assert list(map(tuple, rep.matching)) == [(0, 1, 1)]
        assert rep.rounds >= 2
        assert rep.ratio_bound == pytest.approx(1.0 - 14.0 * EPS)

    def test_triangle_picks_a_unit_edge(self):
        g = triangle_paper()
        rep = sm.solve(g, sm.SolverConfig())
        assert rep.weight == pytest.approx(1.0)
        assert len(rep.matching) == 1
        i, j, mult = rep.matching[0]
        assert mult == 1
        assert (i, j) in {(0, 1), (0, 2)}

    def test_random_instance_beats_ratio_floor(self):
        g = random_instance(321)
        rep = sm.solve(g, sm.SolverConfig())
        opt, _ = sm.brute_force_bmatching(g)
        assert rep.weight >= (1.0 - 14.0 * EPS) * opt - 1e-9

    def test_deterministic_reports(self):
        g = random_instance(77)
        cfg = sm.SolverConfig(seed=9)
        a = json.dumps(sm.solve(g, cfg).as_dict(), sort_keys=True)
        b = json.dumps(sm.solve(g, cfg).as_dict(), sort_keys=True)
        assert a == b

    def test_report_schema(self):
        g = sm.load_graph("0 1 5\n")
        d = sm.solve(g, sm.SolverConfig()).as_dict()
        assert set(d) == REPORT_KEYS
        assert d["rounds"] <= d["round_cap"]
        assert d["peak_space"] <= d["space_cap"]
        assert len(d["round_spaces"]) == d["rounds"]
        assert d["config_echo"]["epsilon"] == EPS

    def test_round_cap_respected(self):
        g = random_instance(55)
        rep = sm.solve(g, sm.SolverConfig(max_rounds=12))
        assert rep.rounds <= 12

    def test_assert_mode_matches_plain(self):
        g = random_instance(88)
        plain = sm.solve(g, sm.SolverConfig(seed=2))
        checked = sm.solve(g, sm.SolverConfig(seed=2, assert_mode=True))
        assert checked.weight == pytest.approx(plain.weight)
        assert checked.rounds == plain.rounds

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ValueError):
            sm.SolverConfig(epsilon=0.2)
        with pytest.raises(ValueError):
            sm.SolverConfig(epsilon=0.0)

    @pytest.mark.parametrize("eps", [1e-17, 1e-9, 5e-324])
    def test_too_fine_epsilon_rejected_up_front(self, eps):
        with pytest.raises(ValueError, match="weight levels"):
            sm.solve(triangle_paper(), sm.SolverConfig(epsilon=eps))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_rounds": 0},
            {"max_rounds": -1},
            {"max_rounds": 1},  # the initial solution uses the only round
            {"p": math.inf},
            {"p": math.nan},
            {"seed": 1.5},
            {"seed": True},
            {"max_rounds": 6.5},
            {"max_rounds": True},
        ],
    )
    def test_unworkable_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            sm.solve(random_instance(1000), sm.SolverConfig(**kwargs))

    def test_assert_mode_enforces_space_cap(self, monkeypatch):
        from sketchmatch import driver

        monkeypatch.setattr(driver, "SPACE_MULT", 1e-3)
        g = random_instance(1000)
        cfg = dict(max_rounds=4)
        plain = sm.solve(g, sm.SolverConfig(**cfg))
        assert plain.peak_space > plain.space_cap > 0.0
        with pytest.raises(ContractViolation, match="space cap"):
            sm.solve(g, sm.SolverConfig(assert_mode=True, **cfg))

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (None, "budget kept certifying"),
            ("half_y", "certificate check failed"),
            ("objective", "certificate check failed"),
        ],
        ids=["genuine", "half_y", "objective"],
    )
    def test_assert_mode_checks_every_certificate(self, monkeypatch, tamper, message):
        # No suite solve draws a certificate, so the oracle is replaced by
        # one that always answers with the triangle certificate of the
        # u = 1, zeta = 1, penalty 1e-4 query: genuine, it passes the
        # driver's check until the retry cap; tampered, the check fails.
        from sketchmatch import driver

        g = sm.load_graph("0 1 10\n0 2 10\n1 2 10\n")
        index = sm.SystemIndex(sm.discretize(g, EPS), EPS)
        cert = driver.matching_oracle(
            index, np.ones(len(index.rows)), np.ones(len(index.vrows)), 1e-4, 1.0
        )
        assert isinstance(cert, sm.PrimalCertificate)
        if tamper == "half_y":
            cert = dataclasses.replace(cert, y=np.full_like(cert.y, 0.5))
        elif tamper == "objective":
            cert = dataclasses.replace(cert, objective=cert.objective * 1.01)
        monkeypatch.setattr(driver, "matching_oracle", lambda *args: cert)
        with pytest.raises(ContractViolation, match=message):
            sm.solve(g, sm.SolverConfig(assert_mode=True))

    def test_assert_mode_checks_the_budget_a_step_answered(self, monkeypatch):
        # Each vertex step claims half its own budget value as the budget
        # it answered; only the budget field of the check fails.
        from sketchmatch import driver

        real = driver.matching_oracle

        def over_budget(index, u, zeta, penalty, beta):
            out = real(index, u, zeta, penalty, beta)
            if isinstance(out, sm.DualStep) and out.branch == "vertex":
                return dataclasses.replace(out, beta=0.5 * sm.budget_value(index, out.iterate))
            return out

        monkeypatch.setattr(driver, "matching_oracle", over_budget)
        g = triangle_paper()
        sm.solve(g, sm.SolverConfig(max_rounds=8))
        with pytest.raises(ContractViolation, match="dual step check failed") as err:
            sm.solve(g, sm.SolverConfig(assert_mode=True, max_rounds=8))
        assert "'budget': False" in str(err.value)
        assert "'penalized_target': True" in str(err.value)

    def test_assert_mode_checks_the_multiplier_switch(self, monkeypatch):
        # The full multipliers handed to the switch check weight only the
        # rows the step leaves uncovered, so its conclusion fails while
        # the sketched hypothesis still holds.
        from sketchmatch import driver

        real = driver.verify_switch

        def uncovered_rows_only(index, u_full, u_sparse, it):
            uncovered = np.where(index.cover_values(it) == 0.0, 1.0, 0.0)
            assert uncovered.any()
            return real(index, uncovered, u_sparse, it)

        monkeypatch.setattr(driver, "verify_switch", uncovered_rows_only)
        g = triangle_paper()
        sm.solve(g, sm.SolverConfig(max_rounds=8))
        with pytest.raises(ContractViolation, match="multiplier switch failed") as err:
            sm.solve(g, sm.SolverConfig(assert_mode=True, max_rounds=8))
        assert "'conclusion': False" in str(err.value)
        assert "'hypothesis_cover': True" in str(err.value)

    def test_sketches_built_once_per_round(self, monkeypatch):
        from sketchmatch import driver

        # With no harvest final, the solve runs every round up to its cap.
        inexact_harvests(monkeypatch)
        g = random_instance(1000)
        calls = []
        real = driver.build_deferred
        monkeypatch.setattr(
            driver, "build_deferred", lambda *args: calls.append(args) or real(*args)
        )
        rep = sm.solve(g, sm.SolverConfig(max_rounds=12))
        lv = sm.discretize(g, EPS)
        n_levels = len(lv.levels)
        assert n_levels > 1
        assert len(calls) == len(rep.lambda_trace) - 1 == rep.harvests > 1
        for args in calls:
            assert np.asarray(args[2]).shape == (n_levels, g.m)
            assert len(args[5]) == n_levels

    def test_first_round_sketch_masks_match_row_loop(self, monkeypatch):
        from sketchmatch import driver
        from sketchmatch.mwu import CoveringState, covering_multipliers
        from sketchmatch.oracle import initial_solution

        g = random_instance(1003)
        calls = []
        real = driver.build_deferred
        monkeypatch.setattr(
            driver, "build_deferred", lambda *args: calls.append(args) or real(*args)
        )
        sm.solve(g, sm.SolverConfig())
        # reference: the first round's snapshot multipliers, copied per row
        index = sm.SystemIndex(sm.discretize(g, EPS), EPS)
        it, _beta, _lam = initial_solution(index, 2.0, 0)
        c = index.cover_rhs
        state = CoveringState(
            c=c, rho=24.0 / EPS + 24.0 / EPS**2, eps=EPS, ax=index.cover_values(it)
        )
        u, _log_u = covering_multipliers(state.ax / c, np.log(c), state.alpha)
        levels = sorted({k for (_e, _i, _j, k) in index.rows})
        assert len(levels) > 1
        # the first round's one call holds one promise row and seed per level
        first = calls[0]
        assert len(first[2]) == len(levels)
        for k, row, seed in zip(levels, first[2], first[5], strict=True):
            want = np.zeros(g.m)
            for r, (e, _i, _j, kk) in enumerate(index.rows):
                if kk == k:
                    want[e] = u[r]
            assert np.array_equal(row, want)
            assert seed == (0 * 1_000_003 + 1 * 1009 + k) % (1 << 62)

    @pytest.mark.parametrize("assert_mode", [False, True])
    def test_reports_match_all_forest_build(self, monkeypatch, assert_mode):
        from sketchmatch import driver

        cfg = sm.SolverConfig(max_rounds=12, assert_mode=assert_mode)
        graphs = [random_instance(1000 + s) for s in (0, 3, 7)]
        fast = [sm.solve(g, cfg).as_dict() for g in graphs]
        # every promise row through its own all-forest build
        monkeypatch.setattr(driver, "build_deferred", build_deferred_stack_reference)
        assert [sm.solve(g, cfg).as_dict() for g in graphs] == fast

    def test_harvest_runs_once_per_distinct_support(self, monkeypatch):
        from sketchmatch import driver
        from sketchmatch.oracle import BMatching, extract_integral

        # With no harvest final, the solve runs every round up to its cap.
        g = random_instance(1000)
        supports, built = [], []
        monkeypatch.setattr(
            driver,
            "extract_integral",
            lambda lv, ids: supports.append(tuple(ids)) or extract_integral(lv, ids),
        )
        inexact_harvests(monkeypatch)
        real_build = driver.build_deferred
        monkeypatch.setattr(
            driver,
            "build_deferred",
            lambda *args: built.append((args, real_build(*args))) or built[-1][1],
        )
        rep = sm.solve(g, sm.SolverConfig())
        solve_rounds = len(rep.lambda_trace) - 1
        assert rep.harvests == solve_rounds > 1
        assert len(supports) == len(set(supports)) >= 1
        # reference: harvest every round's support afresh, as an
        # unmemoized solve does, and keep the first best matching
        assert rep.certificates == 0  # so rounds are the only harvests
        lv = sm.discretize(g, EPS)
        n_levels = len(set(lv.level_of) - {-1})
        assert len(built) == solve_rounds
        best = BMatching(edges=(), weight=0.0)
        for args, sketch in built:
            # the round's sketch is its per-level sketches, level by level
            levels = [
                build_deferred_reference(*args[:2], row, *args[3:5], seed)
                for row, seed in zip(args[2], args[5], strict=True)
            ]
            assert len(levels) == n_levels
            assert sketch.entries.tolist() == [
                en for sk in levels for en in sk.entries.tolist()
            ]
            ids = sorted({e for sk in levels for e in sk.entries["edge"].tolist()})
            assert tuple(ids) in supports
            harvest = extract_integral(lv, ids)
            if harvest.weight > best.weight:
                best = harvest
        assert rep.matching == best.edges
        assert rep.rescaled_weight == best.weight

    @pytest.mark.parametrize("assert_mode", [False, True])
    @pytest.mark.parametrize("n, forests", [(43, 0), (44, 1)])
    def test_dense_promise_class_runs_forests(self, monkeypatch, n, forests, assert_mode):
        # unit K_n: every cover row gets the same promise, so the first
        # solve round sketches one class of n(n-1)/2 edges, which reaches
        # k = forest_count(n, SKETCH_XI) at n = 44 (946 >= 928) but not
        # at n = 43 (903 < 917)
        from sketchmatch import driver, sketch

        made = []
        real = sketch._LayeredForests
        monkeypatch.setattr(sketch, "_LayeredForests", lambda *a: made.append(a) or real(*a))
        g = sm.Graph(
            n=n, edges=tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)), b=(1,) * n
        )
        rep = sm.solve(g, sm.SolverConfig(assert_mode=assert_mode))
        k = sketch.forest_count(n, driver.SKETCH_XI)
        assert (g.m >= k) == (forests == 1)
        assert made == [(n, k, 9)] * forests  # 9 = floor(log2 m)
        assert (rep.weight, rep.rounds) == (n // 2, 2)

    @pytest.mark.parametrize("graph", ["triangle", 1003])
    def test_round_charges_its_harvest_once(self, monkeypatch, graph):
        # the first solve round's harvest becomes the incumbent: the one
        # matching is charged once, beside the start's dual support
        from sketchmatch import driver
        from sketchmatch.sketch import RoundLedger

        charges, harvests, starts = [], [], []
        real_record = RoundLedger.record_space

        def record(ledger, count):
            charges.append((ledger.n_rounds - 1, int(count)))
            real_record(ledger, count)

        monkeypatch.setattr(RoundLedger, "record_space", record)
        real_extract, real_start = driver.extract_integral, driver.initial_solution
        monkeypatch.setattr(
            driver, "extract_integral", lambda *a: harvests.append(real_extract(*a)) or harvests[-1]
        )
        monkeypatch.setattr(
            driver, "initial_solution", lambda *a, **k: starts.append(real_start(*a, **k)) or starts[-1]
        )
        g = triangle_paper() if graph == "triangle" else random_instance(graph)
        rep = sm.solve(g, sm.SolverConfig())
        ((it, _beta, _lam),) = starts
        first = rep.rounds - len(rep.lambda_trace) + 1  # the first solve round
        sketch_space, held = [c for r, c in charges if r == first]
        support = np.count_nonzero(it.x_level) + np.count_nonzero(it.x_top) + len(it.z_value)
        assert rep.matching == harvests[0].edges != ()
        assert held == len(harvests[0].edges) + support
        assert rep.round_spaces[first] == sketch_space + held

    def test_refined_multipliers_match_row_loop(self, monkeypatch):
        from sketchmatch import driver
        from sketchmatch.mwu import CoveringState, covering_multipliers
        from sketchmatch.oracle import initial_solution

        g = random_instance(1003)
        built, searched, multipliers = [], [], []
        real_build = driver.build_deferred
        monkeypatch.setattr(
            driver,
            "build_deferred",
            lambda *args: built.append(args) or real_build(*args),
        )
        real_search = driver.lagrangian_search
        monkeypatch.setattr(
            driver,
            "lagrangian_search",
            lambda *args: searched.append(args[2].copy()) or real_search(*args),
        )
        real_mult = driver.covering_multipliers
        monkeypatch.setattr(
            driver,
            "covering_multipliers",
            lambda load, log_c, alpha, *rest: multipliers.append((load.copy(), alpha))
            or real_mult(load, log_c, alpha, *rest),
        )
        rep = sm.solve(g, sm.SolverConfig(max_rounds=8))
        assert rep.certificates == 0
        # reference: every refinement of the first round through the
        # per-row dicts, one sketch per level and the per-entry
        # refinement loop
        index = sm.SystemIndex(sm.discretize(g, EPS), EPS)
        c = index.cover_rhs
        levels = sorted({k for (_e, _i, _j, k) in index.rows})
        assert len(levels) > 1
        args = built[0]
        first_round = [
            build_deferred_reference(*args[:2], row, *args[3:5], seed)
            for row, seed in zip(args[2], args[5], strict=True)
        ]
        assert len(first_round) == len(levels)
        (load0, alpha0), steps = multipliers[0], multipliers[1:]
        per_round = math.ceil(math.log(max(g.n ** 0.25, 1.0 + EPS)) / EPS)
        assert len(steps) >= per_round > 1
        it, _beta, _lam = initial_solution(index, 2.0, 0)
        state = CoveringState(
            c=c, rho=24.0 / EPS + 24.0 / EPS**2, eps=EPS, ax=index.cover_values(it)
        )
        assert np.array_equal(load0, state.ax / c) and alpha0 == state.alpha
        offset = float(covering_multipliers(load0, np.log(c), alpha0)[1].max())
        for q, (load, alpha) in enumerate(steps[:per_round]):
            if q == 0:
                assert np.array_equal(load, state.ax / c)
            _u, log_u = covering_multipliers(load, np.log(c), alpha)
            u_now = np.exp(log_u - offset)
            refined = {}
            for k, sk in zip(levels, first_round):
                vals = {
                    e: u_now[index.row_of_edge[e]]
                    for e in sk.entries["edge"].tolist()
                    if index.row_levels[index.row_of_edge[e]] == k
                }
                refined.update(refine_deferred_reference(sk, vals))
            want = index.multiplier_vector(refined)
            assert np.count_nonzero(want) > 0
            assert np.array_equal(searched[q], want)

    def test_refine_runs_once_per_refinement(self, monkeypatch):
        from sketchmatch import driver

        g = random_instance(1003)
        calls = []
        real = driver.refine_deferred
        monkeypatch.setattr(
            driver, "refine_deferred", lambda *args: calls.append(1) or real(*args)
        )
        rep = sm.solve(g, sm.SolverConfig(max_rounds=8))
        lv = sm.discretize(g, EPS)
        assert len({k for (_e, _i, _j, k) in lv.retained()}) > 1
        # every refinement ends in exactly one accepted step
        assert len(calls) == rep.steps > 0

    def test_stop_reasons(self, monkeypatch):
        tri = sm.solve(sm.load_graph(TRIANGLE), sm.SolverConfig())
        assert tri.stop_reason == "cannot_certify" and not tri.certified
        assert tri.rounds < tri.round_cap and tri.weight == 5.0
        # an inexact harvest is never final
        inexact_harvests(monkeypatch)
        wide = sm.solve(random_instance(1000), sm.SolverConfig(max_rounds=12))
        assert wide.stop_reason == "round_cap" and wide.rounds == 12

    @pytest.mark.parametrize("assert_mode", [False, True])
    @pytest.mark.parametrize("graph", ["triangle", "1003"])
    def test_certified_solve_harvests_first(self, monkeypatch, graph, assert_mode):
        # Start rate 1: the start prices cover every row at least once,
        # so the coverage target holds before any step.
        from sketchmatch import oracle

        monkeypatch.setattr(oracle, "START_RATE_DIVISOR", EPS)
        g = triangle_paper() if graph == "triangle" else random_instance(1003)
        rep = sm.solve(g, sm.SolverConfig(assert_mode=assert_mode))
        assert rep.lambda_start >= 1.0 - 3.0 * EPS
        assert rep.certified and rep.stop_reason == "certified"
        assert rep.harvests >= 1 and rep.weight > 0.0
        assert rep.steps == 0
        opt, _ = sm.brute_force_bmatching(g)
        assert rep.weight >= (1.0 - 14.0 * EPS) * opt - 1e-9

    def test_stop_waits_for_the_ceiling(self, monkeypatch):
        # Start coverage 0.8 against the target 0.8125: the ceiling
        # 0.8 (1 + kappa)^(5 x rounds left), kappa = 2.1e-4 on the three
        # cover rows, reaches the target until about 15 rounds are left.
        from sketchmatch import oracle

        states = covering_states(monkeypatch)
        monkeypatch.setattr(oracle, "START_RATE_DIVISOR", EPS / 0.8)
        rep = sm.solve(triangle_paper(), sm.SolverConfig())
        assert rep.lambda_start == pytest.approx(0.8)
        assert rep.stop_reason == "cannot_certify"
        assert 200 < rep.rounds < rep.round_cap
        (state,) = states
        per_round = rep.steps // (rep.rounds - 1)
        left = rep.round_cap - rep.rounds
        assert state.lam_ceiling(state.lam_max, left * per_round) < state.target
        assert state.lam_ceiling(state.lam_max, (left + 1) * per_round) >= state.target
        assert rep.matching == sm.solve(triangle_paper(), sm.SolverConfig()).matching

    @pytest.mark.parametrize("graph", ["triangle", "1003"])
    def test_drift_limited_steps_stay_under_the_ceiling(self, monkeypatch, graph):
        # Every step is the largest the drift check accepts; with the
        # stop switched off the assert-mode solve runs all its rounds and
        # checks the coverage against the ceiling after every step.
        from sketchmatch import driver

        states = covering_states(monkeypatch)
        real = driver.lagrangian_search

        def drift_limited(index, *args):
            out = real(index, *args)
            if isinstance(out, sm.DualStep):
                st = states[-1]
                ay = index.cover_values(out.iterate)
                widest = float(np.abs((ay - st.ax) / st.c).max())
                if widest > 0.0:
                    st.sigma = min(1.0, st.eps / (st.alpha * widest))
            return out

        monkeypatch.setattr(driver, "lagrangian_search", drift_limited)
        inexact_harvests(monkeypatch)
        g = triangle_paper() if graph == "triangle" else random_instance(1003)
        rep = sm.solve(g, sm.SolverConfig(assert_mode=True))
        assert rep.rounds == rep.round_cap == 256
        assert rep.stop_reason == "round_cap"
        (state,) = states
        ceiling = state.lam_ceiling(rep.lambda_start, rep.steps)
        assert rep.lambda_final <= state.lam_max <= ceiling < state.target
        # the steps reach most of the ceiling's gain (x1.27 and x1.35 of
        # the start against x1.31 and x1.42)
        assert rep.lambda_final / rep.lambda_start > 1.25
        gain = rep.lambda_final - rep.lambda_start
        assert gain > 0.75 * (ceiling - rep.lambda_start)

    @pytest.mark.parametrize(
        "graph, assert_mode", [("1000", False), ("1000", True), ("k5", True)]
    )
    def test_state_holds_the_iterates_exact_row_values(self, monkeypatch, graph, assert_mode):
        # The driver's iterate is the chain of blends from the start
        # iterate.  Every refinement prices the packing rows once, after
        # the previous step, so checking there and at the end sees the
        # state after every accepted step.
        from sketchmatch import driver

        if graph == "k5":
            g, groups = WARM_START_GRAPHS["k5"]
            warm_start(monkeypatch, groups)
            cfg = sm.SolverConfig(assert_mode=assert_mode, max_rounds=40)
        else:
            g = random_instance(int(graph))
            cfg = sm.SolverConfig(assert_mode=assert_mode, max_rounds=12)
        states = covering_states(monkeypatch)
        held = {}
        start, blend = driver.initial_solution, sm.DualIterate.blend
        pack = driver.packing_multipliers

        def initial_solution(index, *args, **kwargs):
            out = start(index, *args, **kwargs)
            held.update(index=index, it=out[0])
            return out

        def chained_blend(self, other, sigma):
            out = blend(self, other, sigma)
            if self is held["it"]:
                held["it"] = out
            return out

        checks = []

        def check(load=None):
            index, it = held["index"], held["it"]
            assert np.array_equal(states[-1].ax, index.cover_values(it))
            if load is not None:
                assert np.array_equal(load, index.degree_values(it) / index.degree_rhs_outer)
            checks.append(1)

        def packing_multipliers(load, *args):
            check(load)
            return pack(load, *args)

        monkeypatch.setattr(driver, "initial_solution", initial_solution)
        monkeypatch.setattr(sm.DualIterate, "blend", chained_blend)
        monkeypatch.setattr(driver, "packing_multipliers", packing_multipliers)
        rep = sm.solve(g, cfg)
        check()
        assert rep.steps > 0 and len(checks) == rep.steps + 1
        if graph == "k5":
            assert len(held["it"].z_value) > 0

    def test_assert_mode_checks_the_coverage_ceiling(self, monkeypatch):
        from sketchmatch.mwu import CoveringState

        monkeypatch.setattr(CoveringState, "lam_ceiling", lambda self, lam_max, steps: lam_max)
        g = triangle_paper()
        plain = sm.solve(g, sm.SolverConfig())
        assert plain.stop_reason == "cannot_certify" and plain.lambda_final > plain.lambda_start
        with pytest.raises(ContractViolation, match="exceeds the ceiling"):
            sm.solve(g, sm.SolverConfig(assert_mode=True))

    def test_caps_formulas(self):
        assert sm.round_cap_for(2.0, EPS) == 8 * 32
        got = sm.space_cap_for(10, 2.0, 20)
        want = 16.0 * 10 ** 1.5 * np.log2(22.0)
        assert got == pytest.approx(want)


@st.composite
def edge_case_texts(draw):
    """Edge-list and capacity text: n <= 7, isolated vertices, large b and weight ratios.

    Vertices at or above ``n_used`` touch no edge and exist only through
    their capacity lines.  Weights in ``[1, 10**6]`` make ``discretize``
    drop the light edges of many draws.  Every vertex draws a capacity
    up to ``10**6``.
    """
    n = draw(st.integers(2, 7))
    n_used = draw(st.integers(2, n))
    pairs = [(i, j) for i in range(n_used) for j in range(i + 1, n_used)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    weights = draw(st.lists(st.floats(1.0, 1e6), min_size=len(edges), max_size=len(edges)))
    caps = [draw(st.integers(1, 10**6)) for _ in range(n)]
    edge_text = "".join(f"{i} {j} {w!r}\n" for (i, j), w in zip(edges, weights))
    b_text = "".join(f"{i} {b}\n" for i, b in enumerate(caps))
    return edge_text, b_text


class TestSolveEdgeCases:
    @settings(max_examples=25, deadline=None)
    @given(edge_case_texts())
    def test_loaded_graph_solves_within_caps(self, texts):
        g = sm.load_graph(*texts)
        rep = sm.solve(g, sm.SolverConfig(max_rounds=24))
        w_of = {(i, j): w for (i, j, w) in g.edges}
        load = [0] * g.n
        for i, j, mult in rep.matching:
            assert (i, j) in w_of and mult >= 1
            load[i] += mult
            load[j] += mult
        assert all(load[i] <= g.b[i] for i in range(g.n))
        assert rep.weight == math.fsum(w_of[(i, j)] * mult for (i, j, mult) in rep.matching)
        if g.B <= 24:
            opt, _ = sm.brute_force_bmatching(g)
            assert rep.weight >= (1.0 - 14.0 * EPS) * opt - 1e-9

    def test_graph_past_the_enumeration_cap_is_rejected_when_its_family_is_read(self, monkeypatch):
        # Seven planted unit triangles (n = 21): the warm start prices each
        # one as an odd set, so it reads the family, which n = 21 is past.
        groups = [(3 * t, 3 * t + 1, 3 * t + 2) for t in range(7)]
        g = sm.Graph(
            n=21,
            edges=tuple((i, j, 1.0) for (a, c, d) in groups for (i, j) in ((a, c), (a, d), (c, d))),
            b=(1,) * 21,
        )
        warm_start(monkeypatch, groups)
        with pytest.raises(ValueError, match="n <= 20"):
            sm.solve(g)

    def test_large_capacity_triangle_finishes(self):
        # b = 10**6 splits each vertex past the exact harvest's cap, so
        # the harvest is greedy, never final, and the solve runs to the cap.
        g = sm.load_graph(TRIANGLE, "0 1000000\n1 1000000\n2 1000000\n")
        rep = sm.solve(g, sm.SolverConfig())
        assert rep.stop_reason == "round_cap" and rep.rounds == rep.round_cap
        load = [0, 0, 0]
        for i, j, mult in rep.matching:
            load[i] += mult
            load[j] += mult
        assert max(load) <= 10**6
        assert rep.weight >= (1.0 - 14.0 * EPS) * 7.5e6


class TestCoverageExamples:
    def test_start_coverage_single_edge(self):
        g = sm.load_graph("0 1 7\n")
        lv = sm.discretize(g, EPS)
        index = sm.SystemIndex(lv, EPS)
        it, _beta0, _lam0 = sm.initial_solution(index, 2.0, 0)
        lam, _row = index.coverage_lambda(index.cover_values(it))
        assert lam == pytest.approx(EPS / 128.0)

    def test_coverage_scales_linearly(self):
        g = sm.load_graph("0 1 7\n")
        lv = sm.discretize(g, EPS)
        index = sm.SystemIndex(lv, EPS)
        it, _beta0, _lam0 = sm.initial_solution(index, 2.0, 0)
        doubled = dataclasses.replace(it, x_level=2.0 * it.x_level, x_top=2.0 * it.x_top)
        lam1, _ = index.coverage_lambda(index.cover_values(it))
        lam2, _ = index.coverage_lambda(index.cover_values(doubled))
        assert lam2 == pytest.approx(2.0 * lam1)

    def test_uncovered_row_gives_zero(self):
        g = sm.load_graph("0 1 7\n0 2 7\n")
        lv = sm.discretize(g, EPS)
        index = sm.SystemIndex(lv, EPS)
        it = sm.DualIterate.zeros(index)
        # price only vertex 1: the (0, 2) row stays uncovered
        (e, i, j, k) = next(iter(lv.retained()))
        it.x_level[index.vrows.index((j, k))] = lv.level_weight(k)
        it.x_top[j] = lv.level_weight(k)
        lam, _row = index.coverage_lambda(index.cover_values(it))
        assert lam == 0.0


# The triangle of the external-matching checks: any one edge is optimal.
TRIANGLE = "0 1 5\n1 2 5\n0 2 5\n"


def _write_graph(tmp_path, name="g.txt", text="0 1 5\n"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCli:
    def test_solve_json(self, tmp_path, capsys):
        path = _write_graph(tmp_path)
        code = main(["solve", "--input", path, "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["weight"] == pytest.approx(5.0)

    def test_solve_human_lines(self, tmp_path, capsys):
        path = _write_graph(tmp_path)
        code = main(["solve", "--input", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "weight" in out

    def test_solve_human_lines_name_the_stop(self, tmp_path, capsys):
        path = _write_graph(tmp_path, text=TRIANGLE)
        assert main(["solve", "--input", path]) == 0
        out = capsys.readouterr().out
        assert "(stop: cannot_certify)" in out
        assert "rounds 2/256" in out
        assert main(["solve", "--input", path, "--max-rounds", "2"]) == 0
        assert "(stop: round_cap)" in capsys.readouterr().out

    def test_solve_out_file(self, tmp_path):
        path = _write_graph(tmp_path)
        out_path = tmp_path / "report.json"
        code = main(["solve", "--input", path, "--out", str(out_path)])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["weight"] == pytest.approx(5.0)

    def test_missing_input_exits_2(self, tmp_path, capsys):
        code = main(["solve", "--input", str(tmp_path / "absent.txt")])
        assert code == 2

    def test_closed_pipe_exits_1_without_traceback(self, tmp_path):
        # The reader closes its end before the first write, as `| head`
        # does once it has read enough.
        path = _write_graph(tmp_path, text="0 1 5\n1 2 5\n0 2 5\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path_entries = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_entries)}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sketchmatch.cli", "verify", "--input", path, "--json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])  # --input is required
        assert exc.value.code == 2

    def test_bad_graph_exits_1(self, tmp_path, capsys):
        path = _write_graph(tmp_path, text="0 0 5\n")
        code = main(["solve", "--input", path])
        assert code == 1

    def test_bad_epsilon_exits_1(self, tmp_path):
        path = _write_graph(tmp_path)
        code = main(["solve", "--input", path, "--epsilon", "0.5"])
        assert code == 1

    def test_infinite_p_exits_1(self, tmp_path, capsys):
        path = _write_graph(tmp_path)
        code = main(["solve", "--input", path, "--p", "inf"])
        assert code == 1
        assert "p must be a finite number" in capsys.readouterr().err

    def test_sparsify_keeps_a_spanning_structure(self, tmp_path, capsys):
        text = "\n".join(
            f"{i} {j} 1" for i in range(5) for j in range(i + 1, 5)
        )
        path = _write_graph(tmp_path, text=text + "\n")
        code = main(["sparsify", "--input", path, "--xi", "0.25", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["kept_edges"] >= 4  # spanning structure survives

    def test_sparsify_deferred(self, tmp_path, capsys):
        # a bare sparsify builds the deferred sketch at its default chi
        path = _write_graph(tmp_path, text="0 1 2\n1 2 3\n")
        code = main(["sparsify", "--input", path, "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "deferred"
        assert payload["chi"] == pytest.approx(2.0)

    @pytest.mark.parametrize("chi", ["nan", "inf"])
    def test_sparsify_deferred_non_finite_chi_exits_1(self, tmp_path, capsys, chi):
        path = _write_graph(tmp_path, text="0 1 2\n1 2 3\n")
        code = main(["sparsify", "--input", path, "--chi", chi, "--json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: chi must be finite and >= 1, got {chi}")

    def test_stats(self, tmp_path, capsys):
        path = _write_graph(tmp_path, text="0 1 5\n1 2 12\n")
        code = main(["stats", "--input", path, "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 3
        assert payload["m"] == 2

    def test_stats_too_fine_epsilon_exits_1(self, tmp_path, capsys):
        path = _write_graph(tmp_path, text="0 1 5\n1 2 5\n0 2 5\n")
        code = main(["stats", "--input", path, "--epsilon", "1e-17"])
        assert code == 1
        assert "weight levels" in capsys.readouterr().err

    def test_stats_past_the_enumeration_cap(self, tmp_path, capsys):
        # a 25-vertex path: every odd-size set is small at b = 1
        text = "".join(f"{i} {i + 1} {1 + i % 7}\n" for i in range(24))
        path = _write_graph(tmp_path, text=text)
        code = main(["stats", "--input", path, "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 25
        assert payload["small_odd_sets"] == 2**24

    def test_verify_full(self, tmp_path, capsys):
        path = _write_graph(tmp_path, text="0 1 5\n2 3 4\n")
        code = main(["verify", "--input", path, "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert all(payload["checks"].values())

    def test_verify_runs_the_lp_check_up_to_its_cap(self, tmp_path, capsys):
        # n = 13 is past the old literal 12 but within EXACT_LP_MAX_N = 14.
        text = "".join(f"{i} {(i + 1) % 13} {i + 1}\n" for i in range(13))
        code = main(["verify", "--input", _write_graph(tmp_path, text=text), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "beta_star" in payload and payload["checks"]["relaxation_order"]

    @pytest.mark.parametrize(
        "text, btext",
        [
            pytest.param("".join(f"{i} {i + 1} 1\n" for i in range(14)), None, id="n15_path"),
            pytest.param(TRIANGLE, "0 10\n1 10\n2 10\n", id="triangle_b10"),
        ],
    )
    def test_verify_refuses_past_brute_force_before_solving(
        self, tmp_path, capsys, monkeypatch, text, btext
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("verify solved a graph brute force refuses")

        monkeypatch.setattr("sketchmatch.cli.solve", no_solve)
        argv = ["verify", "--input", _write_graph(tmp_path, text=text), "--json"]
        if btext is not None:
            argv += ["--b", _write_graph(tmp_path, name="b.txt", text=btext)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "brute force capped" in err
        assert "contract violation" not in err

    def test_verify_external_matching(self, tmp_path, capsys):
        path = _write_graph(tmp_path, text="0 1 5\n2 3 4\n")
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps([[0, 1, 1], [2, 3, 1]]))
        code = main(
            ["verify", "--input", path, "--matching", str(mpath), "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["matching_weight"] == pytest.approx(9.0)
        assert payload["feasible"] and payload["meets_ratio_floor"]

    @pytest.mark.parametrize(
        "text, matching, feasible",
        [
            pytest.param(
                "0 1 5\n0 2 4\n", [[0, 1, 1], [0, 2, 1]], False, id="over_capacity"
            ),
            pytest.param(
                TRIANGLE,
                [[0, 1, 0.5], [1, 2, 0.5], [0, 2, 0.5]],
                False,
                id="fractional_multiplicity",
            ),
            pytest.param(TRIANGLE, [[0, 1, True]], False, id="bool_multiplicity"),
            pytest.param(TRIANGLE, [[0.0, 1.0, 1]], False, id="float_ids"),
            pytest.param("0 1 5\n0 2 4\n", [[1, 2, 1]], False, id="unknown_edge"),
            pytest.param(TRIANGLE, [[0, 1, -1]], False, id="negative_multiplicity"),
            pytest.param(TRIANGLE, [[0, 1]], None, id="short_entry"),
            pytest.param(TRIANGLE, [0, 1, 1], None, id="flat_list"),
            pytest.param(TRIANGLE, {"weight": 5}, None, id="no_matching_key"),
        ],
    )
    def test_verify_infeasible_matching_fails(self, tmp_path, capsys, text, matching, feasible):
        # ids and multiplicities must be JSON integers, or the matching is
        # infeasible; an entry that is not an [i, j, m] list is a format error
        path = _write_graph(tmp_path, text=text)
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(matching))
        code = main(
            ["verify", "--input", path, "--matching", str(mpath), "--json"]
        )
        captured = capsys.readouterr()
        assert code == 1
        if feasible is None:
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "[i, j, multiplicity]" in captured.err
        else:
            assert json.loads(captured.out)["feasible"] is feasible

    def test_b_file(self, tmp_path, capsys):
        path = _write_graph(tmp_path, text="0 1 5\n0 2 4\n")
        bpath = tmp_path / "b.txt"
        bpath.write_text("0 2\n1 1\n2 1\n")
        code = main(["solve", "--input", path, "--b", str(bpath), "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["weight"] == pytest.approx(9.0)

    def test_readme_cli_block_flags_match_the_parser(self):
        # every flag the README's usage block shows for a subcommand is one
        # that subcommand's parser takes
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command-line interface", 1)[1].split("```sh\n", 1)[1]
        usage: dict[str, str] = {}
        command = None
        for line in block.split("```", 1)[0].splitlines():
            if line.startswith("sketchmatch "):
                command = line.split()[1]
                usage[command] = line
            elif command is not None:
                usage[command] += line  # a continuation line
        parser = build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(usage) == set(sub.choices)
        for command, text in usage.items():
            options = set(sub.choices[command]._option_string_actions)
            flags = set(re.findall(r"--[a-z][a-z-]*", text))
            assert flags and flags <= options, (command, sorted(flags - options))
