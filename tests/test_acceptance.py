"""Acceptance gate: the nine headline guarantees, checked at desk scale.

Every test prints a single ``[PASS]``/``[FAIL]`` line naming its
criterion, then asserts.  The hundred-instance solver suite is solved
once (with every runtime self-check enabled) and shared across the
criteria that consume it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import sketchmatch as sm
from sketchmatch.mwu import CoveringState, covering_multipliers
from sketchmatch.oddsets import collect_violated_sets
from sketchmatch.oracle import initial_solution
from sketchmatch.sketch import all_cut_values, forest_count, prf_u64

from conftest import (
    EPS,
    networkx_matching_weight,
    oddset_wide_instance,
    triangle_paper,
    wide_random_instance,
)


def _verdict(ok: bool, label: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


@pytest.fixture(scope="session")
def suite_reports(suite_instances):
    """Solve the whole hundred-instance suite with self-checks on."""
    t0 = time.monotonic()
    reports = [
        sm.solve(g, sm.SolverConfig(assert_mode=True)) for g in suite_instances
    ]
    elapsed = time.monotonic() - t0
    return reports, elapsed


@pytest.fixture(scope="session")
def suite_optima(suite_instances):
    return [sm.brute_force_bmatching(g)[0] for g in suite_instances]


def test_criterion_1_ratio_floor_over_hundred_instances(
    suite_instances, suite_reports, suite_optima
):
    reports, elapsed = suite_reports
    floor = 1.0 - 14.0 * EPS
    worst = min(
        (rep.weight / opt if opt > 0 else 1.0)
        for rep, opt in zip(reports, suite_optima)
    )
    ok = worst >= floor - 1e-9 and elapsed < 300.0
    _verdict(
        ok,
        "criterion 1: 100 seeded instances reach (1 - 14 eps) of the "
        f"exact optimum (worst ratio {worst:.4f}, floor {floor:.4f}, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_2_reference_triangle():
    g = triangle_paper()
    vals = sm.exact_lp_values(g, EPS)
    bip_ok = abs(vals.beta_bipartite - (Fraction(1) + 5 * Fraction(1, 16))) <= Fraction(
        1, 10**9
    )
    star_ok = vals.beta_star == 1
    rep = sm.solve(g, sm.SolverConfig())
    ok = bip_ok and star_ok and abs(rep.weight - 1.0) < 1e-9
    _verdict(
        ok,
        "criterion 2: reference triangle has bipartite value 1 + 5 eps, "
        "odd-set value 1, and the solver returns weight 1",
    )


def test_criterion_3_sparsifier_cut_fidelity():
    passing = total = 0
    for n, xi in itertools.product(range(5, 11), (0.25, 0.3)):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        weights = [1.0] * len(edges)
        base = all_cut_values(n, edges, weights)
        for seed in range(100):
            # chi = 1, refined at its promise: a cut sparsifier of the graph
            sk = sm.build_deferred(n, edges, weights, chi=1.0, xi=xi, seed=seed)
            entries = sk.entries
            got = sm.refine_deferred(sk, entries["promise"])
            cuts = all_cut_values(n, entries[["i", "j"]].tolist(), got.tolist())
            dev = float(np.max(np.abs(cuts - base) / base))
            total += 1
            passing += dev <= xi
    promise_rate = passing / total

    adv_pass = adv_total = 0
    chi = 2.0
    for n in (5, 6):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        promise = [1.0] * len(edges)
        for seed in range(100):
            true = {
                e: (chi if prf_u64(seed, "acc3", e) % 2 else 1.0 / chi)
                for e in range(len(edges))
            }
            sk = sm.build_deferred(n, edges, promise, chi=chi, xi=0.25, seed=seed)
            true_w = [true[e] for e in range(len(edges))]
            entries = sk.entries
            got = sm.refine_deferred(sk, np.array(true_w)[entries["edge"]])
            base = all_cut_values(n, edges, true_w)
            cuts = all_cut_values(n, entries[["i", "j"]].tolist(), got.tolist())
            dev = float(np.max(np.abs(cuts - base) / base))
            adv_total += 1
            adv_pass += dev <= 0.25
    deferred_rate = adv_pass / adv_total

    # Parts (a) and (b) keep every edge of a complete graph at depth 0.
    # Parallel copies of each pair of K4 form one dense class, which
    # runs the forests and subsamples (some keep probability below 1) on
    # every seed: chi = 1 at its promise, then chi = 2 adversarial.
    n, xi = 4, 0.9
    assert forest_count(n, xi) == 52
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    multi_pass = multi_total = subsampled = 0
    for chi, copies in ((1.0, 70), (2.0, 100)):
        edges = [pair for pair in pairs for _ in range(copies)]
        for seed in range(25):
            # chi^+-1 per edge: at chi = 1, the promise itself
            true_w = [
                chi if prf_u64(seed, "acc3", e) % 2 else 1.0 / chi for e in range(len(edges))
            ]
            sk = sm.build_deferred(n, edges, [1.0] * len(edges), chi=chi, xi=xi, seed=seed)
            entries = sk.entries
            got = sm.refine_deferred(sk, np.array(true_w)[entries["edge"]])
            base = all_cut_values(n, edges, true_w)
            cuts = all_cut_values(n, entries[["i", "j"]].tolist(), got.tolist())
            dev = float(np.max(np.abs(cuts - base) / base))
            multi_total += 1
            multi_pass += dev <= xi
            subsampled += bool((entries["p_keep"] < 1.0).any())
    multi_rate = multi_pass / multi_total

    ok = (
        promise_rate >= 0.99
        and deferred_rate >= 0.99
        and multi_rate >= 0.99
        and subsampled == multi_total
    )
    _verdict(
        ok,
        "criterion 3: cut sparsifiers stay within 1 +- xi on at least 99% "
        f"of seeds (chi = 1 at its promise {promise_rate:.3f}, deferred adversarial "
        f"{deferred_rate:.3f}, subsampled K4 multigraph {multi_rate:.3f} with "
        f"{subsampled} of {multi_total} seeds subsampling)",
    )


def test_criterion_4_covering_engine_on_random_lps():
    rng = np.random.default_rng(2026)
    solved = 0
    steps, idle, reruns = [], [], []
    for trial in range(10):
        m = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 5))
        a = rng.random((m, dim)) + 0.1
        x_bar = rng.random(dim) + 0.5
        c = a @ x_bar
        budget_sum = 2.0 * float(x_bar.sum())
        rho = float(
            max(budget_sum * a[l].max() / c[l] for l in range(m))
        )
        eps0 = float(rng.choice([0.1, 0.15, 0.2]))

        def oracle(u, a=a, budget_sum=budget_sum):
            gains = a.T @ u
            y = np.zeros(a.shape[1])
            y[int(np.argmax(gains))] = budget_sum
            return y

        def run(x, a=a, c=c, rho=rho, eps0=eps0, oracle=oracle):
            """Step from ``x`` to the target; returns the state and its step budget."""
            state = CoveringState(c=c, rho=rho, eps=eps0, ax=a @ x)
            # Step budget of the phase rule, in the Plotkin-Shmoys-Tardos form
            # C_T rho (eps^-2 + log2(1/lambda_0)) ln(2m/eps), with C_T = 64.
            budget = math.ceil(
                64.0 * rho * (eps0**-2 + math.log2(1.0 / state.lam)) * math.log(2.0 * m / eps0)
            )
            while state.lam < state.target:
                state.retune()
                u, _ = covering_multipliers(state.load, state.log_c, state.alpha)
                floor = math.exp(-state.alpha * rho) * (c.min() / c.max())
                assert u[u > 0.0].min() >= floor * (1.0 - 1e-9), "multiplier below its floor"
                y = oracle(u)
                ay = a @ y
                margin, need = float(u @ ay), (1.0 - eps0 / 2.0) * float(u @ c)
                assert margin >= need * (1.0 - 1e-9) - 1e-12, "oracle margin below target"
                # the step's gain: the answer beats the iterate by a fixed share of the target
                implied = (1.0 + eps0 / 2.0) * float(u @ state.ax) + 0.5 * eps0 * float(u @ c)
                assert (1.0 - eps0 / 2.0) * margin >= implied * (1.0 - 1e-9) - 1e-12
                x = (1.0 - state.sigma) * x + state.sigma * y
                # advance checks the width and the per-step multiplier drift
                state.advance(ay, a @ x)
                assert state.steps <= budget, f"past the step budget {budget}"
            return state, budget

        state, budget = run(x_bar / 2.0)
        steps.append(state.steps)
        if state.lam >= state.target and state.steps <= budget:
            solved += 1
        if state.steps == 0:
            idle.append(f"LP {trial} (eps {eps0}, start {state.lam:.2f} >= {state.target:.2f})")
            # x_bar/8 covers every row at 1/8, and twice that is still
            # below the target 1 - 3 eps = 0.4, so the run changes phase
            state, budget = run(x_bar / 8.0)
            assert state.lam >= state.target and state.phases >= 2, trial
            reruns.append(
                f"LP {trial} from x_bar/8: {state.steps} steps of {budget}, "
                f"{state.phases} phases"
            )
    ok = solved == 10
    _verdict(
        ok,
        "criterion 4: ten random covering LPs certify coverage 1 - 3 eps "
        f"within the step budget with bounded per-step drift ({solved}/10; "
        f"steps {steps}; {10 - len(idle)} take steps, and "
        f"{', '.join(idle) or 'none'} start past the target; "
        f"{'; '.join(reruns) or 'no rerun'})",
    )


def test_criterion_5_self_checked_suite(suite_instances, suite_reports):
    reports, _elapsed = suite_reports
    steps = sum(rep.steps for rep in reports)
    certs = sum(rep.certificates for rep in reports)
    # assert_mode solves verify every dual step and every certificate as
    # they are produced, and raise on the first violation — so the suite
    # having completed is the zero-violation statement.
    suite_ok = len(reports) == 100 and steps > 0

    # The harvest ratchet can keep the budget above certifiable range on
    # the whole suite, leaving the certificate half vacuous; force it at
    # an undersized budget so both answer kinds are exercised.
    from sketchmatch.oracle import (
        PrimalCertificate,
        check_primal_certificate,
        matching_oracle,
    )

    forced = 0
    cert_ok = True
    for g in suite_instances[:5]:
        lv = sm.discretize(g, EPS)
        index = sm.SystemIndex(lv, EPS)
        u = np.ones(len(index.rows))
        zeta = np.ones(len(index.vrows))
        out = matching_oracle(index, u, zeta, 1e-5, 1.0)
        if isinstance(out, PrimalCertificate):
            forced += 1
            passed, report = check_primal_certificate(index, out)
            if not passed or out.objective < (1.0 - EPS) * 1.0 - 1e-9:
                cert_ok = False

    ok = suite_ok and cert_ok and forced >= 5
    _verdict(
        ok,
        "criterion 5: all dual steps and certificates verified in-line "
        f"({steps} steps, {certs} in-suite certificates, {forced} forced "
        "certificates, zero violations)",
    )


def test_criterion_6_initial_solution_sandwich(suite_instances):
    checked = 0
    ok = True
    for g in suite_instances:
        if g.n > 10:
            continue
        lv = sm.discretize(g, EPS)
        index = sm.SystemIndex(lv, EPS)
        it0, beta0, _lam0 = initial_solution(index, 2.0, 0)
        vals = sm.exact_lp_values(g, EPS)
        bip = float(vals.beta_bipartite_discrete)
        lo = bip / (2048.0 * EPS**-2)
        hi = bip / 4.0
        cov = index.cover_values(it0)
        rhs = np.array([lv.level_weight(k) for (_e, _i, _j, k) in index.rows])
        if not (lo - 1e-12 <= beta0 <= hi + 1e-12):
            ok = False
        if not (cov >= (EPS / 256.0) * rhs * (1.0 - 1e-9)).all():
            ok = False
        checked += 1
        if checked >= 10:
            break
    ok = ok and checked >= 10
    _verdict(
        ok,
        "criterion 6: starting budgets sit inside the discrete-bipartite "
        f"sandwich and cover every row at eps/256 ({checked} instances)",
    )


def test_criterion_7_round_and_space_caps(suite_reports):
    reports, _elapsed = suite_reports
    cap = sm.round_cap_for(2.0, EPS)
    ok = True
    for rep in reports:
        d = rep.as_dict()
        if d["rounds"] > cap or d["rounds"] > d["round_cap"]:
            ok = False
        if d["peak_space"] > d["space_cap"]:
            ok = False
        if "rounds" not in d or "peak_space" not in d:
            ok = False
    _verdict(
        ok,
        "criterion 7: every suite run reports rounds and peak space "
        f"within its caps (round cap {cap})",
    )


def test_criterion_8_odd_set_detection_against_exhaustive_scan():
    # Direct selection: membership and exclusion bounds against the
    # fully enumerated small-odd-set family (collect_violated_sets
    # asserts both bounds on every call; we restate them here).
    g = sm.load_graph("0 1 4\n0 2 4\n1 2 4\n3 4 4\n3 5 4\n4 5 4\n")
    eps = 0.5
    lv = sm.discretize(g, eps)
    index = sm.SystemIndex(lv, eps)
    q = np.full(len(index.rows), 0.95)
    q_hat = np.full(6, 2.0)
    selected, values = collect_violated_sets(index, q, q_hat)
    sel_members = [index.odd_sets.members(t) for t in selected]
    ok = sorted(sel_members) == [(0, 1, 2), (3, 4, 5)]
    touched = set().union(*(set(ms) for ms in sel_members)) if sel_members else set()
    for t in range(len(index.odd_sets)):
        bar = int(index.odd_sets.bnorm[t]) // 2 + eps / 2.0
        if t in selected:
            ok = ok and values[t] > bar - 1e-12
        elif not (set(index.odd_sets.members(t)) & touched):
            ok = ok and values[t] <= bar + 1e-12
    _verdict(
        ok,
        "criterion 8: violated-set selection matches the exhaustive "
        "small-odd-set scan",
    )


def test_criterion_9_byte_identical_reports(suite_instances, suite_reports):
    reports, _elapsed = suite_reports
    ok = True
    for idx in (0, 13, 44, 71, 99):
        g = suite_instances[idx]
        again = sm.solve(g, sm.SolverConfig(assert_mode=True))
        first = json.dumps(reports[idx].as_dict(), sort_keys=True)
        second = json.dumps(again.as_dict(), sort_keys=True)
        if first.encode() != second.encode():
            ok = False
    _verdict(
        ok,
        "criterion 9: re-solving produces byte-identical reports on five "
        "spot-checked suite instances",
    )


def test_lp_ratio_invariant(suite_instances, suite_reports):
    """Weight reaches (1 - 7 eps) of the exact odd-set LP value."""
    reports, _elapsed = suite_reports
    floor = 1.0 - 7.0 * EPS
    worst = 2.0
    for g, rep in zip(suite_instances[:20], reports[:20]):
        vals = sm.exact_lp_values(g, EPS)
        star = float(vals.beta_star)
        if star <= 0:
            continue
        worst = min(worst, rep.weight / star)
    ok = worst >= floor - 1e-9
    _verdict(
        ok,
        "solver weight reaches (1 - 7 eps) of the exact relaxation value "
        f"(worst ratio {worst:.4f}, floor {floor:.4f})",
    )


def _matching_digest(reports) -> str:
    """sha256 of every report's matching and level-weight value, in order."""
    rows = [[rep.as_dict()["matching"], rep.rescaled_weight] for rep in reports]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# Matchings of the exact harvest: the leveled optimum of every graph
# below, with ties broken by the weighted blossom.
PINNED_MATCHINGS = {
    "suite": "8734c39fdc1e8c3b616e98329e9def6db1feaf39b1ef5aad5dba9a78318aee10",
    "triangles": "4b306eaec42075fa00e204dc0655e679aeacd3330a80f94fbbe4af314c39ad8d",
    "oddset_wide": "66fa873607dd0b0de85e00052112d49410d8910d975b7407d701e5f734577f06",
    # The six oddset_wide benchmark graphs, oddset_wide_instance(k, 16 + k % 3).
    "oddset_wide_bench": "25b9501ea3f358a95c2ae6630ab518661e25f8b32401430cbc967d282b1de58b",
    "wide_300": "a74546c1ee7052149be10011f254197257637633aed32ac070c927d948bc10e8",
    # Warm and LP-dual starts (tests/test_warm_start.py) that keep their
    # harvest; both starts harvest the same matching.
    "warm_start/k3": "0a9fde5bd7c1a6115fdfc8df3da680d3defaca46f3761e0537bf7228b148c5c5",
    "warm_start/k5": "6c9c1dbff5ee5613c2c532cd20928b74c1063ac21fdd41d2be71e55b7e7f3964",
    "warm_start/two_triangles": "6a629df364833c5780efd7be89048eccb286daf2017f59ac9927095f03b67cf9",
}


@pytest.fixture(scope="module")
def oddset_wide_report():
    return sm.solve(oddset_wide_instance(0, 16), sm.SolverConfig())


@pytest.fixture(scope="module")
def plain_reports(suite_instances):
    return [sm.solve(g, sm.SolverConfig()) for g in suite_instances]


def test_matchings_pinned(suite_reports, plain_reports, oddset_wide_report):
    reports, _elapsed = suite_reports
    triangles = [
        sm.solve(g, sm.SolverConfig())
        for g in (triangle_paper(), sm.load_graph("0 1 5\n1 2 5\n0 2 5\n"))
    ]
    assert _matching_digest(plain_reports) == PINNED_MATCHINGS["suite"]
    assert _matching_digest(reports) == PINNED_MATCHINGS["suite"]
    assert _matching_digest(triangles) == PINNED_MATCHINGS["triangles"]
    assert _matching_digest([oddset_wide_report]) == PINNED_MATCHINGS["oddset_wide"]
    bench = [sm.solve(oddset_wide_instance(k, 16 + k % 3), sm.SolverConfig()) for k in range(6)]
    assert _matching_digest(bench) == PINNED_MATCHINGS["oddset_wide_bench"]
    assert [rep.stop_reason for rep in reports] == [rep.stop_reason for rep in plain_reports]


def test_every_solve_stops_after_one_solve_round(plain_reports, oddset_wide_report):
    # Every harvest is exact and its round stores every retained edge, so
    # the first solve round's harvest is final.
    assert oddset_wide_report.m == 48
    for rep in [*plain_reports, oddset_wide_report]:
        assert rep.stop_reason == "cannot_certify"
        assert rep.harvests == len(rep.lambda_trace) - 1 == 1
        assert rep.rounds == 2 < rep.round_cap


@pytest.mark.parametrize("assert_mode", [False, True], ids=["plain", "assert"])
def test_graph_past_the_enumeration_cap_stops_after_one_solve_round(assert_mode):
    # n = 300 is past the odd-set enumeration cap, but a solve that takes
    # only vertex steps never reads the family, and its b = 1 split graph
    # fits the exact harvest, so the first solve round's harvest is final.
    g = wide_random_instance(300)
    rep = sm.solve(g, sm.SolverConfig(assert_mode=assert_mode))
    opt = networkx_matching_weight(g)
    assert rep.stop_reason == "cannot_certify" and rep.rounds == 2
    assert rep.weight >= (1.0 - 14.0 * EPS) * opt
    assert _matching_digest([rep]) == PINNED_MATCHINGS["wide_300"]
    print(f"\nn = 300: weight {rep.weight:g} / optimum {opt:g} = {rep.weight / opt:.5f}; "
          f"clears 1 - eps: {rep.weight >= (1.0 - EPS) * opt}")


def _level_weight_of(lv: sm.LeveledGraph, matching) -> Fraction:
    level = {(i, j): lv.level_weight(k) for (_e, i, j, k) in lv.retained()}
    return sum((Fraction(level[(i, j)]) * m for (i, j, m) in matching), Fraction(0))


def test_harvest_is_the_leveled_optimum(suite_instances, plain_reports, oddset_wide_report):
    # Brute force on the level weights of the retained edges, compared in
    # exact arithmetic; float sums of two optimal matchings may differ in
    # the last bit.
    cases = [(g, rep, 14) for g, rep in zip(suite_instances, plain_reports)]
    for g in (triangle_paper(), sm.load_graph("0 1 5\n1 2 5\n0 2 5\n")):
        cases.append((g, sm.solve(g, sm.SolverConfig()), 14))
    cases.append((oddset_wide_instance(0, 16), oddset_wide_report, 18))
    for g, rep, max_n in cases:
        lv = sm.discretize(g, EPS)
        leveled = sm.Graph(
            n=g.n,
            edges=tuple((i, j, lv.level_weight(k)) for (_e, i, j, k) in sorted(lv.retained())),
            b=g.b,
        )
        opt, witness = sm.brute_force_bmatching(leveled, max_n=max_n)
        assert _level_weight_of(lv, rep.matching) == _level_weight_of(lv, witness)
        assert rep.rescaled_weight == pytest.approx(opt, rel=1e-12)
