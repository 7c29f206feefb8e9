"""Multiplicative-weights engines and the penalty search."""

from __future__ import annotations

import math

import numpy as np
import pytest

import sketchmatch as sm
from sketchmatch.mwu import (
    C_ALPHA,
    DRIFT_TOL,
    MAX_PROBES,
    ROUNDING_SLACK,
    CoveringProblem,
    CoveringState,
    OracleContractError,
    covering_multipliers,
    covering_step_budget,
    lagrangian_search,
    packing_multipliers,
    solve_covering,
)
from sketchmatch.oracle import (
    DualStep,
    PrimalCertificate,
    check_dual_step,
    check_primal_certificate,
    matching_oracle,
)

from conftest import EPS, random_instance


def _covering(ax, c, alpha, offset=None):
    """``covering_multipliers`` on the load and log target a ``CoveringState`` holds."""
    return covering_multipliers(ax / c, np.log(c), alpha, offset)


class TestCoveringMultipliers:
    def test_uniform_on_unit_ratios(self):
        u, log_u = _covering(np.ones(3), np.ones(3), alpha=2.0)
        assert u == pytest.approx([1.0, 1.0, 1.0])
        assert log_u == pytest.approx([-2.0, -2.0, -2.0])

    def test_doubled_ratio_shrinks_by_exp_alpha(self):
        u, _ = _covering(np.array([1.0, 2.0]), np.ones(2), alpha=math.log(2.0))
        assert u[0] == pytest.approx(1.0)
        assert u[1] == pytest.approx(0.5)

    def test_zero_iterate_weights_inverse_targets(self):
        u, _ = _covering(np.zeros(3), np.array([1.0, 2.0, 4.0]), alpha=3.0)
        assert u == pytest.approx([1.0, 0.5, 0.25])

    def test_given_offset_replaces_the_max(self):
        ax, c = np.array([0.5, 1.0, 3.0]), np.array([1.0, 2.0, 4.0])
        _u, log_u = _covering(ax, c, alpha=1.5)
        u, log_u2 = _covering(ax, c, alpha=1.5, offset=-0.25)
        assert np.array_equal(log_u2, log_u)
        assert np.array_equal(u, np.exp(log_u + 0.25))

    def test_state_holds_load_and_log_targets(self):
        c = np.array([1.0, 2.0, 4.0])
        st = CoveringState(c=c, rho=50.0, eps=0.1, ax=np.array([0.5, 1.0, 3.0]))
        assert np.array_equal(st.load, st.ax / c) and np.array_equal(st.log_c, np.log(c))
        _step(st, np.array([1.0, 1.5, 2.0]))
        assert np.array_equal(st.load, st.ax / c) and st.lam == st.load.min()

    def test_packing_mirror_grows_with_load(self):
        d = np.ones(2)
        z, _ = packing_multipliers(np.array([0.0, 1.0]) / d, np.log(d), alpha=math.log(3.0))
        assert z[1] == pytest.approx(1.0)
        assert z[0] == pytest.approx(1.0 / 3.0)


class TestStepBudgets:
    def test_covering_formula(self):
        got = covering_step_budget(2.0, 0.5, 1, 0.25)
        assert got == math.ceil(64.0 * 2.0 * (4.0 + 2.0) * math.log(2.0 * 1 / 0.5))



def _segment_problem(upper: float, rho: float = 2.0):
    """Scalar covering problem over the segment [0, upper] vs target 1."""

    def oracle(u, state):
        # best point in the set under the current multipliers
        if upper * u[0] >= (1.0 - 0.05) * u[0]:
            return upper
        return None

    return CoveringProblem(
        c=np.ones(1),
        rho=rho,
        x0=0.5,
        matvec=lambda x: np.array([float(x)]),
        combine=lambda x, y, s: (1.0 - s) * x + s * y,
        oracle=oracle,
    )


class TestSolveCovering:
    def test_feasible_segment(self):
        out = solve_covering(_segment_problem(2.0), 0.1)
        assert out.feasible
        assert out.lam >= 1.0 - 3.0 * 0.1
        assert out.steps <= out.budget
        assert 0.0 <= out.x <= 2.0

    def test_infeasible_segment_returns_witness(self):
        out = solve_covering(_segment_problem(0.5), 0.1)
        assert not out.feasible
        u = out.infeasible_u
        assert u is not None
        # no point of [0, 0.5] meets the margin under the witness
        assert 0.5 * u[0] < (1.0 - 0.05) * u[0]

    def test_two_variable_three_row_instance(self):
        # coverage over {x >= 0 : x1 + x2 <= 2}; optimum min-ratio is 1
        c = np.ones(3)
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

        def oracle(u, state):
            gains = a.T @ u  # pick the better extreme point (2,0) / (0,2)
            y = np.zeros(2)
            y[int(np.argmax(gains))] = 2.0
            return y

        problem = CoveringProblem(
            c=c,
            rho=2.0,
            x0=np.array([0.5, 0.5]),
            matvec=lambda x: a @ x,
            combine=lambda x, y, s: (1.0 - s) * x + s * y,
            oracle=oracle,
        )
        eps = 0.1
        out = solve_covering(problem, eps)
        assert out.feasible
        assert out.lam >= 1.0 - 3.0 * eps
        assert out.steps <= out.budget
        assert out.x.sum() <= 2.0 + 1e-9
        assert (out.x >= -1e-12).all()
        assert out.phases >= 1
        # the row values are the returned iterate's, exactly
        assert np.array_equal(a @ out.x, out.ax)

    def test_width_violation_raises(self):
        problem = _segment_problem(2.0)
        problem.oracle = lambda u, state: 5.0  # exceeds rho * c
        with pytest.raises(OracleContractError):
            solve_covering(problem, 0.1)

    def test_margin_violation_raises(self):
        problem = _segment_problem(2.0)
        problem.oracle = lambda u, state: 0.1
        with pytest.raises(OracleContractError):
            solve_covering(problem, 0.1)

    def test_bad_start_rejected(self):
        problem = _segment_problem(2.0)
        problem.x0 = 0.0
        with pytest.raises(ValueError):
            solve_covering(problem, 0.1)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("c", np.zeros(1), "covering targets must be positive"),
            ("x0", 2.5, "starting point exceeds the width bound"),
        ],
    )
    def test_input_checks_raise(self, field, value, match):
        problem = _segment_problem(2.0)
        setattr(problem, field, value)
        with pytest.raises(ValueError, match=match):
            solve_covering(problem, 0.1)


def _state(eps: float = 0.1, rho: float = 4.0) -> CoveringState:
    """Two rows at coverage 0.5 and 1 against unit targets."""
    return CoveringState(c=np.ones(2), rho=rho, eps=eps, ax=np.array([0.5, 1.0]))


def _step(st: CoveringState, ay: np.ndarray) -> np.ndarray:
    """Advance ``st`` a ``sigma`` step toward ``ay``; return the blended row values."""
    ax = (1.0 - st.sigma) * st.ax + st.sigma * ay
    st.advance(ay, ax)
    return ax


class TestCoveringState:
    def test_start_sets_phase_parameters(self):
        st = _state()
        assert st.lam == st.lam_t == 0.5
        assert st.alpha == pytest.approx(4.0 * math.log(2.0 * 2 / 0.1) / (0.5 * 0.1))
        assert st.sigma == pytest.approx(0.1 / (4.0 * st.alpha * 4.0))
        assert (st.steps, st.phases) == (0, 1)

    def test_advance_moves_rows_and_coverage(self):
        st = _state()
        s = st.sigma
        ax = _step(st, np.array([2.0, 0.0]))
        assert st.ax is ax
        assert st.ax == pytest.approx([(1 - s) * 0.5 + s * 2.0, 1.0 - s])
        assert st.lam == pytest.approx(min(st.ax))
        assert st.steps == 1

    @pytest.mark.parametrize("ay", [[4.0 * 1.01, 1.0], [0.5, -1e-6]])
    def test_advance_rejects_width_violation(self, ay):
        st = _state()
        with pytest.raises(OracleContractError, match="width"):
            _step(st, np.array(ay))
        assert st.steps == 0
        assert st.ax.tolist() == [0.5, 1.0]

    def test_advance_rejects_drift_over_eps(self):
        st = _state()
        ay = np.array([4.0, 1.0])
        # alpha * sigma * |ay - ax| is twice eps on the first row
        st.sigma = 2.0 * st.eps / (st.alpha * 3.5)
        with pytest.raises(AssertionError, match="drift"):
            _step(st, ay)
        assert st.steps == 0
        assert st.ax.tolist() == [0.5, 1.0]

    def test_retune_starts_phase_at_doubled_coverage(self):
        # coverage 0.25: the doubled coverage 0.5 lies below the target 0.7
        st = CoveringState(c=np.ones(2), rho=4.0, eps=0.1, ax=np.array([0.25, 1.0]))
        alpha = st.alpha
        st.lam = np.nextafter(0.5, 0.0)
        st.retune()
        assert (st.phases, st.lam_t, st.alpha) == (1, 0.25, alpha)
        st.lam = 0.5
        st.retune()
        assert (st.phases, st.lam_t) == (2, 0.5)
        assert st.alpha == pytest.approx(alpha / 2.0)
        assert st.sigma == pytest.approx(st.eps / (4.0 * st.alpha * st.rho))

    def test_retune_starts_phase_at_target(self):
        st = _state()  # the doubled coverage 1.0 lies above the target 0.7
        st.lam = np.nextafter(st.target, 0.0)
        st.retune()
        assert st.phases == 1
        st.lam = st.target
        st.retune()
        assert (st.phases, st.lam_t) == (2, st.target)

    def test_kappa_formula(self):
        st = _state()
        assert st.kappa == 0.1**2 * (1.0 + DRIFT_TOL) / (C_ALPHA * math.log(2.0 * 2 / 0.1))

    def test_running_max_survives_a_lower_resync(self):
        st = _state()
        _step(st, np.array([2.0, 2.0]))
        top = st.lam
        assert st.lam_max == top > 0.5
        _step(st, np.zeros(2))
        assert st.lam < top == st.lam_max

    def test_drift_limited_steps_stay_under_the_ceiling(self):
        # Every step is the largest the drift check accepts, toward the
        # widest answer.
        st = _state()
        lam0 = st.lam
        ay = st.rho * st.c
        for _ in range(320):
            st.retune()
            st.sigma = st.eps / (st.alpha * float(np.abs((ay - st.ax) / st.c).max()))
            _step(st, ay)
            assert st.lam <= st.lam_max <= st.lam_ceiling(lam0, st.steps)
        # the steps reach most of the ceiling's gain (lam_t stays 0.5,
        # so each step gains kappa * 0.5 against the ceiling's kappa * lam)
        assert st.lam - lam0 > 0.8 * (st.lam_ceiling(lam0, st.steps) - lam0)

    def test_ceiling_compounds_kappa_per_step(self):
        st = _state()
        assert st.lam_ceiling(0.5, 0) == 0.5
        per_step = 1.0 + st.kappa + ROUNDING_SLACK
        assert st.lam_ceiling(0.5, 64) == per_step**64 * 0.5
        assert st.lam_ceiling(0.5, 64) > (1.0 + st.kappa) ** 64 * 0.5


def _triangle_index(eps: float = EPS):
    g = sm.load_graph("0 1 10\n0 2 10\n1 2 10\n")
    return sm.SystemIndex(sm.discretize(g, eps), eps)


class TestLagrangianSearch:
    def test_certificate_passes_through(self):
        index = _triangle_index()
        cert = PrimalCertificate(
            y=np.zeros(len(index.rows)),
            mu=np.zeros(index.level_capacity.shape),
            y_caps=np.zeros(len(index.vrows)),
            objective=0.0,
            beta=1.0,
        )
        calls = []

        def oracle(u, z, pen, beta):
            calls.append(pen)
            return cert

        out = lagrangian_search(
            index,
            oracle,
            np.ones(len(index.rows)),
            np.ones(len(index.vrows)),
            beta=1.0,
        )
        assert out is cert
        assert len(calls) == 1

    def test_light_load_returns_first_step(self):
        index = _triangle_index()
        calls = []

        def oracle(u, z, pen, beta):
            calls.append(pen)
            return DualStep.zeros(index, beta)  # zero load always qualifies

        out = lagrangian_search(
            index,
            oracle,
            np.ones(len(index.rows)),
            np.ones(len(index.vrows)),
            beta=1.0,
        )
        assert isinstance(out, DualStep)
        assert len(calls) == 1
        usc = index.multiplier_cover_target(np.ones(len(index.rows)))
        zq = index.zeta_degree_target(np.ones(len(index.vrows)))
        assert calls[0] == pytest.approx(index.epsilon * usc / (16.0 * zq))

    def test_real_oracle_output_obeys_search_contract(self):
        index = _triangle_index()
        u = np.ones(len(index.rows))
        zeta = np.ones(len(index.vrows))
        beta = 1.0
        out = lagrangian_search(
            index,
            lambda uu, zz, pp, bb: matching_oracle(index, uu, zz, pp, bb),
            u,
            zeta,
            beta,
        )
        usc = index.multiplier_cover_target(u)
        zq = index.zeta_degree_target(zeta)
        if isinstance(out, PrimalCertificate):
            assert out.objective >= (1.0 - index.epsilon) * beta - 1e-9
        else:
            load = float(zeta @ index.degree_values(out.iterate))
            cover = float(u @ index.cover_values(out.iterate))
            bar = (13.0 / 12.0) * zq
            assert load <= bar * (1.0 + 1e-6)
            if out.branch == "mixed":
                assert load == pytest.approx(bar, rel=1e-5)
            assert cover >= (1.0 - index.epsilon / 8.0) * usc * (1.0 - 1e-6) - 1e-9

    def test_zero_cover_target_short_circuits(self):
        index = _triangle_index()

        def oracle(u, z, pen, beta):  # pragma: no cover - must not run
            raise AssertionError("oracle called with no cover mass")

        out = lagrangian_search(
            index,
            oracle,
            np.zeros(len(index.rows)),
            np.ones(len(index.vrows)),
            beta=1.0,
        )
        assert isinstance(out, DualStep)
        assert float(out.iterate.x_top.sum()) == 0.0


class TestPenaltyBracket:
    """Real oracle queries whose first probe overloads the degree rows.

    Cover multipliers ``u ** 4`` and degree multipliers ``zeta ** 16``
    of uniform draws are spread out enough that the first step loads
    the degree rows past the ``13/12 zeta . q`` bar, so the search
    bisects its penalty bracket.
    """

    @staticmethod
    def _query(seed_instance: int, seed: int, beta: float):
        g = random_instance(seed_instance)
        index = sm.SystemIndex(sm.discretize(g, EPS), EPS)
        rng = np.random.default_rng(seed)
        u = rng.random(len(index.rows)) ** 4
        zeta = rng.random(len(index.vrows)) ** 16
        answers = []

        def oracle(uu, zz, pp, bb):
            answers.append(matching_oracle(index, uu, zz, pp, bb))
            return answers[-1]

        out = lagrangian_search(index, oracle, u, zeta, beta)
        first = answers[0]
        assert isinstance(first, DualStep)
        bar = (13.0 / 12.0) * index.zeta_degree_target(zeta)
        assert float(zeta @ index.degree_values(first.iterate)) > bar
        assert 1 < len(answers) <= MAX_PROBES + 1
        return index, u, zeta, out

    @pytest.mark.parametrize("seed_instance, seed", [(1052, 0), (1020, 6)])
    def test_bracket_ends_in_mixed_step(self, seed_instance, seed):
        index, u, zeta, out = self._query(seed_instance, seed, beta=100.0)
        assert isinstance(out, DualStep) and out.branch == "mixed"
        ok, report = check_dual_step(index, u, zeta, out)
        assert ok, report

    def test_certificate_from_inside_the_bracket(self):
        index, _u, _zeta, out = self._query(1007, 16, beta=1000.0)
        assert isinstance(out, PrimalCertificate)
        ok, report = check_primal_certificate(index, out)
        assert ok, report
