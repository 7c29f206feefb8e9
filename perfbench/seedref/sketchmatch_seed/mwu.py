"""Multiplicative-weights engines for covering and packing programs.

:func:`solve_covering` drives an abstract covering feasibility problem
``A x >= c`` over a convex set accessed only through an oracle: given
row multipliers concentrated on the worst-covered rows, the oracle
returns a candidate inside the set whose multiplier-weighted coverage
beats the target, and the engine blends it into the running iterate.
Phases tighten the step size as the worst coverage ratio grows;
termination is at coverage ``1 - 3 eps`` or with the multipliers as an
infeasibility certificate.

:func:`solve_packing` is the mirror image for ``A x <= d``.

:func:`lagrangian_search` wraps a two-sided oracle (one that may also
return a primal certificate) in a binary search over a penalty weight,
producing either a certificate or a candidate that simultaneously
covers the multiplier target and meets the penalized row budget with
equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .oracle import DualStep, PrimalCertificate
from .system import SystemIndex

__all__ = [
    "BudgetExceededError",
    "CoveringOutcome",
    "CoveringProblem",
    "CoveringState",
    "OracleContractError",
    "PackingOutcome",
    "PackingProblem",
    "PackingState",
    "covering_multipliers",
    "covering_step_budget",
    "lagrangian_search",
    "packing_multipliers",
    "packing_step_budget",
    "solve_covering",
    "solve_packing",
]

C_ALPHA = 4.0
C_T = 64.0


class BudgetExceededError(RuntimeError):
    """The engine ran past its guaranteed step budget."""


class OracleContractError(RuntimeError):
    """An oracle answer violated its width or margin contract."""


def covering_multipliers(
    ax: np.ndarray, c: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Row multipliers ``exp(-alpha (A x)_l / c_l) / c_l``, normalized.

    Returns ``(u, log_u)`` where ``log_u`` is the raw log-domain value
    and ``u = exp(log_u - max(log_u))`` — the common factor is
    irrelevant to every margin the engine checks, and the raw exponent
    can be far below float range.
    """
    log_u = -alpha * (ax / c) - np.log(c)
    u = np.exp(log_u - log_u.max())
    return u, log_u


def packing_multipliers(
    ax: np.ndarray, d: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Row multipliers ``exp(+alpha (A x)_r / d_r) / d_r``, normalized."""
    log_z = alpha * (ax / d) - np.log(d)
    z = np.exp(log_z - log_z.max())
    return z, log_z


def covering_step_budget(rho: float, eps: float, m: int, lambda0: float) -> int:
    """Guaranteed accepted-step budget for :func:`solve_covering`."""
    return math.ceil(
        C_T * rho * (eps**-2 + math.log2(1.0 / lambda0)) * math.log(2.0 * m / eps)
    )


def packing_step_budget(rho: float, delta: float, m: int, lambda0: float) -> int:
    """Guaranteed accepted-step budget for :func:`solve_packing`."""
    return math.ceil(
        C_T * rho * (delta**-2 + max(math.log2(lambda0), 0.0)) * math.log(2.0 * m)
    )


@dataclass
class CoveringProblem:
    """An abstract covering feasibility problem ``A x >= c`` over a set.

    Attributes
    ----------
    c:
        Positive row targets.
    rho:
        Width bound: every oracle answer ``y`` satisfies
        ``0 <= (A y)_l <= rho * c_l`` (hard-checked).
    x0:
        Starting point inside the set with ``A x0 > 0`` on every row.
    matvec:
        Evaluates ``A x`` for an iterate.
    combine:
        ``(x, y, sigma) -> (1 - sigma) x + sigma y`` inside the set.
    oracle:
        Given normalized multipliers and the engine state, returns a
        candidate with ``u . A y >= (1 - eps/2) u . c``, or ``None`` to
        certify infeasibility.
    """

    c: np.ndarray
    rho: float
    x0: Any
    matvec: Callable[[Any], np.ndarray]
    combine: Callable[[Any, Any, float], Any]
    oracle: Callable[[np.ndarray, "CoveringState"], Any | None]


@dataclass
class CoveringState:
    """Mutable engine state exposed to the oracle on each call."""

    x: Any
    ax: np.ndarray
    lam: float
    lam_t: float
    alpha: float
    sigma: float
    steps: int = 0
    phases: int = 0
    u: np.ndarray = field(default_factory=lambda: np.zeros(0))
    log_u: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass
class CoveringOutcome:
    """Result of :func:`solve_covering`.

    ``feasible`` with the final iterate at coverage ``>= 1 - 3 eps``,
    or infeasible with the multipliers under which no oracle answer
    exists.
    """

    feasible: bool
    x: Any
    ax: np.ndarray
    lam: float
    steps: int
    phases: int
    budget: int
    infeasible_u: np.ndarray | None


def solve_covering(
    problem: CoveringProblem,
    eps: float,
    *,
    max_steps: int | None = None,
    recompute_every: int = 64,
    drift_tol: float = 1e-9,
) -> CoveringOutcome:
    """Run the covering engine to coverage ``1 - 3 eps`` or infeasibility.

    Raises
    ------
    BudgetExceededError
        If the number of accepted steps passes the guaranteed budget
        (or ``max_steps`` when given).
    OracleContractError
        If an oracle answer breaks the width or margin contract.
    """
    c = np.asarray(problem.c, dtype=float)
    if not (c > 0).all():
        raise ValueError("covering targets must be positive")
    m = len(c)
    rho = float(problem.rho)
    x = problem.x0
    ax = np.asarray(problem.matvec(x), dtype=float)
    if not (ax > 0).all():
        raise ValueError("starting point must cover every row positively")
    if (ax > rho * c * (1.0 + 1e-9)).any():
        raise ValueError("starting point exceeds the width bound")
    lam0 = float((ax / c).min())
    lam_t = lam0
    budget = covering_step_budget(rho, eps, m, lam0)
    if max_steps is not None:
        budget = min(budget, max_steps)
    target = 1.0 - 3.0 * eps

    def params(lam_t_val: float) -> tuple[float, float]:
        alpha = C_ALPHA * math.log(2.0 * m / eps) / (lam_t_val * eps)
        sigma = eps / (4.0 * alpha * rho)
        return alpha, sigma

    alpha, sigma = params(lam_t)
    ratios = ax / c
    arg = int(np.argmin(ratios))
    state = CoveringState(
        x=x, ax=ax, lam=float(ratios[arg]), lam_t=lam_t, alpha=alpha, sigma=sigma
    )
    state.phases = 1
    since_recompute = 0
    while state.lam < target:
        # Phase boundary: the coverage ratio doubled (or crossed the
        # finish line); retune the step size to the new scale.
        if state.lam >= min(2.0 * state.lam_t, target):
            state.lam_t = state.lam
            state.alpha, state.sigma = params(state.lam_t)
            state.phases += 1
        state.u, state.log_u = covering_multipliers(state.ax, c, state.alpha)
        nz = state.u[state.u > 0.0]
        floor = math.exp(-state.alpha * rho) * (c.min() / c.max())
        if nz.size and nz.min() < floor * (1.0 - 1e-9):
            raise AssertionError("multiplier fell below its guaranteed range")
        answer = problem.oracle(state.u, state)
        if answer is None:
            return CoveringOutcome(
                feasible=False,
                x=state.x,
                ax=state.ax,
                lam=state.lam,
                steps=state.steps,
                phases=state.phases,
                budget=budget,
                infeasible_u=state.u.copy(),
            )
        ay = np.asarray(problem.matvec(answer), dtype=float)
        if (ay < -1e-12).any() or (ay > rho * c * (1.0 + 1e-9)).any():
            raise OracleContractError("oracle answer violates the width bound")
        margin = float(state.u @ ay)
        need = (1.0 - eps / 2.0) * float(state.u @ c)
        if margin < need * (1.0 - 1e-9) - 1e-12:
            raise OracleContractError(
                f"oracle margin {margin} below target {need}"
            )
        if state.lam < target:
            # The step's gain: the oracle's coverage beats the current
            # iterate's by a fixed fraction of the target.
            implied = (1.0 + eps / 2.0) * float(state.u @ state.ax) + 0.5 * eps * float(
                state.u @ c
            )
            if not (1.0 - eps / 2.0) * margin >= implied * (1.0 - 1e-9) - 1e-12:
                raise AssertionError("step-gain inequality failed at an accepted step")
        new_ax = (1.0 - state.sigma) * state.ax + state.sigma * ay
        drift = state.alpha * float(np.abs((new_ax - state.ax) / c).max())
        if drift > eps * (1.0 + drift_tol):
            raise AssertionError(f"multiplier drift {drift} exceeds eps per step")
        state.x = problem.combine(state.x, answer, state.sigma)
        state.ax = new_ax
        state.steps += 1
        since_recompute += 1
        if since_recompute >= recompute_every:
            exact = np.asarray(problem.matvec(state.x), dtype=float)
            if not np.allclose(exact, state.ax, rtol=1e-6, atol=1e-9):
                raise AssertionError("incremental row values drifted from recompute")
            state.ax = exact
            since_recompute = 0
        ratios = state.ax / c
        state.lam = float(ratios.min())
        if state.steps > budget:
            raise BudgetExceededError(
                f"covering did not converge within {budget} accepted steps"
            )
    return CoveringOutcome(
        feasible=True,
        x=state.x,
        ax=state.ax,
        lam=state.lam,
        steps=state.steps,
        phases=state.phases,
        budget=budget,
        infeasible_u=None,
    )


@dataclass
class PackingProblem:
    """An abstract packing feasibility problem ``A x <= d`` over a set."""

    d: np.ndarray
    rho: float
    x0: Any
    matvec: Callable[[Any], np.ndarray]
    combine: Callable[[Any, Any, float], Any]
    oracle: Callable[[np.ndarray, "PackingState"], Any | None]


@dataclass
class PackingState:
    """Mutable packing-engine state exposed to the oracle."""

    x: Any
    ax: np.ndarray
    lam: float
    lam_t: float
    alpha: float
    sigma: float
    steps: int = 0
    failed_probes: int = 0
    phases: int = 0
    z: np.ndarray = field(default_factory=lambda: np.zeros(0))


@dataclass
class PackingOutcome:
    feasible: bool
    x: Any
    ax: np.ndarray
    lam: float
    steps: int
    phases: int
    budget: int
    infeasible_z: np.ndarray | None


def solve_packing(
    problem: PackingProblem,
    delta: float,
    *,
    max_steps: int | None = None,
    recompute_every: int = 64,
) -> PackingOutcome:
    """Drive the packing ratio down to ``1 + 6 delta`` or certify failure.

    The mirror of :func:`solve_covering`: multipliers concentrate on the
    most violated rows, the oracle must return candidates whose
    multiplier-weighted load is below ``(1 + delta/2)`` times the
    target, and phases halve the violation ratio.  The starting point
    is checked first — if it already packs, no oracle call is made.
    """
    d = np.asarray(problem.d, dtype=float)
    if not (d > 0).all():
        raise ValueError("packing targets must be positive")
    m = len(d)
    rho = float(problem.rho)
    x = problem.x0
    ax = np.asarray(problem.matvec(x), dtype=float)
    lam0 = float((ax / d).max())
    target = 1.0 + 6.0 * delta
    budget = packing_step_budget(rho, delta, m, max(lam0 / 1.0, 1.0))
    if max_steps is not None:
        budget = min(budget, max_steps)
    if lam0 <= target:
        return PackingOutcome(
            feasible=True, x=x, ax=ax, lam=lam0, steps=0, phases=0,
            budget=budget, infeasible_z=None,
        )
    lam_t = lam0

    def params(lam_t_val: float) -> tuple[float, float]:
        alpha = C_ALPHA * math.log(2.0 * m / delta) / (lam_t_val * delta)
        sigma = delta / (4.0 * alpha * rho)
        return alpha, sigma

    alpha, sigma = params(lam_t)
    state = PackingState(x=x, ax=ax, lam=lam0, lam_t=lam_t, alpha=alpha, sigma=sigma)
    state.phases = 1
    since_recompute = 0
    while state.lam > target:
        if state.lam <= max(state.lam_t / 2.0, target):
            state.lam_t = state.lam
            state.alpha, state.sigma = params(state.lam_t)
            state.phases += 1
        state.z, _log_z = packing_multipliers(state.ax, d, state.alpha)
        answer = problem.oracle(state.z, state)
        if answer is None:
            return PackingOutcome(
                feasible=False,
                x=state.x,
                ax=state.ax,
                lam=state.lam,
                steps=state.steps,
                phases=state.phases,
                budget=budget,
                infeasible_z=state.z.copy(),
            )
        ay = np.asarray(problem.matvec(answer), dtype=float)
        if (ay < -1e-12).any() or (ay > rho * d * (1.0 + 1e-9)).any():
            raise OracleContractError("packing answer violates the width bound")
        margin = float(state.z @ ay)
        cap = (1.0 + delta / 2.0) * float(state.z @ d)
        if margin > cap * (1.0 + 1e-9) + 1e-12:
            state.failed_probes += 1
            raise OracleContractError(f"packing margin {margin} above cap {cap}")
        new_ax = (1.0 - state.sigma) * state.ax + state.sigma * ay
        drift = state.alpha * float(np.abs((new_ax - state.ax) / d).max())
        if drift > delta * (1.0 + 1e-9):
            raise AssertionError(f"multiplier drift {drift} exceeds delta per step")
        state.x = problem.combine(state.x, answer, state.sigma)
        state.ax = new_ax
        state.steps += 1
        since_recompute += 1
        if since_recompute >= recompute_every:
            exact = np.asarray(problem.matvec(state.x), dtype=float)
            if not np.allclose(exact, state.ax, rtol=1e-6, atol=1e-9):
                raise AssertionError("incremental row values drifted from recompute")
            state.ax = exact
            since_recompute = 0
        state.lam = float((state.ax / d).max())
        if state.steps > budget:
            raise BudgetExceededError(
                f"packing did not converge within {budget} accepted steps"
            )
    return PackingOutcome(
        feasible=True,
        x=state.x,
        ax=state.ax,
        lam=state.lam,
        steps=state.steps,
        phases=state.phases,
        budget=budget,
        infeasible_z=None,
    )


# ---------------------------------------------------------------------------
# Lagrangian penalty search
# ---------------------------------------------------------------------------


def lagrangian_search(
    index: SystemIndex,
    oracle: Callable[[np.ndarray, np.ndarray, float, float], DualStep | PrimalCertificate],
    u_sparse: np.ndarray,
    zeta: np.ndarray,
    beta: float,
    *,
    tol: float = 1e-6,
    max_probes: int = 64,
) -> DualStep | PrimalCertificate:
    """Binary-search the penalty weight coupling coverage and row load.

    The oracle, called as ``oracle(u_sparse, zeta, penalty, beta)``,
    either returns a :class:`PrimalCertificate` (passed through
    immediately) or a :class:`DualStep` whose penalized value beats
    ``(1 - eps/16)`` of the penalized target at that penalty.  The
    search maintains a bracket: a low penalty whose step overloads the
    degree rows (``zeta . load > (13/12) zeta . bounds``) and a high
    penalty whose step does not, then mixes the two bracket steps so
    the load constraint holds with equality.  The mixed step covers
    ``(1 - eps/8)`` of the multiplier target.

    The trivial high-penalty endpoint is seeded analytically: at
    ``penalty_0 = 12 usc / (13 zeta . bounds)`` the all-zero step
    already meets the penalized target, so no oracle probe is spent on
    it.
    """
    eps = index.epsilon
    usc = index.multiplier_cover_target(u_sparse)
    if usc <= 0.0:
        return DualStep.zeros(beta)
    zq = index.zeta_degree_target(zeta)
    if zq <= 0.0:
        raise ValueError("degree multipliers carry no mass")
    upsilon_bar = (13.0 / 12.0) * zq

    def load_of(step: DualStep) -> float:
        return float(zeta @ index.degree_values(step.iterate))

    def cover_of(step: DualStep) -> float:
        return float(u_sparse @ index.cover_values(step.iterate))

    penalty_init = eps * usc / (16.0 * zq)
    first = oracle(u_sparse, zeta, penalty_init, beta)
    if isinstance(first, PrimalCertificate):
        return first
    if load_of(first) <= upsilon_bar * (1.0 + 1e-12):
        return first

    penalty_hi = 12.0 * usc / (13.0 * zq)
    lo_pen, lo_step = penalty_init, first
    hi_pen, hi_step = penalty_hi, DualStep.zeros(beta)
    probes = 0
    while hi_pen - lo_pen > eps * penalty_hi / 16.0:
        probes += 1
        if probes > max_probes:
            raise AssertionError("penalty search failed to narrow its bracket")
        mid = math.sqrt(lo_pen * hi_pen)
        out = oracle(u_sparse, zeta, mid, beta)
        if isinstance(out, PrimalCertificate):
            return out
        if load_of(out) <= upsilon_bar * (1.0 + 1e-12):
            hi_pen, hi_step = mid, out
        else:
            lo_pen, lo_step = mid, out

    load_lo = load_of(lo_step)
    load_hi = load_of(hi_step)
    if not load_lo > upsilon_bar >= load_hi:
        raise AssertionError("penalty bracket lost its ordering")
    s_hi = (load_lo - upsilon_bar) / (load_lo - load_hi)
    mixed = lo_step.mix(hi_step, s_hi, beta)
    mixed_load = load_of(mixed)
    if not math.isclose(mixed_load, upsilon_bar, rel_tol=tol, abs_tol=tol):
        raise AssertionError(
            f"mixed step load {mixed_load} misses the bar {upsilon_bar}"
        )
    cover = cover_of(mixed)
    if cover < (1.0 - eps / 8.0) * usc * (1.0 - 1e-9) - 1e-12:
        raise AssertionError(
            f"mixed step covers {cover}, below (1 - eps/8) of {usc}"
        )
    return mixed
