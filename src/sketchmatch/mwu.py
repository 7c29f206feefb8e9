"""Multiplicative-weights covering engine, its step rule, and the penalty search.

:class:`CoveringState` owns the row values of a covering run ``A x >= c``
and the step rule that moves them: the phase rule that sets the step
size and the width and drift checks on every accepted step.
:func:`solve_covering` and the round-structured loop of
:func:`sketchmatch.driver.solve` both step through it, so the rule
exists once.

:func:`solve_covering` drives an abstract covering feasibility problem
``A x >= c`` over a convex set accessed only through an oracle: given
row multipliers concentrated on the worst-covered rows, the oracle
returns a candidate inside the set whose multiplier-weighted coverage
beats the target, and the engine blends it into the running iterate.
Phases tighten the step size as the worst coverage ratio grows;
termination is at coverage ``1 - 3 eps`` or with the multipliers as an
infeasibility certificate.

:func:`packing_multipliers` prices packing rows ``A x <= d``; the driver
uses it for its degree rows.

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
    "covering_multipliers",
    "covering_step_budget",
    "lagrangian_search",
    "packing_multipliers",
    "solve_covering",
]

C_ALPHA = 4.0
C_T = 64.0
# Relative slack on the per-step drift bound ``eps``.
DRIFT_TOL = 1e-9
# Per-step slack of :meth:`CoveringState.lam_ceiling` for the float
# rounding of the load updates (a few ulps of the coverage per step).
ROUNDING_SLACK = 1e-12
# Penalty-search limits: oracle probes per search, and the tolerance of
# the mixed step's load against its bar.
MAX_PROBES = 64
MIX_TOL = 1e-6


class BudgetExceededError(RuntimeError):
    """The engine ran past its guaranteed step budget."""


class OracleContractError(RuntimeError):
    """An oracle answer violated its width or margin contract."""


def covering_multipliers(
    load: np.ndarray, log_c: np.ndarray, alpha: float, offset: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Row multipliers ``exp(-alpha (A x)_l / c_l) / c_l``, normalized.

    ``load`` is ``A x / c`` and ``log_c`` is ``log(c)``, both held by
    :class:`CoveringState`.  Returns ``(u, log_u)`` where ``log_u`` is
    the raw log-domain value and ``u = exp(log_u - offset)``, the offset
    defaulting to ``max(log_u)`` — the common factor is irrelevant to
    every margin the engine checks, and the raw exponent can be far
    below float range.
    """
    log_u = -alpha * load - log_c
    u = np.exp(log_u - (log_u.max() if offset is None else offset))
    return u, log_u


def packing_multipliers(
    load: np.ndarray, log_d: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """Row multipliers ``exp(+alpha (A x)_r / d_r) / d_r``, normalized.

    ``load`` is ``A x / d`` and ``log_d`` is ``log(d)``.
    """
    log_z = alpha * load - log_d
    z = np.exp(log_z - log_z.max())
    return z, log_z


def covering_step_budget(rho: float, eps: float, m: int, lambda0: float) -> int:
    """Guaranteed accepted-step budget for :func:`solve_covering`."""
    return math.ceil(
        C_T * rho * (eps**-2 + math.log2(1.0 / lambda0)) * math.log(2.0 * m / eps)
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
    """Row values of a covering run and the step rule that moves them.

    Holds the row values ``ax = A x`` of the running iterate, its row
    loads ``load = ax / c``, ``log_c = log(c)`` (both read by
    :func:`covering_multipliers`), the coverage ``lam = min(load)``,
    the coverage ``lam_t`` at the start of the current phase, and the
    multiplier exponent ``alpha`` and step size ``sigma`` set from
    ``lam_t``.  The caller keeps the iterate itself: it blends every
    answer into it with ``sigma``, evaluates the blend's row values
    exactly and hands them to :meth:`advance`, so ``ax`` is always the
    row values of the iterate the caller holds.  ``lam_max`` is the
    running maximum of ``lam`` over the start and every :meth:`advance`.

    **Coverage ceiling.**  Let ``m`` be the number of rows and
    ``kappa = eps^2 (1 + DRIFT_TOL) / (C_ALPHA ln(2m/eps))``.  An
    accepted step passes the drift check
    ``alpha max_l |load'_l - load_l| <= eps (1 + DRIFT_TOL)`` with
    ``alpha = C_ALPHA ln(2m/eps) / (lam_t eps)``, so no row load rises
    by more than ``kappa lam_t``.  ``lam_t`` is a past value of ``lam``,
    so over steps ``s``::

        lam_{s+1} <= lam_s + kappa lam_t <= (1 + kappa) max_{r<=s} lam_r

    whatever the step size, and also while ``lam < lam_t``.  With
    ``ROUNDING_SLACK`` for the float rounding of the check, ``S`` steps
    raise the running maximum by at most a factor
    ``(1 + kappa + ROUNDING_SLACK)^S``: that is :meth:`lam_ceiling`.
    The ceiling does not depend on ``sigma``: no step rule that keeps
    the drift check can beat it.
    """

    c: np.ndarray
    rho: float
    eps: float
    ax: np.ndarray
    load: np.ndarray = field(init=False, repr=False)
    log_c: np.ndarray = field(init=False, repr=False)
    lam: float = field(init=False)
    lam_t: float = field(init=False)
    alpha: float = field(init=False)
    sigma: float = field(init=False)
    width: np.ndarray = field(init=False, repr=False)
    lam_max: float = field(init=False)
    steps: int = 0
    phases: int = 1

    def __post_init__(self) -> None:
        self.load = self.ax / self.c
        self.log_c = np.log(self.c)
        self.lam = float(self.load.min())
        self.lam_t = self.lam
        self.lam_max = self.lam
        # Highest row value an answer may have: ``rho c`` and a rounding slack.
        self.width = self.rho * self.c * (1.0 + 1e-9)
        self._tune()

    @property
    def target(self) -> float:
        """The coverage ``1 - 3 eps`` at which the run is done."""
        return 1.0 - 3.0 * self.eps

    def _tune(self) -> None:
        m = len(self.c)
        self.alpha = C_ALPHA * math.log(2.0 * m / self.eps) / (self.lam_t * self.eps)
        self.sigma = self.eps / (4.0 * self.alpha * self.rho)

    @property
    def kappa(self) -> float:
        """Largest relative coverage gain of one accepted step (see the class)."""
        m = len(self.c)
        return self.eps**2 * (1.0 + DRIFT_TOL) / (C_ALPHA * math.log(2.0 * m / self.eps))

    def lam_ceiling(self, lam_max: float, steps: int) -> float:
        """Highest coverage reachable ``steps`` accepted steps after a running max ``lam_max``."""
        return (1.0 + self.kappa + ROUNDING_SLACK) ** steps * lam_max

    def retune(self) -> None:
        """Start a new phase once the coverage doubled or reached the target."""
        if self.lam >= min(2.0 * self.lam_t, self.target):
            self.lam_t = self.lam
            self.phases += 1
            self._tune()

    def advance(self, ay: np.ndarray, ax: np.ndarray) -> None:
        """Accept a ``sigma`` step: ``ax`` becomes the row values.

        ``ay`` is the answer's row values and ``ax`` the exact row
        values of the iterate blended toward it with ``sigma``.  On a
        raise the state is unchanged.

        Raises
        ------
        OracleContractError
            If ``ay`` leaves ``[0, rho c]``.
        AssertionError
            If the step moves some multiplier by more than ``e^eps``.
        """
        if (ay < -1e-12).any() or (ay > self.width).any():
            raise OracleContractError("oracle answer violates the width bound")
        drift = self.alpha * float(np.abs((ax - self.ax) / self.c).max())
        if drift > self.eps * (1.0 + DRIFT_TOL):
            raise AssertionError(f"multiplier drift {drift} exceeds eps per step")
        self.ax = ax
        self.load = ax / self.c
        self.lam = float(self.load.min())
        self.lam_max = max(self.lam_max, self.lam)
        self.steps += 1


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


def solve_covering(problem: CoveringProblem, eps: float) -> CoveringOutcome:
    """Run the covering engine to coverage ``1 - 3 eps`` or infeasibility.

    Every step blends the oracle's answer into the iterate and evaluates
    the blend with ``matvec``, so the outcome's ``ax`` and ``lam`` are
    those of its ``x`` exactly.

    Raises
    ------
    BudgetExceededError
        If the number of accepted steps passes the guaranteed budget.
    OracleContractError
        If an oracle answer breaks the width or margin contract.
    """
    c = np.asarray(problem.c, dtype=float)
    if not (c > 0).all():
        raise ValueError("covering targets must be positive")
    rho = float(problem.rho)
    x = problem.x0
    ax = np.asarray(problem.matvec(x), dtype=float)
    if not (ax > 0).all():
        raise ValueError("starting point must cover every row positively")
    if (ax > rho * c * (1.0 + 1e-9)).any():
        raise ValueError("starting point exceeds the width bound")
    state = CoveringState(c=c, rho=rho, eps=eps, ax=ax)
    budget = covering_step_budget(rho, eps, len(c), state.lam)

    def outcome(infeasible_u: np.ndarray | None) -> CoveringOutcome:
        return CoveringOutcome(
            feasible=infeasible_u is None,
            x=x,
            ax=state.ax,
            lam=state.lam,
            steps=state.steps,
            phases=state.phases,
            budget=budget,
            infeasible_u=infeasible_u,
        )

    while state.lam < state.target:
        state.retune()
        u, _log_u = covering_multipliers(state.load, state.log_c, state.alpha)
        nz = u[u > 0.0]
        floor = math.exp(-state.alpha * rho) * (c.min() / c.max())
        if nz.size and nz.min() < floor * (1.0 - 1e-9):
            raise AssertionError("multiplier fell below its guaranteed range")
        answer = problem.oracle(u, state)
        if answer is None:
            return outcome(u.copy())
        ay = np.asarray(problem.matvec(answer), dtype=float)
        margin = float(u @ ay)
        need = (1.0 - eps / 2.0) * float(u @ c)
        if margin < need * (1.0 - 1e-9) - 1e-12:
            raise OracleContractError(
                f"oracle margin {margin} below target {need}"
            )
        # The step's gain: the oracle's coverage beats the current
        # iterate's by a fixed fraction of the target.
        implied = (1.0 + eps / 2.0) * float(u @ state.ax) + 0.5 * eps * float(u @ c)
        if not (1.0 - eps / 2.0) * margin >= implied * (1.0 - 1e-9) - 1e-12:
            raise AssertionError("step-gain inequality failed at an accepted step")
        blended = problem.combine(x, answer, state.sigma)
        state.advance(ay, np.asarray(problem.matvec(blended), dtype=float))
        x = blended
        if state.steps > budget:
            raise BudgetExceededError(
                f"covering did not converge within {budget} accepted steps"
            )
    return outcome(None)


# ---------------------------------------------------------------------------
# Lagrangian penalty search
# ---------------------------------------------------------------------------


def lagrangian_search(
    index: SystemIndex,
    oracle: Callable[[np.ndarray, np.ndarray, float, float], DualStep | PrimalCertificate],
    u_sparse: np.ndarray,
    zeta: np.ndarray,
    beta: float,
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
        return DualStep.zeros(index, beta)
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
    hi_pen, hi_step = penalty_hi, DualStep.zeros(index, beta)
    probes = 0
    while hi_pen - lo_pen > eps * penalty_hi / 16.0:
        probes += 1
        if probes > MAX_PROBES:
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
    if not math.isclose(mixed_load, upsilon_bar, rel_tol=MIX_TOL, abs_tol=MIX_TOL):
        raise AssertionError(
            f"mixed step load {mixed_load} misses the bar {upsilon_bar}"
        )
    cover = cover_of(mixed)
    if cover < (1.0 - eps / 8.0) * usc * (1.0 - 1e-9) - 1e-12:
        raise AssertionError(
            f"mixed step covers {cover}, below (1 - eps/8) of {usc}"
        )
    return mixed
