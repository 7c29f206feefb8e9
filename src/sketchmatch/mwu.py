"""Multiplicative-weights covering engine, its step rule, and the penalty search.

:class:`CoveringState` is the one covering engine.  It owns the row
values of a covering run ``A x >= c`` and the step rule that moves
them: the phase rule that sets the multiplier exponent and the step
size from the coverage at the start of the phase, and the width and
drift checks on every accepted step.  The caller owns the iterate and
the oracle.  Each step it retunes the phase, prices the rows with
:func:`covering_multipliers` (concentrated on the worst-covered rows),
asks its oracle for an answer whose multiplier-weighted coverage beats
the target, blends the answer into its iterate with the state's step
size and hands both row values to :meth:`CoveringState.advance`.  The
run is done at coverage ``1 - 3 eps`` (:attr:`CoveringState.target`).
The round-structured loop of :func:`sketchmatch.driver.solve` is the
caller that ships.

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
from typing import Callable

import numpy as np

from .oracle import DualStep, PrimalCertificate
from .system import SystemIndex

__all__ = [
    "CoveringState",
    "OracleContractError",
    "covering_multipliers",
    "lagrangian_search",
    "packing_multipliers",
]

C_ALPHA = 4.0
# Relative slack on the per-step drift bound ``eps``.
DRIFT_TOL = 1e-9
# Per-step slack of :meth:`CoveringState.lam_ceiling` for the float
# rounding of the load updates (a few ulps of the coverage per step).
ROUNDING_SLACK = 1e-12
# Penalty-search limits: oracle probes per search, and the tolerance of
# the mixed step's load against its bar.
MAX_PROBES = 64
MIX_TOL = 1e-6


class OracleContractError(RuntimeError):
    """An oracle answer left the width bound ``[0, rho c]``."""


def covering_multipliers(
    load: np.ndarray, log_c: np.ndarray, alpha: float, offset: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Row multipliers ``exp(-alpha (A x)_l / c_l) / c_l``, normalized.

    ``load`` is ``A x / c`` and ``log_c`` is ``log(c)``, both held by
    :class:`CoveringState`.  Returns ``(u, log_u)`` where ``log_u`` is
    the raw log-domain value and ``u = exp(log_u - offset)``, the offset
    defaulting to ``max(log_u)`` — every margin a caller checks compares
    two multiplier-weighted sums, so the common factor drops out, and
    the raw exponent can be far below float range.
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

    **Drift budget.**  The solver's rounds cap how far the multipliers
    may drift.  A round of :func:`sketchmatch.driver.solve` promises
    every multiplier within a factor ``gamma = max(n^(1/(2p)), 1 + eps)``
    of its snapshot and runs ``ceil(ln gamma / eps)`` steps, each moving
    a log-multiplier by at most ``eps``: about ``ln gamma`` nats a
    round.  At ``n = 12``, ``p = 2``, ``eps = 1/16`` that is 0.62 nats
    (10 steps), about 158 nats over the 255 rounds the default cap of
    256 leaves after a one-round start.  One doubling of the coverage
    from ``lam_t`` raises a row's load by ``lam_t`` and so moves its
    log-multiplier by ``alpha lam_t = C_ALPHA ln(2m/eps) / eps`` nats:
    about 430 at ``m = 26``, ``eps = 1/16``.  The ceiling is the ratio
    of the two: ``kappa`` is ``eps`` over that cost, so ``S`` steps give
    ``ln(lam_ceiling / lam_max) ~ S kappa``, the drift of ``S`` steps
    over the cost of a doubling.  The 2,550 steps above, at
    ``kappa = 0.000145``, give 0.37 (159 nats over 430): the coverage
    can grow by a factor of at most 1.45 over the whole solve, short of
    one doubling.  Only a smaller ``alpha`` (fewer nats per doubling)
    or a wider band can raise that; a larger ``sigma`` cannot.
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
