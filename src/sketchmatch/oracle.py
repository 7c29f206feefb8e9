"""Matching oracle for the dual-primal solver loop.

Given edge multipliers concentrated on under-covered constraint rows
and degree multipliers with a penalty weight, :func:`matching_oracle`
answers with one of:

- a **vertex step**: per-vertex-per-level prices supported on vertices
  whose positive multiplier surplus is large;
- an **odd-set step**: odd-set prices supported on disjoint families of
  dense small odd sets, one family per level;
- a **primal certificate**: a fractional matching (with per-vertex
  slacks) whose objective is at least ``(1 - eps)`` times the budget,
  proving the budget can be raised.

Both step kinds beat the penalized multiplier target; the certificate
is returned exactly when neither surplus is large enough, which is the
regime where the complementary fractional matching is big.

The module also holds the three contract checkers that assert mode
runs on every answer, each returning ``(ok, report)``:
:func:`check_dual_step` (a step against its full contract),
:func:`check_primal_certificate` (a certificate against the relaxed
matching program) and :func:`verify_switch` (the sketched multipliers
may stand in for the full ones).  It also builds the maximal-matching
starting point, and the exact integral b-matching (a weighted blossom on
the vertex-split graph) that harvests the output, with a greedy matcher
for split graphs past the work cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blossom import max_weight_matching
from .graph import LeveledGraph
from .oddsets import collect_violated_sets
from .sketch import prf_uniform
from .system import CHECK_TOL, DualIterate, SystemIndex, budget_value

__all__ = [
    "BMatching",
    "DualStep",
    "PrimalCertificate",
    "check_dual_step",
    "check_primal_certificate",
    "extract_integral",
    "initial_solution",
    "matching_oracle",
    "maximal_bmatching_rounds",
    "offline_bmatching",
    "verify_switch",
]

# Most blossom work :func:`offline_bmatching` spends on an exact harvest,
# as split vertices times split edges; every simple split graph on at
# most 256 vertices fits (256 * C(256, 2) = 8,355,840).
MAX_SPLIT_WORK = 1 << 23
# Maximal matching rounds: a round samples the live edges at rate
# ``SAMPLE_RATE_MULT * n^(1+1/p) / |live|``; a run that needs more than
# ``ROUNDS_MULT * p`` rounds is retried, at most ``MAX_RETRIES`` times.
SAMPLE_RATE_MULT = 4.0
ROUNDS_MULT = 8
MAX_RETRIES = 3
# Start prices are ``eps / START_RATE_DIVISOR * w_k`` at saturated vertices.
START_RATE_DIVISOR = 256.0


@dataclass
class DualStep:
    """A dual-side oracle answer: an iterate plus its provenance.

    ``beta`` is the budget the answer was computed against; the step's
    budget value must not exceed it (:func:`check_dual_step`).
    """

    iterate: DualIterate
    branch: str  # "zero" | "vertex" | "odd" | "mixed"
    penalty: float
    gamma: float
    beta: float

    @staticmethod
    def zeros(
        index: SystemIndex, beta: float, penalty: float = 0.0, gamma: float = 0.0
    ) -> "DualStep":
        return DualStep(DualIterate.zeros(index), "zero", penalty, gamma, beta)

    def mix(self, other: "DualStep", weight_other: float, beta: float) -> "DualStep":
        """Convex combination ``(1 - w) self + w other`` as a mixed step."""
        it = self.iterate.blend(other.iterate, weight_other)
        return DualStep(it, "mixed", self.penalty, self.gamma, beta)


@dataclass
class PrimalCertificate:
    """A fractional matching certifying the budget is beatable.

    The vectors are aligned with the rows of a :class:`SystemIndex`:
    ``y`` is the fractional multiplicity per cover row, ``mu`` the
    ``n x (L+1)`` per-vertex, per-level slacks (a vertex may have slack
    at a level where it has no degree row), ``y_caps`` the induced level
    cap per degree row.  ``objective`` is the slack-discounted weight
    ``sum_k w_k (sum y - 3 sum mu)``, guaranteed at least
    ``(1 - eps) beta``.
    """

    y: np.ndarray
    mu: np.ndarray
    y_caps: np.ndarray
    objective: float
    beta: float


def _objective(index: SystemIndex, y: np.ndarray, mu: np.ndarray) -> float:
    """``sum_k w_k (sum y - 3 sum mu)``, each sum exact (``math.fsum``)."""
    return math.fsum((index.cover_rhs * y).tolist()) - 3.0 * math.fsum(
        (index.level_weights * mu).ravel().tolist()
    )


def _populated_segments(index: SystemIndex) -> list[tuple[int, int]]:
    """Level ranges ``[lo, p]`` sharing the suffix mask ``k >= p``.

    ``p`` runs over the populated levels (``LeveledGraph.levels``) in
    decreasing order; for every level ``l`` in ``[lo, p]`` the populated
    levels ``>= l`` are exactly those ``>= p``, so per-level quantities
    are constant on the range.
    """
    pop = index.leveled.levels[::-1]
    lows = [p + 1 for p in pop[1:]] + [0]
    return list(zip(lows, pop))


def matching_oracle(
    index: SystemIndex,
    u_sparse: np.ndarray,
    zeta: np.ndarray,
    penalty: float,
    beta: float,
) -> DualStep | PrimalCertificate:
    """Answer a penalized multiplier query with a step or a certificate.

    Every answer asserts the algebraic identities of its own branch: a
    step meets its penalized target, stays within ``beta`` and its
    width caps, and an odd step's row evaluation agrees with the
    target; a certificate's objective reaches ``(1 - eps) beta``.  The
    exhaustive verifiers :func:`check_dual_step` and
    :func:`check_primal_certificate` are the caller's to run (the
    driver runs them in assert mode).

    Parameters
    ----------
    index:
        System index for the leveled graph and odd-set family.
    u_sparse:
        Nonnegative multipliers per cover row.
    zeta:
        Nonnegative multipliers per degree row.
    penalty:
        Positive weight coupling the degree load into the objective.
    beta:
        Current budget; recorded on the answer.
    """
    if penalty <= 0.0:
        raise ValueError("penalty must be positive")
    eps = index.epsilon
    n = index.leveled.base.n
    w_of = index.level_weights
    n_levels = len(w_of)
    usc = index.multiplier_cover_target(u_sparse)
    q_outer = index.degree_rhs_outer
    gamma = usc - penalty * float(zeta @ q_outer)
    if gamma <= 0.0:
        return DualStep.zeros(index, beta, penalty, gamma)

    edge_mass = index.vrow_mass(u_sparse)
    surplus = edge_mass - 2.0 * penalty * zeta
    surplus_pos = np.maximum(surplus, 0.0)
    vv, vl = index.vrow_vertex, index.vrow_level

    # Per-vertex level profiles: delta[i, l] is the largest multiplier
    # mass a price profile capped at level l can collect at vertex i.
    # k* is a vertex's highest qualifying level.  When no level
    # qualifies the reversed argmax lands on level L, and the gather of
    # that cell reads False.
    delta = index.level_profiles(surplus_pos)
    qualifies = delta > (gamma / beta) * index.level_capacity
    k_star = (n_levels - 1) - qualifies[:, ::-1].argmax(axis=1)
    at_k_star = k_star + index.grid_row_offsets
    violated = qualifies.take(at_k_star)
    gamma_v = float(delta.take(at_k_star)[violated].sum())
    priced = (surplus > 0.0) & violated[vv]

    if gamma_v >= eps * gamma / 24.0:
        # A price capped at level k is gamma * w_k / gamma_v.  Unpriced
        # rows and vertices get 0.0; zeros change neither the exact sum
        # of the target check nor the cap check.
        level_price = gamma * w_of / gamma_v
        it = DualIterate(
            np.where(priced, level_price[np.minimum(vl, k_star[vv])], 0.0),
            np.where(violated, level_price[k_star], 0.0),
        )
        lag = math.fsum((it.x_level * surplus).tolist())
        if not math.isclose(lag, gamma, rel_tol=CHECK_TOL):
            raise AssertionError("vertex step does not meet the penalized target")
        if budget_value(index, it) > beta * (1.0 + CHECK_TOL):
            raise AssertionError("vertex step exceeds the budget")
        if (it.x_level > index.level_price_limit[vl]).any():
            raise AssertionError("vertex price exceeds its width cap")
        return DualStep(it, "vertex", penalty, gamma, beta)

    # Raise the degree multipliers on the violated prefix; the target
    # shrinks by at most 3/2 of the (small) vertex surplus.
    zeta_bar = zeta.copy()
    raise_mask = priced & (vl <= k_star[vv])
    zeta_bar[raise_mask] = edge_mass[raise_mask] / (2.0 * penalty)
    gamma_p = usc - penalty * float(zeta_bar @ q_outer)
    if gamma_p < gamma - 1.5 * gamma_v * (1.0 + CHECK_TOL) - 1e-12:
        raise AssertionError("raised multipliers overshoot the surplus accounting")
    if gamma_p < (1.0 - eps / 16.0) * gamma * (1.0 - CHECK_TOL):
        raise AssertionError("raised-multiplier target lost too much mass")

    # Dense odd sets per level, one disjoint family per populated
    # segment (the geometry is constant across a segment).  Every set
    # selected on a segment [lo, p] is paired with each level of the
    # segment: the pairs, with the set's d-value, are what an odd step
    # prices and what a certificate bumps.
    coeff = (1.0 - eps / 4.0) * beta / gamma
    pairs = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
    gamma_o = 0.0
    for lo, p in _populated_segments(index):
        row_mask = index.row_levels >= p
        q_rows = coeff * np.where(row_mask, u_sparse, 0.0)
        vmask = vl >= p
        zeta_suffix = np.zeros(n)
        np.add.at(zeta_suffix, vv[vmask], zeta_bar[vmask])
        q_hat = index.capacity + 2.0 * coeff * penalty * zeta_suffix
        selected, values = collect_violated_sets(index, q_rows, q_hat)
        if selected:
            dvals = values[np.array(selected)] / coeff
            gamma_o += float(dvals.sum() * w_of[lo : p + 1].sum())
            levels = np.arange(lo, p + 1)
            sets = np.repeat(selected, len(levels))
            pairs.append((sets, np.tile(levels, len(selected)), np.repeat(dvals, len(levels))))
    z_set, z_level, z_dval = map(np.concatenate, zip(*pairs))

    if gamma_o >= eps * gamma_p / 24.0:
        it = DualIterate.zeros(index)
        it.z_set, it.z_level, it.z_value = z_set, z_level, gamma_p * w_of[z_level] / gamma_o
        lag_bar = math.fsum((it.z_value * z_dval).tolist())
        if not math.isclose(lag_bar, gamma_p, rel_tol=1e-6):
            raise AssertionError("odd-set step does not meet the raised target")
        if budget_value(index, it) > (1.0 - eps / 4.0) * beta * (1.0 + CHECK_TOL):
            raise AssertionError("odd-set step exceeds the budget")
        if (it.z_value > index.level_price_limit[z_level]).any():
            raise AssertionError("odd-set price exceeds its width cap")
        cov = index.cover_values(it)
        deg = index.degree_values(it)
        lag_full = index.lagrangian_value(cov, deg, u_sparse, zeta_bar, penalty)
        if not math.isclose(lag_full, gamma_p, rel_tol=1e-6):
            raise AssertionError("odd-set step row evaluation disagrees")
        return DualStep(it, "odd", penalty, gamma, beta)

    # Neither surplus is large: the complementary fractional matching
    # is a certificate.
    cert = _certificate(index, u_sparse, zeta_bar, z_set, z_level, gamma, penalty, beta)
    if cert.objective < (1.0 - eps) * beta * (1.0 - CHECK_TOL):
        raise AssertionError(
            f"certificate objective {cert.objective} below (1 - eps) * {beta}"
        )
    return cert


def _certificate(
    index: SystemIndex,
    u_sparse: np.ndarray,
    zeta_bar: np.ndarray,
    z_set: np.ndarray,
    z_level: np.ndarray,
    gamma: float,
    penalty: float,
    beta: float,
) -> PrimalCertificate:
    """The fractional matching complementary to a query no step answers.

    Every member of a selected set has its slack bumped at each level
    paired with the set (``z_set``, ``z_level``), so the set's level
    suffix nets out to zero; no slack is bumped twice, as the sets of one
    segment are disjoint and segments share no level.  ``y``, ``mu`` and
    the level caps are the multipliers times one common scale.
    """
    eps = index.epsilon
    bump_unit = gamma / (2.0 * penalty * beta)
    zeta_hat = np.zeros(index.level_capacity.shape)
    zeta_hat[index.vrow_vertex, index.vrow_level] = zeta_bar
    pair, members = np.nonzero(index.odd_sets.member[z_set])
    zeta_hat[members, z_level[pair]] += bump_unit * index.capacity[members]
    scale = (1.0 - eps / 4.0) * beta / ((1.0 + eps / 2.0) * gamma)
    y = np.where(u_sparse > 0.0, scale * u_sparse, 0.0)
    mu = np.where(zeta_hat > 0.0, scale * penalty * zeta_hat, 0.0)
    caps = index.vrow_mass(scale * u_sparse) - 2.0 * mu[index.vrow_vertex, index.vrow_level]
    y_caps = np.where(caps > 0.0, caps, 0.0)
    return PrimalCertificate(
        y=y, mu=mu, y_caps=y_caps, objective=_objective(index, y, mu), beta=beta
    )


# ---------------------------------------------------------------------------
# Validity checkers
# ---------------------------------------------------------------------------


def check_dual_step(
    index: SystemIndex,
    u_sparse: np.ndarray,
    zeta: np.ndarray,
    step: DualStep,
) -> tuple[bool, dict[str, object]]:
    """Verify a dual step against its full contract.

    Checks, with the *original* degree multipliers throughout:

    - the penalized target: direct steps beat
      ``(1 - eps/16) (u.c - penalty * zeta.q)`` at their own penalty;
      mixed steps cover ``(1 - eps/8) u.c`` while loading the degree
      rows to at most ``13/12`` of their multiplier mass;
    - support balance: internal mass at least boundary mass for every
      priced odd set;
    - the budget ``step.beta`` the step answered, nonnegativity, price
      shape, and width caps;
    - inner degree rows, including the cumulative odd-price caps;
    - disjointness of the priced sets at every level.

    Bounds hold to the relative tolerance ``CHECK_TOL``.
    """
    tol = CHECK_TOL
    eps = index.epsilon
    it = step.iterate
    report: dict[str, object] = {"branch": step.branch}
    cov = index.cover_values(it)
    deg = index.degree_values(it)
    usc = index.multiplier_cover_target(u_sparse)
    zq = index.zeta_degree_target(zeta)
    if step.branch == "mixed":
        cover = float(u_sparse @ cov)
        load = float(zeta @ deg)
        report["cover_margin"] = cover >= (1.0 - eps / 8.0) * usc * (1.0 - tol) - 1e-12
        report["load_bound"] = load <= (13.0 / 12.0) * zq * (1.0 + 1e-6) + 1e-12
    else:
        lag = index.lagrangian_value(cov, deg, u_sparse, zeta, step.penalty)
        target = (1.0 - eps / 16.0) * (usc - step.penalty * zq)
        report["penalized_target"] = lag >= target * (1.0 - tol) - 1e-12
    report["nonnegative"] = it.is_nonnegative(1e-12)
    report["price_shape"] = index.is_shaped(it, atol=1e-12)
    report["budget"] = budget_value(index, it) <= step.beta * (1.0 + tol)
    caps = index.level_price_limit
    report["x_caps"] = bool((it.x_level <= caps[index.vrow_level]).all())
    report["z_caps"] = bool((it.z_value <= caps[it.z_level]).all())
    report["inner_rows"] = bool(
        (deg <= index.degree_rhs_inner * (1.0 + tol) + 1e-12).all()
    )
    # Priced sets are disjoint at every level: no (level, vertex) cell
    # is covered by two positively priced sets.  Only a positive price
    # reads the family, so an iterate without one leaves it unbuilt.
    positive = it.z_value > 0.0
    report["level_disjoint"] = True
    if positive.any():
        pair, members = np.nonzero(index.odd_sets.member[it.z_set[positive]])
        cells = it.z_level[positive][pair] * len(index.capacity) + members
        report["level_disjoint"] = len(np.unique(cells)) == len(cells)
    balance_ok, worst = index.cut_balance_ok(u_sparse, it)
    report["support_balance"] = balance_ok
    report["support_balance_worst"] = worst
    ok = all(v for k, v in report.items() if isinstance(v, bool))
    return ok, report


def check_primal_certificate(
    index: SystemIndex, cert: PrimalCertificate
) -> tuple[bool, dict[str, object]]:
    """Verify a certificate against the relaxed matching program.

    Checks nonnegativity, the per-vertex level rows, the per-vertex
    capacity rows, every odd-set row at every level (exhaustively over
    the small odd-set family), and the stated objective value, each to
    the relative tolerance ``CHECK_TOL``.
    """
    tol = CHECK_TOL
    report: dict[str, object] = {}
    report["nonnegative"] = bool(
        (cert.y >= -1e-12).all()
        and (cert.mu >= -1e-12).all()
        and (cert.y_caps >= -1e-12).all()
    )
    # Level rows: y's mass at each (vertex, level), net of slack, is capped.
    y_mass = index.vrow_mass(cert.y)
    slack = y_mass - 2.0 * cert.mu[index.vrow_vertex, index.vrow_level] - cert.y_caps
    report["level_rows"] = not bool((slack > tol * np.maximum(1.0, y_mass)).any())
    per_vertex = np.bincount(index.vrow_vertex, cert.y_caps, len(index.capacity))
    report["capacity_rows"] = bool(
        (per_vertex <= index.capacity * (1.0 + tol) + 1e-12).all()
    )
    # Odd-set rows, every set at every level, via suffix accumulations
    # per block of sets; each level adds its support rows in row order.
    support = np.flatnonzero(cert.y)
    levels, y_support = index.row_levels[support], cert.y[support]
    rows_ok, worst = True, []
    for sets, member_mat, internal_mat in index.set_blocks():
        y_by_level = np.zeros((len(member_mat), len(index.level_weights)))
        np.add.at(y_by_level, (slice(None), levels), internal_mat[:, support] * y_support)
        inner = y_by_level - member_mat @ cert.mu
        suffix = np.cumsum(inner[:, ::-1], axis=1)[:, ::-1]
        floors = np.floor(index.odd_sets.bnorm[sets] / 2.0)
        rows_ok &= bool((suffix <= floors[:, None] * (1.0 + tol) + 1e-9).all())
        worst.append(np.max(suffix - floors[:, None]))
    report["odd_set_rows"] = rows_ok
    report["odd_set_worst"] = float(np.max(worst, initial=-np.inf))
    objective = _objective(index, cert.y, cert.mu)
    report["objective_stated"] = math.isclose(
        objective, cert.objective, rel_tol=1e-9, abs_tol=1e-12
    )
    report["objective_bound"] = objective >= (1.0 - index.epsilon) * cert.beta * (1.0 - tol)
    ok = all(v for k, v in report.items() if isinstance(v, bool))
    return ok, report


def verify_switch(
    index: SystemIndex,
    u_full: np.ndarray,
    u_sparse: np.ndarray,
    it: DualIterate,
) -> tuple[bool, dict[str, object]]:
    """Check that sparsified multipliers can stand in for the full ones.

    Both multiplier vectors are aligned with the cover rows.

    Hypothesis (on the sparsified multipliers ``u_sparse`` and iterate
    ``x``): the cover product satisfies
    ``u_s . (rows of x) >= (1 - eps/8) u_s . rhs``; every positively
    priced odd set has internal multiplier mass at least its boundary
    mass; and the iterate is shaped (``x_i >= x_i(k)``, nonnegative).

    Conclusion (on the full multipliers): ``u . (rows of x) >= (1 -
    eps/2) u . rhs``.

    The report holds the three hypothesis parts, the conclusion, and
    both products with their targets.  ``ok`` is true when the
    implication holds (hypothesis false, or conclusion true).

    As a side effect, :meth:`SystemIndex.cut_balance_ok` asserts for
    every priced set that its cover-row masses match its members'
    degree-row mass (``2*internal + boundary == degree``).  Bounds hold
    to the relative tolerance ``CHECK_TOL``.
    """
    tol = CHECK_TOL
    eps = index.epsilon
    cover = index.cover_values(it)
    sparse_product = float(u_sparse @ cover)
    sparse_target = index.multiplier_cover_target(u_sparse)
    full_product = float(u_full @ cover)
    full_target = index.multiplier_cover_target(u_full)
    hyp_cover = sparse_product >= (1.0 - eps / 8.0) * sparse_target - tol * max(1.0, abs(sparse_target))
    balance_ok, _worst = index.cut_balance_ok(u_sparse, it)
    shape_ok = it.is_nonnegative(tol) and index.is_shaped(it, atol=tol, rtol=tol)
    conclusion = full_product >= (1.0 - eps / 2.0) * full_target - tol * max(1.0, abs(full_target))
    report: dict[str, object] = {
        "hypothesis_cover": hyp_cover,
        "hypothesis_balance": balance_ok,
        "hypothesis_shape": shape_ok,
        "conclusion": conclusion,
        "sparse_product": sparse_product,
        "sparse_target": sparse_target,
        "full_product": full_product,
        "full_target": full_target,
    }
    return not (hyp_cover and balance_ok and shape_ok) or conclusion, report


# ---------------------------------------------------------------------------
# Integral matchings: exact by weighted blossom on the vertex-split graph,
# greedy above the split-work cap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BMatching:
    """An integral degree-capped multigraph matching.

    ``exact`` is True when ``weight`` is the maximum over every
    b-matching of the edge list the matching was computed from.
    """

    edges: tuple[tuple[int, int, int], ...]  # (i, j, multiplicity)
    weight: float
    exact: bool = False


def _greedy_bmatching(
    edges: Sequence[tuple[int, int, float]], b: Sequence[int]
) -> BMatching:
    order = sorted(range(len(edges)), key=lambda t: (-edges[t][2], edges[t][:2]))
    rem = list(b)
    mult = [0] * len(edges)

    def fill() -> None:
        for t in order:
            i, j, _w = edges[t]
            take = min(rem[i], rem[j])
            if take > 0:
                mult[t] += take
                rem[i] -= take
                rem[j] -= take

    fill()
    # Local search: release one unit, refill greedily, keep improvements.
    for _ in range(1000):
        improved = False
        for t in order:
            if mult[t] == 0:
                continue
            i, j, w = edges[t]
            mult[t] -= 1
            rem[i] += 1
            rem[j] += 1
            gain = -w
            added: list[int] = []
            for s in order:
                if s == t:
                    continue
                si, sj, sw = edges[s]
                take = min(rem[si], rem[sj])
                if take > 0:
                    mult[s] += take
                    rem[si] -= take
                    rem[sj] -= take
                    gain += sw * take
                    added.extend([s] * take)
            if gain > 1e-12:
                improved = True
            else:
                for s in added:
                    si, sj, _sw = edges[s]
                    mult[s] -= 1
                    rem[si] += 1
                    rem[sj] += 1
                mult[t] += 1
                rem[i] -= 1
                rem[j] -= 1
        if not improved:
            break
    out = sorted(
        (edges[t][0], edges[t][1], m) for t, m in enumerate(mult) if m > 0
    )
    weight = math.fsum(edges[t][2] * m for t, m in enumerate(mult))
    return BMatching(edges=tuple(out), weight=weight)


def offline_bmatching(
    edges: Sequence[tuple[int, int, float]], b: Sequence[int]
) -> BMatching:
    """Maximum-weight integral b-matching on an explicit edge list.

    Vertex ``i`` splits into ``min(b_i, sum of its neighbours' b)``
    copies (a vertex never uses more), each edge joins every pair of
    its ends' copies, and an edge's multiplicity is the number of its
    copy pairs in a maximum-weight matching of the split graph.  The
    matching runs on the weights scaled to integers over their common
    power-of-two denominator, so its optimum is exact for the float
    weights.  A split graph whose vertices times edges, counted from
    the copies before it is built, exceed ``MAX_SPLIT_WORK`` gets the
    greedy matcher instead, and ``exact`` is then False.  Exact
    harvests near the cap, timed on a 2-core x86 box:

    ======================  ======  ====================================
    split graph             V * E   exact harvest
    ======================  ======  ====================================
    K_256, b = 1            8.4e6   0.16 s, admitted
    b = 1, m = 3n           3n^2    0.4 s at n = 1,000; admitted to 1,672
    triangle, b = 100       9.0e6   0.8-1.2 s, greedy
    triangle, b = 300       2.4e8   31 s, greedy
    ======================  ======  ====================================
    """
    reach = [0] * len(b)
    for i, j, _w in edges:
        reach[i] += b[j]
        reach[j] += b[i]
    copies = [min(cap, r) for cap, r in zip(b, reach)]
    first = list(itertools.accumulate(copies, initial=0))
    if first[-1] * sum(copies[i] * copies[j] for i, j, _w in edges) > MAX_SPLIT_WORK:
        return _greedy_bmatching(edges, b)
    # Each distinct weight's integer ratio, then its scaled integer.
    ratios = {w: w.as_integer_ratio() for (_i, _j, w) in edges}
    denom = max((d for _num, d in ratios.values()), default=1)
    scaled_of = {w: num * (denom // d) for w, (num, d) in ratios.items()}
    split = [
        (a, c, scaled_of[w])
        for (i, j, w) in edges
        for a in range(first[i], first[i + 1])
        for c in range(first[j], first[j + 1])
    ]
    owner = [t for t, (i, j, _w) in enumerate(edges) for _ in range(copies[i] * copies[j])]
    mult = [0] * len(edges)
    for k in max_weight_matching(first[-1], split):
        mult[owner[k]] += 1
    matched = [t for t, m in enumerate(mult) if m > 0]
    # Summed heaviest edge first (ties by ends) in plain float additions,
    # the order earlier reports used, so their rescaled weights keep
    # their bits (an unmatched edge would add +0.0).
    weight = 0.0
    for t in sorted(matched, key=lambda t: (-edges[t][2], edges[t][:2])):
        weight += edges[t][2] * mult[t]
    out = sorted((edges[t][0], edges[t][1], mult[t]) for t in matched)
    return BMatching(edges=tuple(out), weight=weight, exact=True)


def extract_integral(leveled: LeveledGraph, edge_ids: Sequence[int]) -> BMatching:
    """Integral matching, in level weights, on the retained edges among ``edge_ids``.

    ``edge_ids`` are edge indices of ``leveled.base``; dropped edges are
    skipped.
    """
    level_of, edges, weights = leveled.level_of, leveled.base.edges, leveled.level_weights
    chosen = []
    for e in sorted(set(edge_ids)):
        k = level_of[e]
        if k >= 0:
            i, j, _w = edges[e]
            chosen.append((i, j, weights[k]))
    return offline_bmatching(chosen, leveled.base.b)


# ---------------------------------------------------------------------------
# Starting point
# ---------------------------------------------------------------------------


def maximal_bmatching_rounds(
    n: int,
    edges: Sequence[tuple[int, int, int]],
    b: Sequence[int],
    p: float,
    seed: int,
    *,
    salt: str = "",
) -> tuple[dict[int, int], list[int]]:
    """Build a maximal degree-capped matching by sampling rounds.

    Each round samples the live edges at rate ``SAMPLE_RATE_MULT *
    n^(1+1/p) / |live|`` (capped at 1) and takes each sampled edge with
    saturating multiplicity; edges with a saturated endpoint die.  The
    expected number of rounds is ``O(p)``; a run that exceeds
    ``ROUNDS_MULT * p`` rounds is retried under a fresh sampling salt.
    A round at rate 1 takes every live edge without a draw (a draw lies
    in ``[0, 1)`` and cannot reject), and is the last round, as each
    taken edge saturates an end, so it returns without listing the
    edges still live.  At ``p = 2`` every round of an ``n <= 64`` graph
    has rate 1: ``4 n^1.5 >= n (n - 1) / 2 >= |live|``.  Remaining
    capacities are kept only for the vertices a take touched.

    Returns the multiplicity map and the per-round sample counts (the
    space the rounds consumed).
    """
    cap = math.ceil(ROUNDS_MULT * p)
    budget = SAMPLE_RATE_MULT * n ** (1.0 + 1.0 / p)
    for attempt in range(MAX_RETRIES + 1):
        rem: dict[int, int] = {}
        take: dict[int, int] = {}
        live = edges
        samples: list[int] = []
        for rnd in range(1, cap + 1):
            if not live:
                break
            rate = budget / len(live)
            sampled = live
            if rate < 1.0:
                sampled = [
                    t
                    for t in live
                    if prf_uniform(seed, "maximal", salt, attempt, rnd, t[0]) < rate
                ]
            samples.append(len(sampled))
            for e, i, j in sampled:
                rem_i, rem_j = rem.get(i, b[i]), rem.get(j, b[j])
                m = min(rem_i, rem_j)
                if m > 0:
                    take[e] = take.get(e, 0) + m
                    rem[i], rem[j] = rem_i - m, rem_j - m
            if rate >= 1.0:
                return take, samples
            live = [
                (e, i, j) for (e, i, j) in live if rem.get(i, b[i]) > 0 and rem.get(j, b[j]) > 0
            ]
        if not live:
            return take, samples
    raise RuntimeError("maximal matching did not finish within its round budget")


def initial_solution(
    index: SystemIndex,
    p: float,
    seed: int,
    *,
    ledger=None,
) -> tuple[DualIterate, float, float]:
    """Starting prices from per-level maximal matchings.

    For every populated level a maximal degree-capped matching is built
    over that level's edges (all levels advance in lockstep, so the
    per-round space ledger sees one global round at a time).  Saturated
    vertices get price ``rate * w_k`` at level ``k``, with ``rate =
    eps / START_RATE_DIVISOR``; tops are the per-vertex maxima.  Every
    edge row is then covered to at least ``rate`` of its target, and the
    budget of the start is a bounded fraction of the bipartite relaxation.
    The cover rows are split by level in one pass, and saturation is
    priced for all levels at once from each row's take.  A round at rate
    1 takes every live edge without a draw; at ``p = 2`` every level of
    an ``n <= 64`` graph has one such round, as ``4 n^1.5 >= n (n - 1) / 2``.

    Returns ``(iterate, start_budget, start_coverage)``.
    """
    g = index.leveled.base
    r = index.epsilon / START_RATE_DIVISOR
    by_level: dict[int, list[tuple[int, int, int]]] = {}
    for e, i, j, k in index.rows:
        by_level.setdefault(k, []).append((e, i, j))
    results = [
        maximal_bmatching_rounds(g.n, edges, g.b, p, seed, salt=f"init-{k}")
        for k, edges in by_level.items()
    ]
    if ledger is not None:
        depth = max((len(s) for _t, s in results), default=0)
        for rnd in range(depth):
            ledger.begin_round(f"init-{rnd}")
            ledger.record_space(sum(s[rnd] for _t, s in results if rnd < len(s)))
    # Levels share no edge, so their take maps merge into one.
    taken = {e: m for take, _samples in results for e, m in take.items()}
    row_take = np.zeros(len(index.row_edge), dtype=np.int64)
    row_take[index.row_of_edge[list(taken)]] = list(taken.values())
    used = np.zeros(len(index.vrow_vertex), dtype=np.int64)
    np.add.at(used, index.row_vrow, row_take[:, None])
    it = DualIterate.zeros(index)
    saturated = used == index.capacity[index.vrow_vertex]
    it.x_level[saturated] = r * index.level_weights[index.vrow_level[saturated]]
    np.maximum.at(it.x_top, index.vrow_vertex, it.x_level)
    beta0 = budget_value(index, it)
    cov = index.cover_values(it)
    lambda0, _arg = index.coverage_lambda(cov)
    if lambda0 < r * (1.0 - CHECK_TOL):
        raise AssertionError("starting point fails to cover some row")
    return it, beta0, lambda0
