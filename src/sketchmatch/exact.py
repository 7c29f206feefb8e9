"""Exact desk-scale oracles: rational LPs, brute force, and dual checks.

Everything in this module is deliberately independent of the solver
modules (it imports only the graph model): one simplex over
``fractions.Fraction``, a branch-and-bound integral b-matching solver,
an odd-set dual feasibility check and a pure-Python cut enumeration.
The test suite freezes expected values computed here and uses them to
judge the streaming solver.

Every LP is one packing form, ``max c.x  s.t.  a.x <= b`` with
``b >= 0`` and ``x >= 0`` (``solve_lp_max``), so the slack basis is a
feasible start and the simplex runs one phase.  Its odd-set rows are
generated lazily by one separation loop: the matching LPs add odd-set
rows, and the layered relaxation is solved on its LP-dual side, adding
its ``z_{U,l}`` rows.  That side is the program a solver
``PrimalCertificate`` is checked against: a fractional matching ``y``
with per-level slacks ``mu`` and caps ``nu`` (its ``y_caps``).  The
optimal row prices are the layered optimum's point, kept as
``ExactResult.layered_dual`` in plain Python values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .graph import Graph, LeveledGraph, discretize

__all__ = [
    "ExactResult",
    "LPUnboundedError",
    "brute_force_bmatching",
    "check_dual_feasible",
    "enumerate_cuts_check",
    "exact_lp_values",
    "solve_lp_max",
]


# Instance-size guards of routines that enumerate: every odd set
# (exact_lp_values), every multiplicity (brute_force_bmatching) and
# every cut (enumerate_cuts_check).
EXACT_LP_MAX_N = 14
BRUTE_FORCE_MAX_B_TOTAL = 24
CUT_CHECK_MAX_N = 16


class LPUnboundedError(RuntimeError):
    """The linear program is unbounded."""


# ---------------------------------------------------------------------------
# Rational simplex
# ---------------------------------------------------------------------------

def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    """Pivot on ``(row, col)`` in place.

    Only the pivot row's nonzero columns change in any row: elsewhere
    an update would subtract an exact zero.
    """
    prow = tableau[row]
    inv = Fraction(1) / prow[col]
    nonzero = [(j, v * inv) for j, v in enumerate(prow) if v != 0]
    for j, v in nonzero:
        prow[j] = v
    for r, vec in enumerate(tableau):
        factor = vec[col]
        if r != row and factor != 0:
            for j, v in nonzero:
                vec[j] -= factor * v
    basis[row] = col


def _simplex_min_core(tableau: list[list[Fraction]], basis: list[int], n_vars: int) -> None:
    """Run Bland-rule simplex to optimality on a minimization tableau.

    ``tableau`` has one row per constraint plus a final objective row of
    reduced costs; the last column is the right-hand side.  Terminates
    (Bland's rule excludes cycling) or raises ``LPUnboundedError``.
    """
    m = len(tableau) - 1
    obj = tableau[-1]
    while True:
        enter = -1
        for j in range(n_vars):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best: Fraction | None = None
        for r in range(m):
            a = tableau[r][enter]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            raise LPUnboundedError("unbounded direction found")
        _pivot(tableau, basis, leave, enter)
        obj = tableau[-1]


def solve_lp_max(
    c: Sequence[Fraction],
    a: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
) -> tuple[Fraction, list[Fraction], list[Fraction]]:
    """Solve ``max c.x  s.t.  a.x <= b, x >= 0`` for ``b >= 0``.

    Bland-rule simplex in exact rational arithmetic, started from the
    slack basis (feasible because ``b >= 0``).

    Returns
    -------
    (value, x, prices)
        ``prices`` are the optimal row prices: the reduced costs of the
        slack columns in the final objective row, an optimal point of
        the dual ``min b.p  s.t.  p.a >= c, p >= 0``.

    Raises
    ------
    ValueError
        If some right-hand side is negative.
    LPUnboundedError
    """
    if any(bv < 0 for bv in b):
        raise ValueError("right-hand sides must be nonnegative")
    n, m = len(c), len(a)
    zeros = [Fraction(0)] * m
    tableau = [[Fraction(v) for v in row] + zeros + [Fraction(bv)] for row, bv in zip(a, b)]
    for r, eq in enumerate(tableau):
        eq[n + r] = Fraction(1)
    # Minimize -c.x; the objective row's last entry reads the max value.
    tableau.append([-Fraction(v) for v in c] + zeros + [Fraction(0)])
    basis = list(range(n, n + m))
    _simplex_min_core(tableau, basis, n + m)
    x = [Fraction(0)] * n
    for r, col in enumerate(basis):
        if col < n:
            x[col] = tableau[r][-1]
    obj = tableau[-1]
    return obj[-1], x, obj[n : n + m]


# ---------------------------------------------------------------------------
# Brute-force integral b-matching
# ---------------------------------------------------------------------------

def brute_force_bmatching(
    g: Graph,
    *,
    max_n: int = 14,
) -> tuple[float, tuple[tuple[int, int, int], ...]]:
    """Exact maximum-weight b-matching by branch and bound.

    A b-matching assigns a nonnegative integer multiplicity to each
    edge so that the multiplicities incident to each vertex ``i`` sum
    to at most ``b_i``; the value is the multiplicity-weighted sum of
    edge weights.

    Parameters
    ----------
    g:
        Input graph.
    max_n:
        Vertex-count guard (override for bigger desk experiments).

    Returns
    -------
    (weight, matching)
        ``matching`` is a tuple of ``(i, j, multiplicity)`` for edges
        with positive multiplicity, in the explored edge order sorted
        by ``(i, j)``.
    """
    if g.n > max_n:
        raise ValueError(f"brute force capped at n <= {max_n}, got {g.n}")
    if g.B > BRUTE_FORCE_MAX_B_TOTAL:
        raise ValueError(f"brute force capped at total capacity <= {BRUTE_FORCE_MAX_B_TOTAL}, got {g.B}")
    order = sorted(range(g.m), key=lambda e: (-g.edges[e][2], g.edges[e][0], g.edges[e][1]))
    edges = [g.edges[e] for e in order]
    m = len(edges)
    rem = list(g.b)
    best_weight = 0.0
    best_choice = [0] * m
    choice = [0] * m

    def bound(idx: int) -> float:
        # The lesser of two upper bounds on what edges idx.. can add: every
        # edge at its cap min(rem_i, rem_j), and half the sum over vertices
        # of rem_i units filled with the heaviest caps at i (each edge
        # counts at both ends; edges come in descending weight order).
        edge_total = 0.0
        vertex_total = 0.0
        left = rem.copy()
        for t in range(idx, m):
            i, j, w = edges[t]
            cap = min(rem[i], rem[j])
            if cap > 0:
                edge_total += w * cap
                take_i = min(left[i], cap)
                take_j = min(left[j], cap)
                left[i] -= take_i
                left[j] -= take_j
                vertex_total += w * (take_i + take_j)
        return min(edge_total, 0.5 * vertex_total)

    def rec(idx: int, acc: float) -> None:
        nonlocal best_weight, best_choice
        if acc > best_weight + 1e-12:
            best_weight = acc
            best_choice = choice.copy()
        if idx >= m:
            return
        if acc + bound(idx) <= best_weight + 1e-12:
            return
        i, j, w = edges[idx]
        cap = min(rem[i], rem[j])
        for mult in range(cap, -1, -1):
            choice[idx] = mult
            rem[i] -= mult
            rem[j] -= mult
            rec(idx + 1, acc + w * mult)
            rem[i] += mult
            rem[j] += mult
            choice[idx] = 0

    rec(0, 0.0)
    picked = [
        (edges[t][0], edges[t][1], best_choice[t])
        for t in range(m)
        if best_choice[t] > 0
    ]
    picked.sort()
    return best_weight, tuple(picked)


# ---------------------------------------------------------------------------
# Exact LP values
# ---------------------------------------------------------------------------

# An optimal layered point: ``x_i(k)`` by ``(i, k)``, ``x_i`` by ``i``,
# ``z_{U,l}`` by ``(mask, l)``.
LayeredDual = tuple[
    dict[tuple[int, int], Fraction], dict[int, Fraction], dict[tuple[int, int], Fraction]
]


@dataclass(frozen=True)
class ExactResult:
    """Exact LP values for one instance.

    Attributes
    ----------
    beta_star:
        Optimum of the fractional matching LP with every odd-set
        constraint, on the original weights (original units).
    beta_bipartite:
        Optimum of ``min sum b_i x_i  s.t.  x_i + x_j >= w_ij`` on the
        original weights (original units).
    beta_hat_discrete:
        Fractional matching LP optimum on the retained leveled edges
        with level weights ``(1+eps)^k`` (rescaled units).
    beta_bipartite_discrete:
        Vertex-cover-style LP optimum on the leveled edges (rescaled
        units).
    beta_hat_layered:
        Optimum of the per-level relaxation with layered odd-set
        variables (rescaled units); ``None`` unless requested.
    scale:
        ``eps * Wstar / B`` — multiply rescaled by this for original.
    layered_dual:
        An optimal point of the layered relaxation, as three dicts:
        ``x_i(k)`` by ``(i, k)``, ``x_i`` by ``i`` and ``z_{U,l}`` by
        ``(mask of U, l)``; ``None`` unless requested.
    """

    beta_star: Fraction
    beta_bipartite: Fraction
    beta_hat_discrete: Fraction
    beta_bipartite_discrete: Fraction
    beta_hat_layered: Fraction | None
    scale: Fraction
    layered_dual: LayeredDual | None


def _all_odd_sets_masks(n: int, b: Sequence[int]) -> list[tuple[int, int]]:
    """All ``(mask, bnorm)`` with odd total capacity (any size)."""
    out = []
    for mask in range(1, 1 << n):
        bn = 0
        mm = mask
        while mm:
            low = mm & (-mm)
            bn += b[low.bit_length() - 1]
            mm ^= low
        if bn % 2 == 1:
            out.append((mask, bn))
    return out


# A family row ``(plus, minus, bound)`` reads
# ``sum_{p in plus} v_p - sum_{q in minus} v_q <= bound``.
FamilyRow = tuple[Sequence[int], Sequence[int], int]


def _row_generation(
    c: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[int],
    family: Sequence[FamilyRow],
) -> tuple[Fraction, list[Fraction]]:
    """Maximize ``c.v`` over ``rows`` and every row of ``family``, adding rows lazily.

    Each round solves the LP over the base rows and the family rows
    added so far, then scans the whole family and adds its most
    violated row (ties go to the first).  The scan runs in integers, on
    ``v`` times its common denominator; a family row becomes a dense
    ``Fraction`` row only when it is added.

    Returns ``(value, prices)``: the optimum and the price of every
    row, base rows first, then one per family row in family order (0
    for a row never generated).
    """
    rows, rhs = list(rows), list(rhs)
    active: list[int] = []
    for _round in range(4096):
        value, v, prices = solve_lp_max(c, rows, rhs)
        den = math.lcm(*(f.denominator for f in v))
        num = [f.numerator * (den // f.denominator) for f in v]
        worst = -1
        worst_excess = 0
        for t, (plus, minus, bound) in enumerate(family):
            excess = sum(map(num.__getitem__, plus)) - bound * den
            # v >= 0, so the minus terms can only lower the excess.
            if excess > worst_excess:
                excess -= sum(map(num.__getitem__, minus))
                if excess > worst_excess:
                    worst_excess = excess
                    worst = t
        if worst < 0:
            base = len(prices) - len(active)
            family_prices = [Fraction(0)] * len(family)
            for t, price in zip(active, prices[base:]):
                family_prices[t] = price
            return value, prices[:base] + family_prices
        if worst in active:
            raise AssertionError("odd-set row regenerated; separation loop stuck")
        active.append(worst)
        plus, minus, bound = family[worst]
        row = [Fraction(0)] * len(c)
        for p in plus:
            row[p] += 1
        for q in minus:
            row[q] -= 1
        rows.append(row)
        rhs.append(bound)
    raise AssertionError("odd-set row generation did not converge")


def _matching_lp_value(
    n: int,
    b: Sequence[int],
    edges: Sequence[tuple[int, int]],
    weights: Sequence[Fraction],
    odd_sets: Sequence[tuple[int, int]],
) -> Fraction:
    """Fractional b-matching LP optimum via odd-set row generation.

    ``max w.y  s.t.  sum_{e at i} y_e <= b_i`` and, for each
    ``(mask, bnorm)`` of ``odd_sets``, ``sum_{e inside U} y_e <= floor(bnorm/2)``.
    An empty family gives the bipartite relaxation, whose value equals
    ``min sum b_i x_i  s.t.  x_i + x_j >= w_e`` by strong duality.
    """
    rows = [[Fraction(0)] * len(edges) for _ in range(n)]
    for e, (i, j) in enumerate(edges):
        rows[i][e] = rows[j][e] = Fraction(1)
    ends = [1 << i | 1 << j for i, j in edges]
    family = [
        ([e for e, em in enumerate(ends) if mask & em == em], (), bn // 2) for mask, bn in odd_sets
    ]
    return _row_generation(weights, rows, b, family)[0]


def _layered_lp_value(
    leveled: LeveledGraph,
    eps: Fraction,
    odd_sets: Sequence[tuple[int, int]],
) -> tuple[Fraction, LayeredDual]:
    """Exact optimum of the layered per-level dual relaxation, with an optimal point.

    ``odd_sets`` supplies the ``(mask, bnorm)`` pairs of the small odd
    sets.  The relaxation (the minimization) has variables ``x_i(k)``
    for each vertex-level row, top ``x_i``, and ``z_{U,l}`` for small
    odd sets at populated levels, and rows

    - cover: ``x_i(k) + x_j(k) + sum_{l<=k} sum_{U ni i,j} z_{U,l} >= (1+eps)^k``
      for every retained edge at level ``k``;
    - degree: ``2 x_i(k) + sum_{l<=k} sum_{U ni i} z_{U,l} <= 3 (1+eps)^k``
      for every vertex-level row;
    - cap: ``x_i >= x_i(k)``;

    objective ``min sum b_i x_i + sum_U floor(||U||_b/2) sum_l z_{U,l}``.
    Layer variables are restricted to populated levels: a layer between
    populated levels enters exactly the same rows as the next populated
    level above it, so the restriction is lossless.

    It is solved on its LP-dual side, a fractional matching ``y`` (one
    per cover row) with level slacks ``mu`` (per degree row) and caps
    ``nu`` (per cap row):
    ``max sum_e (1+eps)^k y_e - 3 sum_{(i,k)} (1+eps)^k mu_i(k)`` s.t.

    - ``x_i(k)``: ``sum_{e at (i,k)} y_e - 2 mu_i(k) - nu_i(k) <= 0``;
    - ``x_i``: ``sum_k nu_i(k) <= b_i``;
    - ``z_{U,l}``: ``sum_{e inside U, k >= l} y_e - sum_{i in U, k >= l} mu_i(k)
      <= floor(||U||_b/2)``, generated lazily.

    The optimal row prices are the point: ``x_i(k)``, ``x_i`` and
    ``z_{U,l}`` are the prices of their rows, 0 for a row never
    generated.

    Returns ``(value, (x_level, x_top, z))``: the optimum and the point
    that attains it, ``x_level`` keyed by ``(i, k)``, ``x_top`` by
    vertex and ``z`` by ``(mask, level)``, every variable included.
    """
    g = leveled.base
    vrows = leveled.vertex_rows()
    vrow_index = {ik: t for t, ik in enumerate(vrows)}
    pop_levels = sorted(leveled.levels.keys())
    retained = [(i, j, k) for _e, i, j, k in leveled.retained()]
    m, nv = len(retained), len(vrows)
    ncols = m + 2 * nv  # y, then mu, then nu
    lw = {k: (1 + eps) ** k for k in pop_levels}

    c = [lw[k] for _i, _j, k in retained] + [-3 * lw[k] for _i, k in vrows] + [Fraction(0)] * nv
    rows = [[Fraction(0)] * ncols for _ in range(nv + g.n)]
    for e, (i, j, k) in enumerate(retained):
        rows[vrow_index[(i, k)]][e] = rows[vrow_index[(j, k)]][e] = Fraction(1)
    for t, (i, _k) in enumerate(vrows):
        rows[t][m + t] = Fraction(-2)
        rows[t][m + nv + t] = Fraction(-1)
        rows[nv + i][m + nv + t] = Fraction(1)
    rhs = [0] * nv + list(g.b)

    family: list[FamilyRow] = []
    for mask, bn in odd_sets:
        inside = [(e, k) for e, (i, j, k) in enumerate(retained) if mask >> i & 1 and mask >> j & 1]
        members = [(m + t, k) for t, (i, k) in enumerate(vrows) if mask >> i & 1]
        for lev in pop_levels:
            plus = [e for e, k in inside if k >= lev]
            minus = [col for col, k in members if k >= lev]
            family.append((plus, minus, bn // 2))

    value, prices = _row_generation(c, rows, rhs, family)
    z_keys = [(mask, lev) for mask, _bn in odd_sets for lev in pop_levels]
    dual = (
        dict(zip(vrows, prices[:nv])),
        dict(zip(range(g.n), prices[nv : nv + g.n])),
        dict(zip(z_keys, prices[nv + g.n :])),
    )
    return value, dual


def exact_lp_values(
    g: Graph,
    epsilon: float,
    *,
    include_layered: bool = False,
) -> ExactResult:
    """Compute exact LP reference values for a desk-scale instance.

    Parameters
    ----------
    g, epsilon:
        Instance and discretization parameter (must be exactly
        representable, e.g. ``1/16``).
    include_layered:
        Also solve the layered per-level relaxation and keep an optimal
        point of it in ``layered_dual`` (much larger LP; keep instances
        tiny).  The full odd-set enumeration caps ``n`` at
        ``EXACT_LP_MAX_N``.

    Returns
    -------
    ExactResult
    """
    if g.n > EXACT_LP_MAX_N:
        raise ValueError(f"exact LP values capped at n <= {EXACT_LP_MAX_N}, got {g.n}")
    eps = Fraction(epsilon)
    all_odd = _all_odd_sets_masks(g.n, g.b)
    orig_edges = [(i, j) for (i, j, _w) in g.edges]
    orig_w = [Fraction(w) for (_i, _j, w) in g.edges]
    beta_star = _matching_lp_value(g.n, g.b, orig_edges, orig_w, all_odd)
    beta_bip = _matching_lp_value(g.n, g.b, orig_edges, orig_w, [])

    leveled = discretize(g, epsilon)
    ret = list(leveled.retained())
    lev_edges = [(i, j) for (_e, i, j, _k) in ret]
    lev_w = [(Fraction(1) + eps) ** k for (_e, _i, _j, k) in ret]
    beta_hat = _matching_lp_value(g.n, g.b, lev_edges, lev_w, all_odd)
    beta_bip_disc = _matching_lp_value(g.n, g.b, lev_edges, lev_w, [])

    layered: Fraction | None = None
    layered_dual: LayeredDual | None = None
    if include_layered:
        odd_small = [(mask, bn) for mask, bn in all_odd if bn <= 4 / eps]
        layered, layered_dual = _layered_lp_value(leveled, eps, odd_small)

    scale = eps * Fraction(leveled.Wstar) / g.B
    return ExactResult(
        beta_star=beta_star,
        beta_bipartite=beta_bip,
        beta_hat_discrete=beta_hat,
        beta_bipartite_discrete=beta_bip_disc,
        beta_hat_layered=layered,
        scale=scale,
        layered_dual=layered_dual,
    )


# ---------------------------------------------------------------------------
# Dual feasibility and cut enumeration
# ---------------------------------------------------------------------------

def check_dual_feasible(
    leveled: LeveledGraph,
    x: Mapping[int, float],
    z: Mapping[int, float],
    *,
    tol: float = 1e-9,
) -> tuple[bool, float, float]:
    """Check feasibility of ``(x, z)`` for the odd-set dual on leveled edges.

    ``z`` is keyed by the member bitmask of ``U`` (a Python int).  The
    constraint per retained edge ``(i, j)`` at level ``k`` is
    ``x_i + x_j + sum_{U containing i and j} z_U >= (1+eps)^k``.

    Returns
    -------
    (ok, worst_relative_violation, objective)
        ``objective`` is ``sum b_i x_i + sum_U floor(||U||_b/2) z_U``.
    """
    worst = 0.0
    for _e, i, j, k in leveled.retained():
        need = leveled.level_weight(k)
        have = x.get(i, 0.0) + x.get(j, 0.0)
        for mask, zv in z.items():
            if (mask >> i & 1) and (mask >> j & 1):
                have += zv
        worst = max(worst, (need - have) / need)
    b = leveled.base.b
    objective = sum(b[i] * xv for i, xv in x.items())
    objective += sum(
        sum(b[i] for i in range(len(b)) if mask >> i & 1) // 2 * zv for mask, zv in z.items()
    )
    return worst <= tol, worst, objective


def enumerate_cuts_check(
    n: int,
    edges_a: Sequence[tuple[int, int, float]],
    edges_b: Sequence[tuple[int, int, float]],
    xi: float,
) -> tuple[bool, float]:
    """Compare every cut of two edge-weight assignments on ``n`` vertices.

    Pure-Python enumeration of all ``2^(n-1) - 1`` nontrivial cuts; used
    to cross-check the vectorized cut evaluator and to certify
    sparsifier outputs at desk scale.

    Returns
    -------
    (ok, worst)
        ``ok`` iff every cut of ``edges_b`` is within ``(1 +- xi)`` of
        the corresponding cut of ``edges_a``; ``worst`` is the largest
        relative deviation ``|cut_b - cut_a| / cut_a`` over cuts with
        ``cut_a > 0`` (and ``inf`` if some cut has ``cut_a = 0`` but
        ``cut_b != 0``).
    """
    if n > CUT_CHECK_MAX_N:
        raise ValueError(f"cut enumeration capped at n <= {CUT_CHECK_MAX_N}, got {n}")
    worst = 0.0
    for side in range(1, 1 << (n - 1)):
        # Vertex n-1 fixed on side 0; `side` picks the subset of 0..n-2.
        cut_a = math.fsum(
            w for (i, j, w) in edges_a if ((side >> i & 1) if i < n - 1 else 0) != ((side >> j & 1) if j < n - 1 else 0)
        )
        cut_b = math.fsum(
            w for (i, j, w) in edges_b if ((side >> i & 1) if i < n - 1 else 0) != ((side >> j & 1) if j < n - 1 else 0)
        )
        if cut_a <= 0.0:
            if abs(cut_b) > 0.0:
                return False, math.inf
            continue
        dev = abs(cut_b - cut_a) / cut_a
        worst = max(worst, dev)
    return worst <= xi * (1.0 + 1e-12), worst
