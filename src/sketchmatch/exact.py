"""Exact desk-scale oracles: rational LPs, brute force, and dual checks.

Everything in this module is deliberately independent of the solver
modules: one two-phase simplex over ``fractions.Fraction``
(``solve_lp_min``), a branch-and-bound integral b-matching solver, an
odd-set dual feasibility check and a pure-Python cut enumeration.  The
simplex starts each row on its own slack where the slack can be basic,
so the matching LPs (``<=`` rows, nonnegative right-hand sides) skip
phase 1 and only the layered LP's cover rows get artificials.  The
layered LP also returns its optimal point (``ExactResult.layered_dual``)
as plain Python values.  The test suite freezes expected values computed
here and uses them to judge the streaming solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .graph import Graph, LeveledGraph, OddSet, discretize

__all__ = [
    "ExactResult",
    "LPInfeasibleError",
    "LPUnboundedError",
    "brute_force_bmatching",
    "check_dual_feasible",
    "enumerate_cuts_check",
    "exact_lp_values",
    "solve_lp_min",
]


# Instance-size guards of routines that enumerate: every odd set
# (exact_lp_values), every multiplicity (brute_force_bmatching) and
# every cut (enumerate_cuts_check).
EXACT_LP_MAX_N = 14
BRUTE_FORCE_MAX_B_TOTAL = 24
CUT_CHECK_MAX_N = 16


class LPUnboundedError(RuntimeError):
    """The linear program is unbounded."""


class LPInfeasibleError(RuntimeError):
    """The linear program has no feasible point."""


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


def solve_lp_min(
    c: Sequence[Fraction],
    a_ge: Sequence[Sequence[Fraction]],
    b_ge: Sequence[Fraction],
    a_le: Sequence[Sequence[Fraction]] = (),
    b_le: Sequence[Fraction] = (),
) -> tuple[Fraction, list[Fraction]]:
    """Solve ``min c.x  s.t.  a_ge.x >= b_ge, a_le.x <= b_le, x >= 0``.

    Two-phase simplex with Bland's rule; exact rational arithmetic.
    Each row gets a slack column and is signed so its right-hand side
    is nonnegative (a row with a zero right-hand side so its slack
    reads +1).  A row whose slack reads +1 starts with the slack in the
    basis; only the other rows get an artificial variable, and phase 1
    runs only if some row has one.  So an LP of ``<=`` rows with
    nonnegative right-hand sides starts at once from the slack basis.

    Returns
    -------
    (value, x)

    Raises
    ------
    LPInfeasibleError, LPUnboundedError
    """
    n = len(c)
    # (row, rhs, slack sign): row.x - s = rhs (>=) or row.x + s = rhs (<=).
    signed = [(row, bv, -1) for row, bv in zip(a_ge, b_ge)]
    signed += [(row, bv, +1) for row, bv in zip(a_le, b_le)]
    m = len(signed)
    ncols = n + m  # decision + slack/surplus
    tableau: list[list[Fraction]] = []
    for r, (row, bv, sense) in enumerate(signed):
        eq = [Fraction(v) for v in row] + [Fraction(0)] * m + [Fraction(bv)]
        eq[n + r] = Fraction(sense)
        if bv < 0 or (bv == 0 and sense < 0):
            eq = [-v for v in eq]
        tableau.append(eq)
    # Rows whose slack cannot start basic get an artificial column.
    art = [r for r in range(m) if tableau[r][n + r] < 0]
    total = ncols + len(art)
    basis = [n + r for r in range(m)]
    for t, r in enumerate(art):
        basis[r] = ncols + t
    for r in range(m):
        tableau[r][ncols:ncols] = [Fraction(int(basis[r] == j)) for j in range(ncols, total)]
    if art:
        # Phase 1: minimize the sum of the artificials.  Reduced costs:
        # cost 1 on artificials, eliminated against the starting basis.
        obj = [Fraction(0)] * (total + 1)
        for r in art:
            obj = [o - v for o, v in zip(obj, tableau[r])]
        for j in range(ncols, total):
            obj[j] += Fraction(1)
        tableau.append(obj)
        _simplex_min_core(tableau, basis, total)
        if tableau[-1][-1] < 0:
            # Objective row stores -(phase-1 value); negative means value > 0.
            raise LPInfeasibleError("phase 1 ended with positive artificial sum")
        tableau.pop()
        # Drive any artificial still in the basis out (degenerate rows).
        for r in range(m):
            if basis[r] >= ncols:
                piv_col = next((j for j in range(ncols) if tableau[r][j] != 0), -1)
                if piv_col >= 0:
                    _pivot(tableau, basis, r, piv_col)
    keep = [r for r in range(m) if basis[r] < ncols]
    tableau = [tableau[r][:ncols] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    # Phase 2 objective: reduced costs c_j - c_B . B^-1 A_j against the
    # surviving basis.
    obj2 = [Fraction(v) for v in c] + [Fraction(0)] * m + [Fraction(0)]
    for r, bv in enumerate(basis):
        coeff = obj2[bv]
        if coeff != 0:
            row = tableau[r]
            for j in range(ncols + 1):
                obj2[j] -= coeff * row[j]
    tableau.append(obj2)
    _simplex_min_core(tableau, basis, ncols)
    x = [Fraction(0)] * n
    for r, bv in enumerate(basis):
        if bv < n:
            x[bv] = tableau[r][-1]
    value = sum((Fraction(c[j]) * x[j] for j in range(n)), Fraction(0))
    return value, x


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


def _matching_lp_value(
    n: int,
    b: Sequence[int],
    edges: Sequence[tuple[int, int]],
    weights: Sequence[Fraction],
    odd_sets: Sequence[tuple[int, int]],
) -> tuple[Fraction, list[Fraction]]:
    """Fractional b-matching LP optimum via odd-set row generation.

    ``odd_sets`` supplies ``(mask, bnorm)`` candidates to separate over.
    An empty family gives the bipartite relaxation
    ``max w.y  s.t.  sum_{e at i} y_e <= b_i``, whose value equals
    ``min sum b_i x_i  s.t.  x_i + x_j >= w_e`` by strong duality.
    """
    m = len(edges)
    rows: list[list[Fraction]] = [[Fraction(0)] * m for _ in range(n)]
    for e, (i, j) in enumerate(edges):
        rows[i][e] = Fraction(1)
        rows[j][e] = Fraction(1)
    rhs = [Fraction(bv) for bv in b]
    cost = [-w for w in weights]  # max w.y as min -w.y
    active: set[int] = set()
    for _round in range(4096):
        neg_value, y = solve_lp_min(cost, (), (), rows, rhs)
        worst_mask = -1
        worst_excess = Fraction(0)
        for mask, bn in odd_sets:
            cap = Fraction(bn // 2)
            inside = Fraction(0)
            for e, (i, j) in enumerate(edges):
                if (mask >> i & 1) and (mask >> j & 1):
                    inside += y[e]
            excess = inside - cap
            if excess > worst_excess:
                worst_excess = excess
                worst_mask = mask
        if worst_mask < 0:
            return -neg_value, y
        if worst_mask in active:
            raise AssertionError("odd-set row regenerated; separation loop stuck")
        active.add(worst_mask)
        row = [Fraction(0)] * m
        for e, (i, j) in enumerate(edges):
            if (worst_mask >> i & 1) and (worst_mask >> j & 1):
                row[e] = Fraction(1)
        rows.append(row)
        bn = next(bv for mk, bv in odd_sets if mk == worst_mask)
        rhs.append(Fraction(bn // 2))
    raise AssertionError("odd-set row generation did not converge")


def _layered_lp_value(
    leveled: LeveledGraph,
    eps: Fraction,
    odd_sets: Sequence[tuple[int, int]],
) -> tuple[Fraction, LayeredDual]:
    """Exact optimum of the layered per-level dual relaxation, with an optimal point.

    ``odd_sets`` supplies the ``(mask, bnorm)`` pairs of the small odd
    sets.

    Variables: ``x_i(k)`` for each vertex-level row, top ``x_i``, and
    ``z_{U,l}`` for small odd sets at populated levels.  Constraints:

    - cover: ``x_i(k) + x_j(k) + sum_{l<=k} sum_{U ni i,j} z_{U,l} >= (1+eps)^k``
      for every retained edge at level ``k``;
    - degree: ``2 x_i(k) + sum_{l<=k} sum_{U ni i} z_{U,l} <= 3 (1+eps)^k``
      for every vertex-level row;
    - cap: ``x_i >= x_i(k)``.

    Objective: ``min sum b_i x_i + sum_U floor(||U||_b/2) sum_l z_{U,l}``.
    Layer variables are restricted to populated levels: a layer between
    populated levels enters exactly the same rows as the next populated
    level above it, so the restriction is lossless.

    Returns ``(value, (x_level, x_top, z))``: the optimum and the point
    that attains it, ``x_level`` keyed by ``(i, k)``, ``x_top`` by
    vertex and ``z`` by ``(mask, level)``, every variable included.
    """
    g = leveled.base
    vrows = leveled.vertex_rows()
    pop_levels = sorted(leveled.levels.keys())
    xk_index = {ik: t for t, ik in enumerate(vrows)}
    nxk = len(vrows)
    x_index = {i: nxk + t for t, i in enumerate(range(g.n))}
    nx = nxk + g.n
    z_keys: list[tuple[int, int]] = []  # (odd set idx, level)
    for s_idx in range(len(odd_sets)):
        for lev in pop_levels:
            z_keys.append((s_idx, lev))
    z_index = {key: nx + t for t, key in enumerate(z_keys)}
    nvars = nx + len(z_keys)

    one = Fraction(1)
    lw = {k: (one + eps) ** k for k in pop_levels}

    a_ge: list[list[Fraction]] = []
    b_ge: list[Fraction] = []
    a_le: list[list[Fraction]] = []
    b_le: list[Fraction] = []

    for _idx, i, j, k in leveled.retained():
        row = [Fraction(0)] * nvars
        row[xk_index[(i, k)]] += one
        row[xk_index[(j, k)]] += one
        for s_idx, (mask, _bn) in enumerate(odd_sets):
            if (mask >> i & 1) and (mask >> j & 1):
                for lev in pop_levels:
                    if lev <= k:
                        row[z_index[(s_idx, lev)]] += one
        a_ge.append(row)
        b_ge.append(lw[k])

    for (i, k) in vrows:
        row = [Fraction(0)] * nvars
        row[xk_index[(i, k)]] += Fraction(2)
        for s_idx, (mask, _bn) in enumerate(odd_sets):
            if mask >> i & 1:
                for lev in pop_levels:
                    if lev <= k:
                        row[z_index[(s_idx, lev)]] += one
        a_le.append(row)
        b_le.append(Fraction(3) * lw[k])

    for (i, k) in vrows:
        row = [Fraction(0)] * nvars
        row[x_index[i]] += one
        row[xk_index[(i, k)]] -= one
        a_ge.append(row)
        b_ge.append(Fraction(0))

    c = [Fraction(0)] * nvars
    for i in range(g.n):
        c[x_index[i]] = Fraction(g.b[i])
    for (s_idx, lev) in z_keys:
        c[z_index[(s_idx, lev)]] = Fraction(odd_sets[s_idx][1] // 2)

    value, point = solve_lp_min(c, a_ge, b_ge, a_le, b_le)
    dual = (
        {ik: point[t] for ik, t in xk_index.items()},
        {i: point[t] for i, t in x_index.items()},
        {(odd_sets[s_idx][0], lev): point[t] for (s_idx, lev), t in z_index.items()},
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
    beta_star, _ = _matching_lp_value(g.n, g.b, orig_edges, orig_w, all_odd)
    beta_bip = _matching_lp_value(g.n, g.b, orig_edges, orig_w, [])[0]

    leveled = discretize(g, epsilon)
    ret = list(leveled.retained())
    lev_edges = [(i, j) for (_e, i, j, _k) in ret]
    lev_w = [(Fraction(1) + eps) ** k for (_e, _i, _j, k) in ret]
    beta_hat, _ = _matching_lp_value(g.n, g.b, lev_edges, lev_w, all_odd)
    beta_bip_disc = _matching_lp_value(g.n, g.b, lev_edges, lev_w, [])[0]

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
    z: Mapping[OddSet, float],
    *,
    tol: float = 1e-9,
) -> tuple[bool, float, float]:
    """Check feasibility of ``(x, z)`` for the odd-set dual on leveled edges.

    The constraint per retained edge ``(i, j)`` at level ``k`` is
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
        for u, zv in z.items():
            if (u.mask >> i & 1) and (u.mask >> j & 1):
                have += zv
        worst = max(worst, (need - have) / need)
    objective = sum(leveled.base.b[i] * xv for i, xv in x.items())
    objective += sum(u.half_capacity * zv for u, zv in z.items())
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
