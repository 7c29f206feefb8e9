"""Level-indexed constraint system shared by the solver modules.

The dual system the solver works with has three variable groups: a
per-vertex-per-level price ``x_i(k)``, a per-vertex top price ``x_i``,
and odd-set prices ``z_{U,l}`` indexed by a small odd set and a level.
This module owns the container for such iterates and vectorized
evaluation of the constraint rows.  An iterate keeps its prices in
arrays: ``x_level`` is aligned with the degree rows
``SystemIndex.vrows`` and ``x_top`` has one entry per vertex; the
odd-set prices are three parallel arrays ``z_set``, ``z_level`` and
``z_value``, one entry per priced ``(set, level)`` pair, because a step
prices only a few sets out of a family of up to ``2^n``.  Blending and
row evaluation are whole-array operations.  The family is a
:class:`~sketchmatch.graph.OddSetFamily`, which the index enumerates
when it is first read (an iterate that prices no set never reads it); a
priced set's internal and boundary cover rows are derived from its
membership row when needed.
The rows are:

- cover rows, one per retained edge ``(i, j)`` at level ``k``:
  ``x_i(k) + x_j(k) + sum_{l <= k} sum_{U containing i,j} z_{U,l}``
  with right-hand side ``(1+eps)^k``;
- degree rows, one per ``(i, k)`` with level-``k`` edges at ``i``:
  ``2 x_i(k) + sum_{l <= k} sum_{U containing i} z_{U,l}`` with outer
  bound ``3 (1+eps)^k`` and inner bound ``(24/eps + 24/eps^2) (1+eps)^k``;
- shape rows ``x_i >= x_i(k)`` and nonnegativity.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Mapping

import numpy as np

from .graph import Graph, LeveledGraph, OddSetFamily, enumerate_small_odd_sets

__all__ = [
    "CHECK_TOL",
    "DualIterate",
    "SystemIndex",
    "budget_value",
    "convert_to_matching_dual",
]

# Relative tolerance of every contract checker.
CHECK_TOL = 1e-9

# Float cells of one block of the odd-set family (see SystemIndex.set_blocks).
SET_BLOCK_CELLS = 1 << 20

# The (empty) odd-set prices of every iterate that prices no set.
_NO_SETS = np.zeros(0, dtype=np.int64)
_NO_VALUES = np.zeros(0)


@dataclass
class DualIterate:
    """A point of the level-indexed dual system.

    Attributes
    ----------
    x_level:
        Per-level prices ``x_i(k)``, a float vector aligned with
        ``SystemIndex.vrows``.
    x_top:
        Top prices ``x_i``, a float vector with one entry per vertex.
    z_set, z_level, z_value:
        Odd-set prices ``z_{U,l}``, one entry per priced ``(set, level)``
        pair: the set's row of ``SystemIndex.odd_sets`` (int64), the
        level (int64) and the price (float).  No pair occurs twice, and
        pairs keep the order in which they were first priced, so every
        row sum adds its prices in that order.

    The odd-set arrays default to empty: such an iterate prices no set.
    An iterate carries no budget: the budget an oracle answer was
    computed against is recorded on the answer (``DualStep.beta``).
    """

    x_level: np.ndarray
    x_top: np.ndarray
    z_set: np.ndarray = field(default_factory=lambda: _NO_SETS)
    z_level: np.ndarray = field(default_factory=lambda: _NO_SETS)
    z_value: np.ndarray = field(default_factory=lambda: _NO_VALUES)

    @staticmethod
    def zeros(index: "SystemIndex") -> "DualIterate":
        return DualIterate(np.zeros(len(index.vrows)), np.zeros(index.leveled.base.n))

    def blend(self, other: "DualIterate", sigma: float) -> "DualIterate":
        """Return ``(1 - sigma) * self + sigma * other``.

        A pair priced on both sides keeps its place in ``self``; pairs
        priced only in ``other`` follow, in ``other``'s order.  A price
        is ``keep * a + sigma * b``, ``keep * a`` or ``0.0 + sigma * b``.
        """
        keep = 1.0 - sigma
        z_set, z_level, z_value = self.z_set, self.z_level, self.z_value
        if len(z_value):
            z_value = keep * z_value
        if len(other.z_value):
            sets = np.concatenate((z_set, other.z_set))
            levels = np.concatenate((z_level, other.z_level))
            keys = sets * (int(levels.max()) + 1) + levels
            _keys, first, where = np.unique(keys, return_index=True, return_inverse=True)
            # A pair's slot is the rank of its key's first occurrence,
            # so self's pairs keep slots 0..len(self)-1.
            kept = np.sort(first)
            z_set, z_level = sets[kept], levels[kept]
            z_value = np.concatenate((z_value, np.zeros(len(kept) - len(z_value))))
            slot = np.searchsorted(kept, first[where[len(self.z_value) :]])
            z_value[slot] += sigma * other.z_value
        return DualIterate(
            x_level=keep * self.x_level + sigma * other.x_level,
            x_top=keep * self.x_top + sigma * other.x_top,
            z_set=z_set,
            z_level=z_level,
            z_value=z_value,
        )

    def is_nonnegative(self, tol: float = 0.0) -> bool:
        return all(bool((a >= -tol).all()) for a in (self.x_level, self.x_top, self.z_value))


def budget_value(index: "SystemIndex", it: DualIterate) -> float:
    """Dual budget ``sum_i b_i x_i + sum_{U,l} floor(||U||_b/2) z_{U,l}``."""
    total = math.fsum((index.capacity * it.x_top).tolist())
    if len(it.z_value):
        half = index.odd_sets.bnorm[it.z_set] // 2
        total += math.fsum((half * it.z_value).tolist())
    return total


@dataclass
class SystemIndex:
    """Row layout of the constraint system, built once per solve as arrays.

    Cover rows (tuples ``(edge, i, j, level)`` in ``rows``) follow edge
    order; ``row_vrow`` holds the degree rows of a row's two ends, as a
    view of ``end_vrow`` (every row's first end, then every row's second
    end), so each of its columns is contiguous; ``row_of_edge`` holds the
    cover row of an edge id (``-1``: dropped).  Degree rows (tuples
    ``(vertex, level)`` in ``vrows``) are the row ends' distinct
    ``(vertex, level)`` pairs, sorted by vertex, then level;
    ``vrow_price_limit`` is the width cap ``(24/eps) w_k`` of a degree
    row's x price, times ``1 + CHECK_TOL``.  ``level_weights`` holds
    ``(1+eps)^k`` for ``k = 0..L`` (the leveled graph's table),
    ``capacity`` the floats ``b_i`` and ``level_capacity`` their
    ``n x (L+1)`` products.

    :meth:`level_profiles` works on packed degree rows: every vertex owns
    a row of ``W = 1 + (most degree rows at one vertex)`` slots, slot 0
    always zero and slots ``1..`` its degree rows in level order.
    ``vrow_slot`` is a degree row's flat slot, ``slot_weights`` the
    ``n x W`` level weights of the slots, and ``level_gather`` maps grid
    cell ``(i, l)`` to the flat slot of ``i``'s last degree row at a level
    ``<= l`` (slot 0 if none); ``grid_weights`` holds ``w_l`` in every
    cell ``(i, l)`` (a same-shape product is cheaper than a broadcast
    one at this size), and ``grid_row_offsets`` the flat index of cell
    ``(i, 0)``.  Every evaluator is deterministic given the same iterate.

    The odd-set family (:attr:`odd_sets`) is enumerated on first read
    and cached, so a solve that never reads it, as one that takes only
    vertex steps, never pays for it.  ``enumerate_family`` builds it
    from the leveled graph's base graph and ``epsilon`` (by default
    :func:`~sketchmatch.graph.enumerate_small_odd_sets`).
    """

    leveled: LeveledGraph
    epsilon: float
    enumerate_family: InitVar[Callable[[Graph, float], OddSetFamily]] = (
        enumerate_small_odd_sets
    )
    rows: tuple[tuple[int, int, int, int], ...] = field(init=False)
    row_edge: np.ndarray = field(init=False)
    row_ends: np.ndarray = field(init=False)
    row_levels: np.ndarray = field(init=False)
    row_vrow: np.ndarray = field(init=False)
    end_vrow: np.ndarray = field(init=False)
    cover_rhs: np.ndarray = field(init=False)
    row_of_edge: np.ndarray = field(init=False)
    vrows: tuple[tuple[int, int], ...] = field(init=False)
    vrow_vertex: np.ndarray = field(init=False)
    vrow_level: np.ndarray = field(init=False)
    degree_rhs_outer: np.ndarray = field(init=False)
    degree_rhs_inner: np.ndarray = field(init=False)
    vrow_price_limit: np.ndarray = field(init=False)
    level_weights: np.ndarray = field(init=False)
    capacity: np.ndarray = field(init=False)
    level_capacity: np.ndarray = field(init=False)
    vrow_slot: np.ndarray = field(init=False)
    slot_weights: np.ndarray = field(init=False)
    level_gather: np.ndarray = field(init=False)
    grid_weights: np.ndarray = field(init=False)
    grid_row_offsets: np.ndarray = field(init=False)

    def __post_init__(self, enumerate_family: Callable[[Graph, float], OddSetFamily]) -> None:
        self._enumerate_family = enumerate_family
        lv = self.leveled
        eps = self.epsilon
        n = lv.base.n
        n_levels = lv.L + 1
        self.level_weights = np.array(lv.level_weights)
        self.capacity = np.asarray(lv.base.b, dtype=float)
        self.level_capacity = np.outer(self.capacity, self.level_weights)

        self.rows = tuple(lv.retained())
        rows = np.array(self.rows, dtype=np.int64).reshape(-1, 4)
        self.row_edge = rows[:, 0]
        self.row_ends = rows[:, 1:3]
        self.row_levels = rows[:, 3]
        self.cover_rhs = self.level_weights[self.row_levels]
        self.row_of_edge = np.full(lv.base.m, -1, dtype=np.int64)
        self.row_of_edge[self.row_edge] = np.arange(len(self.rows))

        # A row end's key is vertex * (L+1) + level: the sorted distinct
        # keys are the degree rows, and each end's rank among them is its
        # row.  (np.unique would do the same, but under numpy 2.4 its first
        # call in a process raises the peak RSS by about 0.5 MB.)
        end_keys = (self.row_ends.T * n_levels + self.row_levels).ravel()
        keys = np.array(sorted(set(end_keys.tolist())), dtype=np.int64)
        self.end_vrow = np.searchsorted(keys, end_keys)
        self.row_vrow = self.end_vrow.reshape(2, -1).T
        self.vrow_vertex, self.vrow_level = np.divmod(keys, n_levels)
        self.vrows = tuple(zip(self.vrow_vertex.tolist(), self.vrow_level.tolist()))
        vweights = self.level_weights[self.vrow_level]
        self.degree_rhs_outer = 3.0 * vweights
        self.degree_rhs_inner = (24.0 / eps + 24.0 / eps**2) * vweights
        self.vrow_price_limit = (24.0 / eps) * vweights * (1.0 + CHECK_TOL)

        # Packed degree rows.  Rows of vertices below i have keys below
        # i * (L+1), so the count of keys <= a cell's key, less i's first
        # row, is the slot of i's last row at or below the cell's level.
        counts = np.bincount(self.vrow_vertex, minlength=n)
        width = 1 + int(counts.max(initial=0))
        first = np.cumsum(counts) - counts
        self.vrow_slot = (
            self.vrow_vertex * width + 1 + np.arange(len(self.vrows)) - first[self.vrow_vertex]
        )
        self.slot_weights = np.zeros((n, width))
        self.slot_weights.ravel()[self.vrow_slot] = vweights
        cells = np.cumsum(np.bincount(keys, minlength=n * n_levels))
        self.level_gather = cells.reshape(n, n_levels) + (
            np.arange(n) * width - first
        )[:, None]
        self.grid_weights = np.tile(self.level_weights, (n, 1))
        self.grid_row_offsets = np.arange(0, n * n_levels, n_levels)

    @cached_property
    def odd_sets(self) -> OddSetFamily:
        """The small odd-set family, enumerated on first read."""
        return self._enumerate_family(self.leveled.base, self.epsilon)

    def set_rows(self, member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Internal and boundary cover rows of the set(s) with membership ``member``.

        ``member`` is one membership row or a stack of them.  A row is
        internal to a set when both its ends are members, and on its
        boundary when exactly one is.  `take` gives row-major results
        (fancy indexing on the last axis gives column-major ones); the
        float blocks of :meth:`set_blocks` inherit the layout, and the
        order in which BLAS sums a product depends on it.
        """
        i_in = member.take(self.row_ends[:, 0], axis=-1)
        j_in = member.take(self.row_ends[:, 1], axis=-1)
        return i_in & j_in, i_in ^ j_in

    def set_blocks(self) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """The odd-set family as float matrices, one block of sets at a time.

        Yields each block's slice and its 0/1 member and internal-row
        matrices (:meth:`set_rows`), about ``SET_BLOCK_CELLS`` cells over
        rows, vertices and levels.  Whole groups of 8 sets and no lone set
        per block keep the row groups BLAS kernels see in a whole product.
        """
        n_sets = len(self.odd_sets)
        width = len(self.rows) + len(self.capacity) + len(self.level_weights)
        size = max(8, SET_BLOCK_CELLS // width // 8 * 8)
        bounds = [*range(0, n_sets - (n_sets > 1), size), n_sets]
        for start, stop in zip(bounds, bounds[1:]):
            block = self.odd_sets.member[start:stop]
            internal, _boundary = self.set_rows(block)
            yield slice(start, stop), block.astype(float), internal.astype(float)

    # -- row evaluation -----------------------------------------------------

    def cover_values(self, it: DualIterate) -> np.ndarray:
        """Cover-row left-hand sides for ``it`` (aligned with ``rows``)."""
        rv = self.row_vrow
        out = it.x_level[rv[:, 0]] + it.x_level[rv[:, 1]]
        if len(it.z_value):
            internal, _boundary = self.set_rows(self.odd_sets.member[it.z_set])
            hit = internal & (self.row_levels >= it.z_level[:, None])
            priced, rows = np.nonzero(hit)
            np.add.at(out, rows, it.z_value[priced])
        return out

    def degree_values(self, it: DualIterate) -> np.ndarray:
        """Degree-row left-hand sides for ``it`` (aligned with ``vrows``)."""
        out = 2.0 * it.x_level
        if len(it.z_value):
            hit = self.odd_sets.member[it.z_set][:, self.vrow_vertex] & (
                self.vrow_level >= it.z_level[:, None]
            )
            priced, vrows = np.nonzero(hit)
            np.add.at(out, vrows, it.z_value[priced])
        return out

    def vrow_mass(self, per_row: np.ndarray) -> np.ndarray:
        """Sum a per-cover-row vector onto each row's two degree rows.

        Every degree row adds its first-end rows in row order, then its
        second-end rows in row order.
        """
        return np.bincount(
            self.end_vrow, np.concatenate((per_row, per_row)), len(self.vrows)
        )

    def level_profiles(self, surplus: np.ndarray) -> np.ndarray:
        """Per-vertex level profiles of a nonnegative per-degree-row vector.

        ``delta[i, l]`` is ``sum_k min(w_k, w_l) s_i(k)`` over ``i``'s
        degree rows, the largest mass a price profile capped at level
        ``l`` collects at ``i``: the ``w``-weighted prefix up to ``l``
        plus ``w_l`` times the plain suffix above it.  Both prefix sums
        run along the packed rows.  On a dense ``n x (L+1)`` grid the
        cells without a degree row hold ``+0.0``, and adding ``+0.0``
        changes no sum, so every cell equals the dense ``cumsum``
        formula bit for bit.
        """
        packed = np.zeros(self.slot_weights.shape)
        packed.ravel()[self.vrow_slot] = surplus
        prefix_weighted = np.add.accumulate(packed * self.slot_weights, axis=1)
        prefix_plain = np.add.accumulate(packed, axis=1)
        at = self.level_gather
        return prefix_weighted.take(at) + self.grid_weights * (
            prefix_plain[:, -1:] - prefix_plain
        ).take(at)

    def is_shaped(self, it: DualIterate, atol: float = 0.0, rtol: float = 0.0) -> bool:
        """Whether ``x_i >= x_i(k) - max(atol, rtol |x_i(k)|)`` on every degree row."""
        slack = np.maximum(atol, rtol * np.abs(it.x_level))
        return bool((it.x_top[self.vrow_vertex] >= it.x_level - slack).all())

    def multiplier_vector(self, u: Mapping[int, float]) -> np.ndarray:
        """Dense multiplier vector aligned with cover rows from an edge map.

        No solver path calls it: it stays only because
        ``perfbench/tracing.py`` wraps it by name, and goes with that
        tracer entry.
        """
        out = np.zeros(len(self.rows))
        for e, val in u.items():
            r = int(self.row_of_edge[e]) if 0 <= e < len(self.row_of_edge) else -1
            if r < 0:
                if val != 0.0:
                    raise KeyError(f"multiplier on dropped edge {e}")
                continue
            out[r] = val
        return out

    # -- scalar functionals ---------------------------------------------------

    def coverage_lambda(self, cover_vals: np.ndarray) -> tuple[float, int]:
        """Minimum cover ratio and its first attaining row index."""
        ratios = cover_vals / self.cover_rhs
        arg = int(np.argmin(ratios))
        return float(ratios[arg]), arg

    def cut_mass(
        self, u_vec: np.ndarray, set_idx: int, level: int
    ) -> tuple[float, float, float]:
        """Internal, boundary, and member-degree multiplier mass of a set.

        Only edges at levels ``>= level`` count.  ``internal`` and
        ``boundary`` sum the set's cover rows (:meth:`set_rows`);
        ``degree`` sums the members' degree rows at levels ``>= level``
        (:meth:`vrow_mass`), a route that does not read :meth:`set_rows`.
        Every row with two member ends lands on two member degree rows
        and every row with one on one, so ``2 * internal + boundary``
        equals ``degree`` up to rounding; :meth:`cut_balance_ok` asserts
        it.
        """
        member = self.odd_sets.member[set_idx]
        at_level = self.row_levels >= level
        ins, bnd = self.set_rows(member)
        internal = math.fsum(u_vec[ins & at_level])
        boundary = math.fsum(u_vec[bnd & at_level])
        member_vrows = member[self.vrow_vertex] & (self.vrow_level >= level)
        degree = math.fsum(self.vrow_mass(u_vec)[member_vrows])
        return internal, boundary, degree

    def cut_balance_ok(self, u_vec: np.ndarray, it: DualIterate) -> tuple[bool, float]:
        """Check internal mass >= boundary mass on the z-support of ``it``.

        Returns ``(ok, worst_deficit)`` where deficit is measured
        relative to the member degree mass of the set.  Raises
        ``AssertionError`` when a priced set's cover-row masses disagree
        with its degree-row mass (``2 * internal + boundary != degree``).
        """
        worst = 0.0
        positive = it.z_value > 0.0
        for t, lev in zip(it.z_set[positive].tolist(), it.z_level[positive].tolist()):
            internal, boundary, degree = self.cut_mass(u_vec, t, lev)
            if not math.isclose(2.0 * internal + boundary, degree, rel_tol=1e-9, abs_tol=1e-12):
                raise AssertionError("cut accounting identity violated")
            worst = max(worst, (boundary - internal) / max(degree, 1e-300))
        return worst <= CHECK_TOL, worst

    def lagrangian_value(
        self,
        cover_vals: np.ndarray,
        degree_vals: np.ndarray,
        u_vec: np.ndarray,
        zeta_vec: np.ndarray,
        penalty: float,
    ) -> float:
        """``u . (cover rows) - penalty * zeta . (degree rows)``."""
        return float(u_vec @ cover_vals - penalty * (zeta_vec @ degree_vals))

    def multiplier_cover_target(self, u_vec: np.ndarray) -> float:
        """``u . c`` where ``c`` is the cover right-hand side."""
        return float(u_vec @ self.cover_rhs)

    def zeta_degree_target(self, zeta_vec: np.ndarray) -> float:
        """``zeta . q`` where ``q`` is the outer degree right-hand side."""
        return float(zeta_vec @ self.degree_rhs_outer)


def convert_to_matching_dual(
    index: SystemIndex, it: DualIterate
) -> tuple[dict[int, float], dict[int, float]]:
    """Flatten a layered iterate into a matching dual on ``(x_i, z_U)``.

    With ``eps`` the system parameter, ``x_i = max_l x_i(l) / (1 - 3 eps)``
    and ``z_U = sum_l z_{U,l} / (1 - 3 eps)`` is feasible for the
    odd-set dual on the leveled edges whenever the layered iterate
    covers every edge row to ``(1 - 3 eps)``.  Vertices whose prices
    are all zero are left out of ``x``; ``z`` holds the sets with a
    nonzero price, keyed by member bitmask (a Python int, so any ``n``),
    in first-priced order, each summed in array order.  An iterate with
    no nonzero odd-set price does not read the family.
    """
    denom = 1.0 - 3.0 * index.epsilon
    top = it.x_top.copy()
    np.maximum.at(top, index.vrow_vertex, it.x_level)
    x = {int(i): float(top[i] / denom) for i in np.flatnonzero(top)}
    priced = it.z_value != 0.0
    sets, first, where = np.unique(it.z_set[priced], return_index=True, return_inverse=True)
    totals = np.zeros(len(sets))
    np.add.at(totals, where, it.z_value[priced] / denom)
    if not len(sets):
        return x, {}
    members = index.odd_sets.members
    return x, {
        sum(1 << i for i in members(sets[k])): float(totals[k]) for k in np.argsort(first)
    }
