"""Dense odd-set separation: auxiliary flow graph and Gomory-Hu trees.

Given per-edge masses ``q_ij`` and per-vertex allowances ``q_hat_i``
(produced by the matching oracle at some level), an odd set ``U`` is
*dense* when its internal mass ``sum_{ij in U} q_ij`` exceeds roughly
half its allowance ``sum_{i in U} q_hat_i``.  Dense odd sets are
exactly the odd-set constraints the oracle must price.

Two routes are provided:

- :func:`collect_violated_sets` enumerates the small odd-set family
  directly (desk scale) and selects a disjoint group of violators with
  a provable margin: selected sets satisfy the membership bound with
  ``eps/2`` to spare, and sets untouched by the selection satisfy the
  exclusion bound.
- :func:`find_dense_odd_sets` goes through the flow reduction: an
  auxiliary graph with integerized capacities whose small cuts
  correspond to dense odd sets, a Gomory-Hu cut tree of it, and a scan
  of tree edges.  This is the route that survives sketching; at desk
  scale the two routes are cross-checked against each other.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import OddSetFamily
from .system import SystemIndex

__all__ = [
    "AuxiliaryGraph",
    "GomoryHuTree",
    "build_auxiliary",
    "collect_violated_sets",
    "find_dense_odd_sets",
    "gomory_hu",
    "max_flow",
]

_SNAP = 1e-9


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Integer-capacity flow graph encoding the dense-odd-set test.

    Vertices ``0 .. n-1`` are the graph vertices; vertex ``n`` is the
    apex ``s``.  With ``K = 8 / eps^3``: every edge ``(i, j)`` gets
    capacity ``floor(q_ij * K)`` and every vertex an apex edge of
    capacity ``ceil(q_hat_i * K) - sum_j floor(q_ij * K)`` (its
    integerized allowance deficiency).  ``kappa = floor(K)`` is the cut
    threshold below which the non-apex side of a cut is dense.
    """

    n: int
    cap: np.ndarray
    kappa: int

    @property
    def apex(self) -> int:
        return self.n


def build_auxiliary(
    n: int,
    edges: Sequence[tuple[int, int]],
    q: Sequence[float],
    q_hat: Sequence[float],
    eps: float,
) -> AuxiliaryGraph:
    """Build the integer-capacity auxiliary graph for one level.

    Requires ``sum_j q_ij <= q_hat_i`` (so apex capacities are
    nonnegative); raises ``ValueError`` otherwise.  Values within
    ``1e-9`` of an integer are snapped before rounding so exact
    rational inputs integerize exactly.
    """
    scale = 8.0 / eps**3
    cap = np.zeros((n + 1, n + 1), dtype=np.int64)
    edge_floor = np.zeros(n, dtype=np.int64)
    for (i, j), qv in zip(edges, q):
        if qv < 0:
            raise ValueError(f"negative edge mass on ({i}, {j})")
        c = int(math.floor(qv * scale + _SNAP))
        cap[i, j] += c
        cap[j, i] += c
        edge_floor[i] += c
        edge_floor[j] += c
    for i in range(n):
        allowance = int(math.ceil(q_hat[i] * scale - _SNAP))
        deficiency = allowance - int(edge_floor[i])
        if deficiency < 0:
            raise ValueError(
                f"vertex {i}: edge mass exceeds allowance ({edge_floor[i]} > {allowance})"
            )
        cap[i, n] = deficiency
        cap[n, i] = deficiency
    total = int(cap.sum())
    if total >= 1 << 62:
        raise ValueError("capacities overflow the 64-bit flow budget")
    return AuxiliaryGraph(n=n, cap=cap, kappa=int(math.floor(scale + _SNAP)))


def max_flow(cap: np.ndarray, source: int, sink: int) -> tuple[int, frozenset[int]]:
    """Max flow / min cut on a dense integer capacity matrix.

    Edmonds-Karp (BFS augmenting paths) with capacity scaling.

    Returns
    -------
    (value, side)
        ``side`` is the set of vertices reachable from ``source`` in
        the final residual graph (a minimum cut's source side).
    """
    if source == sink:
        raise ValueError("source equals sink")
    n = cap.shape[0]
    residual = cap.astype(np.int64).copy()
    flow = 0
    max_cap = int(residual.max(initial=0))
    delta = 1
    while delta * 2 <= max_cap:
        delta *= 2
    while delta >= 1:
        while True:
            parent = [-1] * n
            parent[source] = source
            queue = deque([source])
            while queue:
                v = queue.popleft()
                if v == sink:
                    break
                row = residual[v]
                for w in range(n):
                    if parent[w] < 0 and row[w] >= delta:
                        parent[w] = v
                        queue.append(w)
            if parent[sink] < 0:
                break
            bottleneck = 1 << 62
            w = sink
            while w != source:
                v = parent[w]
                bottleneck = min(bottleneck, int(residual[v, w]))
                w = v
            w = sink
            while w != source:
                v = parent[w]
                residual[v, w] -= bottleneck
                residual[w, v] += bottleneck
                w = v
            flow += bottleneck
        delta //= 2
    # Source side of a minimum cut: residual reachability.
    seen = [False] * n
    seen[source] = True
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in range(n):
            if not seen[w] and residual[v, w] > 0:
                seen[w] = True
                queue.append(w)
    return flow, frozenset(v for v in range(n) if seen[v])


@dataclass(frozen=True)
class GomoryHuTree:
    """Cut tree: ``n - 1`` edges encoding all pairwise min cuts.

    ``parent[v]`` and ``flow[v]`` describe the tree edge above ``v``
    (vertex 0 is the root with ``parent[0] == 0``).  The minimum cut
    between any two vertices equals the smallest ``flow`` value on the
    tree path between them.
    """

    parent: tuple[int, ...]
    flow: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.parent)

    def _path_to_root(self, v: int) -> list[int]:
        path = [v]
        while self.parent[path[-1]] != path[-1] and path[-1] != 0:
            path.append(self.parent[path[-1]])
        return path

    def mincut(self, a: int, b: int) -> int:
        """Minimum cut value between ``a`` and ``b`` per the tree."""
        if a == b:
            raise ValueError("mincut of a vertex with itself")
        pa = self._path_to_root(a)
        pb = self._path_to_root(b)
        in_a = {v: t for t, v in enumerate(pa)}
        meet = next(v for v in pb if v in in_a)
        best = None
        for v in pa[: in_a[meet]]:
            best = self.flow[v] if best is None else min(best, self.flow[v])
        for v in pb[: pb.index(meet)]:
            best = self.flow[v] if best is None else min(best, self.flow[v])
        assert best is not None
        return best

    def side_below(self, v: int) -> frozenset[int]:
        """Vertices whose tree path to the root passes through ``v``."""
        children: dict[int, list[int]] = {}
        for w in range(self.n):
            if w != 0 and self.parent[w] != w:
                children.setdefault(self.parent[w], []).append(w)
        out = set()
        stack = [v]
        while stack:
            u = stack.pop()
            out.add(u)
            stack.extend(children.get(u, ()))
        return frozenset(out)


def gomory_hu(cap: np.ndarray) -> GomoryHuTree:
    """Gusfield's Gomory-Hu cut tree: ``n - 1`` max-flow calls, no contraction.

    Every vertex on the source side whose parent is the sink is
    re-parented (not just later-numbered ones); that step is what makes
    the tree-edge partitions genuine minimum cuts rather than only
    flow-equivalent values.
    """
    n = cap.shape[0]
    parent = [0] * n
    flow = [0] * n
    for s in range(1, n):
        t = parent[s]
        value, side = max_flow(cap, s, t)
        flow[s] = value
        for v in range(n):
            if v != s and v in side and parent[v] == t:
                parent[v] = s
        if parent[t] in side:
            parent[s] = parent[t]
            parent[t] = s
            flow[s] = flow[t]
            flow[t] = value
    return GomoryHuTree(parent=tuple(parent), flow=tuple(flow))


def find_dense_odd_sets(
    n: int,
    edges: Sequence[tuple[int, int]],
    q: Sequence[float],
    q_hat: Sequence[float],
    eps: float,
    b: Sequence[int],
    *,
    odd_sets: OddSetFamily | None = None,
) -> tuple[tuple[int, ...], ...]:
    """Find a disjoint family of dense odd sets via the flow reduction.

    Repeatedly builds the auxiliary graph on the vertices not yet
    covered, computes its Gomory-Hu cut tree, and scans tree edges: a
    tree edge whose non-apex side has odd total capacity in ``[3,
    4/eps]`` and cut value at most ``kappa`` is a candidate.
    Candidates are taken greedily disjoint in increasing ``(cut value,
    smallest member)`` order; covered vertices are deleted and the
    scan repeats until a full pass adds nothing.  Deleting vertices
    never changes the density of a disjoint set (its internal edges
    and allowances are untouched), so each pass can only expose sets
    the previous tree hid behind an apex-side partition.

    Given the small odd-set family ``odd_sets``, asserts the density
    guarantees: every returned set has internal mass at least
    ``(sum q_hat - 1) / 2``, and every small odd set untouched by the
    returned family has internal mass at most
    ``(sum q_hat - (1 - eps)) / 2``.
    """
    chosen: list[frozenset[int]] = []
    used: set[int] = set()
    while True:
        alive = sorted(set(range(n)) - used)
        if len(alive) < 3:
            break
        local = {v: t for t, v in enumerate(alive)}
        sub_pairs = [
            (local[i], local[j], qv)
            for (i, j), qv in zip(edges, q)
            if i in local and j in local
        ]
        aux = build_auxiliary(
            len(alive),
            [(i, j) for i, j, _ in sub_pairs],
            [qv for _i, _j, qv in sub_pairs],
            [q_hat[v] for v in alive],
            eps,
        )
        tree = gomory_hu(aux.cap)
        apex = aux.apex
        candidates: list[tuple[int, int, frozenset[int]]] = []
        for v in range(1, len(alive) + 1):
            if tree.parent[v] == v:
                continue
            below = tree.side_below(v)
            side = frozenset(range(len(alive) + 1)) - below if apex in below else below
            members = frozenset(alive[u] for u in side if u != apex)
            if not members or apex in side:
                continue
            bn = sum(b[i] for i in members)
            if 3 <= bn <= 4.0 / eps and bn % 2 == 1 and tree.flow[v] <= aux.kappa:
                candidates.append((tree.flow[v], min(members), members))
        candidates.sort(key=lambda c: (c[0], c[1], tuple(sorted(c[2]))))
        added = False
        for _cut, _lo, members in candidates:
            if members & used:
                continue
            chosen.append(members)
            used |= members
            added = True
        if not added:
            break

    if odd_sets is not None:

        def internal_mass(members: frozenset[int]) -> float:
            return math.fsum(
                qv for (i, j), qv in zip(edges, q) if i in members and j in members
            )

        def allowance(members: frozenset[int]) -> float:
            return math.fsum(q_hat[i] for i in members)

        for members in chosen:
            if not internal_mass(members) >= 0.5 * (allowance(members) - 1.0) - 1e-9:
                raise AssertionError(f"returned set {sorted(members)} is not dense enough")
        for t in range(len(odd_sets)):
            u = frozenset(odd_sets.members(t))
            if any(u & members for members in chosen):
                continue
            bound = 0.5 * (allowance(u) - (1.0 - eps))
            if not internal_mass(u) <= bound + 1e-9:
                raise AssertionError(f"untouched set {sorted(u)} exceeds the exclusion bound")
    return tuple(tuple(sorted(members)) for members in chosen)


def collect_violated_sets(
    index: SystemIndex,
    q_rows: np.ndarray,
    q_hat: np.ndarray,
) -> tuple[list[int], np.ndarray]:
    """Select a disjoint family of violated small odd sets directly.

    Every call asserts the selection's guarantees: allowances are at
    least ``b_i``, every selected set has capacity at least 3 and
    carries the ``eps/2`` membership margin, and no set disjoint from
    the selection exceeds the exclusion bar (checked exhaustively over
    the whole small-odd-set family).

    Parameters
    ----------
    index:
        System index (supplies the odd-set family and row geometry).
    q_rows:
        Edge mass per cover row (already restricted to the level under
        consideration — rows below the level must carry 0).
    q_hat:
        Allowance per vertex.

    Returns
    -------
    (selected, values)
        ``selected`` is an ordered list of odd-set indices (disjoint
        family); ``values[t]`` is ``internal_mass - (allowance -
        capacity)/2`` for odd set ``t`` — at least
        ``floor(capacity/2) + eps/2`` on selected sets and at most
        ``floor(capacity/2) + eps/2`` on sets disjoint from the
        selection.
    """
    eps = index.epsilon
    family = index.odd_sets
    short = np.flatnonzero(q_hat < index.capacity - 1e-9)
    if short.size:
        raise AssertionError(f"allowance of vertex {short[0]} below its capacity")
    internal, allowance = np.empty((2, len(family)))
    for sets, member_mat, internal_mat in index.set_blocks():
        internal[sets] = internal_mat @ q_rows
        allowance[sets] = member_mat @ q_hat
    values = internal - 0.5 * (allowance - family.bnorm)
    # Candidates: internal mass beyond the exclusion bar.
    bars = 0.5 * (allowance - (1.0 - eps))
    cand = np.nonzero(internal > bars + 1e-12)[0]
    # Ties on the margin go to the lexicographically smallest member
    # tuple, so the selection is deterministic.
    order = sorted(
        (int(t) for t in cand),
        key=lambda t: (float(allowance[t] - 2.0 * internal[t]), family.members(t)),
    )
    selected: list[int] = []
    used = np.zeros(len(index.capacity), dtype=bool)
    for t in order:
        row = family.member[t]
        if (row & used).any():
            continue
        selected.append(t)
        used |= row
        bn = int(family.bnorm[t])
        if bn < 3:
            raise AssertionError(f"selected odd set {family.members(t)} has capacity < 3")
        if not values[t] > bn // 2 + eps / 2.0 - 1e-12:
            raise AssertionError(
                f"selected set {family.members(t)} lacks the eps/2 membership margin"
            )
    # Exhaustive exclusion check over the whole small-odd-set family:
    # any set disjoint from the selection must sit at or below the bar
    # (it would have been selected otherwise).
    untouched = ~family.member[:, used].any(axis=1)
    ceiling = np.floor(family.bnorm / 2.0) + eps / 2.0 + 1e-12
    over = np.flatnonzero(untouched & (values > ceiling))
    if over.size:
        raise AssertionError(
            f"untouched odd set {family.members(over[0])} exceeds the exclusion bar"
        )
    return selected, values
