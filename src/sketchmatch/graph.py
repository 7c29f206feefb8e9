"""Graph model: b-capacities, geometric weight levels, and small odd sets.

This module owns the input representation for the solver: a simple
weighted graph with per-vertex integer capacities ``b_i``, the
discretization of edge weights into geometric levels ``(1+eps)^k``
after rescaling by ``eps * Wstar / B``, and enumeration of the family
of "small" odd sets (vertex sets whose total capacity is odd and at
most ``4/eps``) that drive the odd-set constraints of the matching LP.
The family is an :class:`OddSetFamily`: one boolean membership matrix
(sets x vertices) and one capacity array, with no per-set objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "Graph",
    "GraphFormatError",
    "LeveledGraph",
    "OddSetFamily",
    "check_enumerable",
    "count_small_odd_sets",
    "discretize",
    "enumerate_small_odd_sets",
    "find_max_weight",
    "load_graph",
]

#: Relative tolerance for level-boundary comparisons.  An edge weight
#: within this relative distance of an exact level boundary is treated
#: as sitting on the boundary (and goes to the level whose closed left
#: endpoint it is).
REL_TOL = 1e-9
#: Largest vertex count :func:`enumerate_small_odd_sets` enumerates
#: (it examines all ``2^n`` subsets).
MAX_ENUMERATION_N = 20


class GraphFormatError(ValueError):
    """Raised when graph or capacity input text is malformed."""


def _is_int(v: object) -> bool:
    """True for a Python ``int`` that is not a ``bool``."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph with positive edge weights and capacities.

    Parameters
    ----------
    n:
        Number of vertices, labeled ``0 .. n-1``.
    edges:
        Tuple of ``(i, j, w)`` with ``i < j`` and ``w > 0``.  At most one
        edge per unordered pair; no self-loops.
    b:
        Per-vertex integer capacity, all ``>= 1``.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    b: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _is_int(self.n):
            raise ValueError(f"vertex count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.b) != self.n:
            raise ValueError(f"expected {self.n} capacities, got {len(self.b)}")
        for i, cap in enumerate(self.b):
            if not _is_int(cap) or cap < 1:
                raise ValueError(f"capacity of vertex {i} must be an integer >= 1, got {cap!r}")
        seen: set[tuple[int, int]] = set()
        for i, j, w in self.edges:
            if not (_is_int(i) and _is_int(j)):
                raise ValueError(f"edge ({i!r}, {j!r}) endpoints must be integers")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            if i > j:
                raise ValueError(f"edge ({i}, {j}) must be stored with i < j")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"edge ({i}, {j}) weight must be positive and finite, got {w}")
            seen.add((i, j))

    @property
    def B(self) -> int:
        """Total capacity ``sum_i b_i``."""
        return sum(self.b)

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)


def _data_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """``(line number, raw line, fields)`` of each line with data."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, raw, parts


def _parse_edge_text(text: str) -> list[tuple[int, int, float]]:
    edges: list[tuple[int, int, float]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw, parts in _data_lines(text):
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'i j w', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from exc
        if i == j:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {i}")
        if not w > 0 or math.isinf(w) or math.isnan(w):
            raise GraphFormatError(f"line {lineno}: weight must be positive and finite, got {w}")
        if i < 0 or j < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex id")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({i}, {j})")
        seen.add((i, j))
        edges.append((i, j, w))
    return edges


def _parse_b_text(text: str) -> dict[int, tuple[int, int]]:
    """Capacity lines as ``{vertex: (capacity, line number)}``."""
    caps: dict[int, tuple[int, int]] = {}
    for lineno, raw, parts in _data_lines(text):
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'i b_i', got {raw!r}")
        try:
            i, cap = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from exc
        if cap < 1:
            raise GraphFormatError(f"line {lineno}: capacity of vertex {i} must be >= 1, got {cap}")
        if i in caps:
            raise GraphFormatError(f"line {lineno}: duplicate capacity for vertex {i}")
        caps[i] = (cap, lineno)
    return caps


def load_graph(edge_list_text: str, b_values_text: str | None = None) -> Graph:
    """Parse a graph from edge-list text and optional capacity text.

    Parameters
    ----------
    edge_list_text:
        One edge per line, ``"i j w"`` with 0-based vertex ids,
        whitespace separated; ``#`` starts a comment.  Duplicate edges
        (in either orientation) are rejected.
    b_values_text:
        Optional capacity lines ``"i b_i"``; vertices not mentioned
        default to capacity 1.

    Returns
    -------
    Graph
        The validated graph; ``n`` is one plus the largest vertex id
        seen in either input.

    Raises
    ------
    GraphFormatError
        On any malformed line, self-loop, nonpositive weight,
        out-of-range capacity, or duplicate edge (with line number).
    """
    edges = _parse_edge_text(edge_list_text)
    caps = _parse_b_text(b_values_text) if b_values_text else {}
    max_id = max([j for _i, j, _w in edges] + list(caps), default=-1)
    if max_id < 0:
        raise GraphFormatError("no edges found in input")
    n = max_id + 1
    b = [1] * n
    for i, (cap, lineno) in caps.items():
        if i < 0:
            raise GraphFormatError(f"line {lineno}: vertex {i} out of range for n={n}")
        b[i] = cap
    return Graph(n=n, edges=tuple(edges), b=tuple(b))


def find_max_weight(g: Graph) -> tuple[tuple[int, int, float], float]:
    """Return a maximum-weight edge and its weight ``Wstar``.

    Ties are broken toward the lexicographically smallest ``(i, j)``.

    Raises
    ------
    ValueError
        If the graph has no edges.
    """
    if not g.edges:
        raise ValueError("graph has no edges")
    best = min(g.edges, key=lambda e: (-e[2], e[0], e[1]))
    return best, best[2]


def _weight_level(w: float, scale: float, eps: float) -> int:
    """Level index of weight ``w``, or -1 if the edge is dropped.

    Level ``k`` is the unique integer with
    ``scale * (1+eps)^k <= w < scale * (1+eps)^(k+1)``; a weight within
    relative tolerance of the left endpoint belongs to that level
    (closed-left convention), so ``w == scale`` maps to level 0 and
    ``w`` just below ``scale`` (beyond tolerance) is dropped.
    """
    r = w / scale
    tol = 1.0 + REL_TOL
    if r * tol < 1.0:
        return -1
    base = math.log1p(eps)
    k = int(math.floor(math.log(max(r, 1.0)) / base))
    # Float fixups around the log: nudge until the sandwich holds with
    # the closed-left tolerance.
    while (1.0 + eps) ** (k + 1) <= r * tol:
        k += 1
    while k > 0 and (1.0 + eps) ** k > r * tol:
        k -= 1
    if k == 0 and 1.0 > r * tol:
        return -1
    return k


@dataclass(frozen=True)
class LeveledGraph:
    """A graph with edges bucketed into geometric weight levels.

    Every retained edge ``(i, j)`` has a unique level ``k >= 0`` with
    ``scale * (1+eps)^k <= w_ij < scale * (1+eps)^(k+1)`` where
    ``scale = eps * Wstar / B``; edges below ``scale`` are dropped.
    The level weight is ``(1+eps)^k`` in rescaled units.

    Attributes
    ----------
    base:
        The source graph.
    epsilon:
        The discretization parameter.
    Wstar:
        Maximum edge weight of ``base``.
    scale:
        ``epsilon * Wstar / B``; multiply rescaled values by this to
        return to original weight units.
    level_of:
        Per source-edge level index; ``-1`` marks dropped edges.
    levels:
        Map ``k -> tuple of edge indices`` for populated levels only.
    L:
        Largest populated level index.
    """

    base: Graph
    epsilon: float
    Wstar: float
    scale: float
    level_of: tuple[int, ...]
    levels: Mapping[int, tuple[int, ...]]
    L: int

    def level_weight(self, k: int) -> float:
        """Rescaled weight ``(1+eps)^k`` of level ``k``."""
        return (1.0 + self.epsilon) ** k

    def retained(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield ``(edge_index, i, j, k)`` for retained edges in input order."""
        for idx, k in enumerate(self.level_of):
            if k >= 0:
                i, j, _w = self.base.edges[idx]
                yield idx, i, j, k

    @property
    def retained_count(self) -> int:
        return sum(1 for k in self.level_of if k >= 0)

    def vertex_rows(self) -> tuple[tuple[int, int], ...]:
        """Sorted ``(i, k)`` pairs where vertex ``i`` has level-``k`` edges.

        These index the per-vertex degree constraints: rows exist only
        where a vertex actually has incident edges of that level.
        """
        rows: set[tuple[int, int]] = set()
        for _idx, i, j, k in self.retained():
            rows.add((i, k))
            rows.add((j, k))
        return tuple(sorted(rows))


def discretize(g: Graph, epsilon: float) -> LeveledGraph:
    """Assign every sufficiently heavy edge to its geometric weight level.

    Parameters
    ----------
    g:
        Input graph.
    epsilon:
        Discretization parameter in ``(0, 1)``.  The solver restricts
        itself to ``epsilon <= 1/16``; larger values are accepted here
        for testing the discretization in isolation.

    Returns
    -------
    LeveledGraph
        Edges with ``w >= eps * Wstar / B`` carry a unique level
        ``k >= 0``; lighter edges are dropped.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    _, wstar = find_max_weight(g)
    scale = epsilon * wstar / g.B
    level_of = tuple(_weight_level(w, scale, epsilon) for (_i, _j, w) in g.edges)
    levels: dict[int, list[int]] = {}
    for idx, k in enumerate(level_of):
        if k >= 0:
            levels.setdefault(k, []).append(idx)
    max_level = max(levels) if levels else 0
    bound = math.ceil(math.log(g.B / epsilon) / math.log1p(epsilon)) + 1
    if max_level > bound:
        raise AssertionError(f"level index {max_level} exceeds bound {bound}")
    return LeveledGraph(
        base=g,
        epsilon=epsilon,
        Wstar=wstar,
        scale=scale,
        level_of=level_of,
        levels={k: tuple(v) for k, v in sorted(levels.items())},
        L=max_level,
    )


@dataclass(frozen=True, eq=False)
class OddSetFamily:
    """A family of odd sets held as arrays, one row per set.

    Attributes
    ----------
    member:
        ``(sets, n)`` boolean membership matrix, row-major: row ``t``
        marks the vertices of set ``t``.
    bnorm:
        ``(sets,)`` int64 total capacities ``||U||_b`` (odd).
    """

    member: np.ndarray
    bnorm: np.ndarray

    def __len__(self) -> int:
        return len(self.bnorm)

    def members(self, t: int) -> tuple[int, ...]:
        """Sorted vertex tuple of set ``t``."""
        return tuple(np.flatnonzero(self.member[t]).tolist())


def count_small_odd_sets(g: Graph, epsilon: float) -> int:
    """Number of vertex sets with odd total capacity at most ``4/eps``.

    Equals ``len(enumerate_small_odd_sets(g, epsilon))`` without listing
    the sets, so it has no cap on ``n``.  A subset-sum count:
    ``ways[c]`` is the number of sets of capacity ``c``, for ``c`` up to
    the bound ``floor(4/eps)``.  A set over the bound never comes back
    under it, so larger sums are not kept.  ``O(n * 4/eps)`` Python ints.
    """
    limit = math.floor(4.0 / epsilon)
    ways = [1] + [0] * limit  # the empty set
    for bi in g.b:
        for c in range(limit, bi - 1, -1):
            ways[c] += ways[c - bi]
    return sum(ways[1::2])


def check_enumerable(g: Graph, epsilon: float) -> None:
    """Raise ``ValueError`` when :func:`enumerate_small_odd_sets` cannot list ``g``'s family.

    That is when ``n`` is past ``MAX_ENUMERATION_N``, or when the
    clipped capacities overflow int64.  The solver builds the family
    only when it first reads it, so it calls this up front.
    """
    if g.n > MAX_ENUMERATION_N:
        raise ValueError(
            f"odd-set enumeration capped at n <= {MAX_ENUMERATION_N}, got n={g.n}"
        )
    limit = math.floor(4.0 / epsilon)
    if sum(min(bi, limit + 1) for bi in g.b) >= 1 << 63:
        raise ValueError("capacities overflow the 64-bit odd-set enumeration")


def enumerate_small_odd_sets(g: Graph, epsilon: float) -> OddSetFamily:
    """Enumerate every vertex set with odd total capacity at most ``4/eps``.

    This is the verification-scale path: all ``2^n`` subsets are
    examined, so ``n`` is capped at ``MAX_ENUMERATION_N``.

    The capacity of every mask is computed with numpy, one pass per
    vertex ``i``: masks ``[2^i, 2^(i+1))`` are masks ``[0, 2^i)`` plus
    ``b_i``.  Capacities above the bound are clipped to
    ``floor(4/eps) + 1`` first, so a set holding such a vertex stays over
    the bound and the sums stay exact in int64.  The membership matrix
    is filled from the kept masks, one bit column per vertex.

    Memory: the int64 capacity array takes ``8 * 2^n`` bytes (8 MiB at
    ``n = 20``), freed on return.  What stays is the family: ``n + 8``
    bytes per set.

    Parameters
    ----------
    g, epsilon:
        Graph and parameter; the capacity bound is ``4 / epsilon``.

    Returns
    -------
    OddSetFamily
        Sets in increasing bitmask order (deterministic).
    """
    check_enumerable(g, epsilon)
    total = 1 << g.n
    limit = math.floor(4.0 / epsilon)
    clipped = [min(bi, limit + 1) for bi in g.b]
    cap = np.zeros(total, dtype=np.int64)
    for i, bi in enumerate(clipped):
        cap[1 << i : 2 << i] = cap[: 1 << i] + bi
    masks = np.flatnonzero(((cap & 1) == 1) & (cap <= min(limit, sum(clipped))))
    member = np.empty((len(masks), g.n), dtype=bool)
    for i in range(g.n):
        member[:, i] = (masks >> i) & 1
    return OddSetFamily(member=member, bnorm=cap[masks])
