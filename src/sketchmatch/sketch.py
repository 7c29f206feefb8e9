"""Sketching layer: cut sparsifiers, deferred sketches, and the round ledger.

All randomness is drawn from a keyed pseudorandom function (BLAKE2b
with the seed as key), so every structure here is a deterministic
function of its seed and its input stream — a requirement for
reproducible solver reports.

Two sparsifier flavors are provided:

- :func:`build_streaming_sparsifier` reweights a subsample of the
  edges so that every cut is preserved to a ``(1 +- xi)`` factor with
  high probability (layered subsampling with union-find forest
  packings deciding each edge's sampling depth);
- :func:`build_deferred` runs the same machinery on *promised* weights
  and postpones the reweighting: :func:`refine_deferred` later
  reweighs the stored entries against current weights, one value per
  entry, as long as each lies within a ``chi`` factor of its promise.
  One call takes a stack of promise rows, one seed per row, and builds
  every row's sketch in one array pass; the solver builds all weight
  levels of a round this way, one call per round.

Both builds settle a dyadic value class of ``s < k`` edges (``k`` forests
per layer, :func:`forest_count`) in closed form, without forests.  Let
``deepest = floor(log2 s)`` and let ``md_e`` be edge ``e``'s membership
depth, read from its layer draw.

- Every insert is stored in exactly one forest of each layer it enters:
  a forest that already joins its endpoints holds an earlier insert of
  that layer, and there are at most ``s - 1 < k`` of those.  So the class
  stores ``sum_e (min(md_e, deepest) + 1)`` entries.
- For the same reason no insert reaches forest ``k`` of a layer, so the
  ``k``-th forest of layer 0 is empty and every member gets depth 0.
  A deferred entry's keep probability is then ``min(1, chi^2) = 1``, and
  no store draw is taken.
- A one-edge class has ``deepest = 0``, so its layer draw cannot matter
  and is not taken.

Forests still run for a class of ``k`` or more edges; at desk scale
(``k`` = 422 at ``n = 12``, ``xi = 0.5``) that needs a graph far denser
than the solver's levels hold.

The module imports nothing from the rest of the package: it works on
edge lists and weight vectors.  The solver's check that the sketched
multipliers may stand in for the full ones is
:func:`sketchmatch.oracle.verify_switch`.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "DEFERRED_ENTRY",
    "DeferredSketch",
    "PromiseViolationError",
    "PROMISE_TOL",
    "RoundLedger",
    "Sparsifier",
    "UnionFind",
    "all_cut_values",
    "build_deferred",
    "build_streaming_sparsifier",
    "forest_count",
    "prf_u64",
    "prf_uniform",
    "refine_deferred",
]


def _encode(parts: tuple[int | str, ...]) -> bytes:
    """Domain-separation encoding of PRF parts.

    Ints are encoded fixed-width, strings as UTF-8 with a length prefix.
    """
    out = bytearray()
    for part in parts:
        if isinstance(part, str):
            data = part.encode("utf-8")
            out += b"s" + struct.pack("<I", len(data)) + data
        else:
            out += b"i" + struct.pack("<q", part)
    return bytes(out)


# The fixed parts of a per-call prefix repeat across calls.
_encode_fixed = functools.lru_cache(maxsize=64)(_encode)


def _prf_prefix(seed: int, *parts: int | str):
    """BLAKE2b state keyed by ``seed`` that has absorbed ``parts``.

    Hashing is streaming, so a copy of the state extended by more parts
    (:func:`_prf_draw`) digests to the same value as :func:`prf_u64`
    over all the parts.
    """
    key = struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF)
    h = hashlib.blake2b(key=key, digest_size=8)
    h.update(_encode_fixed(parts))
    return h


def _prf_draw(prefix, part: int) -> int:
    """``prf_u64`` of the prefix's parts followed by the int ``part``."""
    h = prefix.copy()
    h.update(b"i" + struct.pack("<q", part))
    return int.from_bytes(h.digest(), "little")


def _unit(u: int) -> float:
    """Map a 64-bit value to ``[0, 1)`` through its top 53 bits (exact)."""
    return (u >> 11) * 2.0**-53


def prf_u64(seed: int, *parts: int | str) -> int:
    """Keyed pseudorandom 64-bit value, stable across platforms.

    ``seed`` keys a BLAKE2b instance; ``parts`` are domain-separation
    tokens (ints are encoded fixed-width, strings as UTF-8 with a
    length prefix).
    """
    key = struct.pack("<Q", seed & 0xFFFFFFFFFFFFFFFF)
    h = hashlib.blake2b(key=key, digest_size=8)
    h.update(_encode(parts))
    return int.from_bytes(h.digest(), "little")


def prf_uniform(seed: int, *parts: int | str) -> float:
    """Uniform float in ``[0, 1)`` derived from :func:`prf_u64`."""
    return _unit(prf_u64(seed, *parts))


class UnionFind:
    """Union-find with path compression and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, a: int) -> int:
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def connected(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


# ---------------------------------------------------------------------------
# Cut values (vectorized; the pure-Python cross-check lives in exact.py)
# ---------------------------------------------------------------------------

#: Largest vertex count :func:`all_cut_values` takes (one float per cut).
CUT_VALUES_MAX_N = 24


def all_cut_values(
    n: int,
    edges: Sequence[tuple[int, int]],
    weights: Sequence[float],
) -> np.ndarray:
    """Weights of all ``2^(n-1) - 1`` nontrivial cuts.

    Entry ``s - 1`` is the cut where vertex set ``{i < n-1 : s >> i & 1}``
    is on one side and vertex ``n - 1`` on the other.
    """
    if n > CUT_VALUES_MAX_N:
        raise ValueError(f"cut enumeration capped at n <= {CUT_VALUES_MAX_N}, got {n}")
    if n < 2:
        raise ValueError("need at least two vertices for a cut")
    sides = np.arange(1, 1 << (n - 1), dtype=np.uint64)
    out = np.zeros(len(sides))
    for (i, j), w in zip(edges, weights):
        bi = (sides >> np.uint64(i)) & np.uint64(1) if i < n - 1 else np.uint64(0)
        bj = (sides >> np.uint64(j)) & np.uint64(1) if j < n - 1 else np.uint64(0)
        out += float(w) * (bi != bj)
    return out


# ---------------------------------------------------------------------------
# Sparsifiers
# ---------------------------------------------------------------------------


def forest_count(n: int, xi: float) -> int:
    """Number of forest packings per subsampling layer: ``ceil(16 ln(n+1)^2 / xi^2)``."""
    return math.ceil(16.0 * math.log(n + 1) ** 2 / xi**2)


@dataclass(frozen=True)
class Sparsifier:
    """A reweighted subsample of edges preserving cuts to ``1 +- xi``.

    Attributes
    ----------
    n, xi, seed, k:
        Construction parameters (``k`` = forests per layer).
    edge_ids:
        Indices into the caller's edge list, in stream order.
    endpoints:
        ``(i, j)`` per kept edge.
    weights:
        Reweighted edge weights ``w_e * 2^depth(e)``.
    stored_total:
        Total entries held across all forests while streaming (space).
    """

    n: int
    xi: float
    seed: int
    k: int
    edge_ids: tuple[int, ...]
    endpoints: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    stored_total: int


class _LayeredForests:
    """Layered forest packings of one value class, for both sparsifier builds.

    Layer ``i`` sees each class edge independently with probability
    ``2^-i`` (nested across layers via one PRF draw per edge); ``k``
    union-find forests per layer store an edge iff some forest still
    separates its endpoints.  An edge's *depth* is the smallest layer
    whose final ``k``-th forest separates its endpoints (falling back
    to the deepest layer).
    """

    def __init__(self, n: int, k: int, deepest: int) -> None:
        self.n = n
        self.k = k
        self.deepest = deepest
        self.forests: list[list[UnionFind]] = [[] for _ in range(deepest + 1)]
        # The tag of each insert some forest stores, once per layer.
        self.stored: list[int] = []

    def _forest(self, layer: int, j: int) -> UnionFind:
        row = self.forests[layer]
        while len(row) <= j:
            row.append(UnionFind(self.n))
        return row[j]

    def insert(self, tag: int, i: int, j: int, membership_depth: int) -> None:
        """Stream one edge with endpoints ``i``, ``j`` through its layers."""
        for layer in range(min(membership_depth, self.deepest) + 1):
            for f_idx in range(self.k):
                if self._forest(layer, f_idx).union(i, j):
                    self.stored.append(tag)
                    break

    def final_depth(self, i: int, j: int) -> int:
        """Smallest layer whose last forest separates ``i`` and ``j``."""
        for layer in range(self.deepest + 1):
            row = self.forests[layer]
            if len(row) < self.k:
                # The k-th forest was never created: it is empty and
                # separates every pair.
                return layer
            if not row[self.k - 1].connected(i, j):
                return layer
        return self.deepest


def _stream_classes(
    n: int,
    ends: np.ndarray,
    rows: np.ndarray,
    values: np.ndarray,
    seeds: Sequence[int],
    k: int,
    salt: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Run the layered forest construction on every value class of every row.

    Entry ``t`` is an edge with endpoints ``ends[t]`` and positive value
    ``values[t]`` in row ``rows[t]``; the entries come row by row, in
    edge order within a row.  Value classes (dyadic: ``floor(log2 w)``)
    are formed within a row.  Row ``r``'s ``layer`` PRF is keyed by
    ``seeds[r]`` and drawn at the entry's position in its row.  ``k`` is
    the forest count per layer (:func:`forest_count`).

    Returns ``(depth, md, stored, stored_total)``: per entry its depth,
    its membership depth (the leading zero bits of its layer draw; 0 for
    an entry alone in its class, which takes no draw) and whether some
    forest stores it, and the forest entries of all rows together.

    A class of fewer than ``k`` entries is settled in closed form (see
    the module docstring), for all rows at once: every member has depth
    0 and is stored, and the class holds ``sum_e (min(md_e, deepest) +
    1)`` forest entries.  Only a class of ``k`` or more entries streams
    through :class:`_LayeredForests`.  A row's ``layer`` PRF is keyed on
    its first draw.
    """
    total = len(rows)
    # One key per (row, class): frexp exponents of positive floats lie
    # in [-1073, 1024].  An entry's class size is the run of its key in
    # the sorted keys.
    key = rows * 4096 + np.frexp(values)[1]
    ordered = np.sort(key)
    size = np.searchsorted(ordered, key, "right") - np.searchsorted(ordered, key)
    deepest = np.frexp(size)[1] - 1  # floor(log2 s)
    md = np.zeros(total, dtype=np.int64)
    drawn = np.flatnonzero(deepest > 0)
    if drawn.size:
        # An entry's position in its row: its index less the row's first.
        first = np.searchsorted(rows, np.arange(len(seeds))).tolist()
        layer: dict[int, object] = {}
        bits = []
        for t, r in zip(drawn.tolist(), rows[drawn].tolist()):
            if r not in layer:
                layer[r] = _prf_prefix(seeds[r], salt, "layer")
            bits.append(_prf_draw(layer[r], t - first[r]).bit_length())
        md[drawn] = 64 - np.array(bits)
    depth = np.zeros(total, dtype=np.int64)
    stored = size < k
    stored_total = int((np.minimum(md, deepest)[stored] + 1).sum())
    for c in dict.fromkeys(key[~stored].tolist()):
        members = np.flatnonzero(key == c).tolist()
        pairs = ends[members].tolist()
        d = int(deepest[members[0]])
        lf = _LayeredForests(n, k, d)
        for t, (i, j) in zip(members, pairs):
            lf.insert(t, i, j, int(md[t]))
        depth[members] = [lf.final_depth(i, j) for i, j in pairs]
        # Structural space bound: each forest holds at most n-1 edges.
        bound = k * (n - 1) * (d + 1)
        if len(lf.stored) > bound:
            raise AssertionError(f"a class stored {len(lf.stored)} > bound {bound}")
        stored[lf.stored] = True
        stored_total += len(lf.stored)
    return depth, md, stored, stored_total


def build_streaming_sparsifier(
    n: int,
    edges: Sequence[tuple[int, int]],
    weights: Sequence[float],
    xi: float,
    seed: int,
) -> Sparsifier:
    """Build a cut sparsifier of a weighted graph in one pass.

    Edges are bucketed by dyadic weight class; within a class, layer
    ``i`` subsamples at rate ``2^-i`` and ``k = ceil(16 ln(n+1)^2/xi^2)``
    union-find forests per layer retain connectivity witnesses.  A
    retained edge whose subsampling survives its assigned depth is kept
    with weight ``w_e * 2^depth``, which preserves every cut to a
    ``(1 +- xi)`` factor with probability ``1 - O(1/n)``.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must be in (0, 1), got {xi}")
    w = np.asarray(weights, dtype=float)
    bad = np.flatnonzero(~(w > 0.0))
    if bad.size:
        raise ValueError(f"weight must be positive, got {w[bad[0]]}")
    k = forest_count(n, xi)
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    depth, md, stored, stored_total = _stream_classes(
        n, ends, np.zeros(len(w), dtype=np.int64), w, (seed,), k, "plain"
    )
    kept = np.flatnonzero(stored & (md >= depth)).tolist()
    return Sparsifier(
        n=n,
        xi=xi,
        seed=seed,
        k=k,
        edge_ids=tuple(kept),
        endpoints=tuple(edges[e] for e in kept),
        weights=tuple((w[kept] * 2.0 ** depth[kept]).tolist()),
        stored_total=stored_total,
    )


class PromiseViolationError(RuntimeError):
    """A refined weight fell outside the promised ``chi`` band."""


# One stored entry of a deferred sketch.
DEFERRED_ENTRY = np.dtype(
    [
        ("edge", np.int64),
        ("i", np.int64),
        ("j", np.int64),
        ("promise", np.float64),
        ("p_keep", np.float64),
        ("depth", np.int64),
    ]
)


# Relative slack on both ends of the promised band, for rounding in
# the caller's multiplier arithmetic.
PROMISE_TOL = 1e-9


@dataclass(frozen=True)
class DeferredSketch:
    """Deferred sparsifiers: sampled on promised weights, refined later.

    Attributes
    ----------
    entries:
        The stored entries, one :data:`DEFERRED_ENTRY` record each
        (edge id, endpoints ``i`` and ``j``, promise, keep probability,
        depth): the first promise row's entries in edge order, then the
        second row's, and so on.
    chi:
        Refinement weights must lie in ``[promise/chi, promise*chi]``.
    stored_total:
        Forest entries held while streaming, summed over the rows.
    lo, hi:
        Per entry, the ends of its promised band with :data:`PROMISE_TOL`
        of slack, ``promise/chi * (1 - PROMISE_TOL)`` and
        ``promise*chi * (1 + PROMISE_TOL)``; derived from ``entries``.
    """

    entries: np.ndarray
    chi: float
    stored_total: int
    lo: np.ndarray = field(init=False, repr=False, compare=False)
    hi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        promise = self.entries["promise"]
        object.__setattr__(self, "lo", promise / self.chi * (1.0 - PROMISE_TOL))
        object.__setattr__(self, "hi", promise * self.chi * (1.0 + PROMISE_TOL))

    @property
    def space(self) -> int:
        return len(self.entries) + self.stored_total


def build_deferred(
    n: int,
    edges: Sequence[tuple[int, int]] | np.ndarray,
    promise: Sequence[float] | np.ndarray,
    chi: float,
    xi: float,
    seed: int | Sequence[int],
) -> DeferredSketch:
    """Sample deferred sparsifiers against promised weights, in one pass.

    ``promise`` is one promised weight per edge and ``seed`` an int, or
    a stack of such rows with ``seed`` one seed per row.  Each row is
    sketched on its own, as if by a call of its own: its value classes
    are formed within the row, and its PRFs are keyed by its seed.  The
    result lists the rows' stored entries in row order, and its
    ``stored_total`` is summed over the rows.

    Each edge's subsampling depth is decided by the layered forest
    construction on the promise values; the edge is stored with
    probability ``min(1, chi^2 * 2^-depth)``, with no draw when that is
    1.  Any later weight vector within a ``chi`` factor of the promise
    can be refined against the stored entries, entry by entry
    (:func:`refine_deferred`), yielding a sparsifier for those weights.

    Edges with zero promise carry no multiplier mass and are skipped.

    A value class of fewer than ``k = forest_count(n, xi)`` live edges
    needs no forests (module docstring): its edges get depth 0, keep
    probability 1 and no store draw, and all rows' such classes are
    settled together in array operations.  Forests run only for a class
    of ``k`` or more live edges, and each PRF is keyed only when a draw
    of it is taken.  The output equals the all-forest construction
    entry for entry, ``stored_total`` included.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must be in (0, 1), got {xi}")
    if not (math.isfinite(chi) and chi >= 1.0):
        raise ValueError(f"chi must be finite and >= 1, got {chi}")
    stack = np.asarray(promise, dtype=float)
    if stack.ndim == 1:
        stack, seeds = stack[None, :], (seed,)
    else:
        seeds = tuple(seed)
    if stack.ndim != 2 or stack.shape != (len(seeds), len(edges)):
        raise ValueError("need one promise per edge in every row, and one seed per row")
    rows, edge_ids = np.nonzero(stack > 0.0)
    values = stack[rows, edge_ids]
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 2)[edge_ids]
    depth, _md, _stored, stored_total = _stream_classes(
        n, ends, rows, values, seeds, forest_count(n, xi), "deferred"
    )
    p_keep = np.minimum(1.0, chi * chi * 2.0 ** -depth)
    entries = np.empty(len(rows), dtype=DEFERRED_ENTRY)
    entries["edge"] = edge_ids
    entries["i"] = ends[:, 0]
    entries["j"] = ends[:, 1]
    entries["promise"] = values
    entries["p_keep"] = p_keep
    entries["depth"] = depth
    # An entry kept with probability below 1 is dropped on a failed
    # store draw, keyed by its row's seed and its edge id.
    store: dict[int, object] = {}
    dropped = []
    for t in np.flatnonzero(p_keep < 1.0).tolist():
        r = int(rows[t])
        if r not in store:
            store[r] = _prf_prefix(seeds[r], "deferred", "store")
        if _unit(_prf_draw(store[r], int(edge_ids[t]))) >= p_keep[t]:
            dropped.append(t)
    if dropped:
        entries = np.delete(entries, dropped)
    return DeferredSketch(entries=entries, chi=chi, stored_total=stored_total)


def refine_deferred(sketch: DeferredSketch, values: np.ndarray) -> np.ndarray:
    """Refine a deferred sketch's stored entries against current weights.

    Parameters
    ----------
    sketch:
        Output of :func:`build_deferred`.
    values:
        Current weight of each stored entry, in ``sketch.entries`` order.
        A zero value means the edge has been deleted; positive values
        must lie within the entry's promised band
        ``[promise/chi, promise*chi]``.

    Returns
    -------
    numpy.ndarray
        ``value / keep_probability`` per entry (zero for a deleted edge).

    Raises
    ------
    ValueError
        If ``values`` does not hold one value per stored entry.
    PromiseViolationError
        If a positive value falls outside the promised band; the
        message names the first such entry's edge.
    """
    entries = sketch.entries
    if len(values) != len(entries):
        raise ValueError(f"need one value per stored entry ({len(entries)}), got {len(values)}")
    inside = (sketch.lo <= values) & (values <= sketch.hi)
    if not inside.all():
        bad = np.flatnonzero(~inside & (values != 0.0))
        if bad.size:
            t = int(bad[0])
            e, sigma, chi = int(entries["edge"][t]), float(entries["promise"][t]), sketch.chi
            raise PromiseViolationError(
                f"edge {e}: value {float(values[t])} outside promised band "
                f"[{sigma / chi}, {sigma * chi}]"
            )
    return values / entries["p_keep"]


# ---------------------------------------------------------------------------
# Round ledger
# ---------------------------------------------------------------------------


class RoundLedger:
    """Tracks simulated adaptive rounds and the space used in each.

    Every batch of sketches built against the *same* snapshot of the
    evolving solution counts as one round; the peak recorded space over
    all rounds is the memory figure reported by the solver.
    """

    def __init__(self) -> None:
        self._rounds: list[dict] = []

    def begin_round(self, label: str) -> int:
        self._rounds.append({"label": label, "space": 0})
        return len(self._rounds) - 1

    def record_space(self, count: int) -> None:
        if not self._rounds:
            raise RuntimeError("record_space called before any round began")
        if count < 0:
            raise ValueError("space must be nonnegative")
        self._rounds[-1]["space"] += int(count)

    @property
    def n_rounds(self) -> int:
        return len(self._rounds)

    @property
    def peak_space(self) -> int:
        return max((r["space"] for r in self._rounds), default=0)

    def as_dict(self) -> dict:
        return {
            "rounds": [dict(r) for r in self._rounds],
            "n_rounds": self.n_rounds,
            "peak_space": self.peak_space,
        }
