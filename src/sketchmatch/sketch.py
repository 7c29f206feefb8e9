"""Sketching layer: L0 samplers, cut sparsifiers, and the round ledger.

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
  and postpones the reweighting: the stored sample can later be
  refined against any weight vector within a ``chi`` factor of the
  promise.

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
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .system import CHECK_TOL, DualIterate, SystemIndex

__all__ = [
    "DeferredSketch",
    "L0SampleError",
    "L0Sketch",
    "PromiseViolationError",
    "PROMISE_TOL",
    "RoundLedger",
    "Sparsifier",
    "StoredSample",
    "SwitchReport",
    "UnionFind",
    "all_cut_values",
    "build_deferred",
    "build_streaming_sparsifier",
    "forest_count",
    "prf_u64",
    "prf_uniform",
    "refine_deferred",
    "stored_sample",
    "verify_switch",
]

_FP_PRIME = (1 << 61) - 1


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
# L0 sampling
# ---------------------------------------------------------------------------


class L0SampleError(RuntimeError):
    """All repetitions of an L0 sampler failed to isolate a coordinate."""


@dataclass
class L0Sketch:
    """Linear sketch that samples a (near-)uniform nonzero coordinate.

    The sketch keeps, for several geometric subsampling levels and a
    few independent repetitions, the running ``(count, id-sum,
    fingerprint)`` of the coordinates hashed into that level.  It is
    linear: updates with ``delta = -1`` cancel earlier insertions, so
    the sketch of a difference of streams is the difference of
    sketches.

    Parameters
    ----------
    domain:
        Coordinates are integers in ``[0, domain)``.
    seed:
        PRF key; two sketches with equal seed and domain are mergeable.
    reps:
        Independent repetitions (retries); a sample is drawn from the
        first repetition that isolates a single coordinate.
    """

    domain: int
    seed: int
    reps: int = 3
    levels: int = field(init=False)
    count: np.ndarray = field(init=False)
    idsum: np.ndarray = field(init=False)
    fp: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.domain < 1:
            raise ValueError("domain must be positive")
        self.levels = max(self.domain - 1, 1).bit_length() + 2
        self.count = np.zeros((self.reps, self.levels), dtype=np.int64)
        self.idsum = np.zeros((self.reps, self.levels), dtype=np.int64)
        self.fp = np.zeros((self.reps, self.levels), dtype=np.int64)

    def _depth(self, rep: int, ident: int) -> int:
        r = prf_u64(self.seed, "l0depth", rep, ident)
        return min(64 - r.bit_length(), self.levels - 1)

    def _fingerprint(self, rep: int, ident: int) -> int:
        return prf_u64(self.seed, "l0fp", rep, ident) % _FP_PRIME

    def update(self, ident: int, delta: int = 1) -> None:
        """Add ``delta`` to coordinate ``ident``."""
        if not 0 <= ident < self.domain:
            raise ValueError(f"coordinate {ident} outside domain {self.domain}")
        for rep in range(self.reps):
            depth = self._depth(rep, ident)
            sl = slice(0, depth + 1)
            self.count[rep, sl] += delta
            self.idsum[rep, sl] += delta * ident
            self.fp[rep, sl] = (self.fp[rep, sl] + delta * self._fingerprint(rep, ident)) % _FP_PRIME

    def merge(self, other: "L0Sketch") -> None:
        """Add another sketch over the same domain and seed."""
        if (self.domain, self.seed, self.reps) != (other.domain, other.seed, other.reps):
            raise ValueError("sketches are not mergeable")
        self.count += other.count
        self.idsum += other.idsum
        self.fp = (self.fp + other.fp) % _FP_PRIME

    def sample(self) -> int:
        """Return one nonzero coordinate, near-uniformly at random.

        Raises
        ------
        L0SampleError
            If every repetition fails (probability ``O(1/n^2)`` per
            repetition for nonempty supports).
        """
        for rep in range(self.reps):
            for level in range(self.levels):
                if self.count[rep, level] == 1:
                    ident = int(self.idsum[rep, level])
                    if 0 <= ident < self.domain:
                        if int(self.fp[rep, level]) == self._fingerprint(rep, ident):
                            return ident
        raise L0SampleError("no repetition isolated a single coordinate")


# ---------------------------------------------------------------------------
# Cut values (vectorized; the pure-Python cross-check lives in exact.py)
# ---------------------------------------------------------------------------


def all_cut_values(
    n: int,
    edges: Sequence[tuple[int, int]],
    weights: Sequence[float],
    *,
    max_n: int = 24,
) -> np.ndarray:
    """Weights of all ``2^(n-1) - 1`` nontrivial cuts.

    Entry ``s - 1`` is the cut where vertex set ``{i < n-1 : s >> i & 1}``
    is on one side and vertex ``n - 1`` on the other.
    """
    if n > max_n:
        raise ValueError(f"cut enumeration capped at n <= {max_n}, got {n}")
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
    depths:
        Subsampling depth assigned to each kept edge.
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
    depths: tuple[int, ...]
    stored_total: int


def _value_class(w: float) -> int:
    """Dyadic value class of a positive weight: ``floor(log2 w)``."""
    if not w > 0:
        raise ValueError(f"weight must be positive, got {w}")
    _m, e = math.frexp(w)  # w = m * 2^e with m in [0.5, 1)
    return e - 1


class _LayeredForests:
    """Per-class layered forest packings shared by both sparsifier builds.

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
        self.stored: list[list[tuple[int, int, int]]] = [[] for _ in range(deepest + 1)]

    def _forest(self, layer: int, j: int) -> UnionFind:
        row = self.forests[layer]
        while len(row) <= j:
            row.append(UnionFind(self.n))
        return row[j]

    def insert(self, edge_id: int, i: int, j: int, membership_depth: int) -> int:
        """Stream one edge; returns how many forest entries it consumed."""
        depth = min(membership_depth, self.deepest)
        used = 0
        for layer in range(depth + 1):
            for f_idx in range(self.k):
                forest = self._forest(layer, f_idx)
                if forest.union(i, j):
                    self.stored[layer].append((edge_id, i, j))
                    used += 1
                    break
        return used

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

    def stored_count(self) -> int:
        return sum(len(s) for s in self.stored)

    def stored_edge_ids(self) -> set[int]:
        out: set[int] = set()
        for layer in self.stored:
            for edge_id, _i, _j in layer:
                out.add(edge_id)
        return out


def _stream_classes(
    n: int,
    edges: Sequence[tuple[int, int]],
    weights: Sequence[float],
    k: int,
    seed: int,
    salt: str,
) -> tuple[list[int], list[int], set[int], int]:
    """Run the layered forest construction per dyadic value class.

    ``k`` is the forest count per layer (:func:`forest_count`).  Returns
    ``(depth per edge, membership depth per edge, ids of the edges some
    forest stores, stored total)``.  An edge's membership depth is the
    number of leading zero bits of its layer draw; it is 0 for an edge
    alone in its class, whose depth is always 0.

    A class of fewer than ``k`` edges is settled in closed form (see the
    module docstring): every member has depth 0 and is stored, and the
    class holds ``sum_e (min(md_e, deepest) + 1)`` forest entries.  Only
    a class of ``k`` or more edges streams through :class:`_LayeredForests`.
    The ``layer`` PRF is keyed on the first draw; a one-edge class takes
    none, since its only layer is layer 0.
    """
    classes: dict[int, list[int]] = {}
    for e, w in enumerate(weights):
        classes.setdefault(_value_class(w), []).append(e)
    depth_of = [0] * len(edges)
    md_of = [0] * len(edges)
    stored_ids: set[int] = set()
    stored_total = 0
    layer = None
    for cls, members in classes.items():
        s = len(members)
        deepest = s.bit_length() - 1  # floor(log2 s)
        # Membership depth: leading zero bits of the edge's layer draw.
        # A one-edge class has only layer 0, so no draw is taken.
        if deepest > 0:
            if layer is None:
                layer = _prf_prefix(seed, salt, "layer")
            for e in members:
                md_of[e] = 64 - _prf_draw(layer, e).bit_length()
        md = [md_of[e] for e in members]
        if s < k:
            used = sum(min(d, deepest) + 1 for d in md)
            stored_ids.update(members)
        else:
            lf = _LayeredForests(n, k, deepest)
            for e, d in zip(members, md):
                lf.insert(e, edges[e][0], edges[e][1], d)
            for e in members:
                depth_of[e] = lf.final_depth(edges[e][0], edges[e][1])
            used = lf.stored_count()
            stored_ids |= lf.stored_edge_ids()
        # Structural space bound: each forest holds at most n-1 edges.
        bound = k * (n - 1) * (deepest + 1)
        if used > bound:
            raise AssertionError(f"class {cls} stored {used} > bound {bound}")
        stored_total += used
    return depth_of, md_of, stored_ids, stored_total


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
    k = forest_count(n, xi)
    depth_of, md_of, stored_ids, stored_total = _stream_classes(
        n, edges, weights, k, seed, "plain"
    )
    kept_ids: list[int] = []
    kept_endpoints: list[tuple[int, int]] = []
    kept_weights: list[float] = []
    kept_depths: list[int] = []
    for e, (i, j) in enumerate(edges):
        depth = depth_of[e]
        if md_of[e] >= depth and e in stored_ids:
            kept_ids.append(e)
            kept_endpoints.append((i, j))
            kept_weights.append(weights[e] * float(2**depth))
            kept_depths.append(depth)
    return Sparsifier(
        n=n,
        xi=xi,
        seed=seed,
        k=k,
        edge_ids=tuple(kept_ids),
        endpoints=tuple(kept_endpoints),
        weights=tuple(kept_weights),
        depths=tuple(kept_depths),
        stored_total=stored_total,
    )


class PromiseViolationError(RuntimeError):
    """A refined weight fell outside the promised ``chi`` band."""


@dataclass(frozen=True)
class DeferredSketch:
    """A deferred sparsifier: sampled on promised weights, refined later.

    Attributes
    ----------
    entries:
        ``(edge_id, i, j, promise, keep_probability, depth)`` per
        stored edge.
    chi:
        Refinement weights must lie in ``[promise/chi, promise*chi]``.
    """

    n: int
    xi: float
    chi: float
    seed: int
    k: int
    entries: tuple[tuple[int, int, int, float, float, int], ...]
    stored_total: int

    @property
    def space(self) -> int:
        return len(self.entries) + self.stored_total

    def stored_edge_ids(self) -> tuple[int, ...]:
        return tuple(e for (e, _i, _j, _s, _p, _d) in self.entries)


def build_deferred(
    n: int,
    edges: Sequence[tuple[int, int]],
    promise: Sequence[float],
    chi: float,
    xi: float,
    seed: int,
) -> DeferredSketch:
    """Sample a deferred sparsifier against promised weights.

    Each edge's subsampling depth is decided by the layered forest
    construction on the promise values; the edge is stored with
    probability ``min(1, chi^2 * 2^-depth)``, with no draw when that is
    1.  Any later weight vector within a ``chi`` factor of the promise
    can be refined against the stored sample (:func:`stored_sample`,
    :func:`refine_deferred`), yielding a sparsifier for those weights.

    Edges with zero promise carry no multiplier mass and are skipped.

    A value class of fewer than ``k = forest_count(n, xi)`` live edges
    needs no forests (module docstring): its edges get depth 0, keep
    probability 1 and no store draw.  Forests run only for a class of
    ``k`` or more live edges, and each PRF is keyed only when a draw of
    it is taken.  The output equals the all-forest construction entry
    for entry, ``stored_total`` included.
    """
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must be in (0, 1), got {xi}")
    if chi < 1.0:
        raise ValueError(f"chi must be >= 1, got {chi}")
    k = forest_count(n, xi)
    values = np.asarray(promise, dtype=float).tolist()
    live = [e for e, w in enumerate(values) if w > 0.0]
    live_edges = [edges[e] for e in live]
    live_promise = [values[e] for e in live]
    depth_of_live, _md, _stored_ids, stored_total = _stream_classes(
        n, live_edges, live_promise, k, seed, "deferred"
    )
    store = None
    entries: list[tuple[int, int, int, float, float, int]] = []
    for t, e in enumerate(live):
        depth = depth_of_live[t]
        p_keep = min(1.0, chi * chi * 2.0 ** (-depth))
        if p_keep < 1.0:
            if store is None:
                store = _prf_prefix(seed, "deferred", "store")
            if _unit(_prf_draw(store, e)) >= p_keep:
                continue
        i, j = live_edges[t]
        entries.append((e, i, j, live_promise[t], p_keep, depth))
    return DeferredSketch(
        n=n,
        xi=xi,
        chi=chi,
        seed=seed,
        k=k,
        entries=tuple(entries),
        stored_total=stored_total,
    )


# Relative slack on both ends of the promised band, for rounding in
# the caller's multiplier arithmetic.
PROMISE_TOL = 1e-9


@dataclass(frozen=True)
class StoredSample:
    """The stored entries of one or more deferred sketches, as flat arrays.

    Entry ``t`` is edge ``edge_ids[t]``, whose weight is read from and
    refined into position ``slots[t]`` of the caller's weight vector.
    ``lo``/``hi`` are the ends of its promised band,
    ``promise/chi * (1 - PROMISE_TOL)`` and ``promise*chi * (1 + PROMISE_TOL)``.
    """

    edge_ids: np.ndarray
    slots: np.ndarray
    promise: np.ndarray
    p_keep: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    chi: float


def stored_sample(
    sketches: Sequence[DeferredSketch], slot_of: np.ndarray | None = None
) -> StoredSample:
    """List the stored entries of ``sketches`` once, for repeated refinement.

    ``slot_of`` maps an edge id to its position in the weight vectors
    :func:`refine_deferred` will read (``None``: the edge id itself).
    The sketches must share one ``chi`` and the slots must be distinct.
    """
    chis = {sk.chi for sk in sketches}
    if len(chis) > 1:
        raise ValueError(f"sketches disagree on chi: {sorted(chis)}")
    chi = chis.pop() if chis else 1.0
    entries = [en for sk in sketches for en in sk.entries]
    edge_ids = np.array([en[0] for en in entries], dtype=np.int64)
    promise = np.array([en[3] for en in entries], dtype=float)
    p_keep = np.array([en[4] for en in entries], dtype=float)
    slots = edge_ids if slot_of is None else slot_of[edge_ids]
    if (slots < 0).any() or len(set(slots.tolist())) != len(slots):
        raise ValueError("every stored entry needs its own nonnegative slot")
    return StoredSample(
        edge_ids=edge_ids,
        slots=slots,
        promise=promise,
        p_keep=p_keep,
        lo=promise / chi * (1.0 - PROMISE_TOL),
        hi=promise * chi * (1.0 + PROMISE_TOL),
        chi=chi,
    )


def refine_deferred(sample: StoredSample, values: np.ndarray) -> np.ndarray:
    """Refine a stored sample against current weights.

    Parameters
    ----------
    sample:
        Output of :func:`stored_sample`.
    values:
        Current weight per slot.  A zero value means the edge has been
        deleted; positive values must lie within the promised band
        ``[promise/chi, promise*chi]``.

    Returns
    -------
    numpy.ndarray
        A vector shaped like ``values``: ``value / keep_probability`` at
        the slot of each stored edge (zero for a deleted one), zero
        elsewhere.

    Raises
    ------
    PromiseViolationError
        If a positive value falls outside the promised band; the
        message names the first such edge.
    """
    v = values[sample.slots]
    inside = (sample.lo <= v) & (v <= sample.hi)
    if not inside.all():
        bad = np.flatnonzero(~inside & (v != 0.0))
        if bad.size:
            t = int(bad[0])
            e, sigma, chi = int(sample.edge_ids[t]), float(sample.promise[t]), sample.chi
            raise PromiseViolationError(
                f"edge {e}: value {float(v[t])} outside promised band "
                f"[{sigma / chi}, {sigma * chi}]"
            )
    out = np.zeros(len(values))
    out[sample.slots] = v / sample.p_keep
    return out


# ---------------------------------------------------------------------------
# Multiplier-switch verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SwitchReport:
    """Outcome of :func:`verify_switch`.

    The hypothesis fields describe the sparsified multipliers; the
    conclusion fields describe the full multipliers.  ``ok`` is true
    when the implication holds (hypothesis false, or conclusion true).
    """

    hypothesis_cover: bool
    hypothesis_balance: bool
    hypothesis_shape: bool
    conclusion: bool
    sparse_product: float
    sparse_target: float
    full_product: float
    full_target: float
    ok: bool


def verify_switch(
    index: SystemIndex,
    u_full: np.ndarray,
    u_sparse: np.ndarray,
    it: DualIterate,
) -> SwitchReport:
    """Check that sparsified multipliers can stand in for the full ones.

    Both multiplier vectors are aligned with the cover rows.

    Hypothesis (on the sparsified multipliers ``u_sparse`` and iterate
    ``x``): the cover product satisfies
    ``u_s . (rows of x) >= (1 - eps/8) u_s . rhs``; every positively
    priced odd set has internal multiplier mass at least its boundary
    mass; and the iterate is shaped (``x_i >= x_i(k)``, nonnegative).

    Conclusion (on the full multipliers): ``u . (rows of x) >= (1 -
    eps/2) u . rhs``.

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
    balance_ok, _worst = index.cut_balance_ok(u_sparse, it.z)
    shape_ok = it.is_nonnegative(tol) and index.is_shaped(it, atol=tol, rtol=tol)
    conclusion = full_product >= (1.0 - eps / 2.0) * full_target - tol * max(1.0, abs(full_target))
    hypothesis = hyp_cover and balance_ok and shape_ok
    return SwitchReport(
        hypothesis_cover=hyp_cover,
        hypothesis_balance=balance_ok,
        hypothesis_shape=shape_ok,
        conclusion=conclusion,
        sparse_product=sparse_product,
        sparse_target=sparse_target,
        full_product=full_product,
        full_target=full_target,
        ok=(not hypothesis) or conclusion,
    )


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
