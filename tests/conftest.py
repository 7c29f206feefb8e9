"""Shared test fixtures and instance generators."""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Mapping, Sequence

import numpy as np
import pytest

import sketchmatch as sm
from sketchmatch import driver, oracle
from sketchmatch.sketch import (
    DEFERRED_ENTRY,
    PromiseViolationError,
    UnionFind,
    forest_count,
    prf_u64,
)

EPS = 1.0 / 16.0


def random_instance(seed: int) -> sm.Graph:
    """One acceptance-suite instance: n in [6,12], m <= 40, w in [1,100]."""
    rng = random.Random(seed)
    n = rng.randint(6, 12)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    m = min(len(pairs), 40, rng.randint(n - 1, 3 * n))
    edges = tuple(
        (i, j, float(rng.randint(1, 100))) for (i, j) in sorted(pairs[:m])
    )
    b = tuple(rng.choice((1, 2)) for _ in range(n))
    return sm.Graph(n=n, edges=edges, b=b)


def oddset_wide_instance(seed: int, n: int) -> sm.Graph:
    """An odd-set-heavy instance: b = 1, m = 3n, integer weights 1..100."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    edges = tuple(
        (i, j, float(rng.randint(1, 100))) for (i, j) in sorted(pairs[: 3 * n])
    )
    return sm.Graph(n=n, edges=edges, b=(1,) * n)


def wide_random_instance(n: int) -> sm.Graph:
    """A graph past the odd-set enumeration cap: b = 1, 3n distinct edges, weights 1..100.

    Pairs are drawn as ``sorted(rng.sample(range(n), 2))`` from seed 1, a
    repeat skipped, and each new pair draws its weight at once.
    """
    rng = random.Random(1)
    weight: dict[tuple[int, int], float] = {}
    while len(weight) < 3 * n:
        pair = tuple(sorted(rng.sample(range(n), 2)))
        if pair not in weight:
            weight[pair] = float(rng.randint(1, 100))
    return sm.Graph(n=n, edges=tuple((i, j, w) for (i, j), w in sorted(weight.items())), b=(1,) * n)


def networkx_matching_weight(g: sm.Graph) -> float:
    """Maximum matching weight of a b = 1 graph, by networkx (a test-only cross-check)."""
    nx = pytest.importorskip("networkx")
    reference = nx.Graph()
    reference.add_weighted_edges_from(g.edges)
    return sum(reference[i][j]["weight"] for i, j in nx.max_weight_matching(reference))


def profile_edge_graphs() -> dict[str, sm.Graph]:
    """Graphs whose packed degree rows take their edge shapes.

    ``isolated``: the last vertex has no edge.  ``dropped``: the last
    vertex's edges are all too light to keep, so it has no degree row
    either.  ``extremes``: vertex 0 has degree rows at level 0 (weight
    1.05, just above the cut ``eps * W* / B``) and at the top level L.
    """
    g = random_instance(1005)
    isolated = sm.Graph(n=g.n + 1, edges=g.edges, b=g.b + (1,))
    g = random_instance(1011)
    light = ((0, g.n, 1e-4), (1, g.n, 2e-4))
    dropped = sm.Graph(n=g.n + 1, edges=g.edges + light, b=g.b + (2,))
    extremes = sm.Graph(
        n=5,
        edges=(
            (0, 1, 100.0), (0, 2, 1.05), (0, 3, 30.0),
            (2, 3, 60.0), (3, 4, 40.0), (1, 4, 20.0),
        ),
        b=(2, 1, 1, 1, 1),
    )
    return {"isolated": isolated, "dropped": dropped, "extremes": extremes}


def refine_deferred_reference(
    sketch: sm.DeferredSketch, values: Mapping[int, float], tol: float = 1e-9
) -> dict[int, float]:
    """Per-entry refinement loop, the reference for ``sm.refine_deferred``.

    ``values`` maps edge id to current weight; a zero or absent value is a
    deleted edge.  Returns ``edge id -> value / keep_probability``.
    """
    out: dict[int, float] = {}
    chi = sketch.chi
    for (e, _i, _j, sigma, p_keep, _depth) in sketch.entries.tolist():
        v = values.get(e, 0.0)
        if v == 0.0:
            continue
        lo = sigma / chi * (1.0 - tol)
        hi = sigma * chi * (1.0 + tol)
        if not lo <= v <= hi:
            raise PromiseViolationError(
                f"edge {e}: value {v} outside promised band [{sigma / chi}, {sigma * chi}]"
            )
        out[e] = v / p_keep
    return out


def stream_classes_reference(
    n: int,
    edges: Sequence[tuple[int, int]],
    weights: Sequence[float],
    k: int,
    seed: int,
    salt: str,
) -> tuple[list[int], set[int], int]:
    """All-forest layered construction, the reference for ``_stream_classes``.

    Streams every edge through ``k`` union-find forests per layer of its
    dyadic value class, whatever the class size, and draws from
    ``prf_u64`` directly.  Returns ``(depth per edge, ids of the edges
    some forest stores, stored total)``.
    """
    classes: dict[int, list[int]] = {}
    for e, w in enumerate(weights):
        classes.setdefault(math.frexp(w)[1] - 1, []).append(e)
    depth_of = [0] * len(edges)
    stored_ids: set[int] = set()
    stored_total = 0
    for members in classes.values():
        deepest = int(math.floor(math.log2(len(members))))
        forests: list[list[UnionFind]] = [[] for _ in range(deepest + 1)]
        for e in members:
            i, j = edges[e]
            r = prf_u64(seed, salt, "layer", e)
            for layer in range(min(64 - r.bit_length(), deepest) + 1):
                row = forests[layer]
                for f in range(k):
                    if f == len(row):
                        row.append(UnionFind(n))
                    if row[f].union(i, j):
                        stored_ids.add(e)
                        stored_total += 1
                        break
        for e in members:
            i, j = edges[e]
            depth_of[e] = next(
                (
                    layer
                    for layer, row in enumerate(forests)
                    if len(row) < k or not row[k - 1].connected(i, j)
                ),
                deepest,
            )
    return depth_of, stored_ids, stored_total


def build_deferred_reference(
    n: int,
    edges: Sequence[tuple[int, int]],
    promise: Sequence[float],
    chi: float,
    xi: float,
    seed: int,
) -> sm.DeferredSketch:
    """All-forest deferred build of one promise row, the reference for ``sm.build_deferred``."""
    k = forest_count(n, xi)
    live = [e for e in range(len(edges)) if promise[e] > 0.0]
    depth_of, _stored, stored_total = stream_classes_reference(
        n, [edges[e] for e in live], [promise[e] for e in live], k, seed, "deferred"
    )
    entries = []
    for t, e in enumerate(live):
        depth = depth_of[t]
        p_keep = min(1.0, chi * chi * 2.0 ** (-depth))
        draw = prf_u64(seed, "deferred", "store", e) >> 11
        if p_keep >= 1.0 or draw * 2.0**-53 < p_keep:
            i, j = edges[e]
            entries.append((e, i, j, float(promise[e]), p_keep, depth))
    return sm.DeferredSketch(
        entries=np.array(entries, dtype=DEFERRED_ENTRY), chi=chi, stored_total=stored_total
    )


def build_deferred_stack_reference(
    n: int,
    edges: Sequence[tuple[int, int]],
    stack: Sequence[Sequence[float]],
    chi: float,
    xi: float,
    seeds: Sequence[int],
) -> sm.DeferredSketch:
    """A promise stack, one all-forest build per row, the outputs concatenated."""
    per_row = [
        build_deferred_reference(n, edges, list(row), chi, xi, seed)
        for row, seed in zip(stack, seeds, strict=True)
    ]
    return sm.DeferredSketch(
        entries=np.concatenate([sk.entries for sk in per_row] or [np.array([], DEFERRED_ENTRY)]),
        chi=chi,
        stored_total=sum(sk.stored_total for sk in per_row),
    )


def build_streaming_sparsifier_reference(
    n: int,
    edges: Sequence[tuple[int, int]],
    weights: Sequence[float],
    xi: float,
    seed: int,
) -> sm.Sparsifier:
    """All-forest streaming build, the reference for ``sm.build_streaming_sparsifier``."""
    k = forest_count(n, xi)
    depth_of, stored_ids, stored_total = stream_classes_reference(
        n, edges, weights, k, seed, "plain"
    )
    kept = [
        e
        for e in range(len(edges))
        if e in stored_ids
        and 64 - prf_u64(seed, "plain", "layer", e).bit_length() >= depth_of[e]
    ]
    return sm.Sparsifier(
        n=n, xi=xi, seed=seed, k=k,
        edge_ids=tuple(kept),
        endpoints=tuple(edges[e] for e in kept),
        weights=tuple(weights[e] * float(2 ** depth_of[e]) for e in kept),
        stored_total=stored_total,
    )


def z_prices(it: sm.DualIterate) -> dict[tuple[int, int], float]:
    """The odd-set prices of ``it`` as a ``(set, level) -> value`` map, in array order."""
    return dict(
        zip(zip(it.z_set.tolist(), it.z_level.tolist(), strict=True), it.z_value.tolist(), strict=True)
    )


def set_z_prices(it: sm.DualIterate, z: Mapping[tuple[int, int], float]) -> sm.DualIterate:
    """Give ``it`` the odd-set prices of the map ``z``, in map order; returns ``it``."""
    it.z_set = np.array([t for t, _lev in z], dtype=np.int64)
    it.z_level = np.array([lev for _t, lev in z], dtype=np.int64)
    it.z_value = np.array(list(z.values()), dtype=float)
    return it


def certificate_reference(index, u_sparse, zeta_bar, z_set, z_level, gamma, penalty, beta):
    """Dict-keyed certificate construction, the reference for ``oracle._certificate``.

    Takes the arguments of ``oracle._certificate`` and returns ``(y, mu,
    y_caps, objective)``: ``y`` by edge id, ``mu`` by ``(vertex, level)``
    (a key with no degree row included), ``y_caps`` by degree row.
    Every member of a selected set is bumped once per pair, looping
    over the pairs.
    """
    eps = index.epsilon
    b = index.leveled.base.b
    w_of = [index.leveled.level_weight(k) for k in range(index.leveled.L + 1)]
    vrow_of = {key: t for t, key in enumerate(index.vrows)}
    bump_unit = gamma / (2.0 * penalty * beta)
    zeta_hat = zeta_bar.copy()
    extra: dict[tuple[int, int], float] = {}
    for t, lev in zip(z_set.tolist(), z_level.tolist(), strict=True):
        for i in index.odd_sets.members(t):
            vr = vrow_of.get((i, lev))
            if vr is None:
                extra[(i, lev)] = extra.get((i, lev), 0.0) + bump_unit * b[i]
            else:
                zeta_hat[vr] += bump_unit * b[i]
    scale = (1.0 - eps / 4.0) * beta / ((1.0 + eps / 2.0) * gamma)
    y = {}
    for r, (e, _i, _j, _k) in enumerate(index.rows):
        if u_sparse[r] > 0.0:
            y[e] = scale * u_sparse[r]
    mu = {}
    for t, key in enumerate(index.vrows):
        if zeta_hat[t] > 0.0:
            mu[key] = scale * penalty * zeta_hat[t]
    for key, v in extra.items():
        mu[key] = mu.get(key, 0.0) + scale * penalty * v
    y_mass = index.vrow_mass(scale * u_sparse)
    y_caps = {}
    for t, key in enumerate(index.vrows):
        val = y_mass[t] - 2.0 * mu.get(key, 0.0)
        if val > 0.0:
            y_caps[key] = val
    objective = math.fsum(
        w_of[k] * y[e] for (e, _i, _j, k) in index.rows if e in y
    ) - 3.0 * math.fsum(w_of[k] * v for (_i, k), v in mu.items())
    return y, mu, y_caps, objective


def certificate_vectors(index, y, mu, y_caps):
    """The row-aligned vectors of a dict-keyed certificate (absent keys read 0)."""
    mu_mat = np.zeros((index.leveled.base.n, index.leveled.L + 1))
    for (i, k), v in mu.items():
        mu_mat[i, k] = v
    return (
        np.array([y.get(e, 0.0) for (e, _i, _j, _k) in index.rows]),
        mu_mat,
        np.array([y_caps.get(key, 0.0) for key in index.vrows]),
    )


@pytest.fixture(autouse=True, scope="session")
def certificates_match_dict_reference():
    """Check every certificate the oracle builds against ``certificate_reference``.

    The vectors must equal the reference's values entry for entry, and
    the objective bit for bit.  ``checked.calls`` counts the checks.
    """
    real = oracle._certificate

    def checked(index, *args):
        cert = real(index, *args)
        y, mu, y_caps, objective = certificate_reference(index, *args)
        for got, want in zip((cert.y, cert.mu, cert.y_caps), certificate_vectors(index, y, mu, y_caps)):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert cert.objective == objective
        assert sorted(y) == index.row_edge[cert.y > 0.0].tolist()
        checked.calls += 1
        return cert

    checked.calls = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_certificate", checked)
        yield checked


def _unit_graph(n: int, pairs) -> sm.Graph:
    return sm.Graph(n=n, edges=tuple((i, j, 1.0) for i, j in pairs), b=(1,) * n)


def _clique(vertices) -> list[tuple[int, int]]:
    return [(i, j) for i in vertices for j in vertices if i < j]


# Unit-weight graphs whose components are odd sets of the small family,
# with those components: the warm start prices each one.
WARM_START_GRAPHS = {
    "k3": (_unit_graph(3, _clique(range(3))), [(0, 1, 2)]),
    "k5": (_unit_graph(5, _clique(range(5))), [(0, 1, 2, 3, 4)]),
    "two_triangles": (
        _unit_graph(6, _clique(range(3)) + _clique(range(3, 6))),
        [(0, 1, 2), (3, 4, 5)],
    ),
}
WARM_START_SHARE = 0.8


def _patch_start(monkeypatch, label: str, build) -> None:
    """Patch ``driver.initial_solution`` with the iterate ``build(index)``.

    The start takes one ledger round and stores nothing.
    """

    def start(index, p, seed, *, ledger=None):
        if ledger is not None:
            ledger.begin_round(label)
        it = build(index)
        lam0, _arg = index.coverage_lambda(index.cover_values(it))
        return it, sm.budget_value(index, it), lam0

    monkeypatch.setattr(driver, "initial_solution", start)


def warm_start(monkeypatch, groups) -> None:
    """Patch ``driver.initial_solution`` with an odd-set-priced start.

    Each vertex group in ``groups`` (disjoint, each a set of the small
    odd-set family) is priced at ``WARM_START_SHARE * w_k`` on the level
    ``k`` of its internal edges; x prices then top up any cover row
    still below that share of its right-hand side.  It is far closer
    to the dual optimum than the maximal-matching start, so the solve's
    queries land on the odd-set and certificate branches.
    """

    def build(index):
        it = sm.DualIterate.zeros(index)
        z = {}
        family = index.odd_sets
        row_of = {family.members(t): t for t in range(len(family))}
        for group in groups:
            inside = np.isin(index.row_ends, group).all(axis=1)
            (level,) = set(index.row_levels[inside].tolist())
            z[(row_of[tuple(group)], level)] = WARM_START_SHARE * index.level_weights[level]
        set_z_prices(it, z)
        half_short = np.maximum(WARM_START_SHARE * index.cover_rhs - index.cover_values(it), 0.0) / 2.0
        for end in (0, 1):
            np.maximum.at(it.x_level, index.row_vrow[:, end], half_short)
        np.maximum.at(it.x_top, index.vrow_vertex, it.x_level)
        return it

    _patch_start(monkeypatch, "warm-start", build)


def layered_dual_iterate(index, dual, share: float) -> sm.DualIterate:
    """``share`` times an exact layered dual, as an iterate of ``index``.

    ``dual`` is ``ExactResult.layered_dual``.  Its ``x_i(k)``, keyed by
    the ``(i, k)`` pairs of ``index.vrows``, fill the degree rows, its
    ``x_i`` the top prices, and each positive ``z_{U,l}`` the family row
    of ``U`` at level ``l``, in the dual's key order.
    """
    x_level, x_top, z = dual
    n = index.leveled.base.n
    it = sm.DualIterate.zeros(index)
    it.x_level[:] = [share * float(x_level[key]) for key in index.vrows]
    it.x_top[:] = [share * float(x_top[i]) for i in range(n)]
    family = index.odd_sets
    row_of = {family.members(t): t for t in range(len(family))}
    return set_z_prices(
        it,
        {
            (row_of[tuple(i for i in range(n) if mask >> i & 1)], lev): share * float(v)
            for (mask, lev), v in z.items()
            if v > 0
        },
    )


def lp_dual_start(monkeypatch, g: sm.Graph, share: float = WARM_START_SHARE) -> None:
    """Patch ``driver.initial_solution`` with ``share`` times the exact layered dual of ``g``."""
    dual = sm.exact_lp_values(g, EPS, include_layered=True).layered_dual
    _patch_start(monkeypatch, "lp-dual-start", lambda index: layered_dual_iterate(index, dual, share))


def inexact_harvests(monkeypatch) -> None:
    """Mark every harvest of ``driver.solve`` inexact.

    No harvest is then final, so a solve that cannot certify runs every
    round up to its cap instead of stopping after its first solve round.
    """
    real = driver.extract_integral
    monkeypatch.setattr(
        driver,
        "extract_integral",
        lambda lv, ids: dataclasses.replace(real(lv, ids), exact=False),
    )


def count_oracle_answers(monkeypatch) -> dict[str, int]:
    """Wrap ``driver.matching_oracle``; the returned map counts its answers.

    Keys are the step branches and ``"certificate"``.
    """
    counts: dict[str, int] = {}
    real = driver.matching_oracle

    def counting(*args):
        out = real(*args)
        kind = "certificate" if isinstance(out, oracle.PrimalCertificate) else out.branch
        counts[kind] = counts.get(kind, 0) + 1
        return out

    monkeypatch.setattr(driver, "matching_oracle", counting)
    return counts


def triangle_paper(eps: float = EPS) -> sm.Graph:
    """The motivating triangle: two unit edges and one light edge."""
    return sm.Graph(
        n=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 10.0 * eps)), b=(1, 1, 1)
    )


@pytest.fixture(scope="session")
def suite_instances() -> list[sm.Graph]:
    """The 100 seeded graphs shared by the acceptance criteria."""
    return [random_instance(1000 + s) for s in range(100)]
