"""Sketching layer: PRFs, deferred sketches, ledger."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchmatch as sm
from sketchmatch import sketch
from sketchmatch.sketch import (
    DEFERRED_ENTRY,
    PROMISE_TOL,
    PromiseViolationError,
    _prf_draw,
    _prf_prefix,
    all_cut_values,
    forest_count,
    prf_u64,
    prf_uniform,
)

from conftest import (
    build_deferred_reference,
    build_deferred_stack_reference,
    refine_deferred_reference,
)


class TestPrf:
    def test_deterministic(self):
        assert prf_u64(7, "a", 3) == prf_u64(7, "a", 3)

    def test_domain_separation(self):
        assert prf_u64(7, "a", 3) != prf_u64(7, "a", 4)
        assert prf_u64(7, "ab", "c") != prf_u64(7, "a", "bc")

    def test_pinned_values(self):
        # the encoding of the parts is part of every report's bits
        assert prf_u64(7, "a", 3) == 11954247689372869580
        assert prf_u64(0, "deferred", "store", 12) == 4142829699543737864
        assert prf_u64(2**64 + 5, "x", -4, "y") == 17359215383234892713
        assert prf_u64(3) == 15984574750479625493

    def test_uniform_range(self):
        vals = [prf_uniform(1, "t", i) for i in range(1000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert 0.4 < sum(vals) / len(vals) < 0.6

    def test_uniform_below_one_at_top_value(self, monkeypatch):
        top = 2**64 - 1
        monkeypatch.setattr(sketch, "prf_u64", lambda seed, *parts: top)
        u = prf_uniform(1, "t", 0)
        assert 0.0 <= u < 1.0
        assert u == 1.0 - 2.0**-53

    def test_prefix_draws_equal_prf_u64(self):
        ints = list(range(-3, 300)) + [2**31, 2**40 + 7, 2**63 - 1, -(2**63)]
        for seed in (0, 1, 5, 2**62 + 11, 2**64 - 1, 2**70 + 3):
            for parts in (("deferred", "store"), ("plain", "layer"), ("x", 4, "y")):
                prefix = _prf_prefix(seed, *parts)
                for e in ints:
                    assert _prf_draw(prefix, e) == prf_u64(seed, *parts, e)


def _cut_dev(n, edges_a, wa, edges_b, wb):
    ca = all_cut_values(n, edges_a, wa)
    cb = all_cut_values(n, edges_b, wb)
    live = ca > 0
    if (~live & (cb != 0)).any():
        return math.inf
    if not live.any():
        return 0.0
    return float(np.max(np.abs(cb[live] - ca[live]) / ca[live]))


def _sparsify(n, edges, weights, xi, seed):
    """The deferred sketch at ``chi = 1``, refined at its promise.

    Returns its kept edge ids, their endpoints and their reweighted
    weights: a cut sparsifier of ``weights``, built in one pass.
    """
    sk = sm.build_deferred(n, edges, weights, chi=1.0, xi=xi, seed=seed)
    entries = sk.entries
    got = sm.refine_deferred(sk, entries["promise"])
    return entries["edge"].tolist(), entries[["i", "j"]].tolist(), got.tolist()


class TestStreamingSparsifier:
    """The one-pass cut sparsifier: the deferred sketch at ``chi = 1``."""

    def test_forest_identity(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        weights = [2.0, 5.0, 0.5]
        ids, _ends, kept_w = _sparsify(4, edges, weights, 0.25, seed=1)
        assert sorted(ids) == [0, 1, 2]
        kept = dict(zip(ids, kept_w))
        for e, w in enumerate(weights):
            assert kept[e] == pytest.approx(w)

    def test_single_edge(self):
        ids, _ends, kept_w = _sparsify(2, [(0, 1)], [3.0], 0.25, seed=0)
        assert ids == [0]
        assert kept_w[0] == pytest.approx(3.0)

    def test_k4_cut_fidelity(self):
        n = 4
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        weights = [1.0] * len(edges)
        passing = 0
        for seed in range(100):
            _ids, ends, kept_w = _sparsify(n, edges, weights, 0.25, seed=seed)
            dev = _cut_dev(n, edges, weights, ends, kept_w)
            if dev <= 0.25:
                passing += 1
        assert passing >= 99

    def test_edge_count_bound(self):
        n, xi = 8, 0.5
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        weights = [float(1 + (i * 7) % 13) for i in range(len(edges))]
        ids, _ends, _w = _sparsify(n, edges, weights, xi, seed=3)
        k = forest_count(n, xi)
        bound = k * (n - 1) * (math.log2(len(edges)) + 1)
        assert len(ids) <= bound

    def test_forest_count_formula(self):
        assert forest_count(4, 0.25) == math.ceil(
            16.0 * math.log(5.0) ** 2 / 0.0625
        )


class TestDeferredSketch:
    def test_forest_all_stored(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        promise = [1.0, 2.0, 4.0]
        sk = sm.build_deferred(4, edges, promise, chi=3.0, xi=0.25, seed=5)
        assert sorted(sk.entries["edge"].tolist()) == [0, 1, 2]
        assert sk.entries["p_keep"].tolist() == [1.0, 1.0, 1.0]

    def test_stored_on_top_draw(self, monkeypatch):
        # the largest 64-bit draw still samples below keep probability 1
        monkeypatch.setattr(sketch, "_prf_draw", lambda prefix, part: 2**64 - 1)
        edges = [(0, 1), (1, 2), (2, 3)]
        sk = sm.build_deferred(4, edges, [1.0, 2.0, 4.0], chi=3.0, xi=0.25, seed=5)
        assert sorted(sk.entries["edge"].tolist()) == [0, 1, 2]

    def test_keep_probability_one_draws_nothing(self, monkeypatch):
        # a draw that never passes cannot drop an edge kept with certainty
        monkeypatch.setattr(sketch, "_unit", lambda u: 1.0)
        edges = [(0, 1), (1, 2), (2, 3)]
        sk = sm.build_deferred(4, edges, [1.0, 2.0, 4.0], chi=3.0, xi=0.25, seed=5)
        assert sorted(sk.entries["edge"].tolist()) == [0, 1, 2]

    def test_refine_identity_on_promise(self):
        edges = [(0, 1), (1, 2)]
        promise = [1.5, 2.5]
        sk = sm.build_deferred(3, edges, promise, chi=2.0, xi=0.25, seed=5)
        out = sm.refine_deferred(sk, np.array([1.5, 2.5]))
        assert out.tolist() == [1.5, 2.5]

    def test_refine_deletion(self):
        edges = [(0, 1), (1, 2)]
        sk = sm.build_deferred(3, edges, [1.0, 1.0], chi=2.0, xi=0.25, seed=5)
        out = sm.refine_deferred(sk, np.array([1.0, 0.0]))
        assert out.tolist() == [1.0, 0.0]

    def test_promise_violation_raises(self):
        edges = [(0, 1)]
        sk = sm.build_deferred(2, edges, [1.0], chi=2.0, xi=0.25, seed=5)
        with pytest.raises(PromiseViolationError, match="edge 0"):
            sm.refine_deferred(sk, np.array([5.0]))

    def test_refine_matches_reference_on_built_sketches(self):
        rng = np.random.default_rng(3)
        for seed in range(40):
            n = int(rng.integers(3, 8))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
            promise = rng.uniform(0.5, 50.0, len(edges))
            promise[rng.random(len(edges)) < 0.2] = 0.0
            chi = float(rng.uniform(1.0, 3.0))
            sk = sm.build_deferred(n, edges, promise, chi=chi, xi=0.4, seed=seed)
            assert len(sk.entries)
            values = promise * rng.uniform(1.0 / chi, chi, len(edges))
            values[rng.random(len(edges)) < 0.2] = 0.0
            got = _refine_by_edge(sk, values)
            want = refine_deferred_reference(sk, dict(enumerate(values.tolist())))
            assert _nonzero_map(got) == want

    def test_refine_matches_reference_on_hand_built_entries(self):
        sk = _hand_sketch()
        promise = dict(sk.entries[["edge", "promise"]].tolist())
        lo = {e: s / sk.chi * (1.0 - PROMISE_TOL) for e, s in promise.items()}
        hi = {e: s * sk.chi * (1.0 + PROMISE_TOL) for e, s in promise.items()}
        # both band ends exactly, a deleted edge, an interior value
        values = {0: lo[0], 1: hi[1], 2: 0.0, 3: 0.7 * promise[3], 4: hi[4], 5: lo[5]}
        vec = np.zeros(8)
        for e, v in values.items():
            vec[e] = v
        vec[7] = 123.0  # not stored: never read
        got = _refine_by_edge(sk, vec)
        want = refine_deferred_reference(sk, values)
        assert set(want) == {0, 1, 3, 4, 5}
        assert _nonzero_map(got) == want
        assert got[2] == 0.0 and got[6] == 0.0 and got[7] == 0.0
        for e, v in ((0, lo[0]), (4, hi[4])):
            assert got[e] != v  # reweighted by a keep probability below 1

    @pytest.mark.parametrize("end", ["lo", "hi"])
    def test_value_just_outside_band_raises(self, end):
        sk = _hand_sketch()
        # entry t is edge t, so the promises are a vector inside every band
        promise = sk.entries["promise"]
        for e, _i, _j, sigma, _p, _d in sk.entries.tolist():
            vec = promise.copy()
            if end == "lo":
                vec[e] = np.nextafter(sigma / sk.chi * (1.0 - PROMISE_TOL), -np.inf)
            else:
                vec[e] = np.nextafter(sigma * sk.chi * (1.0 + PROMISE_TOL), np.inf)
            with pytest.raises(PromiseViolationError, match=f"edge {e}:"):
                sm.refine_deferred(sk, vec)
            with pytest.raises(PromiseViolationError, match=f"edge {e}:"):
                refine_deferred_reference(sk, dict(enumerate(vec.tolist())))

    def test_refine_stacked_sketch_entry_by_entry(self):
        # two rows' entries in one sketch, as a promise stack stores them;
        # edges 0 and 3 are stored in both rows, under different promises
        a = _hand_sketch()
        b = sm.DeferredSketch(
            entries=np.array(
                [(0, 0, 1, 8.0, 0.125, 4), (3, 1, 2, 0.5, 1.0, 0), (9, 1, 2, 5.0, 1.0, 0)],
                dtype=DEFERRED_ENTRY,
            ),
            chi=a.chi,
            stored_total=0,
        )
        both = sm.DeferredSketch(
            entries=np.concatenate((a.entries, b.entries)), chi=a.chi, stored_total=0
        )
        values_a = {0: 2.0, 1: 3.0, 2: 1.5, 3: 1.0, 4: 7.0, 5: 6.0}
        values_b = {0: 9.0, 3: 0.0, 9: 2.9}
        vec = np.array(list(values_a.values()) + list(values_b.values()))
        got = sm.refine_deferred(both, vec)
        want_a = refine_deferred_reference(a, values_a)
        want_b = refine_deferred_reference(b, values_b)
        assert got[:6].tolist() == [want_a.get(e, 0.0) for e in values_a]
        assert got[6:].tolist() == [want_b.get(e, 0.0) for e in values_b]
        # 2.0 lies in row a's band for edge 0, [2/1.75, 2*1.75], but not in row b's
        vec[6] = 2.0
        with pytest.raises(PromiseViolationError, match="edge 0:"):
            sm.refine_deferred(both, vec)

    def test_refine_needs_one_value_per_entry(self):
        sk = _hand_sketch()
        for size in (0, 5, 7):
            with pytest.raises(ValueError, match="one value per stored entry"):
                sm.refine_deferred(sk, np.ones(size))

    def test_refine_empty_sketch(self):
        empty = sm.DeferredSketch(entries=np.array([], DEFERRED_ENTRY), chi=2.0, stored_total=0)
        out = sm.refine_deferred(empty, np.zeros(0))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_zero_promise_skipped(self):
        edges = [(0, 1), (1, 2)]
        sk = sm.build_deferred(3, edges, [1.0, 0.0], chi=2.0, xi=0.25, seed=5)
        assert sorted(sk.entries["edge"].tolist()) == [0]

    def test_deferred_dominates_plain_with_coupled_seed(self):
        # chi >= 1 only raises keep probabilities; same PRF stream
        n = 6
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        promise = [1.0] * len(edges)
        plain = sm.build_deferred(n, edges, promise, chi=1.0, xi=0.4, seed=9)
        wide = sm.build_deferred(n, edges, promise, chi=2.0, xi=0.4, seed=9)
        assert set(plain.entries["edge"].tolist()) <= set(wide.entries["edge"].tolist())

    def test_adversarial_within_promise_fidelity(self):
        # K5, promise 1, true weights pushed to both band edges
        n, xi, chi = 5, 0.25, 2.0
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        promise = [1.0] * len(edges)
        passing = 0
        for seed in range(100):
            true = {
                e: (chi if prf_u64(seed, "adv", e) % 2 else 1.0 / chi)
                for e in range(len(edges))
            }
            sk = sm.build_deferred(n, edges, promise, chi=chi, xi=xi, seed=seed)
            true_w = [true[e] for e in range(len(edges))]
            entries = sk.entries
            out = sm.refine_deferred(sk, np.array(true_w)[entries["edge"]])
            dev = _cut_dev(n, edges, true_w, entries[["i", "j"]].tolist(), out.tolist())
            if dev <= xi:
                passing += 1
        assert passing >= 99

    def test_union_of_per_level_sparsifiers(self):
        # sparsifying two edge-disjoint halves separately preserves the
        # cuts of the union
        n = 6
        all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        half_a = all_edges[: len(all_edges) // 2]
        half_b = all_edges[len(all_edges) // 2 :]
        wa = [1.0 + (e % 3) for e in range(len(half_a))]
        wb = [2.0 + (e % 2) for e in range(len(half_b))]
        passing = 0
        for seed in range(60):
            _a, ends_a, kept_a = _sparsify(n, half_a, wa, 0.3, seed=seed)
            _b, ends_b, kept_b = _sparsify(n, half_b, wb, 0.3, seed=seed + 7_000)
            dev = _cut_dev(n, all_edges, wa + wb, ends_a + ends_b, kept_a + kept_b)
            if dev <= 0.6:  # xi_a + xi_b in the worst case
                passing += 1
        assert passing >= 58


def _promises(rng: np.random.Generator, m: int, kind: str) -> list[float]:
    """Promise vectors with zeros, repeated values or far-apart scales."""
    if kind == "zero":
        return [0.0] * m
    if kind == "repeated":
        return rng.choice([0.0, 1.0, 1.5, 3.0], m).tolist()
    scale = 2.0 ** rng.integers(-40, 40, m).astype(float)
    out = (scale * rng.uniform(1.0, 2.0, m)).tolist()
    return [0.0 if rng.random() < 0.2 else p for p in out]


def _assert_same(got, want) -> None:
    for name in want.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


class TestDeferredClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 1 << 32),
        st.sampled_from(("zero", "repeated", "far")),
        st.sampled_from((0.99, 0.5, 0.25)),
        st.sampled_from((1.0, 1.5, 4.0)),
    )
    def test_matches_forest_reference(self, seed, kind, xi, chi):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = int(rng.integers(0, 41))
        edges = [pairs[t] for t in rng.integers(0, len(pairs), m)]
        promise = _promises(rng, m, kind)
        got = sm.build_deferred(n, edges, promise, chi, xi, seed)
        _assert_same(got, build_deferred_reference(n, edges, promise, chi, xi, seed))

    @pytest.mark.parametrize("s", [19, 20, 21])
    @pytest.mark.parametrize("chi", [1.0, 1.5])
    def test_parallel_edges_around_forest_count(self, s, chi):
        assert forest_count(2, 0.99) == 20
        edges, promise = [(0, 1)] * s, [1.0] * s
        for seed in range(8):
            got = sm.build_deferred(2, edges, promise, chi, 0.99, seed)
            want = build_deferred_reference(2, edges, promise, chi, 0.99, seed)
            _assert_same(got, want)
            if s < 20:
                assert set(got.entries[["p_keep", "depth"]].tolist()) == {(1.0, 0)}

    def test_dense_class_runs_forests(self, monkeypatch):
        n, xi = 20, 0.99
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert len(edges) >= forest_count(n, xi) == 152
        made = []
        real = sketch._LayeredForests
        monkeypatch.setattr(
            sketch, "_LayeredForests", lambda *a: made.append(a) or real(*a)
        )
        for chi in (1.0, 1.5):
            got = sm.build_deferred(n, edges, [1.0] * len(edges), chi, xi, seed=4)
            want = build_deferred_reference(n, edges, [1.0] * len(edges), chi, xi, 4)
            _assert_same(got, want)
        assert made == [(n, 152, 7)] * 2

    def test_final_depth_takes_every_return(self, monkeypatch):
        # 57 parallel (0, 1) edges and one (2, 3) edge form one class of
        # k or more edges, so it streams through _LayeredForests.
        n, xi = 4, 0.9
        k = forest_count(n, xi)
        assert k == 52
        edges = [(0, 1)] * 57 + [(2, 3)]
        promise = [1.0] * len(edges)
        made = []
        real = sketch._LayeredForests
        monkeypatch.setattr(
            sketch, "_LayeredForests", lambda *a: made.append(real(*a)) or made[-1]
        )

        got = sm.build_deferred(n, edges, promise, 1.0, xi, seed=3)
        _assert_same(got, build_deferred_reference(n, edges, promise, 1.0, xi, 3))
        (lf,) = made
        # Layer 0 fills all k forests and the k-th still separates (2, 3);
        # layer 1 never creates its k-th forest.
        assert len(lf.forests[0]) == k and not lf.forests[0][k - 1].connected(2, 3)
        assert len(lf.forests[1]) < k
        depth = dict(zip(got.entries["edge"].tolist(), got.entries["depth"].tolist()))
        assert len(depth) == 32 and set(depth.values()) == {0, 1}
        assert depth[57] == 0

        # With every draw 1, each insert enters every layer and each store
        # draw keeps: every layer's k-th forest joins (0, 1), so those
        # edges fall back to the deepest layer, floor(log2 58) = 5.
        monkeypatch.setattr(sketch, "_prf_draw", lambda prefix, part: 1)
        made.clear()
        got = sm.build_deferred(n, edges, promise, 1.0, xi, seed=3)
        (lf,) = made
        assert lf.deepest == 5
        assert all(len(row) == k and row[k - 1].connected(0, 1) for row in lf.forests)
        assert got.entries["edge"].tolist() == list(range(58))
        assert got.entries["depth"].tolist() == [5] * 57 + [0]

    def test_closed_form_stored_total(self):
        # a class of s < k edges stores sum_e (min(md_e, deepest) + 1)
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        promise = [1.0] * 9 + [2.5] * 5 + [0.0]
        for seed in range(20):
            sk = sm.build_deferred(6, edges, promise, 2.0, 0.5, seed)
            want = 0
            for cls in (range(0, 9), range(9, 14)):
                deepest = int(math.floor(math.log2(len(cls))))
                for t in cls:
                    md = 64 - prf_u64(seed, "deferred", "layer", t).bit_length()
                    want += min(md, deepest) + 1
            assert sk.stored_total == want
            assert sk.entries["edge"].tolist() == list(range(14))

    def test_single_edge_classes_take_no_draw(self, monkeypatch):
        def refuse(*_args):
            raise AssertionError("no PRF may be keyed or drawn")

        monkeypatch.setattr(sketch, "_prf_prefix", refuse)
        monkeypatch.setattr(sketch, "_prf_draw", refuse)
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
        promise = [1.0, 2.0, 0.0, 4.5, 100.0]
        sk = sm.build_deferred(4, edges, promise, 3.0, 0.25, seed=5)
        assert sk.entries.tolist() == [
            (e, *edges[e], promise[e], 1.0, 0) for e in (0, 1, 3, 4)
        ]
        assert sk.stored_total == 4


class TestDeferredStack:
    """One call over a stack of promise rows, against one build per row."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 1 << 32),
        st.lists(st.sampled_from(("zero", "repeated", "far")), max_size=5),
        st.sampled_from((0.99, 0.5, 0.25)),
        st.sampled_from((1.0, 1.5, 4.0)),
    )
    def test_matches_per_row_reference(self, seed, kinds, xi, chi):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        m = int(rng.integers(0, 41))
        edges = [pairs[t] for t in rng.integers(0, len(pairs), m)]
        stack = np.array([_promises(rng, m, kind) for kind in kinds]).reshape(len(kinds), m)
        seeds = rng.integers(0, 1 << 62, len(kinds)).tolist()
        got = sm.build_deferred(n, edges, stack, chi, xi, seeds)
        want = build_deferred_stack_reference(n, edges, stack, chi, xi, seeds)
        _assert_same(got, want)
        assert got.space == sum(
            build_deferred_reference(n, edges, row, chi, xi, s).space
            for row, s in zip(stack.tolist(), seeds)
        )

    @pytest.mark.parametrize("chi", [1.0, 1.5])
    def test_forest_row_beside_closed_form_rows(self, monkeypatch, chi):
        # row 1's class of 20 parallel edges reaches k = 20; rows 0 and 2
        # hold classes of 1 to 4 edges
        assert forest_count(2, 0.99) == 20
        edges = [(0, 1)] * 24
        stack = np.zeros((3, 24))
        stack[0, :4] = [1.0, 1.5, 3.0, 7.0]
        stack[1, 2:22] = 1.0
        stack[2, [0, 5, 9, 23]] = 2.5
        made = []
        real = sketch._LayeredForests
        monkeypatch.setattr(
            sketch, "_LayeredForests", lambda *a: made.append(a) or real(*a)
        )
        for seeds in ([3, 4, 5], [11, 0, 2**62 - 1]):
            got = sm.build_deferred(2, edges, stack, chi, 0.99, seeds)
            _assert_same(got, build_deferred_stack_reference(2, edges, stack, chi, 0.99, seeds))
            assert got.entries["edge"][:4].tolist() == [0, 1, 2, 3]
            assert got.entries["edge"][-4:].tolist() == [0, 5, 9, 23]
        assert made == [(2, 20, 4)] * 2

    def test_one_row_pinned(self):
        # outputs of the per-level builder this one replaced
        k6 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        sk = sm.build_deferred(6, k6, [1.0] * 9 + [2.5] * 5 + [0.0], 2.0, 0.5, 3)
        assert sk.entries.tolist() == [
            (e, i, j, 1.0 if e < 9 else 2.5, 1.0, 0) for e, (i, j) in enumerate(k6[:14])
        ]
        assert (sk.stored_total, sk.space) == (24, 38)
        sk = sm.build_deferred(2, [(0, 1)] * 22, [1.0] * 20 + [3.0, 0.0], 1.0, 0.99, 1)
        assert sk.entries["edge"].tolist() == [3, 4, 8, 9, 13, 14, 15, 16, 18, 20]
        assert set(sk.entries[["p_keep", "depth"]].tolist()) == {(1.0, 0), (0.5, 1)}
        assert (sk.stored_total, sk.space) == (43, 53)

    def test_one_row_call_equals_one_row_stack(self):
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        promise = [1.0, 1.25, 0.0, 3.0, 3.5, 3.75, 0.5, 9.0, 0.0, 1.0]
        one = sm.build_deferred(5, edges, promise, 1.5, 0.5, 17)
        _assert_same(one, sm.build_deferred(5, edges, [promise], 1.5, 0.5, [17]))

    def test_rejects_misshapen_stacks(self):
        edges = [(0, 1), (1, 2)]
        with pytest.raises(ValueError, match="one seed per row"):
            sm.build_deferred(3, edges, [[1.0, 1.0], [2.0, 0.0]], 2.0, 0.5, [1])
        with pytest.raises(ValueError, match="one promise per edge"):
            sm.build_deferred(3, edges, [[1.0, 1.0, 1.0]], 2.0, 0.5, [1])

    @pytest.mark.parametrize("chi", [math.nan, math.inf, 0.5])
    def test_rejects_chi_outside_one_to_infinity(self, chi):
        with pytest.raises(ValueError, match="chi must be finite and >= 1"):
            sm.build_deferred(3, [(0, 1), (1, 2)], [1.0, 2.0], chi, 0.5, 1)


class TestRoundLedger:
    def test_fresh(self):
        ledger = sm.RoundLedger()
        assert ledger.n_rounds == 0
        assert ledger.peak_space == 0

    def test_one_round(self):
        ledger = sm.RoundLedger()
        ledger.begin_round("r1")
        assert ledger.n_rounds == 1

    def test_peak_is_max_over_rounds(self):
        ledger = sm.RoundLedger()
        ledger.begin_round("r1")
        ledger.record_space(5)
        ledger.begin_round("r2")
        ledger.record_space(3)
        assert ledger.peak_space == 5

    def test_within_round_accumulates(self):
        ledger = sm.RoundLedger()
        ledger.begin_round("r1")
        ledger.record_space(2)
        ledger.record_space(3)
        assert ledger.peak_space == 5

    def test_record_before_round_raises(self):
        with pytest.raises(RuntimeError):
            sm.RoundLedger().record_space(1)


def _refine_by_edge(sk: sm.DeferredSketch, vec: np.ndarray) -> np.ndarray:
    """Refine a one-row sketch against a weight per edge id, placed back by edge id."""
    edges = sk.entries["edge"]
    out = np.zeros(len(vec))
    out[edges] = sm.refine_deferred(sk, vec[edges])
    return out


def _nonzero_map(vec: np.ndarray) -> dict[int, float]:
    return {int(e): float(vec[e]) for e in np.flatnonzero(vec)}


def _hand_sketch() -> sm.DeferredSketch:
    """Six stored entries with keep probabilities below and at 1."""
    entries = (
        (0, 0, 1, 2.0, 0.25, 3),
        (1, 0, 2, 3.0, 0.5, 2),
        (2, 0, 3, 1.5, 0.75, 1),
        (3, 1, 2, 1.0, 1.0, 0),
        (4, 1, 3, 7.25, 1.0 / 3.0, 2),
        (5, 2, 3, 6.0, 1.0, 0),
    )
    return sm.DeferredSketch(
        entries=np.array(list(entries), dtype=DEFERRED_ENTRY), chi=1.75, stored_total=0
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1 << 32))
def test_all_cut_values_matches_pure_python(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    take = [p for p in pairs if rng.random() < 0.7]
    if not take:
        take = [pairs[0]]
    weights = [float(rng.integers(1, 10)) for _ in take]
    fast = all_cut_values(n, take, weights)
    # Every cut against a per-cut sum taken in the evaluator's edge
    # order, so the two agree bit for bit.
    for side in range(1, 1 << (n - 1)):
        manual = 0.0
        for (i, j), w in zip(take, weights):
            if (side >> i & 1 if i < n - 1 else 0) != (side >> j & 1 if j < n - 1 else 0):
                manual += w
        assert fast[side - 1] == manual, side
    # The evaluator's worst deviation from a reweighted copy matches the
    # pure-Python enumeration's; dyadic factors keep every sum exact.
    reweighted = [w * float(rng.integers(1, 17)) / 8.0 for w in weights]
    _ok, worst = sm.enumerate_cuts_check(
        n,
        [(i, j, w) for (i, j), w in zip(take, weights)],
        [(i, j, w) for (i, j), w in zip(take, reweighted)],
        1.0,
    )
    assert worst == _cut_dev(n, take, weights, take, reweighted)


def test_sketch_imports_nothing_from_the_package():
    # The streaming model works on edge lists and weight vectors alone;
    # the solver's check of the sketched multipliers lives in the oracle.
    tree = ast.parse(Path(sketch.__file__).read_text())
    ours = [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("sketchmatch")))
        or (isinstance(node, ast.Import) and any(a.name.startswith("sketchmatch") for a in node.names))
    ]
    assert ours == []


def _ledger_with_a_round() -> sm.RoundLedger:
    ledger = sm.RoundLedger()
    ledger.begin_round("r")
    return ledger


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(
            lambda: all_cut_values(sketch.CUT_VALUES_MAX_N + 1, [(0, 1)], [1.0]),
            "cut enumeration capped at n <= 24, got 25",
            id="cuts_too_many_vertices",
        ),
        pytest.param(
            lambda: all_cut_values(1, [], []),
            "need at least two vertices for a cut",
            id="cuts_one_vertex",
        ),
        pytest.param(
            lambda: sm.build_deferred(2, [(0, 1)], [1.0], chi=2.0, xi=0.0, seed=0),
            r"xi must be in \(0, 1\), got 0.0",
            id="deferred_xi",
        ),
        pytest.param(
            lambda: sm.build_deferred(2, [(0, 1)], [1.0], chi=1.0, xi=1.0, seed=0),
            r"xi must be in \(0, 1\), got 1.0",
            id="deferred_xi_one",
        ),
        pytest.param(
            lambda: _ledger_with_a_round().record_space(-1),
            "space must be nonnegative",
            id="negative_space",
        ),
    ],
)
def test_input_checks_raise(call, match):
    with pytest.raises(ValueError, match=match):
        call()
