"""Sketching layer: PRFs, sparsifiers, deferred sketches, ledger, switch check."""

from __future__ import annotations

import math

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
    EPS,
    build_deferred_reference,
    build_deferred_stack_reference,
    build_streaming_sparsifier_reference,
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


class TestStreamingSparsifier:
    def test_forest_identity(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        weights = [2.0, 5.0, 0.5]
        sp = sm.build_streaming_sparsifier(4, edges, weights, 0.25, seed=1)
        assert sorted(sp.edge_ids) == [0, 1, 2]
        kept = dict(zip(sp.edge_ids, sp.weights))
        for e, w in enumerate(weights):
            assert kept[e] == pytest.approx(w)

    def test_single_edge(self):
        sp = sm.build_streaming_sparsifier(2, [(0, 1)], [3.0], 0.25, seed=0)
        assert list(sp.edge_ids) == [0]
        assert sp.weights[0] == pytest.approx(3.0)

    def test_k4_cut_fidelity(self):
        n = 4
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        weights = [1.0] * len(edges)
        passing = 0
        for seed in range(100):
            sp = sm.build_streaming_sparsifier(n, edges, weights, 0.25, seed=seed)
            dev = _cut_dev(
                n, edges, weights, list(sp.endpoints), list(sp.weights)
            )
            if dev <= 0.25:
                passing += 1
        assert passing >= 99

    def test_edge_count_bound(self):
        n, xi = 8, 0.5
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        weights = [float(1 + (i * 7) % 13) for i in range(len(edges))]
        sp = sm.build_streaming_sparsifier(n, edges, weights, xi, seed=3)
        k = forest_count(n, xi)
        bound = k * (n - 1) * (math.log2(len(edges)) + 1)
        assert len(sp.edge_ids) <= bound

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
        out = sm.refine_deferred(sm.stored_sample(sk), np.array([1.5, 2.5]))
        assert out.tolist() == [1.5, 2.5]

    def test_refine_deletion(self):
        edges = [(0, 1), (1, 2)]
        sk = sm.build_deferred(3, edges, [1.0, 1.0], chi=2.0, xi=0.25, seed=5)
        out = sm.refine_deferred(sm.stored_sample(sk), np.array([1.0, 0.0]))
        assert out.tolist() == [1.0, 0.0]

    def test_promise_violation_raises(self):
        edges = [(0, 1)]
        sk = sm.build_deferred(2, edges, [1.0], chi=2.0, xi=0.25, seed=5)
        with pytest.raises(PromiseViolationError, match="edge 0"):
            sm.refine_deferred(sm.stored_sample(sk), np.array([5.0]))

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
            got = sm.refine_deferred(sm.stored_sample(sk), values)
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
        got = sm.refine_deferred(sm.stored_sample(sk), vec)
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
                sm.refine_deferred(sm.stored_sample(sk), vec)
            with pytest.raises(PromiseViolationError, match=f"edge {e}:"):
                refine_deferred_reference(sk, dict(enumerate(vec.tolist())))

    def test_refine_several_sketches_through_slots(self):
        # two rows' entries in one sketch, as a promise stack stores them
        a = _hand_sketch()
        b = sm.DeferredSketch(
            entries=np.array(
                [(8, 0, 3, 3.0, 0.125, 4), (9, 1, 2, 5.0, 1.0, 0)], dtype=DEFERRED_ENTRY
            ),
            chi=a.chi,
            stored_total=0,
        )
        both = sm.DeferredSketch(
            entries=np.concatenate((a.entries, b.entries)), chi=a.chi, stored_total=0
        )
        slot_of = np.array([9, 8, 7, 6, 5, 4, -1, -1, 1, 0])
        sample = sm.stored_sample(both, slot_of)
        values = {0: 2.0, 1: 3.0, 2: 1.5, 3: 1.0, 4: 7.0, 5: 6.0, 8: 2.5, 9: 0.0}
        vec = np.zeros(10)
        for e, v in values.items():
            vec[slot_of[e]] = v
        got = sm.refine_deferred(sample, vec)
        want = refine_deferred_reference(a, values)
        want.update(refine_deferred_reference(b, values))
        assert {int(e): got[slot_of[e]] for e in want} == want
        assert np.count_nonzero(got) == len(want)

    def test_stored_sample_rejects_unusable_listings(self):
        a = _hand_sketch()
        twice = sm.DeferredSketch(
            entries=np.concatenate((a.entries, a.entries)), chi=a.chi, stored_total=0
        )
        with pytest.raises(ValueError, match="slot"):
            sm.stored_sample(twice)
        with pytest.raises(ValueError, match="slot"):
            sm.stored_sample(a, np.array([0, 1, 2, 3, 4, -1]))
        empty = sm.stored_sample(
            sm.DeferredSketch(entries=np.array([], DEFERRED_ENTRY), chi=a.chi, stored_total=0)
        )
        assert sm.refine_deferred(empty, np.ones(3)).tolist() == [0.0, 0.0, 0.0]

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
            out = sm.refine_deferred(sm.stored_sample(sk), np.array(true_w))
            kept = np.flatnonzero(out)
            dev = _cut_dev(n, edges, true_w, [edges[e] for e in kept], out[kept].tolist())
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
            sa = sm.build_streaming_sparsifier(n, half_a, wa, 0.3, seed=seed)
            sb = sm.build_streaming_sparsifier(n, half_b, wb, 0.3, seed=seed + 7_000)
            union_ends = list(sa.endpoints) + list(sb.endpoints)
            union_w = list(sa.weights) + list(sb.weights)
            dev = _cut_dev(
                n, all_edges, wa + wb, union_ends, union_w
            )
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
        live = [(edges[e], p) for e, p in enumerate(promise) if p > 0.0]
        if live:
            pe, pw = [ed for ed, _p in live], [p for _ed, p in live]
            _assert_same(
                sm.build_streaming_sparsifier(n, pe, pw, xi, seed),
                build_streaming_sparsifier_reference(n, pe, pw, xi, seed),
            )

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


    def test_streaming_build_keys_no_prf_per_edge(self, monkeypatch):
        # the kept-edge test reads the layer draws the class construction
        # already took, so no edge is keyed through prf_u64 a second time
        k20 = [(i, j) for i in range(20) for j in range(i + 1, 20)]
        k6 = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        cases = [
            (20, k20, [1.0] * len(k20), 0.99, 3),  # one class of 190 >= k = 152
            (6, k6, [1.0] * 9 + [2.5] * 5 + [7.0], 0.5, 8),  # closed-form classes
        ]
        want = [build_streaming_sparsifier_reference(*case) for case in cases]

        def refuse(*_args):
            raise AssertionError("prf_u64 called by the streaming build")

        monkeypatch.setattr(sketch, "prf_u64", refuse)
        for case, ref in zip(cases, want):
            _assert_same(sm.build_streaming_sparsifier(*case), ref)


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


def _switch_fixture():
    g = sm.load_graph("0 1 4\n1 2 8\n0 2 6\n2 3 5\n1 3 7\n")
    lv = sm.discretize(g, EPS)
    index = sm.SystemIndex(lv, EPS)
    return g, lv, index


class TestVerifySwitch:
    def test_zero_iterate_vacuous(self):
        _g, _lv, index = _switch_fixture()
        u = np.ones(len(index.rows))
        it = sm.DualIterate.zeros(index)
        rep = sm.verify_switch(index, u, u, it)
        assert not rep.hypothesis_cover
        assert rep.ok  # implication holds vacuously

    def test_identity_sparsifier(self):
        _g, lv, index = _switch_fixture()
        u = np.ones(len(index.rows))
        it = sm.DualIterate.zeros(index)
        for _e, i, j, k in index.rows:
            w = lv.level_weight(k)
            ti, tj = index.vrows.index((i, k)), index.vrows.index((j, k))
            it.x_level[ti] = max(it.x_level[ti], w)
            it.x_level[tj] = max(it.x_level[tj], w)
        for i in range(lv.base.n):
            tops = [v for (vi, _k), v in zip(index.vrows, it.x_level) if vi == i]
            if tops:
                it.x_top[i] = max(tops)
        rep = sm.verify_switch(index, u, u, it)
        assert rep.hypothesis_cover and rep.conclusion and rep.ok

    def test_good_sparsifier_implication(self):
        _g, lv, index = _switch_fixture()
        u = np.ones(len(index.rows))
        # a (1 +- eps/16)-accurate reweighting stands in for u
        u_s = np.array(
            [1.0 * (1 + (EPS / 16 if e % 2 else -EPS / 16)) for (e, _i, _j, _k) in index.rows]
        )
        it = sm.DualIterate.zeros(index)
        for _e, i, j, k in index.rows:
            w = lv.level_weight(k)
            ti, tj = index.vrows.index((i, k)), index.vrows.index((j, k))
            it.x_level[ti] = max(it.x_level[ti], w / 2)
            it.x_level[tj] = max(it.x_level[tj], w / 2)
        for i in range(lv.base.n):
            tops = [v for (vi, _k), v in zip(index.vrows, it.x_level) if vi == i]
            if tops:
                it.x_top[i] = max(tops)
        rep = sm.verify_switch(index, u, u_s, it)
        assert rep.hypothesis_cover and rep.ok and rep.conclusion


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
    triples = [(i, j, w) for (i, j), w in zip(take, weights)]
    ok, worst = sm.enumerate_cuts_check(n, triples, triples, 1e-12)
    assert ok
    # spot-check one specific cut against manual arithmetic
    side = 1  # vertex 0 vs the rest
    manual = sum(
        w for (i, j), w in zip(take, weights) if (i == 0) != (j == 0)
    )
    assert fast[side - 1] == pytest.approx(manual)


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
            lambda: sm.build_streaming_sparsifier(2, [(0, 1)], [1.0], xi=1.0, seed=0),
            r"xi must be in \(0, 1\), got 1.0",
            id="streaming_xi",
        ),
        pytest.param(
            lambda: sm.build_streaming_sparsifier(2, [(0, 1)], [0.0], xi=0.5, seed=0),
            "weight must be positive, got 0.0",
            id="streaming_weight",
        ),
        pytest.param(
            lambda: sm.build_deferred(2, [(0, 1)], [1.0], chi=2.0, xi=0.0, seed=0),
            r"xi must be in \(0, 1\), got 0.0",
            id="deferred_xi",
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
