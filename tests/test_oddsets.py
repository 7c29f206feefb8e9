"""Odd-set selection: the disjoint violated sets of the small family."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketchmatch as sm
from sketchmatch.oddsets import collect_violated_sets

from conftest import EPS


def _index_for(text: str, eps: float = EPS, btext: str | None = None):
    g = sm.load_graph(text, btext)
    lv = sm.discretize(g, eps)
    return g, lv, sm.SystemIndex(lv, eps)


class TestCollectViolatedSets:
    def test_zero_mass_empty(self):
        _g, _lv, index = _index_for("0 1 4\n0 2 4\n1 2 4\n", eps=0.5)
        q = np.zeros(len(index.rows))
        q_hat = np.array([1.0, 1.0, 1.0])
        selected, values = collect_violated_sets(index, q, q_hat)
        assert selected == []
        assert values.shape == (len(index.odd_sets),)

    def test_dense_triangle_selected(self):
        _g, _lv, index = _index_for("0 1 4\n0 2 4\n1 2 4\n", eps=0.5)
        # candidacy: internal 2.85 > (allowance - (1 - eps))/2 = 2.75
        q = np.full(len(index.rows), 0.95)
        q_hat = np.array([2.0, 2.0, 2.0])
        selected, values = collect_violated_sets(index, q, q_hat)
        assert len(selected) == 1
        t = selected[0]
        assert index.odd_sets.members(t) == (0, 1, 2)
        # value = internal - (allowance - bnorm)/2 = 2.85 - (6 - 3)/2
        assert values[t] == pytest.approx(2.85 - 1.5)

    def test_below_bar_not_selected(self):
        _g, _lv, index = _index_for("0 1 4\n0 2 4\n1 2 4\n", eps=0.5)
        # internal mass 0.3 * 3 = 0.9 <= (3 - 0.5)/2 = 1.25 bar
        q = np.full(len(index.rows), 0.3)
        q_hat = np.array([1.0, 1.0, 1.0])
        selected, _values = collect_violated_sets(index, q, q_hat)
        assert selected == []

    def test_allowance_below_capacity_rejected(self):
        _g, _lv, index = _index_for("0 1 4\n0 2 4\n1 2 4\n", eps=0.5)
        q = np.zeros(len(index.rows))
        with pytest.raises(AssertionError, match="vertex"):
            collect_violated_sets(index, q, np.array([0.5, 1.0, 1.0]))

    def test_disjoint_selection_property(self):
        _g, _lv, index = _index_for(
            "0 1 4\n0 2 4\n1 2 4\n3 4 4\n3 5 4\n4 5 4\n", eps=0.5
        )
        q = np.full(len(index.rows), 0.95)
        q_hat = np.full(6, 2.0)
        selected, _ = collect_violated_sets(index, q, q_hat)
        members = [index.odd_sets.members(t) for t in selected]
        assert sorted(members) == [(0, 1, 2), (3, 4, 5)]
        seen: set[int] = set()
        for ms in members:
            assert not (set(ms) & seen)
            seen |= set(ms)


@st.composite
def _selection_inputs(draw):
    """A small graph with edge masses and allowances for one level."""
    n = draw(st.integers(3, 7))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    take = [p for p, k in zip(pairs, keep) if k] or pairs[:1]
    edges = tuple((i, j, float(draw(st.integers(1, 4)))) for i, j in take)
    b = tuple(draw(st.lists(st.sampled_from((1, 2)), min_size=n, max_size=n)))
    eps = draw(st.sampled_from((0.5, 0.25)))
    g = sm.Graph(n=n, edges=edges, b=b)
    index = sm.SystemIndex(sm.discretize(g, eps), eps)
    # quarter steps keep every sum the test takes exact in binary floating point
    q = [draw(st.integers(0, 8)) / 4.0 for _ in index.rows]
    q_hat = [bi + draw(st.integers(0, 2)) / 4.0 for bi in b]
    return g, eps, index, q, q_hat


@settings(max_examples=60, deadline=None)
@given(_selection_inputs())
def test_selection_against_exhaustive_odd_sets(inputs):
    """The selection's guarantees, restated over independently listed sets."""
    g, eps, index, q, q_hat = inputs
    odd = [
        frozenset(members)
        for size in range(1, g.n + 1)
        for members in itertools.combinations(range(g.n), size)
        if sum(g.b[i] for i in members) % 2 == 1
        and sum(g.b[i] for i in members) <= 4.0 / eps
    ]
    assert len(index.odd_sets) == len(odd)
    selected, _values = collect_violated_sets(index, np.array(q), np.array(q_hat))
    chosen = [frozenset(index.odd_sets.members(t)) for t in selected]

    def excess(members):
        # internal mass beyond half the allowance left over by b(U)
        internal = sum(
            v for (_e, i, j, _k), v in zip(index.rows, q) if i in members and j in members
        )
        bn = sum(g.b[i] for i in members)
        return internal - 0.5 * (sum(q_hat[i] for i in members) - bn), bn

    touched: set[int] = set()
    for members in chosen:
        assert not members & touched
        touched |= members
        value, bn = excess(members)
        assert bn >= 3
        assert value > bn // 2 + eps / 2.0
    for members in odd:
        if members & touched:
            continue
        value, bn = excess(members)
        assert value <= bn // 2 + eps / 2.0
