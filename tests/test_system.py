"""Odd-set geometry of ``SystemIndex`` and its evaluators.

The geometry and every evaluator that reads it are checked against the
per-set Python loops they replaced, kept here as the reference; the
loops read each set as a Python int bitmask built from its members, and
the odd-set prices as a ``(set, level) -> value`` map (``z_prices``).
The comparisons are exact: ``math.fsum`` is correctly rounded whatever
the order, and the vectorized row sums add the prices in array order,
as the loops do.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

import sketchmatch as sm
from sketchmatch import system
from sketchmatch.oddsets import collect_violated_sets
from sketchmatch.oracle import check_primal_certificate

from conftest import EPS, profile_edge_graphs, random_instance, set_z_prices, z_prices

# -- reference loops --------------------------------------------------------


def mask_of(index, t: int) -> int:
    """Bitmask of set ``t`` of the family, as a Python int (any ``n``)."""
    return sum(1 << i for i in index.odd_sets.members(t))


def loop_geometry(index):
    """Per-set internal and boundary cover rows, one loop over (set, row)."""
    internal, boundary = [], []
    for t in range(len(index.odd_sets)):
        mask = mask_of(index, t)
        ins, bnd = [], []
        for r, (_e, i, j, _k) in enumerate(index.rows):
            i_in = bool(mask >> i & 1)
            j_in = bool(mask >> j & 1)
            if i_in and j_in:
                ins.append(r)
            elif i_in or j_in:
                bnd.append(r)
        internal.append(np.array(ins, dtype=np.int64))
        boundary.append(np.array(bnd, dtype=np.int64))
    return internal, boundary


def level_map(index, it):
    """``it.x_level`` as the ``(vertex, level) -> price`` map the loops read."""
    return dict(zip(index.vrows, it.x_level.tolist()))


def loop_cover_values(index, geo, it):
    x_level = level_map(index, it)
    out = np.zeros(len(index.rows))
    for r, (_e, i, j, k) in enumerate(index.rows):
        out[r] = x_level.get((i, k), 0.0) + x_level.get((j, k), 0.0)
    for (t, lev), zv in z_prices(it).items():
        if zv == 0.0:
            continue
        rows = geo[0][t]
        if len(rows):
            out[rows[index.row_levels[rows] >= lev]] += zv
    return out


def loop_degree_values(index, it):
    x_level = level_map(index, it)
    out = np.zeros(len(index.vrows))
    for t, (i, k) in enumerate(index.vrows):
        out[t] = 2.0 * x_level.get((i, k), 0.0)
    for (t, lev), zv in z_prices(it).items():
        if zv == 0.0:
            continue
        for i in index.odd_sets.members(t):
            for r, (v, k) in enumerate(index.vrows):
                if v == i and k >= lev:
                    out[r] += zv
    return out


def loop_cut_mass(index, geo, u_vec, set_idx, level):
    ins, bnd = geo[0][set_idx], geo[1][set_idx]
    ins = ins[index.row_levels[ins] >= level]
    bnd = bnd[index.row_levels[bnd] >= level]
    internal = math.fsum(u_vec[r] for r in ins)
    boundary = math.fsum(u_vec[r] for r in bnd)
    # Member degree mass from the degree rows: each row adds its
    # first-end cover rows in row order, then its second-end ones.
    vrow_of = {key: t for t, key in enumerate(index.vrows)}
    vmass = [0.0] * len(index.vrows)
    for end in (1, 2):
        for r, row in enumerate(index.rows):
            vmass[vrow_of[(row[end], row[3])]] += u_vec[r]
    members = set(index.odd_sets.members(set_idx))
    degree = math.fsum(
        vmass[t] for t, (i, k) in enumerate(index.vrows) if i in members and k >= level
    )
    return internal, boundary, degree


def loop_cut_balance(index, geo, u_vec, z):
    worst = 0.0
    for (t, lev), zv in z.items():
        if zv <= 0.0:
            continue
        internal, boundary, degree = loop_cut_mass(index, geo, u_vec, t, lev)
        worst = max(worst, (boundary - internal) / max(degree, 1e-300))
    return worst <= 1e-9, worst


def loop_set_matrices(index, geo):
    n_sets = len(index.odd_sets)
    member = np.zeros((n_sets, index.leveled.base.n))
    internal = np.zeros((n_sets, len(index.rows)))
    bnorms = np.zeros(n_sets)
    for t in range(n_sets):
        for i in index.odd_sets.members(t):
            member[t, i] = 1.0
        internal[t, geo[0][t]] = 1.0
        bnorms[t] = float(index.odd_sets.bnorm[t])
    return member, internal, bnorms


def loop_collect_violated_sets(index, geo, q_rows, q_hat):
    """``collect_violated_sets`` with its per-set exclusion loop."""
    eps = index.epsilon
    member_mat, internal_mat, bnorms = loop_set_matrices(index, geo)
    internal = internal_mat @ q_rows
    allowance = member_mat @ q_hat
    values = internal - 0.5 * (allowance - bnorms)
    bars = 0.5 * (allowance - (1.0 - eps))
    cand = np.nonzero(internal > bars + 1e-12)[0]
    order = sorted(
        (int(t) for t in cand),
        key=lambda t: (
            float(allowance[t] - 2.0 * internal[t]),
            index.odd_sets.members(t)[0],
            index.odd_sets.members(t),
        ),
    )
    selected, used_mask = [], 0
    for t in order:
        mask, bnorm = mask_of(index, t), int(index.odd_sets.bnorm[t])
        if mask & used_mask:
            continue
        selected.append(t)
        used_mask |= mask
        assert bnorm >= 3
        assert values[t] > bnorm // 2 + eps / 2.0 - 1e-12
    for t in range(len(index.odd_sets)):
        if not mask_of(index, t) & used_mask:
            assert values[t] <= int(index.odd_sets.bnorm[t]) // 2 + eps / 2.0 + 1e-12
    return selected, values


# -- instances --------------------------------------------------------------


def light_edge_graph(seed: int) -> sm.Graph:
    """A suite instance with some weights cut far below ``eps * W* / B``."""
    g = random_instance(seed)
    rng = random.Random(seed)
    light = set(rng.sample(range(g.m), max(1, g.m // 4)))
    edges = tuple(
        (i, j, w * 1e-4 if e in light else w) for e, (i, j, w) in enumerate(g.edges)
    )
    return sm.Graph(n=g.n, edges=edges, b=g.b)


def family_of(groups, b) -> sm.OddSetFamily:
    """The family holding the hand-built member lists ``groups`` (capacities ``b``)."""
    member = np.zeros((len(groups), len(b)), dtype=bool)
    for t, ms in enumerate(groups):
        member[t, ms] = True
    bnorm = np.array([sum(b[i] for i in ms) for ms in groups])
    return sm.OddSetFamily(member=member, bnorm=bnorm)


def path70():
    """A 70-vertex path with a hand-built family; masks would need 70 bits."""
    n = 70
    g = sm.Graph(
        n=n, edges=tuple((i, i + 1, float(1 + i % 3)) for i in range(n - 1)), b=(1,) * n
    )
    groups = (
        [0], [0, 1, 2], [1, 2, 3], [33, 34, 35], [64, 65, 66, 67, 68],
        [66, 67, 68], [67, 68, 69], [0, 35, 69], list(range(50, 69)), [69],
    )
    return g, family_of(groups, g.b)


def case(name: str):
    if name == "path70":
        g, family = path70()
        lv = sm.discretize(g, EPS)
        return g, lv, sm.SystemIndex(lv, EPS, lambda graph, epsilon: family)
    g = light_edge_graph(int(name.split("-")[1]))
    lv = sm.discretize(g, EPS)
    return g, lv, sm.SystemIndex(lv, EPS)


def priced_iterate(index, seed: int) -> sm.DualIterate:
    """Nonzero x and z prices; sets repeat across levels and overlap."""
    rng = random.Random(seed)
    it = sm.DualIterate.zeros(index)
    for t, (i, _k) in enumerate(index.vrows):
        if rng.random() < 0.6:
            it.x_level[t] = rng.uniform(0.1, 3.0)
            it.x_top[i] = max(it.x_top[i], it.x_level[t])
    levels = sorted({int(k) for k in index.row_levels})
    z = {}
    for t in rng.sample(range(len(index.odd_sets)), min(12, len(index.odd_sets))):
        for lev in rng.sample(levels, min(2, len(levels))):
            z[(t, lev)] = rng.uniform(0.01, 2.0)
    z[(0, levels[0])] = 0.0
    return set_z_prices(it, z)


CASES = ["light-1003", "light-1017", "light-1042", "path70"]


@pytest.mark.parametrize("name", CASES)
def test_row_layout_matches_row_tuples(name):
    # every row array against the tuples it is built from, read in loops
    g, lv, index = case(name)
    vrow_of = {key: t for t, key in enumerate(index.vrows)}
    assert index.vrows == tuple(sorted(vrow_of))
    assert index.rows == tuple(lv.retained())
    assert index.row_edge.tolist() == [e for (e, _i, _j, _k) in index.rows]
    assert index.row_ends.tolist() == [[i, j] for (_e, i, j, _k) in index.rows]
    assert index.row_levels.tolist() == [k for (*_eij, k) in index.rows]
    assert index.row_vrow.tolist() == [
        [vrow_of[(i, k)], vrow_of[(j, k)]] for (_e, i, j, k) in index.rows
    ]
    edge_row = {e: r for r, (e, *_ijk) in enumerate(index.rows)}
    assert index.row_of_edge.tolist() == [edge_row.get(e, -1) for e in range(g.m)]
    assert (index.row_of_edge == -1).any() == (len(index.rows) < g.m)
    assert index.vrow_vertex.tolist() == [i for (i, _k) in index.vrows]
    assert index.vrow_level.tolist() == [k for (_i, k) in index.vrows]
    weights = [lv.level_weight(k) for k in range(lv.L + 1)]
    assert index.level_weights.tolist() == weights
    assert index.cover_rhs.tolist() == [weights[k] for (*_eij, k) in index.rows]
    assert index.degree_rhs_outer.tolist() == [3.0 * weights[k] for (_i, k) in index.vrows]
    assert index.capacity.tolist() == [float(c) for c in g.b]
    assert index.level_capacity.tolist() == [[float(c) * w for w in weights] for c in g.b]


@pytest.mark.parametrize("name", CASES)
def test_geometry_matches_row_loop(name):
    g, lv, index = case(name)
    if name != "path70":
        assert -1 in lv.level_of  # some light edges were dropped
    else:
        assert index.odd_sets.member[:, 63:].any()  # members past bit 63
    internal, boundary = loop_geometry(index)
    family = index.odd_sets
    # every set's rows derived from its own membership row
    for t in range(len(family)):
        ins, bnd = index.set_rows(family.member[t])
        assert np.array_equal(np.flatnonzero(ins), internal[t])
        assert np.array_equal(np.flatnonzero(bnd), boundary[t])
        assert family.members(t) == tuple(np.flatnonzero(family.member[t]))
    # and all at once from the stacked rows
    ins, bnd = index.set_rows(family.member)
    assert ins.shape == bnd.shape == (len(family), len(index.rows))
    assert ins.flags.c_contiguous
    for t in range(len(family)):
        assert np.array_equal(np.flatnonzero(ins[t]), internal[t])
        assert np.array_equal(np.flatnonzero(bnd[t]), boundary[t])


@pytest.mark.parametrize("name", CASES)
def test_odd_set_evaluators_match_loops(name):
    _g, _lv, index = case(name)
    geo = loop_geometry(index)
    it = priced_iterate(index, seed=len(name))
    assert (it.z_value > 0.0).any()
    assert np.array_equal(index.cover_values(it), loop_cover_values(index, geo, it))
    assert np.array_equal(index.degree_values(it), loop_degree_values(index, it))
    rng = np.random.default_rng(7)
    u_vec = rng.random(len(index.rows))
    for t in range(len(index.odd_sets)):
        for level in (0, int(index.row_levels.max())):
            want = loop_cut_mass(index, geo, u_vec, t, level)
            assert index.cut_mass(u_vec, t, level) == want
    assert index.cut_balance_ok(u_vec, it) == loop_cut_balance(index, geo, u_vec, z_prices(it))
    sets, members, internals = zip(*index.set_blocks())
    assert [s.start for s in sets] == [0] + [s.stop for s in sets[:-1]]
    assert sets[-1].stop == len(index.odd_sets)
    member_mat, internal_mat, bnorms = loop_set_matrices(index, geo)
    for got, want in zip(map(np.concatenate, (members, internals)), (member_mat, internal_mat)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(index.odd_sets.bnorm, bnorms)


def loop_set_prices(index, it) -> dict[int, float]:
    """The flattened odd-set prices of ``it`` keyed by family row, one loop over the prices."""
    denom = 1.0 - 3.0 * index.epsilon
    z_of: dict[int, float] = {}
    for (t, _lev), v in z_prices(it).items():
        if v != 0.0:
            z_of[t] = z_of.get(t, 0.0) + v / denom
    return z_of


def loop_matching_dual_z(index, it):
    """The odd-set half of ``convert_to_matching_dual``, keyed by member bitmask."""
    return {mask_of(index, t): v for t, v in loop_set_prices(index, it).items()}


@pytest.mark.parametrize("name", CASES)
def test_matching_dual_sums_each_set_in_price_order(name):
    _g, _lv, index = case(name)
    for seed in range(4):
        it = priced_iterate(index, seed)
        assert len(set(it.z_set.tolist())) < len(it.z_set)  # some set priced twice
        _x, z = sm.convert_to_matching_dual(index, it)
        want = loop_matching_dual_z(index, it)
        assert list(z.items()) == list(want.items())


def loop_dual_check(index, x, z_of):
    """``check_dual_feasible`` as a loop over member sets, ``z_of`` keyed by family row."""
    members = {t: set(index.odd_sets.members(t)) for t in z_of}
    worst = 0.0
    for _e, i, j, k in index.rows:
        need = index.leveled.level_weight(k)
        have = x.get(i, 0.0) + x.get(j, 0.0)
        for t, v in z_of.items():
            if i in members[t] and j in members[t]:
                have += v
        worst = max(worst, (need - have) / need)
    objective = sum(index.leveled.base.b[i] * v for i, v in x.items())
    objective += sum(int(index.odd_sets.bnorm[t]) // 2 * v for t, v in z_of.items())
    return worst <= 1e-9, worst, objective


def test_wide_masks_reach_the_dual_check():
    # path70's sets hold vertices past bit 63, so their mask keys need
    # Python ints; the check reads the same sets and capacities from them
    _g, lv, index = case("path70")
    for seed in range(4):
        it = priced_iterate(index, seed)
        x, z = sm.convert_to_matching_dual(index, it)
        assert max(z).bit_length() > 64
        want = loop_dual_check(index, x, loop_set_prices(index, it))
        assert sm.check_dual_feasible(lv, x, z) == want


def test_default_family_is_the_enumerated_one():
    g = random_instance(1004)
    index = sm.SystemIndex(sm.discretize(g, EPS), EPS)
    want = sm.enumerate_small_odd_sets(g, EPS)
    assert np.array_equal(index.odd_sets.member, want.member)
    assert np.array_equal(index.odd_sets.bnorm, want.bnorm)


def test_family_is_enumerated_once_on_first_read():
    g = random_instance(1004)
    calls = []

    def enumerate_counted(graph, epsilon):
        calls.append((graph, epsilon))
        return sm.enumerate_small_odd_sets(graph, epsilon)

    index = sm.SystemIndex(sm.discretize(g, EPS), EPS, enumerate_counted)
    assert calls == []
    blocks = index.set_blocks()
    assert calls == []  # a reader enumerates when first advanced
    next(blocks)
    assert calls == [(g, EPS)]
    assert index.odd_sets is index.odd_sets
    list(index.set_blocks())
    assert calls == [(g, EPS)]


def test_family_passed_in_is_used_as_given():
    # n = 70 is past the enumeration cap, so only the given family works.
    g, family = path70()
    index = sm.SystemIndex(sm.discretize(g, EPS), EPS, lambda graph, epsilon: family)
    assert index.odd_sets is family


def test_matching_dual_without_odd_prices_leaves_the_family_unread():
    def refuse(graph, epsilon):
        raise AssertionError("the odd-set family was read")

    index = sm.SystemIndex(sm.discretize(random_instance(1004), EPS), EPS, refuse)
    it = sm.DualIterate.zeros(index)
    it.x_level[:] = 1.0
    it.x_top[:] = 1.0
    assert sm.convert_to_matching_dual(index, it)[1] == {}
    # a priced pair whose price is zero reads no set either
    it.z_set, it.z_level, it.z_value = np.array([0]), np.array([0]), np.array([0.0])
    assert sm.convert_to_matching_dual(index, it)[1] == {}


def test_cut_balance_flags_planted_set_rows(monkeypatch):
    # The member degree mass comes from the degree rows, not from
    # set_rows, so set_rows that lose the boundary break the identity.
    g = random_instance(1000)
    index = sm.SystemIndex(sm.discretize(g, EPS), EPS)
    u_vec = np.random.default_rng(3).random(len(index.rows))
    _ins, bnd = index.set_rows(index.odd_sets.member)
    t = int(np.flatnonzero(bnd.any(axis=1))[0])
    it = set_z_prices(sm.DualIterate.zeros(index), {(t, 0): 1.0})
    internal, boundary, degree = index.cut_mass(u_vec, t, 0)
    assert boundary > 0.0
    assert math.isclose(2.0 * internal + boundary, degree, rel_tol=1e-12)
    index.cut_balance_ok(u_vec, it)

    real = sm.SystemIndex.set_rows

    def no_boundary(self, member):
        ins, bnd = real(self, member)
        return ins, np.zeros_like(bnd)

    monkeypatch.setattr(sm.SystemIndex, "set_rows", no_boundary)
    with pytest.raises(AssertionError, match="cut accounting identity violated"):
        index.cut_balance_ok(u_vec, it)


def dense_iterate(index, seed: int, with_z: bool) -> sm.DualIterate:
    """A price on every degree row."""
    rng = random.Random(seed)
    it = sm.DualIterate.zeros(index)
    for key in rng.sample(index.vrows, len(index.vrows)):
        it.x_level[index.vrows.index(key)] = rng.uniform(0.0, 5.0)
    if with_z:
        set_z_prices(it, z_prices(priced_iterate(index, seed)))
    return it


@pytest.mark.parametrize("with_z", [False, True])
@pytest.mark.parametrize("name", CASES)
def test_dense_level_prices_match_loops(name, with_z):
    _g, _lv, index = case(name)
    geo = loop_geometry(index)
    for seed in range(3):
        it = dense_iterate(index, seed, with_z)
        assert np.array_equal(index.cover_values(it), loop_cover_values(index, geo, it))
        assert np.array_equal(index.degree_values(it), loop_degree_values(index, it))


@pytest.mark.parametrize("name", CASES)
def test_strict_collect_violated_sets_matches_loop(name):
    g, _lv, index = case(name)
    geo = loop_geometry(index)
    rng = np.random.default_rng(11)
    picked = []
    n_rows = len(index.rows)
    for _trial in range(20):
        q_rows = np.where(rng.random(n_rows) < 0.6, 2.0 * rng.random(n_rows), 0.0)
        load = np.zeros(g.n)
        for r, (_e, i, j, _k) in enumerate(index.rows):
            load[i] += q_rows[r]
            load[j] += q_rows[r]
        q_hat = np.maximum(np.asarray(g.b, dtype=float), load)
        selected, values = collect_violated_sets(index, q_rows, q_hat)
        want_selected, want_values = loop_collect_violated_sets(index, geo, q_rows, q_hat)
        assert selected == want_selected
        assert np.array_equal(values, want_values)
        picked += selected
    assert picked  # the draws select some sets, so the scan has work to do


def blocked_answers(index, g, seed: int) -> list[str]:
    """``repr`` of the violated-set selections and certificate reports of fixed draws."""
    rng = np.random.default_rng(seed)
    n_rows = len(index.rows)
    out = []
    for _trial in range(3):
        q_rows = np.where(rng.random(n_rows) < 0.6, 2.0 * rng.random(n_rows), 0.0)
        load = np.bincount(index.row_ends.ravel(), np.repeat(q_rows, 2), g.n)
        q_hat = np.maximum(np.asarray(g.b, dtype=float), load)
        selected, values = collect_violated_sets(index, q_rows, q_hat)
        out.append(repr((selected, values.tobytes())))
        shape = index.level_capacity.shape
        mu = np.where(rng.random(shape) < 0.5, rng.random(shape), 0.0)
        cert = sm.PrimalCertificate(
            y=q_rows, mu=mu, y_caps=rng.random(len(index.vrows)), objective=1.0, beta=1.0
        )
        out.append(repr(check_primal_certificate(index, cert)))
    return out


@pytest.mark.parametrize("name", CASES)
def test_set_block_seams_change_no_value(monkeypatch, name):
    # one block, then blocks of every smaller size: every selection,
    # value and certificate report (odd_set_worst included) is the same
    g, _lv, index = case(name)
    n_sets = len(index.odd_sets)
    width = len(index.rows) + g.n + len(index.level_weights)
    monkeypatch.setattr(system, "SET_BLOCK_CELLS", (n_sets + 8) * width)
    assert len(list(index.set_blocks())) == 1
    whole = blocked_answers(index, g, seed=len(name))
    partial_tails = 0
    for cells in range(1, n_sets):
        # blocks of whole groups of 8 sets, at least one group
        size = max(8, cells // 8 * 8)
        monkeypatch.setattr(system, "SET_BLOCK_CELLS", cells * width)
        sets = [s for s, _member, _internal in index.set_blocks()]
        lengths = [s.stop - s.start for s in sets]
        assert [s.start for s in sets] == list(range(0, n_sets - 1, size))
        assert sets[-1].stop == n_sets and set(lengths[:-1]) <= {size}
        assert 2 <= lengths[-1] <= size + 1  # a one-set tail joins its neighbour
        partial_tails += len(sets) > 1 and lengths[-1] < size
        assert blocked_answers(index, g, seed=len(name)) == whole
    assert partial_tails


@pytest.mark.parametrize("name", CASES[:3])
def test_one_set_tail_joins_the_block_before_it(monkeypatch, name):
    # 41 sets in blocks of 8: the last block takes sets 32..40, and every
    # answer equals the one-block answer
    g, lv, index = case(name)
    family = index.odd_sets
    first = sm.OddSetFamily(member=family.member[:41], bnorm=family.bnorm[:41])
    cut = sm.SystemIndex(lv, EPS, lambda graph, epsilon: first)
    width = len(index.rows) + g.n + len(index.level_weights)
    monkeypatch.setattr(system, "SET_BLOCK_CELLS", 48 * width)
    whole = blocked_answers(cut, g, seed=len(name))
    monkeypatch.setattr(system, "SET_BLOCK_CELLS", 8 * width)
    sets = [s for s, _member, _internal in cut.set_blocks()]
    assert sets == [slice(a, a + 8) for a in range(0, 32, 8)] + [slice(32, 41)]
    assert blocked_answers(cut, g, seed=len(name)) == whole


# -- packed level profiles ----------------------------------------------------


def dense_profiles(index, surplus: np.ndarray) -> np.ndarray:
    """The dense ``n x (L+1)`` grid and its two cumsums, as the oracle ran them."""
    smat = np.zeros(index.level_capacity.shape)
    smat[index.vrow_vertex, index.vrow_level] = surplus
    w_of = index.level_weights
    prefix_weighted = np.cumsum(smat * w_of, axis=1)
    prefix_plain = np.cumsum(smat, axis=1)
    return prefix_weighted + w_of * (prefix_plain[:, -1:] - prefix_plain)


PROFILE_CASES = CASES + sorted(profile_edge_graphs())


def profile_case(name: str):
    if name in CASES:
        return case(name)[2]
    lv = sm.discretize(profile_edge_graphs()[name], EPS)
    empty = sm.OddSetFamily(
        member=np.zeros((0, lv.base.n), dtype=bool), bnorm=np.zeros(0, dtype=np.int64)
    )
    return sm.SystemIndex(lv, EPS, lambda graph, epsilon: empty)


@pytest.mark.parametrize("name", PROFILE_CASES)
def test_packed_layout_matches_cell_loop(name):
    index = profile_case(name)
    n, n_levels = index.level_capacity.shape
    rows_at = {i: [k for (v, k) in index.vrows if v == i] for i in range(n)}
    width = 1 + max(len(levels) for levels in rows_at.values())
    assert index.slot_weights.shape == (n, width)
    slot_of = dict(zip(index.vrows, index.vrow_slot.tolist()))
    weights = np.zeros((n, width))
    for i, levels in rows_at.items():
        # slot 0 stays empty; the rows follow in level order
        assert [slot_of[(i, k)] for k in levels] == [
            i * width + 1 + r for r in range(len(levels))
        ]
        for k in levels:
            weights.flat[slot_of[(i, k)]] = index.level_weights[k]
    assert np.array_equal(index.slot_weights, weights)
    for i, levels in rows_at.items():
        for lev in range(n_levels):
            below = [k for k in levels if k <= lev]
            want = slot_of[(i, below[-1])] if below else i * width
            assert index.level_gather[i, lev] == want
    last = n - 1
    if name in ("isolated", "dropped"):
        assert rows_at[last] == []
        assert (index.level_gather[last] == last * width).all()
    if name == "dropped":
        assert sm.discretize(profile_edge_graphs()[name], EPS).level_of[-2:] == (-1, -1)
    if name == "extremes":
        assert rows_at[0][0] == 0 and rows_at[0][-1] == n_levels - 1


@pytest.mark.parametrize("name", PROFILE_CASES)
def test_level_profiles_match_dense_cumsums_bit_for_bit(name):
    index = profile_case(name)
    rng = np.random.default_rng(len(name))
    n_vrows = len(index.vrows)
    # zeros, repeated values and magnitudes far apart, so a changed
    # addition order would show in the bits
    pool = np.array([0.0, 0.0, 1.0, 1.0 / 3.0, 0.1, 7.5e5, 2.0**-30])
    for _trial in range(40):
        surplus = np.where(
            rng.random(n_vrows) < 0.5,
            rng.choice(pool, n_vrows),
            10.0 ** rng.uniform(-6.0, 6.0, n_vrows),
        )
        got = index.level_profiles(surplus)
        want = dense_profiles(index, surplus)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(index.level_profiles(np.zeros(n_vrows)), np.zeros(index.level_capacity.shape))
