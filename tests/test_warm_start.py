"""Warm-started solves: the odd-set and certificate branches inside ``solve()``.

A plain solve only ever takes vertex steps.  Started from odd-set
prices near the dual optimum (``conftest.warm_start``, or 0.8 times the
exact layered LP dual, ``conftest.lp_dual_start``), every query the
loop makes lands on the odd-set branch; with the harvest patched to an
empty matching the budget stays below the optimum, so queries also end
in primal certificates.  Assert mode checks every answer, so a solve
that returns met every contract.
"""

from __future__ import annotations

import functools

import pytest

import sketchmatch as sm
from sketchmatch import driver

from conftest import WARM_START_GRAPHS, count_oracle_answers, lp_dual_start, warm_start
from test_acceptance import PINNED_MATCHINGS, _matching_digest

WARM_CONFIG = sm.SolverConfig(assert_mode=True, max_rounds=40)


def warm_solve(monkeypatch, name: str, lp_dual: bool = False) -> tuple[sm.SolveReport, dict[str, int]]:
    g, groups = WARM_START_GRAPHS[name]
    if lp_dual:
        lp_dual_start(monkeypatch, g)
    else:
        warm_start(monkeypatch, groups)
    counts = count_oracle_answers(monkeypatch)
    return sm.solve(g, WARM_CONFIG), counts


def without_harvest(monkeypatch) -> None:
    """Patch the harvest to an empty matching, so the budget stays below the optimum."""
    monkeypatch.setattr(
        driver, "extract_integral", lambda leveled, edge_ids: sm.BMatching(edges=(), weight=0.0)
    )


def count_enumerations(monkeypatch) -> list[int]:
    """Wrap ``driver.enumerate_small_odd_sets``; the list collects each family's size."""
    sizes: list[int] = []
    real = driver.enumerate_small_odd_sets

    def counting(g, epsilon):
        family = real(g, epsilon)
        sizes.append(len(family))
        return family

    monkeypatch.setattr(driver, "enumerate_small_odd_sets", counting)
    return sizes


def record_certificate_supports(monkeypatch) -> list[tuple[list[int], list[int]]]:
    """Wrap ``driver.build_deferred`` and ``driver.lagrangian_search``.

    The list collects, per primal certificate, the sorted edges where its
    ``y`` is positive and the sorted edges its round's sketch stored.
    """
    pairs: list[tuple[list[int], list[int]]] = []
    stored: list[int] = []
    real_build, real_search = driver.build_deferred, driver.lagrangian_search

    def building(*args, **kwargs):
        sketch = real_build(*args, **kwargs)
        stored[:] = sorted(sketch.entries["edge"].tolist())
        return sketch

    def searching(index, *args, **kwargs):
        out = real_search(index, *args, **kwargs)
        if isinstance(out, sm.PrimalCertificate):
            pairs.append((sorted(index.row_edge[out.y > 0.0].tolist()), list(stored)))
        return out

    monkeypatch.setattr(driver, "build_deferred", building)
    monkeypatch.setattr(driver, "lagrangian_search", searching)
    return pairs


@functools.cache
def warm_run(
    name: str, *, lp_dual: bool, harvest: bool
) -> tuple[sm.SolveReport, dict[str, int], list[int], list[tuple[list[int], list[int]]]]:
    """One warm solve per configuration, shared by every test that reads it.

    Returns the report, the oracle's answer counts, the size of each
    odd-set family the solve enumerated and, per primal certificate, its
    support beside its round's stored edges
    (:func:`record_certificate_supports`).
    """
    with pytest.MonkeyPatch.context() as mp:
        if not harvest:
            without_harvest(mp)
        sizes = count_enumerations(mp)
        supports = record_certificate_supports(mp)
        report, counts = warm_solve(mp, name, lp_dual=lp_dual)
    return report, counts, sizes, supports


@pytest.mark.parametrize("name", sorted(WARM_START_GRAPHS))
def test_warm_start_takes_odd_steps(name):
    report, counts, _sizes, _supports = warm_run(name, lp_dual=False, harvest=True)
    assert counts.get("odd", 0) > 0
    assert sum(counts.values()) == report.steps + report.certificates
    assert _matching_digest([report]) == PINNED_MATCHINGS[f"warm_start/{name}"]


@pytest.mark.parametrize("name", sorted(WARM_START_GRAPHS))
def test_warm_start_without_harvest_builds_certificates(name):
    report, counts, _sizes, _supports = warm_run(name, lp_dual=False, harvest=False)
    assert counts.get("odd", 0) > 0
    assert counts.get("certificate", 0) == report.certificates > 0


@pytest.mark.parametrize("name", sorted(WARM_START_GRAPHS))
def test_lp_dual_start_takes_odd_steps(name):
    report, counts, _sizes, _supports = warm_run(name, lp_dual=True, harvest=True)
    assert counts.get("odd", 0) > 0
    assert sum(counts.values()) == report.steps + report.certificates
    assert _matching_digest([report]) == PINNED_MATCHINGS[f"warm_start/{name}"]


@pytest.mark.parametrize("name", sorted(WARM_START_GRAPHS))
def test_lp_dual_start_without_harvest_builds_certificates(name):
    report, counts, _sizes, _supports = warm_run(name, lp_dual=True, harvest=False)
    assert counts.get("odd", 0) > 0
    assert counts.get("certificate", 0) == report.certificates > 0


@pytest.mark.parametrize("lp_dual", [False, True], ids=["warm", "lp_dual"])
@pytest.mark.parametrize("name", sorted(WARM_START_GRAPHS))
def test_certificate_support_is_its_rounds_stored_edges(name, lp_dual):
    # A certificate prices y = scale * u_sparse, which is positive exactly
    # on the round's stored rows, so harvesting its support would only
    # repeat the round's own harvest.  These rounds store every retained
    # edge; test_oracle's test_certificate_prices_only_sampled_rows
    # covers a row left out of the sample.
    report, _counts, _sizes, supports = warm_run(name, lp_dual=lp_dual, harvest=False)
    assert len(supports) == report.certificates > 0
    for support, stored in supports:
        assert support == stored
