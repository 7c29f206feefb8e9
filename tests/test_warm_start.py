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


@functools.cache
def warm_run(
    name: str, *, lp_dual: bool, harvest: bool
) -> tuple[sm.SolveReport, dict[str, int], list[int]]:
    """One warm solve per configuration, shared by every test that reads it.

    Returns the report, the oracle's answer counts and the size of each
    odd-set family the solve enumerated.
    """
    with pytest.MonkeyPatch.context() as mp:
        if not harvest:
            without_harvest(mp)
        sizes = count_enumerations(mp)
        report, counts = warm_solve(mp, name, lp_dual=lp_dual)
    return report, counts, sizes


@pytest.mark.parametrize("name", sorted(WARM_START_GRAPHS))
def test_warm_start_takes_odd_steps(name):
    report, counts, _sizes = warm_run(name, lp_dual=False, harvest=True)
    assert counts.get("odd", 0) > 0
    assert sum(counts.values()) == report.steps + report.certificates
    assert _matching_digest([report]) == PINNED_MATCHINGS[f"warm_start/{name}"]


@pytest.mark.parametrize("name", sorted(WARM_START_GRAPHS))
def test_warm_start_without_harvest_builds_certificates(name):
    report, counts, _sizes = warm_run(name, lp_dual=False, harvest=False)
    assert counts.get("odd", 0) > 0
    assert counts.get("certificate", 0) == report.certificates > 0


@pytest.mark.parametrize("name", sorted(WARM_START_GRAPHS))
def test_lp_dual_start_takes_odd_steps(name):
    report, counts, _sizes = warm_run(name, lp_dual=True, harvest=True)
    assert counts.get("odd", 0) > 0
    assert sum(counts.values()) == report.steps + report.certificates
    assert _matching_digest([report]) == PINNED_MATCHINGS[f"warm_start/{name}"]


@pytest.mark.parametrize("name", sorted(WARM_START_GRAPHS))
def test_lp_dual_start_without_harvest_builds_certificates(name):
    report, counts, _sizes = warm_run(name, lp_dual=True, harvest=False)
    assert counts.get("odd", 0) > 0
    assert counts.get("certificate", 0) == report.certificates > 0
