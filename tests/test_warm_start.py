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


@pytest.mark.parametrize("name", sorted(WARM_START_GRAPHS))
def test_warm_start_takes_odd_steps(monkeypatch, name):
    report, counts = warm_solve(monkeypatch, name)
    assert counts.get("odd", 0) > 0
    assert sum(counts.values()) == report.steps + report.certificates
    assert _matching_digest([report]) == PINNED_MATCHINGS[f"warm_start/{name}"]


@pytest.mark.parametrize("name", sorted(WARM_START_GRAPHS))
def test_warm_start_without_harvest_builds_certificates(monkeypatch, name):
    without_harvest(monkeypatch)
    report, counts = warm_solve(monkeypatch, name)
    assert counts.get("odd", 0) > 0
    assert counts.get("certificate", 0) == report.certificates > 0


@pytest.mark.parametrize("name", sorted(WARM_START_GRAPHS))
def test_lp_dual_start_takes_odd_steps(monkeypatch, name):
    report, counts = warm_solve(monkeypatch, name, lp_dual=True)
    assert counts.get("odd", 0) > 0
    assert sum(counts.values()) == report.steps + report.certificates
    assert _matching_digest([report]) == PINNED_MATCHINGS[f"warm_start/{name}"]


@pytest.mark.parametrize("name", sorted(WARM_START_GRAPHS))
def test_lp_dual_start_without_harvest_builds_certificates(monkeypatch, name):
    without_harvest(monkeypatch)
    report, counts = warm_solve(monkeypatch, name, lp_dual=True)
    assert counts.get("odd", 0) > 0
    assert counts.get("certificate", 0) == report.certificates > 0
