"""The small odd-set family is enumerated only when a solve first reads it.

``driver.solve`` hands ``SystemIndex`` its own ``enumerate_small_odd_sets``
name, so patching that name sees every enumeration a solve makes.  A
solve that takes only vertex steps, as every plain and assert-mode
suite and ``oddset_wide`` solve does, never reads the family, so a
graph past the enumeration cap solves too; a solve that takes odd steps
enumerates it once.
"""

from __future__ import annotations

import pytest

import sketchmatch as sm
from sketchmatch import driver

from conftest import WARM_START_GRAPHS, oddset_wide_instance, random_instance, wide_random_instance
from test_warm_start import warm_run

VERTEX_ONLY = [random_instance(1000 + s) for s in range(20)] + [
    oddset_wide_instance(0, 16),
    wide_random_instance(300),
]


@pytest.mark.parametrize("assert_mode", [False, True], ids=["plain", "assert"])
def test_vertex_only_solves_never_enumerate(monkeypatch, assert_mode):
    cfg = sm.SolverConfig(assert_mode=assert_mode)
    want = [sm.solve(g, cfg).as_dict() for g in VERTEX_ONLY]

    def refuse(g, epsilon):
        raise AssertionError("the odd-set family was read")

    monkeypatch.setattr(driver, "enumerate_small_odd_sets", refuse)
    assert [sm.solve(g, cfg).as_dict() for g in VERTEX_ONLY] == want


@pytest.mark.parametrize("harvest", [True, False], ids=["harvest", "no_harvest"])
@pytest.mark.parametrize("lp_dual", [False, True], ids=["warm", "lp_dual"])
@pytest.mark.parametrize("name", sorted(WARM_START_GRAPHS))
def test_odd_step_solves_enumerate_once(name, lp_dual, harvest):
    # the warm-start tests read the same solves, so each runs once
    report, counts, sizes = warm_run(name, lp_dual=lp_dual, harvest=harvest)
    assert counts.get("odd", 0) > 0
    g, _groups = WARM_START_GRAPHS[name]
    assert sizes == [sm.count_small_odd_sets(g, report.config_echo["epsilon"])]
