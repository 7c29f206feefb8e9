"""Frozen copy of the solver modules of ``sketchmatch`` at commit 6d2de7e.

The benchmark times this copy next to the package under test, on the same
inputs and in the same minute, so a run can report solve time relative to
the seed solver.  That ratio cancels the host's speed drift, which moves
wall times between runs by more than a regression bound.  Do not edit these
modules: the ratio is only comparable across commits while they stay as
they were.  ``cli.py`` and ``exact.py`` are not needed and not copied.
"""

from .driver import SolverConfig, solve
from .graph import load_graph

__all__ = ["SolverConfig", "load_graph", "solve"]
