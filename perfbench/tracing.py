"""Span tracing of ``sketchmatch.solve`` from outside the package.

:class:`Tracer` swaps the public functions ``driver.solve`` calls (and
the ``SystemIndex``/``DualIterate`` methods it uses) for wrappers that
record a span per call: name, start, end, parent span, instance id and
solve number.  Spans stay in memory in flat arrays and are written out
once, at the end of the run.  A few wrappers also count what the call
did (odd sets enumerated, sketch entries stored, harvest supports,
branch of each penalty-search answer).

Per-layer seconds are *self* time: a span's duration minus the time
covered by its child spans, so the per-layer seconds of a solve and
``driver.self_s`` add up to the traced solve time.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from sketchmatch import driver, oracle, system
from sketchmatch.oracle import PrimalCertificate

# (attribute, span name) of the calls wrapped in each module.
_DRIVER_CALLS = (
    ("discretize", "graph.discretize"),
    ("enumerate_small_odd_sets", "graph.enumerate_small_odd_sets"),
    ("SystemIndex", "system.SystemIndex"),
    ("initial_solution", "oracle.initial_solution"),
    ("build_deferred", "sketch.build_deferred"),
    ("refine_deferred", "sketch.refine_deferred"),
    ("extract_integral", "oracle.extract_integral"),
    ("packing_multipliers", "mwu.packing_multipliers"),
    ("lagrangian_search", "mwu.lagrangian_search"),
    ("matching_oracle", "oracle.matching_oracle"),
    ("check_dual_step", "oracle.check_dual_step"),
    ("check_primal_certificate", "oracle.check_primal_certificate"),
    ("verify_switch", "sketch.verify_switch"),
)
_ORACLE_CALLS = (
    ("collect_violated_sets", "oddsets.collect_violated_sets"),
    ("check_primal_certificate", "oracle.check_primal_certificate"),
)
# (class, method, span name) of the wrapped methods.
_METHODS = (
    (system.SystemIndex, "cover_values", "system.cover_values"),
    (system.SystemIndex, "degree_values", "system.degree_values"),
    (system.SystemIndex, "multiplier_vector", "system.multiplier_vector"),
    (system.DualIterate, "blend", "system.blend"),
)
SOLVE_SPAN = "driver.solve"
BRANCHES = ("zero", "vertex", "odd", "mixed", "certificate")


class Tracer:
    """Records spans and counters of the solves run through :meth:`solve`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.instance_ix = array("i")
        self.solve_ix = array("i")
        self._stack: list[int] = []
        self._instance = -1
        # Per traced solve: the instance it solved and its counters.
        self.solve_instance: list[int] = []
        self.solve_counts: list[Counter] = []
        self._supports: set[tuple[int, ...]] = set()
        self._retained: tuple[object, frozenset[int]] | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        ix = len(self.start)
        self.name_ix.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance_ix.append(self._instance)
        self.solve_ix.append(len(self.solve_counts) - 1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(ix)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.start[ix] = t0
            self.end[ix] = t1

    def solve(self, instance: int, g, cfg):
        """One traced ``sketchmatch.solve`` call on instance ``instance``."""
        self._instance = instance
        self.solve_instance.append(instance)
        self.solve_counts.append(Counter())
        self._supports = set()
        self._retained = None
        self._install()
        try:
            return self.call(SOLVE_SPAN, driver.solve, g, cfg)
        finally:
            self._uninstall()
            self._instance = -1

    # -- counters ----------------------------------------------------------

    def _count_odd_sets(self, args, kwargs, out) -> None:
        self.solve_counts[-1]["graph.odd_sets"] += len(out)

    def _count_sketch(self, args, kwargs, out) -> None:
        promise = np.asarray(args[2])
        c = self.solve_counts[-1]
        c["sketch.live_edges"] += int(np.count_nonzero(promise > 0.0))
        c["sketch.stored_entries"] += len(out.entries)

    def _count_harvest(self, args, kwargs, out) -> None:
        leveled, edge_ids = args[0], args[1]
        if self._retained is None or self._retained[0] is not leveled:
            self._retained = (leveled, frozenset(e for (e, *_r) in leveled.retained()))
        support = tuple(sorted(set(edge_ids) & self._retained[1]))
        c = self.solve_counts[-1]
        if support not in self._supports:
            self._supports.add(support)
            c["oracle.extract_integral_distinct"] += 1
        if len(support) > kwargs.get("exact_threshold", 24):
            c["oracle.extract_integral_greedy"] += 1

    def _count_branch(self, args, kwargs, out) -> None:
        kind = "certificate" if isinstance(out, PrimalCertificate) else out.branch
        self.solve_counts[-1][f"oracle.branch_{kind}"] += 1

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return wrapper

    def _install(self) -> None:
        hooks = {
            "graph.enumerate_small_odd_sets": self._count_odd_sets,
            "sketch.build_deferred": self._count_sketch,
            "oracle.extract_integral": self._count_harvest,
            "mwu.lagrangian_search": self._count_branch,
        }
        targets = [(driver, attr, name) for attr, name in _DRIVER_CALLS]
        targets += [(oracle, attr, name) for attr, name in _ORACLE_CALLS]
        targets += list(_METHODS)
        for owner, attr, name in targets:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hooks.get(name)))

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_ix": np.array(self.name_ix, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "instance": np.array(self.instance_ix, dtype=np.int32),
            "solve": np.array(self.solve_ix, dtype=np.int32),
        }

    def write(self, path: Path) -> None:
        """Write every span to ``path`` as a compressed ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def per_solve(self) -> list[dict[str, float]]:
        """Self seconds and call counts per span name, one dict per solve.

        Keys are ``<span>_s`` (self time) and ``<span>_calls``, plus the
        counters the hooks kept.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        n_solves, n_names = len(self.solve_counts), len(self.names)
        key = a["solve"].astype(np.int64) * n_names + a["name_ix"]
        secs = np.bincount(key, weights=self_time, minlength=n_solves * n_names)
        calls = np.bincount(key, minlength=n_solves * n_names)
        out = []
        for s in range(n_solves):
            row: dict[str, float] = dict(self.solve_counts[s])
            for t, name in enumerate(self.names):
                row[f"{name}_s"] = float(secs[s * n_names + t])
                row[f"{name}_calls"] = int(calls[s * n_names + t])
            out.append(row)
        return out
