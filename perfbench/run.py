"""Benchmark of ``sketchmatch.solve`` on seeded instance families.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 50 --trace 0

The package under test runs in this process, on one thread.  The run
builds its inputs from ``--seed`` (see ``workloads.py``), solves them
round-robin in a closed loop for ``--seconds`` (at least one pass over
the instances), checks every returned matching against the exact
optimum, and prints one metric per line followed by a JSON result line.
Each solve is paired with a solve of the same input by the frozen seed
solver in ``seedref/``, run in a worker process, and the ratio of the
two times is the drift-free speed metric.

With ``--trace 0`` the result holds the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics,
measured on traced solves paired with untraced solves of the same
instance (the pairs give the tracing overhead).  The spans of a traced
run are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPS = 5
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "solves_per_s": "1/s",
    "solve_vs_seed_p50": "ratio",
    "solve_vs_seed_total": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rounds_mean": "rounds",
    "peak_space_ratio_max": "ratio",
    "ratio_min": "ratio",
    "ratio_mean": "ratio",
    "certified_share": "share",
    "failed_share": "share",
}
# Per-layer metrics: self seconds and call counts of traced spans, then
# counters; all are per-solve means unless the unit says otherwise.
LAYER_SECONDS = (
    "graph.discretize",
    "graph.enumerate_small_odd_sets",
    "system.SystemIndex",
    "oracle.initial_solution",
    "sketch.build_deferred",
    "sketch.refine_deferred",
    "oracle.extract_integral",
    "mwu.packing_multipliers",
    "oracle.matching_oracle",
    "system.cover_values",
    "system.degree_values",
    "system.blend",
    "system.multiplier_vector",
    "oracle.check_dual_step",
    "oracle.check_primal_certificate",
    "sketch.verify_switch",
    "oddsets.collect_violated_sets",
)
LAYER_CALLS = (
    "oracle.extract_integral",
    "oracle.matching_oracle",
    "sketch.build_deferred",
    "system.cover_values",
    "system.degree_values",
    "oracle.check_dual_step",
    "oracle.check_primal_certificate",
    "sketch.verify_switch",
    "oddsets.collect_violated_sets",
)
PER_LAYER_UNITS = {f"{name}_s": "s" for name in LAYER_SECONDS}
PER_LAYER_UNITS.update({f"{name}_calls": "count" for name in LAYER_CALLS})
PER_LAYER_UNITS.update(
    {
        "mwu.lagrangian_search_self_s": "s",
        "driver.self_s": "s",
        "exact.brute_force_bmatching_s": "s",
        "graph.odd_sets": "count",
        "oracle.extract_integral_distinct": "count",
        "oracle.harvest_reuse_share": "share",
        "oracle.extract_integral_greedy_share": "share",
        "mwu.probes_per_step": "probes/step",
        "oracle.branch_zero": "count",
        "oracle.branch_vertex": "count",
        "oracle.branch_odd": "count",
        "oracle.branch_mixed": "count",
        "oracle.branch_certificate": "count",
        "mwu.lambda_gain_per_step": "1/step",
        "driver.steps": "count",
        "driver.certificates": "count",
        "driver.harvests": "count",
        "sketch.stored_share": "share",
        "trace.solve_s_p50": "s",
        "trace.untraced_solve_s_p50": "s",
        "trace.overhead_share": "share",
    }
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing source, bad spec)."""


class NoResult(RuntimeError):
    """Too many solves failed to compute the metrics."""


def _prepare_imports() -> None:
    """Pin math-library threads and import ``sketchmatch`` from ``src/``."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "sketchmatch" / "__init__.py").is_file():
        raise SetupError(f"no sketchmatch package under {SRC}")
    sys.path.insert(0, str(SRC))
    import sketchmatch

    if Path(sketchmatch.__file__).resolve().parent != SRC / "sketchmatch":
        raise SetupError(f"imported sketchmatch from {sketchmatch.__file__}, not {SRC}")


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    return json.loads(path.read_text())


def _child_import_s() -> float:
    """Wall time of a fresh interpreter importing ``sketchmatch``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import sketchmatch"], env=env, check=True, timeout=60
    )
    return time.perf_counter() - t0


def _machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def _check(g, opt: float, rep) -> str | None:
    """Why the report is wrong, or ``None`` when it passes every check."""
    w_of = {(i, j): w for (i, j, w) in g.edges}
    load = [0] * g.n
    for i, j, mult in rep.matching:
        if (i, j) not in w_of:
            return f"matching uses non-edge ({i}, {j})"
        if not isinstance(mult, int) or mult < 1:
            return f"bad multiplicity {mult!r} on ({i}, {j})"
        load[i] += mult
        load[j] += mult
    over = [i for i in range(g.n) if load[i] > g.b[i]]
    if over:
        return f"vertex {over[0]} covered {load[over[0]]} > b = {g.b[over[0]]}"
    weight = math.fsum(w_of[(i, j)] * mult for (i, j, mult) in rep.matching)
    if not math.isclose(rep.weight, weight, rel_tol=1e-12, abs_tol=1e-12):
        return f"reported weight {rep.weight} != recomputed {weight}"
    ratio = weight / opt if opt > 0 else 1.0
    floor = 1.0 - 14.0 * rep.config_echo["epsilon"]
    if not floor - 1e-12 <= ratio <= 1.0 + 1e-9:
        return f"ratio {ratio} outside [{floor}, 1]"
    if rep.rounds > rep.round_cap:
        return f"rounds {rep.rounds} > cap {rep.round_cap}"
    if rep.peak_space > rep.space_cap:
        return f"peak space {rep.peak_space} > cap {rep.space_cap}"
    return None


def _digest(rep) -> str:
    return hashlib.sha256(json.dumps(rep.as_dict(), sort_keys=True).encode()).hexdigest()


class Outcomes:
    """Per-solve timings plus the first report of every instance."""

    def __init__(self, graphs, refs) -> None:
        self.graphs = graphs
        self.refs = refs
        self.first: dict[int, object] = {}
        self.digests: dict[int, str] = {}
        self.times: list[float] = []
        self.failures: list[str] = []
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return len(self.times) + len(self.failures)

    def solve(self, k: int, run) -> float | None:
        """Time ``run(graph)`` on instance ``k`` and check its report."""
        g = self.graphs[k]
        t0 = time.perf_counter()
        try:
            rep = run(k, g)
        except Exception as exc:  # a raising solve is a failed solve
            self.failures.append(f"instance {k}: {type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        why = _check(g, self.refs[k], rep)
        digest = _digest(rep)
        if why is None and self.digests.setdefault(k, digest) != digest:
            why = "report differs from the first solve of this instance"
        if why is not None:
            self.failures.append(f"instance {k}: {why}")
            return None
        self.first.setdefault(k, rep)
        self.times.append(dt)
        return dt


def _tail(times: list[float]) -> tuple[float, int]:
    """Slowest solve with at least ``TAIL_BEYOND`` solves beyond it, and its percentile.

    With ``TAIL_BEYOND`` solves or fewer no such solve exists, and the
    fastest one is returned.
    """
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], math.floor(100 * rank / len(ordered))


def _quality(out: Outcomes) -> dict[str, float]:
    reps = [out.first[k] for k in sorted(out.first)]
    ratios = [
        rep.weight / out.refs[k] if out.refs[k] > 0 else 1.0
        for k, rep in sorted(out.first.items())
    ]
    return {
        "rounds_mean": statistics.fmean(r.rounds for r in reps),
        "peak_space_ratio_max": max(r.peak_space / r.space_cap for r in reps),
        "ratio_min": min(ratios),
        "ratio_mean": statistics.fmean(ratios),
        "certified_share": sum(r.certified for r in reps) / len(reps),
    }


class SeedReference:
    """The frozen seed solver in a worker process (``seedref/worker.py``).

    It runs in its own process so that the benchmark process's peak RSS
    is the program's alone.  The two processes never solve at once.
    """

    def __init__(self, texts: list[tuple[str, str]], config: dict) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "seedref" / "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._ask(json.dumps({"texts": texts, "config": config}))

    def _ask(self, line: str) -> str:
        self._proc.stdin.write(line + "\n")
        self._proc.stdin.flush()
        answer = self._proc.stdout.readline()
        if not answer:
            raise NoResult(f"seed reference worker exited with {self._proc.wait()}")
        return answer

    def solve(self, k: int) -> float:
        """Wall seconds of one seed-solver ``solve`` on instance ``k``."""
        return float(self._ask(str(k)))

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _run_plain(out: Outcomes, wl, texts, seconds: float) -> dict[str, float]:
    import sketchmatch as sm

    cfg = sm.SolverConfig(**wl.config)
    k_count = len(out.graphs)
    ratios: list[float] = []
    paired = [0.0, 0.0]
    ref = SeedReference(texts, wl.config)
    try:
        t_start = time.perf_counter()
        deadline = t_start + seconds
        i = 0
        while i < k_count or time.perf_counter() < deadline:
            k = i % k_count
            # Alternate which solver of the pair runs first.
            t_ref = ref.solve(k) if i % 2 else None
            t = out.solve(k, lambda _k, g: sm.solve(g, cfg))
            if t_ref is None:
                t_ref = ref.solve(k)
            if t is not None:
                ratios.append(t / t_ref)
                paired[0] += t
                paired[1] += t_ref
            i += 1
        out.elapsed = time.perf_counter() - t_start
    finally:
        ref.close()
    if len(out.first) < k_count:
        raise NoResult("some instance never solved successfully")
    metrics = {
        "solve_s_p50": statistics.median(out.times),
        "solve_s_tail": _tail(out.times)[0],
        "solves_per_s": len(out.times) / math.fsum(out.times),
        "solve_vs_seed_p50": statistics.median(ratios),
        "solve_vs_seed_total": paired[0] / paired[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(_quality(out))
    return metrics


def _run_traced(out: Outcomes, cfg, seconds: float, span_path: Path) -> dict[str, float]:
    import sketchmatch as sm
    from tracing import BRANCHES, Tracer

    tracer = Tracer()

    def plain(_k, g):
        return sm.solve(g, cfg)

    def traced(k, g):
        return tracer.solve(k, g, cfg)

    k_count = len(out.graphs)
    deadline = time.perf_counter() + seconds
    plain_times: list[float] = []
    traced_times: list[float] = []
    i = 0
    while i < k_count or time.perf_counter() < deadline:
        # Alternate which side of the pair runs first.
        order = (plain, traced) if i % 2 == 0 else (traced, plain)
        t_pair = [out.solve(i % k_count, fn) for fn in order]
        if None not in t_pair:
            t_plain, t_traced = t_pair if i % 2 == 0 else t_pair[::-1]
            plain_times.append(t_plain)
            traced_times.append(t_traced)
        i += 1
    tracer.write(span_path)
    if len(out.first) < k_count:
        raise NoResult("some instance never solved successfully")

    rows = tracer.per_solve()
    for row, k in zip(rows, tracer.solve_instance):
        rep = out.first.get(k)
        if rep is None:
            continue
        row["driver.steps"] = rep.steps
        row["driver.certificates"] = rep.certificates
        row["driver.harvests"] = rep.harvests
        row["mwu.lambda_gain_per_step"] = (
            (rep.lambda_final / rep.lambda_start - 1.0) / rep.steps if rep.steps else 0.0
        )
    # Per-instance means first, so every instance weighs the same and the
    # counts (identical across repeats of an instance) repeat exactly.
    by_instance: dict[int, list[dict]] = {}
    for row, k in zip(rows, tracer.solve_instance):
        if k in out.first:
            by_instance.setdefault(k, []).append(row)

    def mean(key: str) -> float:
        per_k = [statistics.fmean(r.get(key, 0.0) for r in rs) for rs in by_instance.values()]
        return statistics.fmean(per_k)

    m: dict[str, float] = {}
    for name in LAYER_SECONDS:
        m[f"{name}_s"] = mean(f"{name}_s")
    for name in LAYER_CALLS:
        m[f"{name}_calls"] = mean(f"{name}_calls")
    m["mwu.lagrangian_search_self_s"] = mean("mwu.lagrangian_search_s")
    m["driver.self_s"] = mean("driver.solve_s")
    for key in ("graph.odd_sets", "oracle.extract_integral_distinct", "driver.steps",
                "driver.certificates", "driver.harvests", "mwu.lambda_gain_per_step"):
        m[key] = mean(key)
    for branch in BRANCHES:
        m[f"oracle.branch_{branch}"] = mean(f"oracle.branch_{branch}")
    calls = m["oracle.extract_integral_calls"]
    m["oracle.harvest_reuse_share"] = 1.0 - m["oracle.extract_integral_distinct"] / calls
    m["oracle.extract_integral_greedy_share"] = mean("oracle.extract_integral_greedy") / calls
    m["mwu.probes_per_step"] = m["oracle.matching_oracle_calls"] / mean(
        "mwu.lagrangian_search_calls"
    )
    m["sketch.stored_share"] = mean("sketch.stored_entries") / mean("sketch.live_edges")
    m["trace.solve_s_p50"] = statistics.median(traced_times)
    m["trace.untraced_solve_s_p50"] = statistics.median(plain_times)
    m["trace.overhead_share"] = m["trace.solve_s_p50"] / m["trace.untraced_solve_s_p50"] - 1.0
    return m


def _fmt(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<40} {value:>14.6g} {unit:<12}{note}"


def run(args) -> int:
    try:
        _prepare_imports()
        spec = _load_spec()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import sketchmatch as sm
    from workloads import instance_texts, reference_optimum, workload

    try:
        wl = workload(args.workload)
    except KeyError:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()

    # Set-up: a fresh interpreter importing the package, then parsing the
    # run's instances from text and solving them exactly, several times.
    texts = instance_texts(wl, args.seed)
    setup_samples, bf_samples = [], []
    for _ in range(SETUP_REPS):
        import_s = _child_import_s()
        t0 = time.perf_counter()
        graphs = [sm.load_graph(edge_text, cap_text) for edge_text, cap_text in texts]
        bf_s = []
        refs = []
        for g in graphs:
            t1 = time.perf_counter()
            refs.append(reference_optimum(g))
            bf_s.append(time.perf_counter() - t1)
        setup_samples.append(import_s + time.perf_counter() - t0)
        bf_samples.append(statistics.fmean(bf_s))
    setup_s = statistics.median(setup_samples)
    # Warm the interpreter and numpy paths once, outside every timing.
    sm.solve(sm.Graph(n=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 0.625)), b=(1, 1, 1)))

    out = Outcomes(graphs, refs)
    why = next((w["why"] for w in spec["workloads"] if w["name"] == wl.name), "")
    print(
        f"workload {wl.name}  seed {args.seed}  instances {len(graphs)}  "
        f"trace {args.trace}  -- {why}"
    )
    span_path = OUT_DIR / f"spans-{wl.name}-{args.seed}.npz"
    try:
        if args.trace:
            metrics = _run_traced(out, sm.SolverConfig(**wl.config), args.seconds, span_path)
        else:
            metrics = _run_plain(out, wl, texts, args.seconds)
    except NoResult as exc:
        for msg in out.failures:
            print(f"  FAILED {msg}")
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics["exact.brute_force_bmatching_s"] = statistics.median(bf_samples)
        wanted = spec["per_layer"]
        units = PER_LAYER_UNITS
        for name in sorted(metrics):
            print(_fmt(name, metrics[name], units[name]))
        print(f"  spans written to {span_path.relative_to(ROOT)}")
    else:
        metrics["setup_s"] = setup_s
        metrics["failed_share"] = len(out.failures) / out.attempted
        wanted = spec["end_to_end"]
        units = END_TO_END_UNITS
        pct = _tail(out.times)[1]
        notes = {"solve_s_tail": f"p{pct} of {len(out.times)} solves in {out.elapsed:.1f} s"}
        for name in END_TO_END_UNITS:
            print(_fmt(name, metrics[name], units[name], notes.get(name, "")))
    for msg in out.failures:
        print(f"  FAILED {msg}")

    digest = hashlib.sha256(
        "".join(_digest(out.first[k]) for k in sorted(out.first)).encode()
    ).hexdigest()
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "as_dict_sha256": digest,
        "solve_s": out.times,
        "machine": _machine(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": units[m["name"]]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
