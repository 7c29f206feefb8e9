"""Command-line interface.

Four subcommands over a shared edge-list input format:

- ``solve`` — run the approximate matching solver, print a report;
- ``sparsify`` — build a cut sparsifier (streaming, or deferred against
  the edge weights as promises) and print the kept edges;
- ``verify`` — run the solver with all internal checks on, compare it
  against the exact oracles, and report each verdict;
- ``stats`` — summarize the instance and its discretization.

Input files list one edge per line, ``"i j w"`` with 0-based vertex
ids; ``#`` starts a comment.  Capacities default to 1 and can be
overridden with ``--b FILE`` (lines ``"i b_i"``).

Exit status: 0 on success, 1 on contract or input failures, 2 on usage
errors.  ``verify`` also exits 1 if any verdict fails.  A reader that
closes standard output early (``| head``) gets exit status 1 and no
traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .driver import SolverConfig, ratio_floor_for, solve
from .exact import EXACT_LP_MAX_N, brute_force_bmatching, exact_lp_values
from .graph import (
    Graph,
    GraphFormatError,
    count_small_odd_sets,
    discretize,
    find_max_weight,
    load_graph,
)
from .sketch import build_deferred, build_streaming_sparsifier, refine_deferred

__all__ = ["build_parser", "main", "cli_main"]


def _read_graph(args: argparse.Namespace) -> Graph:
    with open(args.input, encoding="utf-8") as fh:
        edge_text = fh.read()
    b_text = None
    if args.b is not None:
        with open(args.b, encoding="utf-8") as fh:
            b_text = fh.read()
    return load_graph(edge_text, b_text)


def _emit(payload: dict, args: argparse.Namespace, human: str) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text)
    else:
        print(human)
        if args.out is not None:
            print(f"full report written to {args.out}")


def _solver_config(args: argparse.Namespace, assert_mode: bool) -> SolverConfig:
    return SolverConfig(
        epsilon=args.epsilon,
        p=args.p,
        seed=args.seed,
        max_rounds=args.max_rounds,
        space_mult=args.space_mult,
        assert_mode=assert_mode,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    report = solve(g, _solver_config(args, args.assert_mode))
    lines = [
        f"matching weight {report.weight:.6g} "
        f"(level-weight value {report.rescaled_weight:.6g})",
        f"edges: {' '.join(f'{i}-{j}x{m}' for (i, j, m) in report.matching) or '(empty)'}",
        f"rounds {report.rounds}/{report.round_cap}, "
        f"peak space {report.peak_space} (cap {report.space_cap:.6g})",
        f"coverage {report.lambda_final:.6g} (stop: {report.stop_reason})",
    ]
    _emit(report.as_dict(), args, "\n".join(lines))
    return 0


def _cmd_sparsify(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    pairs = [(i, j) for (i, j, _w) in g.edges]
    weights = [w for (_i, _j, w) in g.edges]
    if args.deferred:
        sk = build_deferred(g.n, pairs, weights, args.chi, args.xi, args.seed)
        entries = sk.entries
        refined = refine_deferred(sk, np.asarray(weights, dtype=float)[entries["edge"]])
        kept = sorted(
            (e, i, j, w)
            for (e, i, j), w in zip(entries[["edge", "i", "j"]].tolist(), refined.tolist())
        )
        space = sk.space
        mode = "deferred"
    else:
        sp = build_streaming_sparsifier(g.n, pairs, weights, args.xi, args.seed)
        kept = sorted(
            (e, i, j, w)
            for e, (i, j), w in zip(sp.edge_ids, sp.endpoints, sp.weights)
        )
        space = sp.stored_total
        mode = "streaming"
    payload = {
        "mode": mode,
        "n": g.n,
        "input_edges": g.m,
        "kept_edges": len(kept),
        "space": space,
        "xi": args.xi,
        "chi": args.chi if args.deferred else None,
        "seed": args.seed,
        "edges": [[i, j, w] for (_e, i, j, w) in kept],
    }
    human = (
        f"{mode} sparsifier kept {len(kept)}/{g.m} edges "
        f"(space {space}) at xi={args.xi:g}"
    )
    _emit(payload, args, human)
    return 0


def _check_matching_file(g: Graph, path: str, eps: float) -> tuple[dict, bool]:
    """Feasibility + ratio report for an externally supplied matching.

    Entries are ``[i, j, multiplicity]`` lists of JSON integers (bools
    are not); other items make the matching infeasible, and an entry
    that is not a three-item list raises ``ValueError``.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    edges = raw.get("matching") if isinstance(raw, dict) else raw
    if not isinstance(edges, list):
        raise ValueError(f"{path}: expected a list of [i, j, multiplicity] entries")
    weight_of = {(i, j): w for (i, j, w) in g.edges}
    used = [0] * g.n
    weight = 0.0
    feasible = True
    for entry in edges:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"{path}: entry {entry!r} is not an [i, j, multiplicity] list")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in entry):
            feasible = False
            continue
        i, j, mult = entry
        key = (min(i, j), max(i, j))
        if key not in weight_of or mult < 0:
            feasible = False
            continue
        used[i] += mult
        used[j] += mult
        weight += weight_of[key] * mult
    feasible = feasible and all(u <= cap for u, cap in zip(used, g.b))
    exact_weight, _ = brute_force_bmatching(g)
    ratio = weight / exact_weight if exact_weight > 0 else 1.0
    payload = {
        "matching_file": path,
        "matching_weight": weight,
        "exact_weight": exact_weight,
        "ratio": ratio,
        "feasible": feasible,
        "meets_ratio_floor": ratio >= ratio_floor_for(eps) - 1e-9,
    }
    return payload, feasible and payload["meets_ratio_floor"]


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    eps = args.epsilon
    if args.matching is not None:
        payload, ok = _check_matching_file(g, args.matching, eps)
        human = (
            f"{'PASS' if payload['feasible'] else 'FAIL'}  degree_feasible\n"
            f"{'PASS' if payload['meets_ratio_floor'] else 'FAIL'}  ratio_floor\n"
            f"matching {payload['matching_weight']:.6g} vs exact "
            f"{payload['exact_weight']:.6g} (ratio {payload['ratio']:.4f})"
        )
        _emit(payload, args, human)
        return 0 if ok else 1
    # The brute force refuses a graph past its caps; refuse before solving.
    exact_weight, exact_edges = brute_force_bmatching(g)
    report = solve(g, _solver_config(args, assert_mode=True))
    ratio = report.weight / exact_weight if exact_weight > 0 else 1.0
    floor = ratio_floor_for(eps)
    checks = {
        "solver_vs_exact": ratio >= floor - 1e-9,
        "rounds_within_cap": report.rounds <= report.round_cap,
        "space_within_cap": report.peak_space <= report.space_cap + 1e-9,
        "internal_checks": True,  # assert mode raised otherwise
    }
    payload = {
        "solver_weight": report.weight,
        "exact_weight": exact_weight,
        "exact_matching": [list(e) for e in exact_edges],
        "ratio": ratio,
        "ratio_floor": floor,
        "rounds": report.rounds,
        "round_cap": report.round_cap,
        "peak_space": report.peak_space,
        "space_cap": report.space_cap,
        "checks": checks,
    }
    if g.n <= EXACT_LP_MAX_N:
        exact = exact_lp_values(g, eps)
        payload["beta_star"] = float(exact.beta_star)
        payload["beta_bipartite"] = float(exact.beta_bipartite)
        checks["relaxation_order"] = (
            exact.beta_star <= exact.beta_bipartite
            and exact.beta_bipartite <= Fraction(3, 2) * exact.beta_star
        )
    ok = all(checks.values())
    lines = [f"{'PASS' if v else 'FAIL'}  {name}" for name, v in sorted(checks.items())]
    lines.append(
        f"solver {report.weight:.6g} vs exact {exact_weight:.6g} "
        f"(ratio {ratio:.4f}, floor {floor:.4f})"
    )
    _emit(payload, args, "\n".join(lines))
    return 0 if ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    g = _read_graph(args)
    eps = args.epsilon
    _edge, wstar = find_max_weight(g)
    lv = discretize(g, eps)
    odd_count = count_small_odd_sets(g, eps)
    per_level: dict[int, int] = {}
    for _e, _i, _j, k in lv.retained():
        per_level[k] = per_level.get(k, 0) + 1
    payload = {
        "n": g.n,
        "m": g.m,
        "total_capacity": g.B,
        "max_weight": wstar,
        "epsilon": eps,
        "scale": lv.scale,
        "levels": lv.L + 1,
        "retained_edges": lv.retained_count,
        "dropped_edges": g.m - lv.retained_count,
        "edges_per_level": {str(k): c for k, c in sorted(per_level.items())},
        "small_odd_sets": odd_count,
    }
    human = (
        f"n={g.n} m={g.m} B={g.B} max weight {wstar:g}\n"
        f"discretization: scale {lv.scale:.6g}, {lv.L + 1} levels, "
        f"{lv.retained_count} retained / {g.m - lv.retained_count} dropped\n"
        f"small odd sets: {odd_count}"
    )
    _emit(payload, args, human)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sketchmatch",
        description="Approximate maximum-weight b-matching via adaptive sketching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="edge-list file ('i j w' lines)")
        p.add_argument("--b", default=None, help="capacity file ('i b_i' lines)")
        p.add_argument(
            "--epsilon", type=float, default=1.0 / 16.0, help="accuracy parameter"
        )
        p.add_argument("--seed", type=int, default=0, help="PRF seed")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument(
            "--json", action="store_true", help="print the JSON report to stdout"
        )

    def add_solver(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--p", type=float, default=2.0, help="space exponent (n^(1+1/p) per round)"
        )
        p.add_argument(
            "--assert",
            dest="assert_mode",
            action="store_true",
            help="check every oracle step and certificate against the verifiers",
        )
        p.add_argument(
            "--max-rounds",
            type=int,
            default=None,
            help="override the guaranteed round budget 8*ceil(p/epsilon)",
        )
        p.add_argument(
            "--space-mult",
            type=float,
            default=16.0,
            help="constant in the per-round space cap",
        )

    p_solve = sub.add_parser("solve", help="run the approximate solver")
    add_common(p_solve)
    add_solver(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_sp = sub.add_parser("sparsify", help="build a cut sparsifier")
    add_common(p_sp)
    p_sp.add_argument("--xi", type=float, default=0.25, help="cut accuracy")
    p_sp.add_argument(
        "--chi", type=float, default=2.0, help="promise band for deferred mode"
    )
    p_sp.add_argument(
        "--deferred",
        action="store_true",
        help="sample against promised weights, refine with the true ones",
    )
    p_sp.set_defaults(func=_cmd_sparsify)

    p_ver = sub.add_parser("verify", help="check the solver against exact oracles")
    add_common(p_ver)
    add_solver(p_ver)
    p_ver.add_argument(
        "--matching",
        default=None,
        help="JSON matching file ([[i, j, mult], ...]) to check instead of solving",
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_st = sub.add_parser("stats", help="summarize an instance")
    add_common(p_st)
    p_st.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        # A missing file is a usage error, same class as a bad flag.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, RuntimeError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1


def cli_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``); point stdout at
        # devnull, so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    cli_main()
