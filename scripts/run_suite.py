"""Solve a batch of random instances and tabulate ratios to the optimum.

Generates seeded random graphs in the same family the test suite uses,
solves each with the round-structured solver, brute-forces the exact
optimum, and prints per-instance ratios plus a summary row.  With
``--assert`` every run verifies its own dual steps and certificates.
Each ``--json`` row carries ``report_sha256``, the sha256 of the
report's sorted-key JSON, so two commits' reports compare with a diff
of their outputs, and ``matching_sha256``, the sha256 of the matching
and its level-weight value, which stays put when only the coverage
bits move.

Example
-------
    python3 scripts/run_suite.py --count 25 --epsilon 0.0625 --assert
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time

import sketchmatch as sm


def random_instance(seed: int) -> sm.Graph:
    """One suite instance: n in [6,12], m <= 40, w in [1,100], b_i in {1,2}."""
    rng = random.Random(seed)
    n = rng.randint(6, 12)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    m = min(len(pairs), 40, rng.randint(n - 1, 3 * n))
    edges = tuple(
        (i, j, float(rng.randint(1, 100))) for (i, j) in sorted(pairs[:m])
    )
    b = tuple(rng.choice((1, 2)) for _ in range(n))
    return sm.Graph(n=n, edges=edges, b=b)


def report_sha256(rep: sm.SolveReport) -> str:
    """sha256 of the report's canonical JSON: equal digests, byte-identical reports."""
    return hashlib.sha256(json.dumps(rep.as_dict(), sort_keys=True).encode()).hexdigest()


def matching_sha256(rep: sm.SolveReport) -> str:
    """sha256 of ``[matching, rescaled_weight]``: equal digests, the same matching."""
    rows = [[list(e) for e in rep.matching], rep.rescaled_weight]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=25, help="instances to solve")
    parser.add_argument("--base-seed", type=int, default=1000)
    parser.add_argument("--epsilon", type=float, default=1.0 / 16.0)
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument(
        "--assert",
        dest="assert_mode",
        action="store_true",
        help="verify every dual step and certificate while solving",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON summary")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")

    cfg = sm.SolverConfig(
        epsilon=args.epsilon, p=args.p, assert_mode=args.assert_mode
    )
    floor = sm.ratio_floor_for(args.epsilon)
    rows = []
    t0 = time.monotonic()
    for s in range(args.count):
        g = random_instance(args.base_seed + s)
        rep = sm.solve(g, cfg)
        opt, _ = sm.brute_force_bmatching(g)
        ratio = rep.weight / opt if opt > 0 else 1.0
        rows.append(
            {
                "seed": args.base_seed + s,
                "n": g.n,
                "m": len(g.edges),
                "weight": rep.weight,
                "optimum": opt,
                "ratio": ratio,
                "rounds": rep.rounds,
                "peak_space": rep.peak_space,
                "report_sha256": report_sha256(rep),
                "matching_sha256": matching_sha256(rep),
            }
        )
        if not args.json:
            print(
                f"seed {args.base_seed + s:5d}  n={g.n:2d} m={len(g.edges):2d}  "
                f"weight {rep.weight:8.1f} / {opt:8.1f}  ratio {ratio:.4f}  "
                f"rounds {rep.rounds}"
            )
    elapsed = time.monotonic() - t0
    worst = min(r["ratio"] for r in rows)
    summary = {
        "count": args.count,
        "worst_ratio": worst,
        "ratio_floor": floor,
        "all_above_floor": worst >= floor - 1e-9,
        "elapsed_seconds": elapsed,
    }
    if args.json:
        print(json.dumps({"instances": rows, "summary": summary}, indent=2))
    else:
        print(
            f"\nworst ratio {worst:.4f} (floor {floor:.4f}), "
            f"{args.count} instances in {elapsed:.1f}s"
        )
    return 0 if summary["all_above_floor"] else 1


if __name__ == "__main__":
    sys.exit(main())
