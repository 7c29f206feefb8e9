"""Measure cut-sparsifier fidelity beyond the unit-test scale.

Sweeps graph sizes and accuracy targets, builds deferred sketches over
many seeds, and reports the fraction of seeds whose every cut lands
within the ``1 +- xi`` band, along with stored-edge counts against the
analytic bound.  Each seed is run twice: at ``chi = 1``, refined at its
promise (a plain cut sparsifier of the graph), and at ``--chi``, refined
against adversarial true weights pushed to both edges of the promise
band.

Example
-------
    python3 scripts/sparsifier_fidelity.py --sizes 8 12 16 --seeds 200
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

import sketchmatch as sm
from sketchmatch.sketch import all_cut_values, forest_count, prf_u64


def complete_graph(n: int) -> tuple[list[tuple[int, int]], list[float]]:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return edges, [1.0] * len(edges)


def max_deviation(n, edges, weights, kept_edges, kept_weights) -> float:
    base = all_cut_values(n, edges, weights)
    cuts = all_cut_values(n, kept_edges, kept_weights)
    return float(np.max(np.abs(cuts - base) / base))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 16])
    parser.add_argument("--xi", type=float, nargs="+", default=[0.25, 0.5])
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--chi", type=float, default=2.0)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    results = []
    for n in args.sizes:
        if n > 20:
            raise SystemExit("cut enumeration is exponential; keep n <= 20")
        edges, weights = complete_graph(n)
        for xi in args.xi:
            promise_pass = 0
            stored = []
            for seed in range(args.seeds):
                sk = sm.build_deferred(n, edges, weights, chi=1.0, xi=xi, seed=seed)
                entries = sk.entries
                got = sm.refine_deferred(sk, entries["promise"])
                dev = max_deviation(
                    n, edges, weights, entries[["i", "j"]].tolist(), got.tolist()
                )
                promise_pass += dev <= xi
                stored.append(len(entries))
            bound = forest_count(n, xi) * (n - 1) * (math.log2(len(edges)) + 1)

            defer_pass = 0
            for seed in range(args.seeds):
                true = {
                    e: (args.chi if prf_u64(seed, "fid", e) % 2 else 1.0 / args.chi)
                    for e in range(len(edges))
                }
                sk = sm.build_deferred(
                    n, edges, weights, chi=args.chi, xi=xi, seed=seed
                )
                true_w = [true[e] for e in range(len(edges))]
                entries = sk.entries
                got = sm.refine_deferred(sk, np.array(true_w)[entries["edge"]])
                dev = max_deviation(
                    n, edges, true_w, entries[["i", "j"]].tolist(), got.tolist()
                )
                defer_pass += dev <= xi
            row = {
                "n": n,
                "xi": xi,
                "seeds": args.seeds,
                "promise_pass_rate": promise_pass / args.seeds,
                "deferred_pass_rate": defer_pass / args.seeds,
                "mean_stored_edges": sum(stored) / len(stored),
                "stored_edge_bound": bound,
            }
            results.append(row)
            if not args.json:
                print(
                    f"n={n:3d} xi={xi:.2f}  promise {row['promise_pass_rate']:.3f}"
                    f"  deferred {row['deferred_pass_rate']:.3f}"
                    f"  stored {row['mean_stored_edges']:.1f} / bound {bound:.0f}"
                )
    if args.json:
        print(json.dumps(results, indent=2))
    worst = min(
        min(r["promise_pass_rate"], r["deferred_pass_rate"]) for r in results
    )
    return 0 if worst >= 0.99 else 1


if __name__ == "__main__":
    sys.exit(main())
