"""Solve requests against the frozen seed solver, one per input line.

Started by ``run.py`` with pipes.  The first line is JSON:
``{"texts": [[edge_text, cap_text], ...], "config": {...}}``.  The worker
parses the graphs, solves a small warm-up graph, and answers ``ready``.
Each later line holds an instance index; the answer is the wall seconds
of one ``solve`` call on it.  End of input ends the worker.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sketchmatch_seed as seed  # noqa: E402


def main() -> int:
    init = json.loads(sys.stdin.readline())
    graphs = [seed.load_graph(edge_text, cap_text) for edge_text, cap_text in init["texts"]]
    cfg = seed.SolverConfig(**init["config"])
    seed.solve(seed.load_graph("0 1 1.0\n0 2 1.0\n1 2 0.625\n"), cfg)
    print("ready", flush=True)
    for line in sys.stdin:
        g = graphs[int(line)]
        t0 = time.perf_counter()
        seed.solve(g, cfg)
        print(repr(time.perf_counter() - t0), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
