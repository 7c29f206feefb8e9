"""Seeded instance families for the sketchmatch benchmark.

Every workload is a fixed list of base instances.  The run seed draws,
for each base instance, a vertex relabelling and an edge order; the
relabelled graph is written out as edge-list text and parsed back with
``sketchmatch.load_graph``, so the solver sees a different input for
every seed while the amount of work in a run stays the same.  (Drawing
a fresh window of random instances per seed moved the per-solve median
of the suite by about 13% on its own, more than a timing bound can
absorb.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import sketchmatch as sm


def suite_graph(seed: int) -> sm.Graph:
    """One acceptance-suite instance: n in [6,12], m <= 40, w in [1,100].

    Draws exactly what ``tests/conftest.py:random_instance`` draws.
    """
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


def oddset_wide_graph(seed: int, n: int) -> sm.Graph:
    """An odd-set-heavy instance: b = 1, m = 3n, integer weights 1..100."""
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    edges = tuple(
        (i, j, float(rng.randint(1, 100))) for (i, j) in sorted(pairs[: 3 * n])
    )
    return sm.Graph(n=n, edges=edges, b=(1,) * n)


@dataclass(frozen=True)
class Workload:
    name: str
    base: tuple[sm.Graph, ...]
    # ``SolverConfig`` keyword arguments, shared with the frozen seed solver.
    config: dict


def _suite_base() -> tuple[sm.Graph, ...]:
    return tuple(suite_graph(1000 + k) for k in range(16))


def _oddset_wide_base() -> tuple[sm.Graph, ...]:
    return tuple(oddset_wide_graph(k, 16 + k % 3) for k in range(6))


def workload(name: str) -> Workload:
    """The named workload (see ``BENCHMARK.json`` for why each exists).

    Raises ``KeyError`` for an unknown name.
    """
    if name == "suite":
        return Workload(name, _suite_base(), {})
    if name == "suite_assert":
        return Workload(name, _suite_base(), {"assert_mode": True})
    if name == "oddset_wide":
        return Workload(name, _oddset_wide_base(), {})
    raise KeyError(name)


def relabel_text(g: sm.Graph, rng: random.Random) -> tuple[str, str]:
    """Edge-list and capacity text of ``g`` under a random relabelling."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    lines = [f"{perm[i]} {perm[j]} {w!r}" for (i, j, w) in g.edges]
    rng.shuffle(lines)
    caps = [f"{perm[i]} {g.b[i]}" for i in range(g.n)]
    return "\n".join(lines) + "\n", "\n".join(caps) + "\n"


def instance_texts(wl: Workload, seed: int) -> list[tuple[str, str]]:
    """The run's inputs: one relabelled text pair per base instance."""
    rng = random.Random(seed)
    return [relabel_text(g, rng) for g in wl.base]


def reference_optimum(g: sm.Graph) -> float:
    """Exact maximum b-matching weight by branch and bound."""
    opt, _ = sm.brute_force_bmatching(g, max_n=18)
    return opt
