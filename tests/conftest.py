"""Shared test fixtures and instance generators."""

from __future__ import annotations

import random
from typing import Mapping

import pytest

import sketchmatch as sm
from sketchmatch.sketch import PromiseViolationError

EPS = 1.0 / 16.0


def random_instance(seed: int) -> sm.Graph:
    """One acceptance-suite instance: n in [6,12], m <= 40, w in [1,100]."""
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


def refine_deferred_reference(
    sketch: sm.DeferredSketch, values: Mapping[int, float], tol: float = 1e-9
) -> dict[int, float]:
    """Per-entry refinement loop, the reference for ``sm.refine_deferred``.

    ``values`` maps edge id to current weight; a zero or absent value is a
    deleted edge.  Returns ``edge id -> value / keep_probability``.
    """
    out: dict[int, float] = {}
    chi = sketch.chi
    for (e, _i, _j, sigma, p_keep, _depth) in sketch.entries:
        v = values.get(e, 0.0)
        if v == 0.0:
            continue
        lo = sigma / chi * (1.0 - tol)
        hi = sigma * chi * (1.0 + tol)
        if not lo <= v <= hi:
            raise PromiseViolationError(
                f"edge {e}: value {v} outside promised band [{sigma / chi}, {sigma * chi}]"
            )
        out[e] = v / p_keep
    return out


def triangle_paper(eps: float = EPS) -> sm.Graph:
    """The motivating triangle: two unit edges and one light edge."""
    return sm.Graph(
        n=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 10.0 * eps)), b=(1, 1, 1)
    )


@pytest.fixture(scope="session")
def suite_instances() -> list[sm.Graph]:
    """The 100 seeded graphs shared by the acceptance criteria."""
    return [random_instance(1000 + s) for s in range(100)]
