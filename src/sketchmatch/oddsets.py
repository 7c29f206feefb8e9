"""Dense odd-set selection over the enumerated small odd-set family.

Given per-edge masses ``q_ij`` and per-vertex allowances ``q_hat_i``
(produced by the matching oracle at some level), an odd set ``U`` is
*dense* when its internal mass ``sum_{ij in U} q_ij`` exceeds roughly
half its allowance ``sum_{i in U} q_hat_i``.  Dense odd sets are
exactly the odd-set constraints the oracle must price.

:func:`collect_violated_sets` scans the small odd-set family directly
and selects a disjoint group of violators with a provable margin:
selected sets satisfy the membership bound with ``eps/2`` to spare,
and sets untouched by the selection satisfy the exclusion bound.
"""

from __future__ import annotations

import numpy as np

from .system import SystemIndex

__all__ = ["collect_violated_sets"]


def collect_violated_sets(
    index: SystemIndex,
    q_rows: np.ndarray,
    q_hat: np.ndarray,
) -> tuple[list[int], np.ndarray]:
    """Select a disjoint family of violated small odd sets directly.

    Every call asserts the selection's guarantees: allowances are at
    least ``b_i``, every selected set has capacity at least 3 and
    carries the ``eps/2`` membership margin, and no set disjoint from
    the selection exceeds the exclusion bar (checked exhaustively over
    the whole small-odd-set family).

    Parameters
    ----------
    index:
        System index (supplies the odd-set family and row geometry).
    q_rows:
        Edge mass per cover row (already restricted to the level under
        consideration — rows below the level must carry 0).
    q_hat:
        Allowance per vertex.

    Returns
    -------
    (selected, values)
        ``selected`` is an ordered list of odd-set indices (disjoint
        family); ``values[t]`` is ``internal_mass - (allowance -
        capacity)/2`` for odd set ``t`` — at least
        ``floor(capacity/2) + eps/2`` on selected sets and at most
        ``floor(capacity/2) + eps/2`` on sets disjoint from the
        selection.
    """
    eps = index.epsilon
    family = index.odd_sets
    short = np.flatnonzero(q_hat < index.capacity - 1e-9)
    if short.size:
        raise AssertionError(f"allowance of vertex {short[0]} below its capacity")
    internal, allowance = np.empty((2, len(family)))
    for sets, member_mat, internal_mat in index.set_blocks():
        internal[sets] = internal_mat @ q_rows
        allowance[sets] = member_mat @ q_hat
    values = internal - 0.5 * (allowance - family.bnorm)
    # Candidates: internal mass beyond the exclusion bar.
    bars = 0.5 * (allowance - (1.0 - eps))
    cand = np.nonzero(internal > bars + 1e-12)[0]
    # Ties on the margin go to the lexicographically smallest member
    # tuple, so the selection is deterministic.
    order = sorted(
        (int(t) for t in cand),
        key=lambda t: (float(allowance[t] - 2.0 * internal[t]), family.members(t)),
    )
    selected: list[int] = []
    used = np.zeros(len(index.capacity), dtype=bool)
    for t in order:
        row = family.member[t]
        if (row & used).any():
            continue
        selected.append(t)
        used |= row
        bn = int(family.bnorm[t])
        if bn < 3:
            raise AssertionError(f"selected odd set {family.members(t)} has capacity < 3")
        if not values[t] > bn // 2 + eps / 2.0 - 1e-12:
            raise AssertionError(
                f"selected set {family.members(t)} lacks the eps/2 membership margin"
            )
    # Exhaustive exclusion check over the whole small-odd-set family:
    # any set disjoint from the selection must sit at or below the bar
    # (it would have been selected otherwise).
    untouched = ~family.member[:, used].any(axis=1)
    ceiling = np.floor(family.bnorm / 2.0) + eps / 2.0 + 1e-12
    over = np.flatnonzero(untouched & (values > ceiling))
    if over.size:
        raise AssertionError(
            f"untouched odd set {family.members(over[0])} exceeds the exclusion bar"
        )
    return selected, values
