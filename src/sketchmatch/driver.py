"""Round-structured solver driver.

:func:`solve` runs the full pipeline on a loaded graph:

1. discretize weights into geometric levels and index the constraint
   system.  The small odd-set family is enumerated only when the solve
   first reads it (an odd step, a certificate, or an assert-mode check
   of an iterate with a positive odd-set price), so a solve that takes
   only vertex steps never builds it, and a graph past the enumeration
   cap is rejected only by a solve that reads it;
2. build a starting dual point from per-level maximal matchings
   (counted as sampling rounds against the round ledger);
3. repeat super-rounds until the dual coverage certifies, the round
   budget is exhausted, or certification is out of reach
   (``stop_reason``): snapshot the row multipliers, build the deferred
   sparsifiers of every populated level against them in one
   :func:`~sketchmatch.sketch.build_deferred` call on the stack of
   per-level promise rows (one adaptive round of space), look up the
   cover row of each stored entry once, harvest an integral
   matching from the stored edges (computed once per distinct stored
   support and reused by later rounds and certificate lifts on the
   same support), then run a bounded number of multiplier refinements
   — each refinement reads the current multipliers at those rows,
   refines the sketch's entries against them
   (:func:`~sketchmatch.sketch.refine_deferred`, entry by entry) and
   puts the results back at their rows, asks the penalized
   matching oracle for a step via the penalty search, and either
   blends the step into the dual point or raises the budget on a
   primal certificate.  The first super-round always runs.  A later one
   starts only while the coverage ceiling of
   :meth:`~sketchmatch.mwu.CoveringState.lam_ceiling` over every step
   the remaining rounds allow reaches the target, or while the previous
   round's harvest is not final.  A harvest is final when the round
   stored every retained edge and the harvest is exact
   (:attr:`~sketchmatch.oracle.BMatching.exact`: a weighted blossom on
   the vertex-split graph, which every support gets whose split graph
   fits :data:`~sketchmatch.oracle.MAX_SPLIT_WORK`): it is then the
   exact leveled optimum, and no later
   round or certificate lift (a subset of those edges) can replace the
   matching.  Otherwise the solve stops as ``"cannot_certify"``;
4. report the best integral matching found, in original units and in
   level weights, together with the round/space ledger and traces.

The dual coverage rows step through :class:`sketchmatch.mwu.CoveringState`,
the same step rule :func:`sketchmatch.mwu.solve_covering` uses: phases
are retuned once per super-round, and every accepted step is checked
for width and drift on the exact row values of the blended iterate.

The number of refinements a single sketch build supports is limited by
the multiplicative drift of the multipliers per accepted step; the
promised-band check inside the sketch refinement enforces exactly that
drift budget, so a violation is a bug, not an input condition.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .graph import Graph, _is_int, discretize, enumerate_small_odd_sets
from .mwu import (
    CoveringState,
    covering_multipliers,
    lagrangian_search,
    packing_multipliers,
)
from .oracle import (
    BMatching,
    DualStep,
    PrimalCertificate,
    check_dual_step,
    check_primal_certificate,
    extract_integral,
    initial_solution,
    matching_oracle,
    verify_switch,
)
from .sketch import RoundLedger, build_deferred, refine_deferred
from .system import SystemIndex

__all__ = [
    "SolverConfig",
    "SolveReport",
    "solve",
    "ratio_floor_for",
    "round_cap_for",
    "space_cap_for",
]

# Cut-approximation parameter of the per-level deferred sketches.
SKETCH_XI = 0.5
# Primal certificates one refinement may answer before the solve fails.
CERTIFICATE_RETRIES = 1000


@dataclass(frozen=True)
class SolverConfig:
    """Tunable parameters of :func:`solve`.

    ``max_rounds`` defaults to the guaranteed round budget
    ``8 * ceil(p / epsilon)``.  A smaller value shortens solves whose
    harvest is not final, which run to the cap; it can only make the
    ``cannot_certify`` stop fire sooner, because fewer rounds leave a
    lower coverage ceiling.  At the default start the ceiling over the
    default budget is already far below the target, so a smaller cap
    costs no certificate.
    """

    epsilon: float = 1.0 / 16.0
    p: float = 2.0
    seed: int = 0
    max_rounds: int | None = None
    space_mult: float = 16.0
    assert_mode: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon <= 1.0 / 16.0:
            raise ValueError("epsilon must be in (0, 1/16]")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ValueError("p must be a finite number at least 1")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.max_rounds is not None and not (
            _is_int(self.max_rounds) and self.max_rounds >= 1
        ):
            raise ValueError(f"max_rounds must be an integer at least 1, got {self.max_rounds!r}")
        if not (math.isfinite(self.space_mult) and self.space_mult > 0.0):
            raise ValueError("space_mult must be positive and finite")


def round_cap_for(p: float, epsilon: float) -> int:
    """Guaranteed bound on adaptive sampling rounds."""
    return 8 * math.ceil(p / epsilon)


def ratio_floor_for(epsilon: float) -> float:
    """The guaranteed approximation ratio, ``1 - 14 epsilon``."""
    return 1.0 - 14.0 * epsilon


def space_cap_for(n: int, p: float, total_capacity: int, mult: float) -> float:
    """Guaranteed bound on per-round stored items."""
    return mult * n ** (1.0 + 1.0 / p) * math.log2(total_capacity + 2)


@dataclass
class SolveReport:
    """Everything :func:`solve` learned, JSON-serializable via ``as_dict``."""

    matching: tuple[tuple[int, int, int], ...]
    weight: float
    rescaled_weight: float
    ratio_bound: float
    rounds: int
    peak_space: int
    round_cap: int
    space_cap: float
    lambda_start: float
    lambda_final: float
    certified: bool
    # "certified", "round_cap", or "cannot_certify" (see the module docstring)
    stop_reason: str
    beta_final: float
    steps: int
    certificates: int
    harvests: int
    lambda_trace: list[float]
    beta_trace: list[float]
    round_spaces: list[int]
    weight_vs_beta: float
    config_echo: dict
    n: int = 0
    m: int = 0
    levels: int = 0
    scale: float = 0.0

    def as_dict(self) -> dict:
        """Every field, with ``matching`` as lists (the JSON shape)."""
        return {**asdict(self), "matching": [list(e) for e in self.matching]}


class ContractViolation(RuntimeError):
    """A solver-internal guarantee failed while assert mode was on."""


def _check_space_cap(ledger: RoundLedger, space_cap: float) -> None:
    """Raise once a recorded round holds more than ``space_cap`` items."""
    if ledger.peak_space > space_cap:
        raise ContractViolation(
            f"round space {ledger.peak_space} exceeds the space cap {space_cap:.6g}"
        )


def _original_weight(g: Graph, matching: BMatching) -> float:
    w_of = {(i, j): w for (i, j, w) in g.edges}
    return math.fsum(w_of[(i, j)] * m for (i, j, m) in matching.edges)


def solve(g: Graph, config: SolverConfig | None = None) -> SolveReport:
    """Approximately solve maximum-weight degree-capped matching on ``g``.

    Raises ``ValueError`` when the round cap leaves no round after the
    initial solution, or when the solve reads the odd-set family of a
    graph past the enumeration cap (step 1 of the module docstring).
    In assert mode, raises ``ContractViolation`` as soon as a recorded
    round holds more than the space cap.
    """
    cfg = config or SolverConfig()
    eps = cfg.epsilon
    lv = discretize(g, eps)
    # The index enumerates through this module's name, so a wrapper
    # installed under it sees every enumeration a solve makes.
    index = SystemIndex(lv, eps, enumerate_small_odd_sets)
    n = g.n
    ledger = RoundLedger()
    round_cap = cfg.max_rounds if cfg.max_rounds is not None else round_cap_for(cfg.p, eps)
    space_cap = space_cap_for(n, cfg.p, g.B, cfg.space_mult)

    it, beta0, lam0 = initial_solution(index, cfg.p, cfg.seed, ledger=ledger)
    if ledger.n_rounds >= round_cap:
        raise ValueError(
            f"a cap of {round_cap} rounds leaves no solve round after the "
            f"{ledger.n_rounds} rounds of the initial solution"
        )
    if cfg.assert_mode:
        _check_space_cap(ledger, space_cap)
    beta = beta0
    state = CoveringState(
        c=index.cover_rhs, rho=24.0 / eps + 24.0 / eps**2, eps=eps, ax=index.cover_values(it)
    )
    gamma_drift = max(n ** (1.0 / (2.0 * cfg.p)), 1.0 + eps)
    inner_per_round = math.ceil(math.log(gamma_drift) / eps)
    edge_ends = np.array([(i, j) for (i, j, _w) in g.edges], dtype=np.int64).reshape(-1, 2)
    # The populated levels; a cover row's multiplier is promised in the
    # round's promise row of its level.
    levels = lv.levels
    level_pos = np.searchsorted(levels, index.row_levels)
    q_outer = index.degree_rhs_outer
    log_q_outer = np.log(q_outer)
    delta_pack = 1.0 / 6.0
    log_pack = math.log(2.0 * len(q_outer) / delta_pack)

    # The integral matching of each distinct support, harvested once per
    # solve: at desk scale every round stores the same support.
    harvested: dict[tuple[int, ...], BMatching] = {}

    def harvest_of(support: tuple[int, ...]) -> BMatching:
        if support not in harvested:
            harvested[support] = extract_integral(lv, support)
        return harvested[support]

    # When the last round's harvest is final (step 3 of the module
    # docstring), no later round can change the matching.
    retained = tuple(sorted(index.row_edge.tolist()))
    harvest_final = False

    best_matching = BMatching(edges=(), weight=0.0)
    certificates = 0
    harvests = 0
    lambda_trace = [lam0]
    beta_trace = [beta0]
    solve_round = 0
    stop_reason = "round_cap"

    # The first solve round always runs, so a certified report carries
    # a harvest.
    while ledger.n_rounds < round_cap:
        if solve_round > 0:
            if state.lam >= state.target:
                break
            steps_left = (round_cap - ledger.n_rounds) * inner_per_round
            if (
                harvest_final
                and state.lam_ceiling(state.lam_max, steps_left) < state.target
            ):
                stop_reason = "cannot_certify"
                break
        solve_round += 1
        ledger.begin_round(f"solve-{solve_round}")
        # Phase boundaries are frozen to round boundaries.
        state.retune()

        # Snapshot multipliers; the snapshot's max is the round's
        # normalization offset, shared by every refinement below so the
        # promised drift band is exactly the per-step drift guarantee.
        u_build, log_u = covering_multipliers(state.load, state.log_c, state.alpha)
        offset = float(log_u.max())

        # One deferred sketch per populated level, all built in one call.
        promise = np.zeros((len(levels), g.m))
        promise[level_pos, index.row_edge] = u_build
        seeds = [(cfg.seed * 1_000_003 + solve_round * 1009 + k) % (1 << 62) for k in levels]
        sketch = build_deferred(n, edge_ends, promise, gamma_drift, SKETCH_XI, seeds)
        ledger.record_space(sketch.space)
        if cfg.assert_mode:
            _check_space_cap(ledger, space_cap)

        # The round's stored entries and their cover rows are fixed;
        # every refinement below reads the multipliers at those rows.  A
        # retained edge is live in one level row only, so the rows are
        # distinct.
        edge_ids = sketch.entries["edge"]
        rows = index.row_of_edge[edge_ids]
        stored = tuple(sorted(edge_ids.tolist()))
        harvest = harvest_of(stored)
        harvest_final = harvest.exact and stored == retained
        if harvest.weight > best_matching.weight:
            best_matching = harvest
        harvests += 1
        # The harvested candidate set, the remembered matching, and the
        # dual support (its nonzero prices) are all held across the
        # round; charge them too.
        ledger.record_space(
            len(harvest.edges)
            + len(best_matching.edges)
            + np.count_nonzero(it.x_level)
            + np.count_nonzero(it.x_top)
            + len(it.z_value)
        )
        if cfg.assert_mode:
            _check_space_cap(ledger, space_cap)
        if harvest.weight > beta * (1.0 - eps) / (1.0 + eps):
            beta = harvest.weight * (1.0 + eps) / (1.0 - eps)

        for _q in range(inner_per_round):
            if state.lam >= state.target:
                break
            u_now, _ = covering_multipliers(state.load, state.log_c, state.alpha, offset)
            u_sparse = np.zeros(len(u_now))
            u_sparse[rows] = refine_deferred(sketch, u_now[rows])

            # The packing load has a positive row: lambda_0 > 0 (CoveringState
            # divides by it) prices every cover row at an end or on a set
            # holding both ends, which loads a degree row; prices are
            # nonnegative, so steps keep that load positive.
            load_pack = index.degree_values(it) / q_outer
            alpha_pack = 4.0 * log_pack / (float(load_pack.max()) * delta_pack)
            zeta, _ = packing_multipliers(load_pack, log_q_outer, alpha_pack)

            retries = 0
            while True:
                out = lagrangian_search(
                    index,
                    lambda uu, zz, pp, bb: matching_oracle(index, uu, zz, pp, bb),
                    u_sparse,
                    zeta,
                    beta,
                )
                if isinstance(out, PrimalCertificate):
                    certificates += 1
                    if cfg.assert_mode:
                        ok, rep = check_primal_certificate(index, out)
                        if not ok:
                            raise ContractViolation(f"certificate check failed: {rep}")
                    support = index.row_edge[out.y > 0.0]
                    lifted = harvest_of(tuple(sorted(support.tolist())))
                    if lifted.weight > best_matching.weight:
                        best_matching = lifted
                    beta *= 1.0 + eps
                    retries += 1
                    if retries > CERTIFICATE_RETRIES:
                        raise ContractViolation(
                            "budget kept certifying without a dual step"
                        )
                    continue
                break

            step: DualStep = out
            blended = it.blend(step.iterate, state.sigma)
            state.advance(index.cover_values(step.iterate), index.cover_values(blended))
            it = blended
            if cfg.assert_mode:
                ok, rep = check_dual_step(index, u_sparse, zeta, step)
                if not ok:
                    raise ContractViolation(f"dual step check failed: {rep}")
                ok, rep = verify_switch(index, u_now, u_sparse, step.iterate)
                if not ok:
                    raise ContractViolation(f"multiplier switch failed: {rep}")
                ceiling = state.lam_ceiling(lam0, state.steps)
                if state.lam > ceiling:
                    raise ContractViolation(
                        f"coverage {state.lam} after {state.steps} steps exceeds "
                        f"the ceiling {ceiling} from {lam0}"
                    )
        lambda_trace.append(state.lam)
        beta_trace.append(beta)

    certified = state.lam >= state.target
    if certified:
        stop_reason = "certified"
    weight = _original_weight(g, best_matching)
    report = SolveReport(
        matching=best_matching.edges,
        weight=weight,
        rescaled_weight=best_matching.weight,
        ratio_bound=ratio_floor_for(eps),
        rounds=ledger.n_rounds,
        peak_space=ledger.peak_space,
        round_cap=round_cap,
        space_cap=space_cap,
        lambda_start=lam0,
        lambda_final=state.lam,
        certified=certified,
        stop_reason=stop_reason,
        beta_final=beta,
        steps=state.steps,
        certificates=certificates,
        harvests=harvests,
        lambda_trace=lambda_trace,
        beta_trace=beta_trace,
        round_spaces=[r["space"] for r in ledger.as_dict()["rounds"]],
        weight_vs_beta=best_matching.weight / beta if beta > 0 else 0.0,
        config_echo=dict(vars(cfg)),
        n=n,
        m=g.m,
        levels=lv.L + 1,
        scale=lv.scale,
    )
    return report
