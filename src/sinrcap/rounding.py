"""Two-stage randomized rounding and final selection.

Stage one keeps each link independently with its fractional LP value as
probability.  Stage two reads the LP rows: a row's load is its
coefficients summed over the stage-one sample, and a selected link
survives only while every row it owns stays within that row's limit (the
builders in ``formulations`` set the limits).  Final selection, shared by
the LP, admission and greedy pipelines, drops high-affectance members and
partitions the rest into feasible groups (signal strengthening),
returning the best group.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .affectance import AffectanceContext, Schedule, certify, check_feasibility
from .lp_core import LinearProgram, LpSession, solve_lp

logger = logging.getLogger(__name__)

ROUNDING_MODES = ("capacity", "qos", "weighted", "admission_general", "admission_large")


@dataclass(frozen=True)
class RoundingPolicy:
    mode: str
    C: float = 1.0
    trials: int = 100
    seed: int = 0
    low_affectance_bound: Optional[float] = None  # default 12 * C
    theta: float = 1.0

    def __post_init__(self):
        if self.mode not in ROUNDING_MODES:
            raise ValueError(f"unknown rounding mode {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.C > 0:
            raise ValueError("C must be positive")
        if not self.theta > 0:
            raise ValueError("theta must be positive")

    @property
    def extraction_bound(self) -> float:
        return 12.0 * self.C if self.low_affectance_bound is None else self.low_affectance_bound


def bernoulli_draws(seed: int, trial: int, ids: Sequence[int]) -> np.ndarray:
    """Uniform [0,1) draw per link, a pure function of (seed, trial, id).

    Dense ids index into one counter-based Philox stream keyed by
    (seed, trial); sparse ids fall back to per-id seed sequences.  Either
    way a link's draw does not depend on which other links are present.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return np.zeros(0)
    lo, hi = int(ids.min()), int(ids.max())
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(trial)])
    if lo >= 0 and hi < 4 * ids.size + 1024:
        stream = np.random.Generator(np.random.Philox(key=key)).random(hi + 1)
        return stream[ids]
    out = np.empty(ids.size)
    for i, lid in enumerate(ids):
        ss = np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, trial,
                                     int(lid) & 0xFFFFFFFFFFFFFFFF])
        out[i] = np.random.Generator(np.random.Philox(ss)).random()
    return out


def sample_round(ctx: AffectanceContext, lp: LinearProgram, delta: np.ndarray,
                 policy: RoundingPolicy, trial: int,
                 ids: Optional[Sequence[int]] = None) -> tuple:
    """One two-stage sample; deterministic given (policy.seed, trial).

    ``delta`` holds the fractional values of ``lp``'s variables, which are
    aligned with ``ids`` (the whole context when ids is None).  Stage two
    drops the variable of every row whose load exceeds its limit, or the
    whole sample for such a row without one.  Returns the selected ids,
    sorted.
    """
    use_ids = np.asarray(ctx.ids if ids is None else ids, dtype=int)
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (use_ids.size,) or lp.n != use_ids.size:
        raise ValueError("delta length must match the variable ids")
    selected = bernoulli_draws(policy.seed, trial, use_ids) < delta
    over = lp.row_coeffs @ selected.astype(float) > lp.row_limit
    if np.any(lp.row_var[over] < 0):
        return ()
    selected[lp.row_var[over]] = False
    return tuple(int(i) for i in use_ids[selected])


def extract_low_affectance(ctx: AffectanceContext, S, bound: float = 12.0) -> tuple:
    """Members of S whose received affectance within S is at most bound."""
    ids = np.asarray(sorted(int(i) for i in S), dtype=int)
    if ids.size == 0:
        return ()
    idx = ctx.index_of(ids)
    in_sums = np.minimum(ctx.raw[np.ix_(idx, idx)], 1.0).sum(axis=0)
    return tuple(int(i) for i in ids[in_sums <= bound])


def signal_strengthen(ctx: AffectanceContext, S, theta: float = 1.0) -> list:
    """Partition S into theta-feasible parts by first fit over links in
    non-increasing length order.  Thresholds at or below 1 use unclipped
    affectance sums, making parts sound against the exact SINR condition.
    """
    if not theta > 0:
        raise ValueError("theta must be positive")
    ids = sorted(int(i) for i in S)
    if not ids:
        return []
    idx = ctx.index_of(ids)
    order = np.argsort(-ctx.lengths[idx], kind="stable")
    mat = ctx.raw[np.ix_(idx, idx)]  # positions within ids from here on
    if theta > 1.0:
        mat = np.minimum(mat, 1.0)
    parts = []      # each entry: [member_positions, received_sums]
    for u in order:
        for entry in parts:
            members, in_sums = entry
            updated = in_sums + mat[u, members]
            own = float(mat[members, u].sum())
            if own <= theta and np.all(updated <= theta):
                entry[0] = members + [u]
                entry[1] = np.append(updated, own)
                break
        else:
            parts.append([[u], np.zeros(1)])
    out = []
    for members, _ in parts:
        part = tuple(sorted(ids[p] for p in members))
        if not check_feasibility(ctx, part, theta, "feasible"):
            raise AssertionError("signal strengthening produced an infeasible part")
        out.append(part)
    return out


def _schedule_objective(ctx: AffectanceContext, ids: tuple, mode: str) -> float:
    if mode == "weighted":
        return float(ctx.weights[ctx.index_of(ids)].sum()) if ids else 0.0
    return float(len(ids))


def _better(cand_val, cand_ids, best_val, best_ids) -> bool:
    if cand_val != best_val:
        return cand_val > best_val
    return cand_ids < best_ids if best_ids is not None else True


def best_part(ctx: AffectanceContext, parts, mode: str) -> tuple:
    """Highest-objective part; ties resolved by smallest id tuple."""
    best_ids, best_val = (), 0.0
    for part in parts:
        val = _schedule_objective(ctx, part, mode)
        if _better(val, part, best_val, best_ids):
            best_ids, best_val = part, val
    return best_ids


def final_selection(ctx: AffectanceContext, S, bound: float, theta: float,
                    mode: str) -> tuple:
    """Extract S's low-affectance members, strengthen them into
    theta-feasible parts and return the best part under ``mode``'s
    objective."""
    kept = extract_low_affectance(ctx, S, bound)
    return best_part(ctx, signal_strengthen(ctx, kept, theta), mode)


def run_pipeline(ctx: AffectanceContext, lp: LinearProgram,
                 policy: RoundingPolicy,
                 session: Optional[LpSession] = None) -> Schedule:
    """Solve (through ``session`` when given, so a constant sweep reuses
    one model), round over ``policy.trials`` independent samples, extract
    and strengthen each, and return the best resulting feasible set."""
    if policy.mode in ("admission_general", "admission_large"):
        raise ValueError("admission pipelines are driven by the admission module")
    if lp.n != ctx.n:
        raise ValueError("program size does not match the context")
    sol = solve_lp(lp, session)
    best_ids, best_val = (), 0.0
    for trial in range(policy.trials):
        sample = sample_round(ctx, lp, sol.values, policy, trial)
        cand = final_selection(ctx, sample, policy.extraction_bound, policy.theta,
                               policy.mode)
        val = _schedule_objective(ctx, cand, policy.mode)
        if _better(val, cand, best_val, best_ids or None):
            best_ids, best_val = cand, val
    schedule = certify(ctx, best_ids)
    if not check_feasibility(ctx, schedule.ids, 1.0, "feasible"):
        raise AssertionError("pipeline produced an infeasible schedule")
    return schedule
