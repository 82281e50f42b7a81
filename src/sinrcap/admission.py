"""Admission control: add secondaries without disturbing primary links.

Primary interference is folded into each receiver's noise term, turning
the joint feasibility requirement into plain feasibility under the
augmented ("hat") affectance.  The general pipeline rounds an admission
LP and splits the result into groups that are individually safe for every
primary; the large-optimum pipeline prefilters links that affect any
primary too much, after which one rounded set is safe outright with high
probability.

The general pipeline groups every trial's set at once through
``rounding._first_fit``, the engine of signal strengthening;
``partition_by_primaries`` is the one-set case of the same code.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .affectance import (AffectanceContext, Schedule, _exact_budgets, _feasible_exact,
                         certify)
from .formulations import (admission_filter_threshold, build_admission_large_lp,
                           build_admission_lp)
from .lp_core import LpSession
from .rounding import RoundingPolicy, _better, _first_fit, best_part, round_trials

logger = logging.getLogger(__name__)

RETRY_CAP = 200
SPARSIFY_KEEP_PROB = 1.0 / 6.0
SPARSIFY_TARGET = 1.0 / 3.0


class RetriesExhausted(Exception):
    """Random selection kept failing its acceptance condition; the inputs
    likely violate the preconditions."""


@dataclass(frozen=True)
class AdmissionResult:
    admitted: Schedule
    groups: tuple
    per_primary_load: tuple  # unclipped hat-affectance on each primary
    verified: bool
    notes: dict


def verify_admission(ctx: AffectanceContext, Q) -> bool:
    """Exact SINR check of the primaries plus Q, all transmitting.

    Recomputed from the instance geometry and powers alone
    (``_exact_budgets``), independent of the context's affectance matrix.
    """
    rows, budget = _exact_budgets(ctx, Q)
    return bool(_feasible_exact(np.ones((1, len(rows)), bool), rows, budget, ctx.k,
                                primaries=True)[0])


def partition_by_primaries(ctx: AffectanceContext, R) -> list:
    """First-fit grouping of R so each group's unclipped hat-affectance on
    every primary is at most 1.  A link that alone overloads some primary
    cannot be placed and is dropped with a warning."""
    return _partition_rows(ctx, [R])[0]


def _partition_rows(ctx: AffectanceContext, sets) -> list:
    """``partition_by_primaries`` of every set in ``sets``, in order, by
    ``_first_fit`` over links ranked by (-clipped primary load, id).  A link
    joins its set's first group whose loads plus its own stay at most 1 on
    every primary, loads summed in the order links joined.  One warning
    names the links dropped from any set."""
    members = [[int(i) for i in R] for R in sets]
    ids = np.unique(np.fromiter(chain.from_iterable(members), dtype=int))
    sel = np.zeros((len(members), ids.size), dtype=bool)
    for row, m in zip(sel, members):
        row[np.searchsorted(ids, m)] = True
    contrib = ctx.raw_to_prim[ctx.index_of(ids)]  # unclipped, one row per link
    alone_over = np.any(contrib > 1.0, axis=1)
    dropped = ids[alone_over & sel.any(axis=0)].tolist()
    if dropped:
        logger.warning("dropped %d link(s) that alone overload a primary: %s",
                       len(dropped), dropped)
    sel[:, alone_over] = False
    steps = int(sel.sum(axis=1).max(initial=0))
    loads = np.zeros((len(members), steps + 1, ctx.k))  # a load row per group

    def fit(i, cols, groups, width):
        u = contrib[cols[:, i]]
        choice = np.all(loads[:len(u), :width] + u[:, None] <= 1.0, axis=2).argmax(axis=1)
        loads[np.arange(len(u)), choice] += u
        return choice

    rank = np.lexsort((ids, -np.minimum(contrib, 1.0).sum(axis=1)))
    return [[tuple(g.tolist()) for g in groups]
            for groups in _first_fit(ids, sel, rank, fit)]


def sparsify(ctx: AffectanceContext, R, rng, retry_cap: int = RETRY_CAP) -> tuple:
    """Thin R by independent 1/6-sampling until the sample's affectance on
    every primary is at most 1/3; the preconditions make each attempt
    succeed with probability at least 9/10."""
    if not ctx.has_primaries:
        raise ValueError("sparsify requires a context with primaries attached")
    ids = sorted(int(i) for i in R)
    if not ids:
        return ()
    idx = ctx.index_of(ids)
    per_pair = np.minimum(ctx.raw_to_prim[idx, :], 1.0)
    thr = admission_filter_threshold(ctx.k)
    if np.any(per_pair > thr) or np.any(per_pair.sum(axis=0) > 1.0 + 1e-12):
        logger.warning("sparsify preconditions violated; acceptance may be rare")
    for _ in range(retry_cap):
        mask = rng.random(len(ids)) < SPARSIFY_KEEP_PROB
        loads = per_pair[mask, :].sum(axis=0) if mask.any() else np.zeros(ctx.k)
        if np.all(loads <= SPARSIFY_TARGET):
            return tuple(i for i, m in zip(ids, mask) if m)
    raise RetriesExhausted(f"no accepted sample in {retry_cap} attempts")


def _primary_loads(ctx: AffectanceContext, ids) -> np.ndarray:
    return ctx.raw_to_prim[ctx.index_of(ids), :].sum(axis=0)


def _result(ctx, admitted_ids, groups, notes) -> AdmissionResult:
    schedule = certify(ctx, admitted_ids)
    loads = _primary_loads(ctx, schedule.ids)
    verified = verify_admission(ctx, schedule.ids)
    result = AdmissionResult(
        admitted=schedule,
        groups=tuple(tuple(g) for g in groups),
        per_primary_load=tuple(float(x) for x in loads),
        verified=verified,
        notes=notes,
    )
    if not verified:
        raise AssertionError("admission result failed exact SINR verification")
    return result


def admit_general(ctx: AffectanceContext, policy: RoundingPolicy,
                  session: Optional[LpSession] = None) -> AdmissionResult:
    """LP + rounding + extraction, then primary-safe grouping; returns the
    largest group.  Works for any number of primaries.  The LP is built and
    solved through ``session`` when given."""
    if policy.mode != "admission_general":
        raise ValueError("policy mode must be admission_general")
    if not ctx.has_primaries:
        raise ValueError("admit_general requires a context with primaries attached")
    session = LpSession() if session is None else session
    lp = session.program(build_admission_lp, ctx, policy.C)
    feasible_sets, = round_trials(ctx, [(lp, policy)], session)
    best_ids, best_groups, best_aggregate = (), [], 0.0
    for feasible_set, groups in zip(feasible_sets, _partition_rows(ctx, feasible_sets)):
        cand = best_part(ctx, groups, policy.mode)
        if _better(len(cand), cand, len(best_ids), best_ids):
            best_ids = cand
            best_groups = groups
            fs_idx = ctx.index_of(feasible_set)
            best_aggregate = float(np.minimum(ctx.raw_to_prim[fs_idx], 1.0).sum())
    notes = {
        "group_count": len(best_groups),
        "aggregate_primary_load": best_aggregate,
        "group_bound_exceeded": len(best_groups) > 10 * ctx.k if ctx.k else False,
    }
    if notes["group_bound_exceeded"]:
        logger.warning("group count %d exceeds 10*|P|=%d", len(best_groups), 10 * ctx.k)
    return _result(ctx, best_ids, best_groups, notes)


def admit_large_opt(ctx: AffectanceContext, policy: RoundingPolicy,
                    retry_cap: int = RETRY_CAP,
                    session: Optional[LpSession] = None) -> AdmissionResult:
    """Prefilter, LP, and rounding where one rounded set must respect every
    primary's unit budget simultaneously; no grouping step is needed.  Up
    to ``max(policy.trials, retry_cap)`` samples are drawn, and the first
    ``policy.trials`` that meet the budgets are kept.  The LP is built and
    solved through ``session`` when given."""
    if policy.mode != "admission_large":
        raise ValueError("policy mode must be admission_large")
    if not ctx.has_primaries or ctx.k == 0:
        raise ValueError("admit_large_opt requires at least one primary")
    session = LpSession() if session is None else session
    lp = session.program(build_admission_large_lp, ctx, policy.C)
    to_prim = ctx.raw_to_prim[ctx.index_of(lp.ids)]
    attempts = max(policy.trials, retry_cap)
    selections, = round_trials(
        ctx, [(lp, policy)], session, attempts=attempts,
        accept=lambda sel: np.all(sel.astype(float) @ to_prim <= 1.0, axis=1))
    if not selections:
        raise RetriesExhausted(
            f"primary budget condition failed in all {attempts} attempts")
    best_ids = best_part(ctx, selections, policy.mode)
    notes = {
        "group_count": 1 if best_ids else 0,
        "filtered_to": lp.n,
        "k1_fallback": ctx.k == 1,
        "successful_samples": len(selections),
    }
    groups = [best_ids] if best_ids else []
    return _result(ctx, best_ids, groups, notes)


def nearly_uniform_classes(ctx: AffectanceContext, c1: float = 2.0) -> list:
    """Split the context into power classes with max/min ratio at most c1
    (anchored at each class's smallest power); running a per-class pipeline
    and keeping the best extends uniform-power guarantees to any
    non-decreasing sub-linear assignment."""
    if not c1 >= 1:
        raise ValueError("c1 must be at least 1")
    if ctx.n == 0:
        return []
    order = np.argsort(ctx.powers, kind="stable")
    classes = []
    current, anchor = [], None
    for pos in order:
        p = float(ctx.powers[pos])
        if anchor is None or p > c1 * anchor:
            if current:
                classes.append(current)
            current, anchor = [], p
        current.append(int(ctx.ids[pos]))
    if current:
        classes.append(current)
    out = []
    for ids in classes:
        sub = ctx.instance.restrict(ids)
        out.append(AffectanceContext(sub, ctx.assignment, primaries=ctx.primaries))
    return out
