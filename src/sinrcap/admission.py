"""Admission control: add secondaries without disturbing primary links.

Primary interference is folded into each receiver's noise term, turning
the joint feasibility requirement into plain feasibility under the
augmented ("hat") affectance.  The general pipeline rounds an admission
LP and splits the result into groups that are individually safe for every
primary; the large-optimum pipeline prefilters links that affect any
primary too much, after which one rounded set is safe outright with high
probability.

The general pipeline groups every trial's set at once through
``rounding._first_fit``, the engine of signal strengthening, on context
positions like the rest of final selection, and ``rounding.winner`` picks
the winning trial; ids are formed only in the returned ``AdmissionResult``.

``admit_sweep`` runs a constant sweep of either pipeline as one
``rounding.round_trials`` call and reduces each constant's selections
(``_general``, ``_large``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial

import numpy as np

from .affectance import AffectanceContext, Schedule, certify
from .rounding import (_STRENGTHEN_LIMIT, RoundingPolicy, _first_fit, best_part, round_trials,
                       winner)

logger = logging.getLogger(__name__)

RETRY_CAP = 200


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


def _partition_rows(ctx: AffectanceContext, sets) -> list:
    """First-fit grouping of every set in ``sets`` (arrays of context
    positions), in order, so each group's unclipped hat-affectance on every
    primary is at most ``_STRENGTHEN_LIMIT``: ``_first_fit`` over the sets'
    union, links ranked by (-clipped primary load, id).  A link joins its
    set's first group whose loads plus its own stay within the limit on
    every primary, loads summed in the order links joined.  A link that
    alone overloads some primary cannot be placed and is dropped; one
    warning names the links dropped from any set.  Groups are sorted
    position arrays."""
    sel = np.zeros((len(sets), ctx.n), dtype=bool)
    for row, pos in zip(sel, sets):
        row[pos] = True
    cols = np.flatnonzero(sel.any(axis=0))
    sel = sel[:, cols]
    contrib = ctx.raw_to_prim[cols]  # unclipped, one row per link
    alone_over = np.any(contrib > _STRENGTHEN_LIMIT, axis=1)
    dropped = ctx.ids[cols[alone_over]].tolist()
    if dropped:
        logger.warning("dropped %d link(s) that alone overload a primary: %s",
                       len(dropped), dropped)
    sel[:, alone_over] = False
    steps = int(sel.sum(axis=1).max(initial=0))
    loads = np.zeros((len(sets), steps + 1, ctx.k))  # a load row per group

    def fit(i, cols, groups, width):
        u = contrib[cols[:, i]]
        fits = loads[:len(u), :width] + u[:, None] <= _STRENGTHEN_LIMIT
        choice = np.all(fits, axis=2).argmax(axis=1)
        loads[np.arange(len(u)), choice] += u
        return choice

    rank = np.lexsort((cols, -np.minimum(contrib, 1.0).sum(axis=1)))
    return list(_first_fit(cols, sel, rank, fit))


def _result(ctx, admitted, groups, notes) -> AdmissionResult:
    """The result admitting the sorted positions ``admitted``, grouped as
    ``groups``; ids are formed here."""
    schedule = certify(ctx, ctx.ids[admitted])
    result = AdmissionResult(
        admitted=schedule,
        groups=tuple(tuple(ctx.ids[g].tolist()) for g in groups),
        per_primary_load=tuple(float(x) for x in ctx.raw_to_prim[admitted].sum(axis=0)),
        verified=schedule.verified,
        notes=notes,
    )
    if not result.verified:
        raise AssertionError("admission result failed verification")
    return result


def _general(ctx, lp, policy, feasible_sets) -> AdmissionResult:
    """The general pipeline's result from its rounded sets: primary-safe
    grouping of each, then the ``winner`` among the sets' best groups."""
    objective = policy.problem.objective
    grouped = _partition_rows(ctx, feasible_sets)
    bests = [best_part(ctx, groups, objective) for groups in grouped]
    i = winner(ctx, bests, objective)
    best, groups, aggregate = (np.zeros(0, dtype=int), [], 0.0) if i is None else (
        bests[i], grouped[i], float(np.minimum(ctx.raw_to_prim[feasible_sets[i]], 1.0).sum()))
    notes = {
        "group_count": len(groups),
        "aggregate_primary_load": aggregate,
        "group_bound_exceeded": len(groups) > 10 * ctx.k if ctx.k else False,
    }
    if notes["group_bound_exceeded"]:
        logger.warning("group count %d exceeds 10*|P|=%d", len(groups), 10 * ctx.k)
    return _result(ctx, best, groups, notes)


def _large(ctx, lp, policy, selections) -> AdmissionResult:
    """The large-optimum pipeline's result from its accepted samples: the
    best of them."""
    if not selections:
        raise RetriesExhausted("primary budget condition failed in all "
                               f"{max(policy.trials, RETRY_CAP)} attempts")
    best = best_part(ctx, selections, policy.problem.objective)
    notes = {
        "group_count": 1 if best.size else 0,
        "filtered_to": lp.n,
        "k1_fallback": ctx.k == 1,
        "successful_samples": len(selections),
    }
    return _result(ctx, best, [best] if best.size else [], notes)


def _primary_safe(ctx, pos, sel) -> np.ndarray:
    """Per sample of ``sel`` (booleans over the context positions ``pos``):
    whether its unclipped loads stay within ``_STRENGTHEN_LIMIT`` on each primary."""
    return np.all(sel.astype(float) @ ctx.raw_to_prim[pos] <= _STRENGTHEN_LIMIT, axis=1)


def admit_sweep(ctx: AffectanceContext, policies) -> list:
    """The admission result of each policy, in order, from one
    ``round_trials`` sweep of an admission mode.  The large-optimum mode
    draws up to ``max(policy.trials, RETRY_CAP)`` samples per policy and
    keeps the first ``policy.trials`` that are safe for every primary."""
    if not all(policy.problem.primaries for policy in policies):
        raise ValueError("admission sweep policies must use an admission mode")
    large = bool(policies) and policies[0].mode == "admission_large"
    trials = round_trials(ctx, policies, accept=partial(_primary_safe, ctx) if large else None,
                          attempts=RETRY_CAP if large else 0)
    reduce = _large if large else _general
    return [reduce(ctx, lp, policy, sel) for (lp, sel), policy in zip(trials, policies)]


def admit_general(ctx: AffectanceContext, policy: RoundingPolicy) -> AdmissionResult:
    """LP + rounding + extraction, then primary-safe grouping; returns the
    largest group, for any number of primaries: ``admit_sweep`` of one policy."""
    if policy.mode != "admission_general":
        raise ValueError("policy mode must be admission_general")
    return admit_sweep(ctx, [policy])[0]


def admit_large_opt(ctx: AffectanceContext, policy: RoundingPolicy) -> AdmissionResult:
    """Prefilter, LP, and rounding where one rounded set must respect every
    primary's unit budget at once, with no grouping: ``admit_sweep`` of one policy."""
    if policy.mode != "admission_large":
        raise ValueError("policy mode must be admission_large")
    return admit_sweep(ctx, [policy])[0]
