"""Greedy baselines: plain, weight-class, and length-class variants.

The base greedy scans links shortest first and accepts a link when its
affectance to and from the already-accepted set stays within the
acceptance constant.  The class-based variants bucket links by weight or
by length and run the base acceptance inside each bucket, returning the
heaviest bucket solution.  All variants share the LP pipeline's final
selection stage, so their outputs carry the same feasibility guarantee,
and its best-set rule, ``rounding.best_part``.
"""

from __future__ import annotations

import math

import numpy as np

from .affectance import AffectanceContext, Schedule, certify
from .rounding import (RoundingPolicy, _better, _schedule_objective, best_part,
                       final_selection_batch)


def _greedy_accept(ctx: AffectanceContext, candidate_idx, c_g: float) -> list:
    """Scan candidates in the given order; accept when both directions of
    affectance against the accepted set stay at most c_g."""
    accepted = []
    in_load = np.zeros(ctx.n)   # affectance received from accepted, per link
    out_load = np.zeros(ctx.n)  # affectance sent to accepted, per link
    for u in candidate_idx:
        if in_load[u] <= c_g and out_load[u] <= c_g:
            accepted.append(u)
            in_load += np.minimum(ctx.raw[u, :], 1.0)
            out_load += np.minimum(ctx.raw[:, u], 1.0)
    return accepted


def _class_candidates(ctx: AffectanceContext, class_idx, c_g: float, order: str) -> list:
    if order == "length":
        keys = sorted(class_idx, key=lambda u: (ctx.lengths[u], int(ctx.ids[u])))
    else:  # heaviest first within a length class
        keys = sorted(class_idx, key=lambda u: (-ctx.weights[u], int(ctx.ids[u])))
    return _greedy_accept(ctx, keys, c_g)


def _run(ctx: AffectanceContext, classes: dict, c_g: float, order: str,
         objective: str) -> Schedule:
    """Scan each class with the acceptance test in ``order``, pass every
    class's accepted links through the LP pipeline's final selection in one
    batch and certify the best selection under ``objective``."""
    if not c_g > 0:
        raise ValueError("c_g must be positive")
    sel = np.zeros((len(classes), ctx.n), dtype=bool)
    for row, t in zip(sel, sorted(classes)):
        row[_class_candidates(ctx, classes[t], c_g, order)] = True
    bound = RoundingPolicy("capacity").extraction_bound
    selections = final_selection_batch(ctx, ctx.ids, sel, bound, "capacity")
    return certify(ctx, best_part(ctx, selections, objective))


def greedy_base(ctx: AffectanceContext, c_g: float = 1.0) -> Schedule:
    """Shortest-first greedy with a symmetric acceptance test, followed by
    the same final selection as the LP pipeline."""
    return _run(ctx, {0: range(ctx.n)}, c_g, "length", "capacity")


def weight_class_partition(ctx: AffectanceContext) -> dict:
    """Doubling weight buckets after rescaling the maximum weight to n;
    links whose rescaled weight falls under 1 are discarded (they can cost
    at most half the optimum).  Keys are bucket exponents, values link
    positions."""
    if ctx.n == 0 or float(ctx.weights.max()) <= 0:
        return {}
    scaled = ctx.weights * (ctx.n / float(ctx.weights.max()))
    classes = {}
    for u in range(ctx.n):
        if scaled[u] >= 1.0:
            classes.setdefault(int(math.floor(math.log2(scaled[u]))), []).append(u)
    return classes


def length_class_partition(ctx: AffectanceContext) -> dict:
    """Doubling length buckets anchored at the minimum length."""
    if ctx.n == 0:
        return {}
    min_len = float(ctx.lengths.min())
    classes = {}
    for u in range(ctx.n):
        t = int(math.floor(math.log2(ctx.lengths[u] / min_len)))
        classes.setdefault(t, []).append(u)
    return classes


def greedy_weight_classes(ctx: AffectanceContext, c_g: float = 1.0) -> Schedule:
    """Run the base greedy inside each weight bucket and return the heaviest
    bucket solution."""
    return _run(ctx, weight_class_partition(ctx), c_g, "length", "weighted")


def greedy_length_classes(ctx: AffectanceContext, c_g: float = 1.0) -> Schedule:
    """Run the acceptance test heaviest-first inside each length bucket and
    return the heaviest bucket solution."""
    return _run(ctx, length_class_partition(ctx), c_g, "weight", "weighted")


def heavier(ctx: AffectanceContext, a: Schedule, b: Schedule) -> Schedule:
    """The heavier schedule; equal weights go to the smaller id tuple, then to a."""
    return b if _better(_schedule_objective(ctx, b.ids, "weighted"), b.ids,
                        _schedule_objective(ctx, a.ids, "weighted"), a.ids) else a


def greedy_combined(ctx: AffectanceContext, c_g: float = 1.0) -> Schedule:
    """Better of the weight-class and length-class runs, by total weight."""
    return heavier(ctx, greedy_weight_classes(ctx, c_g), greedy_length_classes(ctx, c_g))
