"""Greedy baselines: plain, weight-class, and length-class variants.

The base greedy scans links shortest first and accepts a link when its
affectance to and from the already-accepted set stays within the
acceptance constant.  The class-based variants bucket links by weight or
by length and run the base acceptance inside each bucket, returning the
heaviest bucket solution.  All variants share the LP pipeline's final
selection stage, so their outputs carry the same feasibility guarantee,
and its best-set rule, ``rounding.best_part``, on context positions.
``greedy_sweep`` runs a variant over a sweep of acceptance constants
through one call of final selection, and ``greedy_combined_sweep`` the
combined greedy; ``greedy_base`` and ``greedy_combined`` are their
one-constant cases.
"""

from __future__ import annotations

import math
from itertools import product

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


def _base_classes(ctx: AffectanceContext) -> dict:
    return {0: range(ctx.n)}


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


# variant -> (class partition, scan order within a class, best-class objective)
GREEDY_VARIANTS = {
    "base": (_base_classes, "length", "capacity"),
    "weight_classes": (weight_class_partition, "length", "weighted"),
    "length_classes": (length_class_partition, "weight", "weighted"),
}


def greedy_sweep(ctx: AffectanceContext, variant: str, constants) -> list:
    """One schedule of the ``GREEDY_VARIANTS`` variant per acceptance
    constant c_g, in order: scan each class with the acceptance test at
    c_g, and certify the best final selection of the classes' accepted
    links under the variant's objective.  Every constant's classes go
    through the LP pipeline's final selection in one batch."""
    partition, order, objective = GREEDY_VARIANTS[variant]
    constants = list(constants)
    if not all(c_g > 0 for c_g in constants):
        raise ValueError("c_g must be positive")
    classes = partition(ctx)
    k = len(classes)
    sel = np.zeros((len(constants) * k, ctx.n), dtype=bool)
    for row, (c_g, t) in zip(sel, product(constants, sorted(classes))):
        row[_class_candidates(ctx, classes[t], c_g, order)] = True
    bound = RoundingPolicy("capacity").extraction_bound
    selections = final_selection_batch(ctx, sel, [bound] * len(sel), ["capacity"] * len(sel))
    return [certify(ctx, ctx.ids[best_part(ctx, selections[i * k:(i + 1) * k], objective)])
            for i in range(len(constants))]


def greedy_base(ctx: AffectanceContext, c_g: float = 1.0) -> Schedule:
    """Shortest-first greedy with a symmetric acceptance test, followed by
    the same final selection as the LP pipeline."""
    return greedy_sweep(ctx, "base", [c_g])[0]


def heavier(ctx: AffectanceContext, a: Schedule, b: Schedule) -> Schedule:
    """The heavier schedule; equal weights go to the smaller id tuple, then to a."""
    return b if _better(_schedule_objective(ctx, b.ids, "weighted"), b.ids,
                        _schedule_objective(ctx, a.ids, "weighted"), a.ids) else a


def greedy_combined_sweep(ctx: AffectanceContext, constants) -> list:
    """``greedy_combined`` per acceptance constant, in order, from one
    ``greedy_sweep`` of each class variant."""
    constants = list(constants)
    return [heavier(ctx, w, l) for w, l in zip(greedy_sweep(ctx, "weight_classes", constants),
                                               greedy_sweep(ctx, "length_classes", constants))]


def greedy_combined(ctx: AffectanceContext, c_g: float = 1.0) -> Schedule:
    """Better of the weight-class and length-class runs, by total weight."""
    return greedy_combined_sweep(ctx, [c_g])[0]
