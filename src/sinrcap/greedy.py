"""Greedy baselines: plain, weight-class, and length-class variants.

The base greedy scans links shortest first and accepts a link when its
affectance to and from the already-accepted set stays within the
acceptance constant.  The class-based variants bucket links by weight or
by length and run the base acceptance inside each bucket, returning the
heaviest bucket solution.  All variants share the LP pipeline's final
selection stage, so their outputs carry the same feasibility guarantee.
"""

from __future__ import annotations

import math

import numpy as np

from .affectance import AffectanceContext, Schedule, certify, schedule_weight
from .rounding import final_selection_batch

DEFAULT_EXTRACTION_BOUND = 12.0


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


def _final_selections(ctx: AffectanceContext, accepted: list) -> list:
    """The LP pipeline's final selection of every accepted position list,
    run as one batch."""
    sel = np.zeros((len(accepted), ctx.n), dtype=bool)
    for row, acc in zip(sel, accepted):
        row[acc] = True
    return final_selection_batch(ctx, ctx.ids, sel, DEFAULT_EXTRACTION_BOUND, 1.0,
                                 "capacity")


def greedy_base(ctx: AffectanceContext, c_g: float = 1.0) -> Schedule:
    """Shortest-first greedy with a symmetric acceptance test, followed by
    the same final selection as the LP pipeline."""
    if not c_g > 0:
        raise ValueError("c_g must be positive")
    accepted = _class_candidates(ctx, range(ctx.n), c_g, "length")
    return certify(ctx, _final_selections(ctx, [accepted])[0])


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
    if not c_g > 0:
        raise ValueError("c_g must be positive")
    classes = weight_class_partition(ctx)
    return certify(ctx, _best_class_solution(ctx, classes, c_g, "length"))


def greedy_length_classes(ctx: AffectanceContext, c_g: float = 1.0) -> Schedule:
    """Run the acceptance test heaviest-first inside each length bucket and
    return the heaviest bucket solution."""
    if not c_g > 0:
        raise ValueError("c_g must be positive")
    classes = length_class_partition(ctx)
    return certify(ctx, _best_class_solution(ctx, classes, c_g, "weight"))


def _best_class_solution(ctx, classes, c_g, order) -> tuple:
    best_ids, best_w = (), -1.0
    accepted = [_class_candidates(ctx, classes[t], c_g, order) for t in sorted(classes)]
    for ids in _final_selections(ctx, accepted):
        w = float(ctx.weights[ctx.index_of(ids)].sum()) if ids else 0.0
        if w > best_w or (w == best_w and ids < best_ids):
            best_ids, best_w = ids, w
    return best_ids


def heavier(ctx: AffectanceContext, a: Schedule, b: Schedule) -> Schedule:
    """The heavier schedule; equal weights go to the smaller id tuple, then to a."""
    w_a, w_b = schedule_weight(ctx, a), schedule_weight(ctx, b)
    return a if w_a > w_b or (w_a == w_b and a.ids <= b.ids) else b


def greedy_combined(ctx: AffectanceContext, c_g: float = 1.0) -> Schedule:
    """Better of the weight-class and length-class runs, by total weight."""
    return heavier(ctx, greedy_weight_classes(ctx, c_g), greedy_length_classes(ctx, c_g))
