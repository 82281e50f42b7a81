"""Greedy baselines: plain, weight-class, length-class and combined variants.

The base greedy scans links shortest first and accepts a link when its
affectance to and from the already-accepted set stays within the
acceptance constant.  The class-based variants bucket links by weight or
by length and run the base acceptance inside each bucket, returning the
heaviest bucket solution; the combined variant takes the heaviest of both
bucketings.  All variants share the LP pipeline's final selection stage,
so their outputs carry the same feasibility guarantee, and its best-set
rule, ``rounding.best_part``, under each variant's objective.  ``GREEDY_VARIANTS``
states every variant; ``greedy_sweep`` runs several of them over a sweep
of acceptance constants, each scan they share once, with one
final-selection batch per call and one ``certify`` per distinct set.
``greedy_base`` and ``greedy_combined`` are its one-constant cases.
"""

from __future__ import annotations

import math

import numpy as np

from .affectance import AffectanceContext, Schedule, certify
from .model import require_positive
from .rounding import RoundingPolicy, best_part, final_selection_batch


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


def _class_order(ctx: AffectanceContext, class_idx, order: str) -> list:
    """The positions ``class_idx`` in scan order: shortest first for
    ``order == "length"``, else heaviest first; ties by id."""
    class_idx = np.asarray(class_idx, dtype=int)
    key = ctx.lengths[class_idx] if order == "length" else -ctx.weights[class_idx]
    return class_idx[np.lexsort((ctx.ids[class_idx], key))].tolist()


def _doubling_classes(ratios: np.ndarray) -> dict:
    """Doubling buckets of the positions whose ratio is at least 1: keys
    are bucket exponents, values link positions in order."""
    classes = {}
    for u in np.flatnonzero(ratios >= 1.0):
        classes.setdefault(int(math.floor(math.log2(ratios[u]))), []).append(int(u))
    return classes


def weight_class_partition(ctx: AffectanceContext) -> dict:
    """Doubling weight buckets after rescaling the maximum weight to n;
    links whose rescaled weight falls under 1 are discarded (they can cost
    at most half the optimum).  Keys are bucket exponents, values link
    positions."""
    if ctx.n == 0 or float(ctx.weights.max()) <= 0:
        return {}
    return _doubling_classes(ctx.weights * (ctx.n / float(ctx.weights.max())))


def length_class_partition(ctx: AffectanceContext) -> dict:
    """Doubling length buckets anchored at the minimum length."""
    if ctx.n == 0:
        return {}
    return _doubling_classes(ctx.lengths / float(ctx.lengths.min()))


# a scan: (class partition, scan order within a class)
_BASE_SCAN = (lambda ctx: {0: range(ctx.n)}, "length")
_WEIGHT_SCAN = (weight_class_partition, "length")
_LENGTH_SCAN = (length_class_partition, "weight")

# variant -> (its scans, the objective that picks the best of its scans' classes)
GREEDY_VARIANTS = {
    "greedy": ((_WEIGHT_SCAN, _LENGTH_SCAN), "weight"),
    "greedy_w": ((_WEIGHT_SCAN,), "weight"),
    "greedy_l": ((_LENGTH_SCAN,), "weight"),
    "base": ((_BASE_SCAN,), "cardinality"),
}


def greedy_sweep(ctx: AffectanceContext, variants, constants) -> dict:
    """Each ``GREEDY_VARIANTS`` variant in ``variants`` -> its schedule per
    acceptance constant, in order: the certified best final selection,
    under the variant's objective, among the classes of all its scans.
    Each scan the variants need ranks each of its classes once and runs
    the acceptance test once per class and constant; all of those classes
    go through one final-selection batch, and each distinct best set is
    certified once."""
    constants = list(constants)
    for c_g in constants:
        require_positive("c_g", c_g)
    accepted, rows = [], {}  # rows[scan]: (its first row, its class count)
    for scan in dict.fromkeys(scan for v in variants for scan in GREEDY_VARIANTS[v][0]):
        partition, order = scan
        by_class = partition(ctx)
        ranked = [_class_order(ctx, by_class[t], order) for t in sorted(by_class)]
        rows[scan] = len(accepted), len(ranked)
        accepted += [_greedy_accept(ctx, r, c_g) for c_g in constants for r in ranked]
    sel = np.zeros((len(accepted), ctx.n), dtype=bool)
    for row, members in zip(sel, accepted):
        row[members] = True
    bound = RoundingPolicy("capacity").extraction_bound
    selections = final_selection_batch(ctx, sel, [bound] * len(sel), "cardinality")
    # per scan and constant, the final selections of the scan's classes
    runs = {scan: [selections[first + j * k:first + (j + 1) * k] for j in range(len(constants))]
            for scan, (first, k) in rows.items()}
    schedules, result = {}, {}  # schedules: best set's positions -> its schedule
    for v in variants:
        own, objective = GREEDY_VARIANTS[v]
        result[v] = []
        for classes in zip(*(runs[scan] for scan in own)):
            best = best_part(ctx, sum(classes, []), objective)
            key = tuple(best.tolist())
            if key not in schedules:
                schedules[key] = certify(ctx, ctx.ids[best])
            result[v].append(schedules[key])
    return result


def greedy_base(ctx: AffectanceContext, c_g: float = 1.0) -> Schedule:
    """Shortest-first greedy with a symmetric acceptance test, followed by
    the same final selection as the LP pipeline."""
    return greedy_sweep(ctx, ["base"], [c_g])["base"][0]


def greedy_combined(ctx: AffectanceContext, c_g: float = 1.0) -> Schedule:
    """Heaviest class selection of the weight-class and length-class scans."""
    return greedy_sweep(ctx, ["greedy"], [c_g])["greedy"][0]
