"""Greedy baselines: plain, weight-class, length-class and combined variants.

The base greedy scans links shortest first and accepts a link when its
affectance to and from the already-accepted set stays within the
acceptance constant.  The class-based variants run that acceptance inside
each doubling class of weight (shortest first) or of length (heaviest
first) and return the heaviest class solution; the combined variant takes
the heaviest of both.  A scan is its classes in ascending exponent, each
in scan order, from one sort.  All variants share the LP pipeline's final
selection stage, so their outputs carry the same feasibility guarantee,
and its best-set rule, ``rounding.best_part``, under each variant's
objective.  Greedy takes no primaries: its scans and final selection
read no primary loads, so a context with primaries is refused.
``greedy_sweep`` runs ``GREEDY_VARIANTS`` over a sweep of
acceptance constants, each shared scan once; ``greedy_base`` and
``greedy_combined`` are its one-constant cases.
"""

from __future__ import annotations

import math

import numpy as np

from .affectance import AffectanceContext, Schedule, certify
from .model import require_positive
from .rounding import _EXTRACTION_FACTOR, best_part, final_selection_batch


def _greedy_accept(aff: np.ndarray, c_g: float) -> list:
    """Indices into ``aff``, one class's clipped affectance block in scan
    order, that the scan accepts: both directions of affectance against the
    already-accepted links stay at most c_g."""
    accepted = []
    in_load, out_load = np.zeros((2, len(aff)))  # received from, sent to accepted, per link
    for u in range(len(aff)):
        if in_load[u] <= c_g and out_load[u] <= c_g:
            accepted.append(u)
            in_load += aff[u]
            out_load += aff[:, u]
    return accepted


def _ranked_classes(ratios: np.ndarray, key: np.ndarray) -> list:
    """Doubling classes of the positions with a ratio of at least 1, by
    ascending floor(log2(ratio)), each ranked by ``key``, ties by id."""
    pos = np.flatnonzero(ratios >= 1.0)
    exps = np.array([math.floor(math.log2(r)) for r in ratios[pos].tolist()], dtype=int)
    order = np.lexsort((pos, key[pos], exps))
    return np.split(pos[order], np.flatnonzero(np.diff(exps[order])) + 1) if pos.size else []


def base_scan(ctx: AffectanceContext) -> list:
    """Every link in one class, shortest first."""
    return _ranked_classes(np.ones(ctx.n), ctx.lengths)


def weight_class_scan(ctx: AffectanceContext) -> list:
    """Doubling weight classes after rescaling the maximum weight to n,
    each shortest first; links whose rescaled weight falls under 1 are
    discarded (they can cost at most half the optimum)."""
    top = float(ctx.weights.max(initial=0.0))
    return _ranked_classes(ctx.weights * (ctx.n / top), ctx.lengths) if top > 0 else []


def length_class_scan(ctx: AffectanceContext) -> list:
    """Doubling length classes anchored at the minimum length, each
    heaviest first."""
    return _ranked_classes(ctx.lengths / ctx.lengths.min(initial=math.inf), -ctx.weights)


# variant -> (its scans, the objective that picks the best of its scans' classes)
GREEDY_VARIANTS = {
    "greedy": ((weight_class_scan, length_class_scan), "weight"),
    "greedy_w": ((weight_class_scan,), "weight"),
    "greedy_l": ((length_class_scan,), "weight"),
    "base": ((base_scan,), "cardinality"),
}


def greedy_sweep(ctx: AffectanceContext, variants, constants) -> dict:
    """Each ``GREEDY_VARIANTS`` variant in ``variants`` -> its schedule per
    acceptance constant, in order: the certified best final selection,
    under the variant's objective, among the classes of all its scans.
    Each scan runs once, each class's clipped affectance block is read once
    for every constant, all classes share one final-selection batch, and
    each distinct best set is certified once (AssertionError if it fails).
    A context with primaries is a ValueError."""
    if ctx.k:
        raise ValueError("greedy takes no primaries: admission pipelines are driven by "
                         "the admission module")
    constants = list(constants)
    for c_g in constants:
        require_positive("c_g", c_g)
    for v in variants:
        if v not in GREEDY_VARIANTS:
            raise ValueError(f"unknown greedy variant {v!r}")
    runs = {}  # scan -> per constant, the accepted positions of each of its classes
    for scan in dict.fromkeys(scan for v in variants for scan in GREEDY_VARIANTS[v][0]):
        runs[scan] = [[] for _ in constants]
        for ranked in scan(ctx):
            aff = ctx.raw[np.ix_(ranked, ranked)]
            np.minimum(aff, 1.0, out=aff)
            for run, c_g in zip(runs[scan], constants):
                run.append(ranked[_greedy_accept(aff, c_g)])
    rows = [members for per_constant in runs.values() for run in per_constant for members in run]
    sel = np.zeros((len(rows), ctx.n), dtype=bool)
    for row, members in zip(sel, rows):
        row[members] = True
    selections = iter(final_selection_batch(ctx, sel, [_EXTRACTION_FACTOR] * len(sel),
                                            "cardinality"))
    # per scan and constant, the final selections of the scan's classes
    finals = {scan: [[next(selections) for _ in run] for run in per_constant]
              for scan, per_constant in runs.items()}
    schedules, result = {}, {}  # schedules: best set's positions -> its schedule
    for v in variants:
        own, objective = GREEDY_VARIANTS[v]
        result[v] = []
        for classes in zip(*(finals[scan] for scan in own)):
            best = best_part(ctx, sum(classes, []), objective)
            key = tuple(best.tolist())
            if key not in schedules:
                schedules[key] = certify(ctx, ctx.ids[best])
                if not schedules[key].verified:
                    raise AssertionError(f"{v} produced an infeasible schedule")
            result[v].append(schedules[key])
    return result


def greedy_base(ctx: AffectanceContext, c_g: float = 1.0) -> Schedule:
    """Shortest-first greedy with a symmetric acceptance test, followed by
    the same final selection as the LP pipeline."""
    return greedy_sweep(ctx, ["base"], [c_g])["base"][0]


def greedy_combined(ctx: AffectanceContext, c_g: float = 1.0) -> Schedule:
    """Heaviest class selection of the weight-class and length-class scans."""
    return greedy_sweep(ctx, ["greedy"], [c_g])["greedy"][0]
