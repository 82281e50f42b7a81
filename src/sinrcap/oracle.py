"""Exhaustive optima on small instances; ground truth for everything else.

Exact subset feasibility is the SINR inequality itself, computed from
powers and distances (``affectance.sinr_terms``) independently of the
affectance matrix the approximation pipelines use.
"""

from __future__ import annotations

import numpy as np

from .affectance import (AffectanceContext, InfeasiblePrimaries, Schedule, certify,
                         sinr_terms)

ENUMERATION_CAP = 20
_CHUNK = 1 << 14


class TooLarge(Exception):
    """Instance exceeds the exhaustive-enumeration cap."""


def _check_cap(n: int):
    if n > ENUMERATION_CAP:
        raise TooLarge(f"{n} links exceed the enumeration cap of {ENUMERATION_CAP}")


def _subset_masks(n: int):
    """Yield (start, bool matrix) covering all 2**n subsets in mask order."""
    total = 1 << n
    bit = 1 << np.arange(n, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        masks = np.arange(start, stop, dtype=np.int64)
        yield start, (masks[:, None] & bit[None, :]) != 0


def _exact_budgets(ctx: AffectanceContext) -> tuple:
    """Interference rows of the secondaries and every receiver's budget
    (signal / beta minus noise and primary interference), primaries first."""
    interf, signal, betas, noise = sinr_terms(ctx, ctx.ids)
    return interf[ctx.k:], signal / betas - (noise + interf[:ctx.k].sum(axis=0))


def _feasible_exact(sel: np.ndarray, rows: np.ndarray, budget: np.ndarray, k: int,
                    primaries: bool = False) -> np.ndarray:
    """Exact SINR feasibility of every member for a block of subsets, the
    primaries transmitting too (``rows``, ``budget``: ``_exact_budgets``);
    with ``primaries`` also at every primary."""
    loads = sel.astype(float) @ rows
    ok = np.all((loads[:, k:] <= budget[k:]) | ~sel, axis=1)
    if primaries:
        ok &= np.all(loads[:, :k] <= budget[:k], axis=1)
    return ok


def _feasible_affectance(mat: np.ndarray, sel: np.ndarray, gamma: float,
                         anti: bool = False) -> np.ndarray:
    f = sel.astype(float)
    ok = np.all((f @ mat <= gamma) | ~sel, axis=1)
    if anti:
        ok &= np.all((f @ mat.T <= gamma) | ~sel, axis=1)
    return ok


def _pick_best(ctx, feasible, sel, values, best):
    """Update (value, ids) with the block's best subset; ties take the
    lexicographically smallest id tuple."""
    vals = np.where(feasible, values, -np.inf)
    if vals.size == 0 or np.max(vals) == -np.inf:
        return best
    vmax = float(np.max(vals))
    if best is not None and vmax < best[0]:
        return best
    cand_rows = np.flatnonzero(vals == vmax)
    ids_list = [tuple(int(i) for i in ctx.ids[sel[r]]) for r in cand_rows]
    cand = (vmax, min(ids_list))
    if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
        return cand
    return best


def exact_capacity(ctx: AffectanceContext, objective: str = "cardinality",
                   mode: str = "exact_sinr", gamma: float = 1.0) -> Schedule:
    """Maximum feasible subset by enumeration (n <= 20).

    mode "exact_sinr" checks the SINR inequality; "affectance" checks
    gamma-feasibility of received affectance sums.
    """
    _check_cap(ctx.n)
    if objective not in ("cardinality", "weight"):
        raise ValueError(f"unknown objective {objective!r}")
    if mode not in ("exact_sinr", "affectance"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact_sinr":
        rows, budget = _exact_budgets(ctx)
    else:
        mat = ctx.raw if gamma <= 1.0 else ctx.aff
    best = None
    for _, sel in _subset_masks(ctx.n):
        ok = _feasible_exact(sel, rows, budget, ctx.k) if mode == "exact_sinr" \
            else _feasible_affectance(mat, sel, gamma)
        values = sel.sum(axis=1).astype(float) if objective == "cardinality" \
            else sel.astype(float) @ ctx.weights
        best = _pick_best(ctx, ok, sel, values, best)
    return certify(ctx, best[1] if best else ())


def exact_admission(ctx: AffectanceContext) -> Schedule:
    """Maximum secondary subset keeping all primaries and members exactly
    feasible, primaries at their explicit powers."""
    if not ctx.has_primaries:
        raise ValueError("admission oracle requires a context with primaries")
    _check_cap(ctx.n)
    rows, budget = _exact_budgets(ctx)
    if np.any(budget[:ctx.k] < 0):
        raise InfeasiblePrimaries("primaries are infeasible even without secondaries")
    best = None
    for _, sel in _subset_masks(ctx.n):
        ok = _feasible_exact(sel, rows, budget, ctx.k, primaries=True)
        best = _pick_best(ctx, ok, sel, sel.sum(axis=1).astype(float), best)
    return certify(ctx, best[1] if best else ())


def largest_bifeasible(ctx: AffectanceContext, gamma: float = 2.0) -> Schedule:
    """Maximum-cardinality subset whose received and sent affectance sums
    both stay within gamma at every member."""
    _check_cap(ctx.n)
    mat = ctx.raw if gamma <= 1.0 else ctx.aff
    best = None
    for _, sel in _subset_masks(ctx.n):
        ok = _feasible_affectance(mat, sel, gamma, anti=True)
        best = _pick_best(ctx, ok, sel, sel.sum(axis=1).astype(float), best)
    return certify(ctx, best[1] if best else ())
