"""Exhaustive optima on small instances; ground truth for everything else.

The oracles define no feasibility test of their own.  Each judges blocks
of candidate sets against a list of ``(loads, limit, k)`` conditions with
the affectance module's one kernel, ``affectance._within``.  The exact
oracles take the two conditions of ``affectance._verdict``, the verdict
``certify`` gives a returned set: the exact SINR inequality in budget form
(computed from powers and distances, not from the affectance matrix the
approximation pipelines use) and affectance sums within 1.  The others
take ``_gamma_test``, and bi-feasibility also its transpose.  Interference
and affectance are nonnegative, so every check is hereditary, and the
search judges, level by level, only the joins of accepted sets, not all
2**n subsets: after the empty set and the singletons, a (k+1)-set is
judged only when both k-sets left by dropping one of its two largest
members passed (Apriori's join).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .affectance import AffectanceContext, Schedule, _verdict, _within, certify
from .formulations import OBJECTIVES
from .model import require_positive

ENUMERATION_CAP = 20
_CHUNK = 1 << 11  # rows per judged block; 1 << 14 measured slower (page faults)


class TooLarge(Exception):
    """Instance exceeds the exhaustive-enumeration cap."""


def _check_cap(n: int):
    if n > ENUMERATION_CAP:
        raise TooLarge(f"{n} links exceed the enumeration cap of {ENUMERATION_CAP}")


def _gamma_test(ctx: AffectanceContext, gamma: float) -> tuple:
    """Received affectance sums within gamma as a condition, terms clipped
    at 1 only when gamma > 1: at or below 1 a saturated term understates its
    true interference, so it must count as a violation."""
    return (np.minimum(ctx.raw, 1.0) if gamma > 1.0 else ctx.raw), gamma, 0


def _accepted_sets(n: int, accept):
    """Yield blocks of at most ``_CHUNK`` bool rows holding every subset of
    ``range(n)`` that the hereditary ``accept`` passes, by size and each size
    in lexicographic order, so a block's sets share one size.  The empty set
    is judged first; if it passes, every singleton.  A (k+1)-set is then
    judged only as the join P | {a, b} of two passed k-sets P | {a} and
    P | {b} with a < b, where the prefix P is a set minus its largest
    member: siblings, sets of one prefix, are adjacent in the passed list."""
    bit = 1 << np.arange(n, dtype=np.uint32)
    empty = np.zeros((1, n), dtype=bool)
    if not accept(empty)[0]:
        return
    yield empty
    cand = bit  # a bit mask per candidate (n <= 20), from the singletons
    while cand.size:
        passed = []
        for start in range(0, cand.size, _CHUNK):
            block = cand[start:start + _CHUNK]
            sel = np.unpackbits(block.astype("<u4").view(np.uint8).reshape(-1, 4), axis=1,
                                count=n, bitorder="little").view(bool)
            ok = accept(sel)
            if ok.any():
                yield sel[ok]
            passed.append(block[ok])
        masks = np.concatenate(passed)
        top = np.frexp(masks)[1] - 1  # each set's largest member
        prefix = masks ^ bit[top]
        first = np.ones(masks.size, dtype=bool)  # where a run of siblings starts
        first[1:] = prefix[1:] != prefix[:-1]
        # one past each set's last sibling
        end = np.append(np.flatnonzero(first)[1:], masks.size)[np.cumsum(first) - 1]
        width = end - np.arange(masks.size) - 1  # siblings after each set
        parent = np.repeat(np.arange(masks.size), width)
        cand = masks[parent] | bit[top[np.arange(parent.size) - np.cumsum(width)[parent]
                                        + end[parent]]]


def _best(ctx: AffectanceContext, conditions, weights=None) -> Schedule:
    """Of the sets that meet every condition in ``conditions``, the one of
    largest cardinality, or weight given ``weights``; ties, across sizes
    too, take the lexicographically smallest id tuple.
    This is ``rounding.winner``'s rule, vectorized: each block is
    reduced with one argmax instead of a Python loop over its sets."""
    best = (np.inf, ())  # (-value, ids) of the best set so far
    accept = lambda sel: reduce(np.logical_and, (_within(sel, *c) for c in conditions))
    for sel in _accepted_sets(ctx.n, accept):
        values = sel[:1].sum(axis=1) if weights is None else sel.astype(float) @ weights
        r = int(np.argmax(values))  # first of the block's lexicographic rows
        if -values[r] <= best[0]:
            best = min(best, (-float(values[r]), tuple(int(i) for i in ctx.ids[sel[r]])))
    return certify(ctx, best[1])


def exact_capacity(ctx: AffectanceContext, objective: str = "cardinality",
                   mode: str = "exact_sinr", gamma: float = 1.0) -> Schedule:
    """Maximum feasible subset by enumeration (n <= 20).

    mode "exact_sinr" accepts the sets that meet both conditions of
    ``affectance._verdict``; "affectance" those that pass ``_gamma_test``.
    """
    _check_cap(ctx.n)
    require_positive("gamma", gamma)
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if mode not in ("exact_sinr", "affectance"):
        raise ValueError(f"unknown mode {mode!r}")
    conditions = _verdict(ctx) if mode == "exact_sinr" else [_gamma_test(ctx, gamma)]
    return _best(ctx, conditions, ctx.weights if objective == "weight" else None)


def exact_admission(ctx: AffectanceContext) -> Schedule:
    """Maximum secondary subset that meets ``affectance._verdict``,
    primaries at their explicit powers: ``exact_capacity`` of a context
    with primaries.  The context has refused primaries infeasible on their
    own."""
    if not ctx.has_primaries:
        raise ValueError("admission oracle requires a context with primaries")
    return exact_capacity(ctx)


def largest_bifeasible(ctx: AffectanceContext, gamma: float = 2.0) -> Schedule:
    """Maximum-cardinality subset whose received and sent affectance sums
    both stay within gamma at every member: ``_gamma_test`` and the same
    test on the transposed block."""
    _check_cap(ctx.n)
    require_positive("gamma", gamma)
    received, limit, k = _gamma_test(ctx, gamma)
    return _best(ctx, [(received, limit, k), (received.T, limit, k)])
