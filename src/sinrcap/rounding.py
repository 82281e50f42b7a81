"""Two-stage randomized rounding and final selection.

Stage one keeps each link independently with its fractional LP value as
probability; a program's variables are the links ``lp.ids``.  Stage two
reads the LP rows: a row's load is its coefficients summed over the
stage-one sample, and a selected link survives only while every row it
owns stays within that row's limit (the builders in ``formulations`` set
the limits).  Final selection, shared by
the LP, admission and greedy pipelines, drops high-affectance members and
partitions the rest into 1-feasible groups (signal strengthening),
returning the best group.

Every trial of a pipeline runs in lockstep, as one row of a boolean
selection matrix: stage one stacks the trials' draws (each a pure function
of seed, trial and link id), stage two takes every trial's row loads in
one product with the LP rows, extraction one product over the union of
sampled links, and strengthening one ``_first_fit`` over every row, the
lockstep first-fit engine that admission's grouping shares.
``sample_round``, ``extract_low_affectance``, ``signal_strengthen`` and
``final_selection`` are the one-trial case of the same code.

``round_trials`` is the one trial loop: it solves the LP and yields every
trial's final selection.  ``run_pipeline`` and both admission pipelines
reduce what it yields; each builds its program through an ``LpSession``,
``run_pipeline`` the one ``formulations`` builder of ``policy.mode``.
``best_part`` is the one rule by which this module, ``greedy`` and
``admission`` choose among candidate sets; ``_schedule_objective`` values a set.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from . import formulations
from .affectance import (ROW_BLOCK, AffectanceContext, Schedule, certify,
                         check_feasibility)
from .lp_core import LinearProgram, LpSession, solve_lp

logger = logging.getLogger(__name__)

ROUNDING_MODES = ("capacity", "qos", "weighted", "admission_general", "admission_large")
_EXTRACTION_FACTOR = 12.0  # extraction bound per unit of the LP constant C


@dataclass(frozen=True)
class RoundingPolicy:
    mode: str
    C: float = 1.0
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ROUNDING_MODES:
            raise ValueError(f"unknown rounding mode {self.mode!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.C > 0:
            raise ValueError("C must be positive")

    @property
    def extraction_bound(self) -> float:
        return _EXTRACTION_FACTOR * self.C


def bernoulli_draws(seed: int, trial: int, ids: Sequence[int]) -> np.ndarray:
    """Uniform [0,1) draw per link, a pure function of (seed, trial, id).

    Link id i reads entry i of one counter-based Philox stream keyed by
    (seed, trial).  Dense ids slice the stream; sparse ids jump to each
    id's block of four draws, so a link's draw does not depend on which
    other links are present.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        return np.zeros(0)
    if int(ids.min()) < 0:
        raise ValueError("link ids must be nonnegative")
    hi = int(ids.max())
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(trial)])
    if hi < 4 * ids.size + 1024:
        return np.random.Generator(np.random.Philox(key=key)).random(hi + 1)[ids]
    out = np.empty(ids.size)
    for i, lid in enumerate(ids.tolist()):
        block = np.random.Philox(key=key).advance(lid // 4)  # four draws per counter
        out[i] = np.random.Generator(block).random(4)[lid % 4]
    return out


def sample_batch(lp: LinearProgram, delta: np.ndarray, policy: RoundingPolicy,
                 trials: Sequence[int]) -> np.ndarray:
    """Two-stage samples of the given trial numbers, one boolean row each
    over ``lp.ids``; deterministic given (policy.seed, trial).

    ``delta`` holds the fractional values of ``lp``'s variables.  Stage two
    drops the variable of every row whose load exceeds its limit, or the
    whole sample for such a row without one.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (lp.n,):
        raise ValueError("delta length must match the program's variables")
    sel = np.empty((len(trials), lp.n), dtype=bool)
    for row, trial in zip(sel, trials):
        row[:] = bernoulli_draws(policy.seed, trial, lp.ids) < delta
    sel_f = sel.astype(float)
    over = np.empty((sel.shape[0], lp.m), dtype=bool)
    for r0 in range(0, lp.m, ROW_BLOCK):  # loads T x ROW_BLOCK at a time
        block = slice(r0, r0 + ROW_BLOCK)
        over[:, block] = sel_f @ lp.row_coeffs[block].T > lp.row_limit[block]
    sel[np.any(over & (lp.row_var < 0), axis=1)] = False
    hit, rows = np.nonzero(over & (lp.row_var >= 0))
    sel[hit, lp.row_var[rows]] = False
    return sel


def sample_round(lp: LinearProgram, delta: np.ndarray, policy: RoundingPolicy,
                 trial: int) -> tuple:
    """One trial of ``sample_batch``; returns the selected ids in
    ``lp.ids`` order."""
    return _members(lp.ids, sample_batch(lp, delta, policy, [trial])[0])


def _members(ids: np.ndarray, row: np.ndarray) -> tuple:
    return tuple(int(i) for i in ids[row])


def _one_row(S) -> tuple:
    """(sorted ids, 1 x len selection of all of them) for a single set."""
    ids = np.unique(np.asarray([int(i) for i in S], dtype=int))
    return ids, np.ones((1, ids.size), dtype=bool)


def _extract_rows(ctx: AffectanceContext, idx: np.ndarray, sel: np.ndarray,
                  bound: float) -> np.ndarray:
    """Each row's members whose clipped affectance received from that row's
    members is at most bound; ``idx`` holds the columns' context positions.
    One product over the union of selected columns serves every row; it is
    taken ROW_BLOCK receivers at a time."""
    cols = np.flatnonzero(sel.any(axis=0))
    sub = sel[:, cols]
    sub_f = sub.astype(float)
    kept = np.zeros_like(sel)
    for c0 in range(0, cols.size, ROW_BLOCK):
        block = slice(c0, c0 + ROW_BLOCK)
        aff = ctx.raw[np.ix_(idx[cols], idx[cols[block]])]
        np.minimum(aff, 1.0, out=aff)
        kept[:, cols[block]] = sub[:, block] & (sub_f @ aff <= bound)
    return kept


def _first_fit(ids: np.ndarray, sel: np.ndarray, rank: np.ndarray,
               fit) -> Iterator[list]:
    """First fit of every row of ``sel`` (booleans over the columns ``ids``),
    each row placing its columns in ``rank`` order, all rows in lockstep.

    Step i calls ``fit(i, cols, groups, width)`` on the rows still placing
    (a prefix: rows run longest first): their first i + 1 columns (indices
    into ``ids``; the last is being placed), the groups of the first i, and
    a width above every such row's groups, its empty one included.  ``fit``
    keeps its own load state, indexed like ``cols``, and returns each row's
    first group that fits; an empty group always does.  Yields each row's
    groups as sorted id tuples, in row order.
    """
    sel = sel[:, rank]
    sizes = sel.sum(axis=1)
    rows = np.argsort(-sizes, kind="stable")
    k = int(sizes.max(initial=0))
    cols = np.zeros((rows.size, k), dtype=int)
    cols[np.arange(k) < sizes[rows, None]] = rank[np.nonzero(sel[rows])[1]]
    groups = np.zeros((rows.size, k), dtype=int)
    width = 1
    for i, a in enumerate(np.count_nonzero(sizes[rows, None] > np.arange(k), axis=0)):
        groups[:a, i] = choice = fit(i, cols[:a, :i + 1], groups[:a, :i], width)
        width = max(width, int(choice.max()) + 2)
    for r, size in zip(np.argsort(rows), sizes):
        members, g = ids[cols[r, :size]], groups[r, :size]
        yield [tuple(int(i) for i in np.sort(members[g == p]))
               for p in range(g.max(initial=-1) + 1)]


def _strengthen_rows(ctx: AffectanceContext, idx: np.ndarray,
                     sel: np.ndarray) -> Iterator[list]:
    """1-feasible parts of every row of ``sel`` (columns: the context
    positions ``idx``): ``_first_fit`` over links by non-increasing length,
    ties by id.  Link u joins its row's first part p where u's unclipped
    in-load from p is at most 1 and every member of p stays within 1 after
    adding u's affectance, so parts are sound against the exact SINR
    condition.  Loads are summed in the order members joined their part.
    """
    full = np.zeros((sel.shape[0], ctx.n), dtype=bool)  # columns: context positions
    full[:, idx] = sel
    own = np.zeros((sel.shape[0], int(sel.sum(axis=1).max(initial=0))))  # load from own part

    def fit(i, cols, parts, width):
        a, live = len(cols), np.arange(len(cols))
        u, placed = cols[:, i, None], cols[:, :i]
        out_u, in_u = ctx.raw[u, placed], ctx.raw[placed, u]
        in_load = np.bincount((live[:, None] * width + parts).ravel(), in_u.ravel(),
                              a * width).reshape(a, width)
        fits = in_load <= 1.0
        bad_r, bad_j = np.nonzero(own[:a, :i] + out_u > 1.0)
        fits[bad_r, parts[bad_r, bad_j]] = False
        choice = fits.argmax(axis=1)
        out_u[parts != choice[:, None]] = 0.0
        own[:a, :i] += out_u
        own[:a, i] = in_load[live, choice]
        return choice

    rank = np.argsort(-ctx.lengths, kind="stable")  # ties by id: ctx.ids is sorted
    for parts in _first_fit(ctx.ids, full, rank, fit):
        for p in parts:
            if not check_feasibility(ctx, p, 1.0, "feasible"):
                raise AssertionError("signal strengthening produced an infeasible part")
        yield parts


def extract_low_affectance(ctx: AffectanceContext, S,
                           bound: float = _EXTRACTION_FACTOR) -> tuple:
    """Members of S whose received affectance within S is at most bound."""
    ids, sel = _one_row(S)
    return _members(ids, _extract_rows(ctx, ctx.index_of(ids), sel, bound)[0])


def signal_strengthen(ctx: AffectanceContext, S) -> list:
    """Partition S into 1-feasible parts by first fit over links in
    non-increasing length order."""
    ids, sel = _one_row(S)
    return next(_strengthen_rows(ctx, ctx.index_of(ids), sel))


def _schedule_objective(ctx: AffectanceContext, ids: tuple, mode: str) -> float:
    if mode == "weighted":
        return float(ctx.weights[ctx.index_of(ids)].sum())
    return float(len(ids))


def schedule_weight(ctx: AffectanceContext, schedule: Schedule) -> float:
    """Total weight of the schedule's links."""
    return _schedule_objective(ctx, schedule.ids, "weighted")


def _better(cand_val, cand_ids, best_val, best_ids) -> bool:
    """A larger objective, or an equal one with a smaller id tuple."""
    return cand_val > best_val or (cand_val == best_val and cand_ids < best_ids)


def best_part(ctx: AffectanceContext, parts, mode: str) -> tuple:
    """Highest-objective part under ``mode``, ties to the smallest id tuple;
    () unless some part's objective is positive."""
    best_ids, best_val = (), 0.0
    for part in parts:
        val = _schedule_objective(ctx, part, mode)
        if _better(val, part, best_val, best_ids):
            best_ids, best_val = part, val
    return best_ids


def final_selection_batch(ctx: AffectanceContext, ids: Sequence[int], sel: np.ndarray,
                          bound: float, mode: str) -> list:
    """``final_selection`` of every row of ``sel`` (rows of booleans over
    the columns ``ids``), in row order."""
    ids = np.asarray(ids, dtype=int)
    order = np.argsort(ids, kind="stable")
    ids, sel = ids[order], sel[:, order]
    idx = ctx.index_of(ids)
    kept = _extract_rows(ctx, idx, sel, bound)
    return [best_part(ctx, parts, mode)
            for parts in _strengthen_rows(ctx, idx, kept)]


def final_selection(ctx: AffectanceContext, S, bound: float, mode: str) -> tuple:
    """Extract S's low-affectance members, strengthen them into 1-feasible
    parts and return the best part under ``mode``'s objective."""
    return final_selection_batch(ctx, *_one_row(S), bound, mode)[0]


def round_trials(ctx: AffectanceContext, lp: LinearProgram, policy: RoundingPolicy,
                 session: Optional[LpSession] = None, accept=None,
                 attempts: int = 0) -> Iterator[tuple]:
    """Solve ``lp`` (through ``session`` when given, so a constant sweep
    reuses one model) and yield the final selection of each of
    ``policy.trials`` two-stage samples over ``lp.ids``, in trial order.
    All samples of a block run in lockstep.

    With ``accept``, a function from a block's selection matrix to one
    boolean per row, trials are drawn in blocks of ``policy.trials`` until
    ``attempts`` have been made, and only accepted samples count, in
    attempt order: the samples a one-by-one loop would take.
    """
    sol = solve_lp(lp, session)
    if accept is None:
        attempts = policy.trials
    wanted = policy.trials
    for start in range(0, attempts, policy.trials):
        sel = sample_batch(lp, sol.values, policy,
                           range(start, min(start + policy.trials, attempts)))
        if accept is not None:
            sel = sel[accept(sel)][:wanted]
        wanted -= len(sel)
        yield from final_selection_batch(ctx, lp.ids, sel, policy.extraction_bound,
                                         policy.mode)
        if wanted <= 0:
            break


def run_pipeline(ctx: AffectanceContext, policy: RoundingPolicy,
                 session: Optional[LpSession] = None) -> Schedule:
    """Build ``policy.mode``'s program at ``policy.C`` and solve it (through
    ``session`` when given, so a constant sweep builds the rows once and
    reuses one model), round ``policy.trials`` independent samples, extract
    and strengthen them all at once, and return the best resulting feasible
    set."""
    if policy.mode in ("admission_general", "admission_large"):
        raise ValueError("admission pipelines are driven by the admission module")
    session = LpSession() if session is None else session
    # looked up on every call, so a builder patched into the module is used
    build = getattr(formulations, f"build_{policy.mode}_lp")
    lp = session.program(build, ctx, policy.C)
    schedule = certify(ctx, best_part(ctx, round_trials(ctx, lp, policy, session),
                                      policy.mode))
    if not check_feasibility(ctx, schedule.ids, 1.0, "feasible"):
        raise AssertionError("pipeline produced an infeasible schedule")
    return schedule
