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
Strengthening copies its rows' union submatrix out of the context once,
in rank order, with a transpose, and works on context positions: a part
stays a sorted position array through the per-part check and the best-part
rule, and only each row's winner becomes an id tuple.
``sample_round``, ``extract_low_affectance``, ``signal_strengthen`` and
``final_selection`` are the one-trial case of the same code.

``round_trials`` is the one trial loop: it solves and samples a sweep's
(program, policy) pairs in order through one session, so warm starts are
those of a loop over the constants, and selects the kept samples of
consecutive pairs in one batch, each under its own policy's bound and
objective.  A batch costs lockstep steps by its longest row, not by its
number of rows, which pays while rows are short; so a batch runs once
its samples times the links they hold reach ``_BATCH_CELLS``.  At n=200
a compare sweep's 2 x 50 samples stay one batch; at n=1000 each
constant's 100 samples hold more and run alone, since one batch over
15 constants raised max RSS from 200 to 240 MiB and gained no clear time.
``run_sweep`` reduces what it yields per policy, and ``run_pipeline`` is
its one-policy case; both admission pipelines reduce it too.  Each builds
its program through an ``LpSession``, ``run_sweep`` the one
``formulations`` builder of each policy's mode.
``best_part`` is the one rule by which this module, ``greedy`` and
``admission`` choose among candidate sets; ``_schedule_objective`` values a set.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np

from . import formulations
from .affectance import (ROW_BLOCK, AffectanceContext, Schedule, certify, check_feasibility,
                         check_positions)
from .lp_core import LinearProgram, LpSession, solve_lp

logger = logging.getLogger(__name__)

ROUNDING_MODES = ("capacity", "qos", "weighted", "admission_general", "admission_large")
_EXTRACTION_FACTOR = 12.0  # extraction bound per unit of the LP constant C
# strengthening's load limit: below 1 by far more than n ulps, so a part
# it admits, its loads summed in join order, passes the check in id order
_STRENGTHEN_LIMIT = 1.0 - 1e-12
# samples times the links they hold at which round_trials runs a final
# selection batch (the module docstring says why)
_BATCH_CELLS = 1 << 14


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
    return tuple(ids[row].tolist())


def _one_row(S) -> tuple:
    """(sorted ids, 1 x len selection of all of them) for a single set."""
    ids = np.unique(np.asarray([int(i) for i in S], dtype=int))
    return ids, np.ones((1, ids.size), dtype=bool)


def _extract_rows(ctx: AffectanceContext, idx: np.ndarray, sel: np.ndarray,
                  bounds) -> np.ndarray:
    """Each row's members whose clipped affectance received from that row's
    members is at most the row's entry of ``bounds``; ``idx`` holds the
    columns' context positions.
    One product over the union of selected columns serves every row; it is
    taken ROW_BLOCK receivers at a time."""
    cols = np.flatnonzero(sel.any(axis=0))
    sub = sel[:, cols]
    sub_f = sub.astype(float)
    bounds = np.asarray(bounds, dtype=float)[:, None]
    kept = np.zeros_like(sel)
    for c0 in range(0, cols.size, ROW_BLOCK):
        block = slice(c0, c0 + ROW_BLOCK)
        aff = ctx.raw[np.ix_(idx[cols], idx[cols[block]])]
        np.minimum(aff, 1.0, out=aff)
        kept[:, cols[block]] = sub[:, block] & (sub_f @ aff <= bounds)
    return kept


def _first_fit(labels: np.ndarray, sel: np.ndarray, rank: np.ndarray,
               fit) -> Iterator[list]:
    """First fit of every row of ``sel`` (booleans over the columns
    ``labels``), each row placing its columns in ``rank`` order, all rows in
    lockstep.

    Step i calls ``fit(i, cols, groups, width)`` on the rows still placing
    (a prefix: rows run longest first): their first i + 1 columns (indices
    into ``labels``; the last is being placed), the groups of the first i,
    and a width above every such row's groups, its empty one included.
    ``fit`` keeps its own load state, indexed like ``cols``, and returns
    each row's first group that fits; an empty group always does.  Yields
    each row's groups as sorted arrays of labels, in row order.
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
        members, g = labels[cols[r, :size]], groups[r, :size]
        members = members[np.lexsort((members, g))]
        ends = np.cumsum(np.bincount(g)).tolist()  # groups 0..max are all nonempty
        yield [members[start:end] for start, end in zip([0] + ends, ends)]


def _strengthen_rows(ctx: AffectanceContext, idx: np.ndarray,
                     sel: np.ndarray) -> Iterator[list]:
    """1-feasible parts of every row of ``sel`` (columns: the context
    positions ``idx``), each a sorted array of context positions:
    ``_first_fit`` over links by non-increasing length, ties by id.  Link u
    joins its row's first part p where u's unclipped in-load from p is at
    most 1 and every member of p stays within 1 after adding u's
    affectance, so parts are sound against the exact SINR condition.  Loads
    are summed in the order members joined their part, and both tests keep
    a margin of 1e-12 so that the per-part check, which sums in id order,
    agrees.

    The rows' union is copied once out of ``ctx.raw``, in rank order, and
    once transposed, so the loads a step reads for one row lie in one row
    of each copy.
    """
    cols = np.flatnonzero(sel.any(axis=0))
    pos = idx[cols]
    rank = np.lexsort((pos, -ctx.lengths[pos]))  # ties by id: ctx.ids is sorted
    pos, sel = pos[rank], sel[:, cols[rank]]
    m = pos.size
    out_of = ctx.raw[np.ix_(pos, pos)].ravel()   # row u: u's affectance on each link
    into = np.ascontiguousarray(out_of.reshape(m, m).T).ravel()  # row u: each one's on u
    own = np.zeros((sel.shape[0], int(sel.sum(axis=1).max(initial=0))))  # load from own part
    live = np.arange(sel.shape[0])

    def fit(i, cols, parts, width):
        a = len(cols)
        at = cols[:, :i] + cols[:, i, None] * m  # row u's entries of the placed links
        with_u = own[:a, :i] + out_of[at]
        # a member pushed past the limit counts 2 towards u's in-load from its part
        in_u = np.where(with_u > _STRENGTHEN_LIMIT, 2.0, into[at])
        in_load = np.bincount((parts + live[:a, None] * width).ravel(), in_u.ravel(),
                              a * width).reshape(a, width)
        choice = (in_load <= _STRENGTHEN_LIMIT).argmax(axis=1)
        np.copyto(own[:a, :i], with_u, where=parts == choice[:, None])
        own[:a, i] = in_load[live[:a], choice]
        return choice

    for parts in _first_fit(pos, sel, np.arange(pos.size), fit):
        if not all(check_positions(ctx, p) for p in parts):
            raise AssertionError("signal strengthening produced an infeasible part")
        yield parts


def extract_low_affectance(ctx: AffectanceContext, S,
                           bound: float = _EXTRACTION_FACTOR) -> tuple:
    """Members of S whose received affectance within S is at most bound."""
    ids, sel = _one_row(S)
    return _members(ids, _extract_rows(ctx, ctx.index_of(ids), sel, [bound])[0])


def signal_strengthen(ctx: AffectanceContext, S) -> list:
    """Partition S into 1-feasible parts by first fit over links in
    non-increasing length order."""
    ids, sel = _one_row(S)
    return [_members(ctx.ids, p) for p in next(_strengthen_rows(ctx, ctx.index_of(ids), sel))]


def _objective(ctx: AffectanceContext, pos: np.ndarray, mode: str) -> float:
    """The objective of the links at context positions ``pos``: their total
    weight under "weighted", else their number."""
    return float(ctx.weights[pos].sum()) if mode == "weighted" else float(len(pos))


def _schedule_objective(ctx: AffectanceContext, ids: tuple, mode: str) -> float:
    return _objective(ctx, ctx.index_of(ids), mode)


def schedule_weight(ctx: AffectanceContext, schedule: Schedule) -> float:
    """Total weight of the schedule's links."""
    return _schedule_objective(ctx, schedule.ids, "weighted")


def _better(cand_val, cand_ids, best_val, best_ids) -> bool:
    """A larger objective, or an equal one with a smaller id tuple."""
    return cand_val > best_val or (cand_val == best_val and cand_ids < best_ids)


def _best_index(ctx: AffectanceContext, parts: Sequence[np.ndarray], mode: str):
    """Index of the highest-objective part under ``mode`` among ``parts``
    (arrays of context positions), ties to the lexicographically smallest,
    by ``_better``; None unless some part's objective is positive.
    Positions order as ids do (``ctx.ids`` is sorted), so ties go as they
    would between id tuples."""
    best, best_val, best_key = None, 0.0, ()
    for j, p in enumerate(parts):
        val, key = _objective(ctx, p, mode), tuple(p.tolist())
        if _better(val, key, best_val, best_key):
            best, best_val, best_key = j, val, key
    return best


def best_part(ctx: AffectanceContext, parts, mode: str) -> tuple:
    """Highest-objective part under ``mode`` (id tuples), ties to the
    smallest id tuple; () unless some part's objective is positive."""
    parts = list(parts)
    best = _best_index(ctx, [ctx.index_of(p) for p in parts], mode)
    return () if best is None else parts[best]


def final_selection_batch(ctx: AffectanceContext, ids: Sequence[int], sel: np.ndarray,
                          bounds: Sequence[float], modes: Sequence[str]) -> list:
    """``final_selection`` of every row of ``sel`` (rows of booleans over
    the columns ``ids``) under that row's entries of ``bounds`` and
    ``modes``, in row order, all rows in one lockstep batch."""
    ids = np.asarray(ids, dtype=int)
    order = np.argsort(ids, kind="stable")
    idx, sel = ctx.index_of(ids[order]), sel[:, order]
    kept = _extract_rows(ctx, idx, sel, bounds)
    out = []
    for parts, mode in zip(_strengthen_rows(ctx, idx, kept), modes):
        best = _best_index(ctx, parts, mode)
        out.append(() if best is None else _members(ctx.ids, parts[best]))
    return out


def final_selection(ctx: AffectanceContext, S, bound: float, mode: str) -> tuple:
    """Extract S's low-affectance members, strengthen them into 1-feasible
    parts and return the best part under ``mode``'s objective."""
    return final_selection_batch(ctx, *_one_row(S), [bound], [mode])[0]


def round_trials(ctx: AffectanceContext, runs, session: Optional[LpSession] = None,
                 accept=None, attempts: int = 0) -> Iterator[list]:
    """For each (program, policy) pair of ``runs``, in order: solve the
    program (through ``session`` when given, so a constant sweep reuses one
    model) and draw ``policy.trials`` two-stage samples over its ids.
    Yields per pair the final selection of each sample, in trial order,
    under the policy's extraction bound and mode.  Consecutive pairs share
    one ``final_selection_batch``, which runs as soon as its samples times
    the links they hold reach ``_BATCH_CELLS``; a pair is never split.

    With ``accept``, a function from a block's selection matrix to one
    boolean per row, each pair's trials are drawn in blocks of
    ``policy.trials`` until ``attempts`` have been made, and only accepted
    samples count, in attempt order: the samples a one-by-one loop would
    take.
    """
    batch = []  # (context positions of lp.ids, samples, policy) per pair
    for lp, policy in runs:
        sol = solve_lp(lp, session)
        tries = policy.trials if accept is None else attempts
        wanted, kept = policy.trials, [np.zeros((0, lp.n), dtype=bool)]
        for start in range(0, tries, policy.trials):
            sel = sample_batch(lp, sol.values, policy,
                               range(start, min(start + policy.trials, tries)))
            if accept is not None:
                sel = sel[accept(sel)][:wanted]
            wanted -= len(sel)
            kept.append(sel)
            if wanted <= 0:
                break
        batch.append((ctx.index_of(lp.ids), np.concatenate(kept), policy))
        if _cells(batch) >= _BATCH_CELLS:
            yield from _select_batch(ctx, batch)
            batch = []
    if batch:
        yield from _select_batch(ctx, batch)


def _cells(batch) -> int:
    """A batch's samples times the number of links any of them holds."""
    rows = sum(len(kept) for _, kept, _ in batch)
    return rows * np.unique(np.concatenate([pos[kept.any(axis=0)]
                                            for pos, kept, _ in batch])).size


def _select_batch(ctx: AffectanceContext, batch) -> list:
    """Per pair of ``round_trials``' batch, the final selection of each of
    its samples, all in one ``final_selection_batch``."""
    sel = np.zeros((sum(len(kept) for _, kept, _ in batch), ctx.n), dtype=bool)
    bounds, modes, start = [], [], 0
    for pos, kept, policy in batch:  # the columns of sel are context positions
        sel[start:start + len(kept), pos] = kept
        start += len(kept)
        bounds += [policy.extraction_bound] * len(kept)
        modes += [policy.mode] * len(kept)
    selections = iter(final_selection_batch(ctx, ctx.ids, sel, bounds, modes))
    return [list(islice(selections, len(kept))) for _, kept, _ in batch]


def run_sweep(ctx: AffectanceContext, policies: Sequence[RoundingPolicy],
              session: Optional[LpSession] = None) -> list:
    """``run_pipeline`` of each policy, in order, through one ``session``
    (a fresh one when None); returns one schedule per policy.  Each
    policy's mode and C name its program, and the session builds a
    builder's rows once.  The programs are built, solved and sampled in
    order, and their samples selected in ``round_trials``' batches."""
    session = LpSession() if session is None else session
    if any(policy.mode in ("admission_general", "admission_large") for policy in policies):
        raise ValueError("admission pipelines are driven by the admission module")
    # each program is built when round_trials reaches it, its builder looked
    # up then, so a builder patched into the module is used
    runs = ((session.program(getattr(formulations, f"build_{policy.mode}_lp"), ctx, policy.C),
             policy) for policy in policies)
    schedules = []
    for selections, policy in zip(round_trials(ctx, runs, session), policies):
        schedule = certify(ctx, best_part(ctx, selections, policy.mode))
        if not check_feasibility(ctx, schedule.ids, 1.0, "feasible"):
            raise AssertionError("pipeline produced an infeasible schedule")
        schedules.append(schedule)
    return schedules


def run_pipeline(ctx: AffectanceContext, policy: RoundingPolicy,
                 session: Optional[LpSession] = None) -> Schedule:
    """Build ``policy.mode``'s program at ``policy.C`` and solve it (through
    ``session`` when given, so a constant sweep builds the rows once and
    reuses one model), round ``policy.trials`` independent samples, extract
    and strengthen them all at once, and return the best resulting feasible
    set: the one-policy case of ``run_sweep``."""
    return run_sweep(ctx, [policy], session)[0]
