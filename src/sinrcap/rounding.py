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
selection matrix over the context positions (each link's index in
``ctx.ids``): stage one stacks the trials' draws (each a pure function of
seed, trial and link id, read from one bit generator per sample block,
re-keyed per trial), stage two takes every trial's row loads in one
product with the LP rows, extraction one product over the union of
sampled links, and strengthening one ``_first_fit`` over every row, the
lockstep first-fit engine that admission's grouping shares.
Strengthening copies its rows' union submatrix out of the context once,
in rank order, with a transpose.  A selected set stays a sorted array of
context positions through the per-part check, the best-part rule and
admission's grouping; ids are formed only where a pipeline certifies its
result.  ``signal_strengthen`` is the one-set case of the same code.

``round_trials`` is the one trial loop and the only code that knows how
a sweep shares its solves.  A sweep is one mode's problem
(``formulations.PROBLEMS``) over several constants: one ``LpSession`` per
call, in which the program is built once, so warm starts are those of a
loop over the constants.  It selects the kept samples of consecutive
policies in one batch under the problem's objective, each under its own
policy's bound.  A batch costs lockstep steps by its longest row, not by
its number of rows, which pays while rows are short; so a batch runs once
its samples times the links they hold reach ``_BATCH_CELLS``.  At n=200
a compare sweep's 2 x 50 samples stay one batch; at n=1000 each
constant's 100 samples hold more and run alone, since one batch over 15
constants raised max RSS from 200 to 240 MiB and gained no clear time.
``run_sweep`` reduces what it yields per policy, and ``run_pipeline`` is
its one-policy case; ``admission.admit_sweep`` reduces it too.
``winner`` is the one rule by which this module, ``greedy`` and
``admission`` choose among sets, each valued by its problem's objective;
``best_part`` returns the winning set, ``schedule_value`` values a schedule.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

import numpy as np

from . import formulations
from .affectance import (ROW_BLOCK, AffectanceContext, Schedule, certify, check_positions,
                         set_positions)
from .lp_core import LinearProgram, LpSession, solve_lp
from .model import link_ids, require_integer, require_positive

ROUNDING_MODES = tuple(formulations.PROBLEMS)
_EXTRACTION_FACTOR = 12.0  # extraction bound per unit of the LP constant C
# strengthening's and admission's load limit: below 1 by far more than n ulps, so
# a set they admit, its loads summed in join order, passes the check in id order
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
        for field in ("trials", "seed"):
            require_integer(field, getattr(self, field))
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        require_positive("C", self.C)

    @property
    def extraction_bound(self) -> float:
        return _EXTRACTION_FACTOR * self.C

    @property
    def problem(self) -> formulations.Problem:
        return formulations.PROBLEMS[self.mode]


def _draw_rows(seed: int, trials: Sequence[int], ids) -> Iterator[np.ndarray]:
    """Per trial, in order, a uniform [0,1) draw per link id of ``ids``: a
    pure function of (seed, trial, id), validated once for all trials.

    Link id i reads entry i of the counter-based Philox stream keyed by
    (seed mod 2**64, trial), as ``np.random.Generator.random`` would.  One
    bit generator is re-keyed through its state for each trial, and each
    raw 64-bit word w gives the draw (w >> 11) * 2**-53.  Dense ids slice
    the stream; sparse ids jump to each id's block of four words, so a
    link's draw does not depend on which other links are present.
    """
    ids = link_ids(ids)
    if ids.size and int(ids.min()) < 0:
        raise ValueError("link ids must be nonnegative")
    hi = int(ids.max(initial=-1))
    dense = hi < 4 * ids.size + 1024
    # as a Python int: a signed numpy seed would overflow in the mask
    seed = operator.index(seed) & 0xFFFFFFFFFFFFFFFF
    bitgen = np.random.Philox(key=0)  # re-keyed per trial below

    def words(trial, block, count):
        """``count`` raw words of the (seed, trial) stream from the start
        of block ``block`` (a counter step makes four words)."""
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": [block, 0, 0, 0], "key": [seed, trial]},
                        "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return bitgen.random_raw(count)

    for trial in trials:
        trial = operator.index(trial)
        if dense:
            raw = words(trial, 0, hi + 1)[ids]
        else:
            raw = np.array([words(trial, lid // 4, lid % 4 + 1)[-1] for lid in ids.tolist()],
                           dtype=np.uint64)
        yield (raw >> np.uint64(11)) * 2.0 ** -53


def bernoulli_draws(seed: int, trial: int, ids: Sequence[int]) -> np.ndarray:
    """Uniform [0,1) draw per link, a pure function of (seed, trial, id):
    the one-trial case of ``_draw_rows``."""
    return next(_draw_rows(seed, [trial], ids))


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
    for row, draws in zip(sel, _draw_rows(policy.seed, trials, lp.ids)):
        np.less(draws, delta, out=row)
    sel_f = sel.astype(float)
    over = np.empty((sel.shape[0], lp.m), dtype=bool)
    for r0 in range(0, lp.m, ROW_BLOCK):  # loads T x ROW_BLOCK at a time
        block = slice(r0, r0 + ROW_BLOCK)
        over[:, block] = sel_f @ lp.row_coeffs[block].T > lp.row_limit[block]
    sel[np.any(over & (lp.row_var < 0), axis=1)] = False
    hit, rows = np.nonzero(over & (lp.row_var >= 0))
    sel[hit, lp.row_var[rows]] = False
    return sel


def _extract_rows(ctx: AffectanceContext, sel: np.ndarray, bounds) -> np.ndarray:
    """Each row's members whose clipped affectance received from that row's
    members is at most the row's entry of ``bounds``; ``sel``'s columns
    are the context positions.
    One product over the union of selected columns serves every row; it is
    taken ROW_BLOCK receivers at a time."""
    cols = np.flatnonzero(sel.any(axis=0))
    sub = sel[:, cols]
    sub_f = sub.astype(float)
    bounds = np.asarray(bounds, dtype=float)[:, None]
    kept = np.zeros_like(sel)
    for c0 in range(0, cols.size, ROW_BLOCK):
        block = slice(c0, c0 + ROW_BLOCK)
        aff = ctx.raw[np.ix_(cols, cols[block])]
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


def _strengthen_rows(ctx: AffectanceContext, sel: np.ndarray) -> Iterator[list]:
    """1-feasible parts of every row of ``sel`` (columns: the context
    positions), each a sorted array of context positions:
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
    pos = np.flatnonzero(sel.any(axis=0))
    rank = np.lexsort((pos, -ctx.lengths[pos]))  # ties by id: ctx.ids is sorted
    pos, sel = pos[rank], sel[:, pos[rank]]
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


def signal_strengthen(ctx: AffectanceContext, S) -> list:
    """Partition S into 1-feasible parts by first fit over links in
    non-increasing length order; S is read by ``affectance.set_positions``."""
    sel = np.zeros((1, ctx.n), dtype=bool)
    sel[0, set_positions(ctx, S)] = True
    return [tuple(ctx.ids[p].tolist()) for p in next(_strengthen_rows(ctx, sel))]


def _objective(ctx: AffectanceContext, pos: np.ndarray, objective: str) -> float:
    """``objective``'s value (``formulations.OBJECTIVES``) of the links at
    context positions ``pos``."""
    if objective not in formulations.OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    return float(ctx.weights[pos].sum()) if objective == "weight" else float(len(pos))


def schedule_value(ctx: AffectanceContext, schedule: Schedule, objective: str) -> float:
    """``objective``'s value of the schedule's links."""
    return _objective(ctx, ctx.index_of(schedule.ids), objective)


def winner(ctx: AffectanceContext, parts: Sequence[np.ndarray], objective: str) -> Optional[int]:
    """Index of the winning part among ``parts`` (sorted arrays of context
    positions): the largest ``objective``, ties to the lexicographically
    smallest part, then the first; None unless some part's objective is
    positive.  Positions order as ids do (``ctx.ids`` is sorted), so ties
    go as they would between id tuples, which are formed only for the
    parts tied at the largest value."""
    values = [_objective(ctx, p, objective) for p in parts]
    best = max(values, default=0.0)
    if not best > 0:
        return None
    return min((i for i, v in enumerate(values) if v == best),
               key=lambda i: tuple(parts[i].tolist()))


def best_part(ctx: AffectanceContext, parts: Sequence[np.ndarray],
              objective: str) -> np.ndarray:
    """The ``winner`` of ``parts``, or an empty part when there is none."""
    i = winner(ctx, parts, objective)
    return np.zeros(0, dtype=int) if i is None else parts[i]


def final_selection_batch(ctx: AffectanceContext, sel: np.ndarray,
                          bounds: Sequence[float], objective: str) -> list:
    """Final selection of every row of ``sel`` (booleans over the context
    positions) under that row's entry of ``bounds``, all rows in one
    lockstep batch: extract the row's low-affectance members, strengthen
    them into 1-feasible parts and keep the best part under ``objective``.
    Returns one position array per row, in row order."""
    return [best_part(ctx, p, objective)
            for p in _strengthen_rows(ctx, _extract_rows(ctx, sel, bounds))]


def round_trials(ctx: AffectanceContext, policies: Sequence[RoundingPolicy], accept=None,
                 attempts: int = 0) -> Iterator[tuple]:
    """For each policy, in order: solve its program, through the call's one
    ``LpSession``, and draw ``policy.trials`` two-stage samples over the
    program's ids.  The policies share one mode, else ``ValueError``; its
    program is built at the first constant and derived with
    ``LinearProgram.at`` at later ones.  Yields per policy its program and
    the final selection of each sample, a position array, in trial order,
    under the policy's extraction bound and the problem's objective.
    Consecutive policies share one ``final_selection_batch``, which runs as
    soon as its samples times the links they hold reach ``_BATCH_CELLS``;
    a policy is never split.

    With ``accept``, a function from a program and a block's selection
    matrix to one boolean per row, each policy's trials are drawn in blocks
    of ``policy.trials`` until ``max(policy.trials, attempts)`` have been
    made, and only accepted samples count, in attempt order: the samples a
    one-by-one loop would take.
    """
    if len({policy.mode for policy in policies}) > 1:
        raise ValueError("a sweep's policies must share one mode")
    session, lp = LpSession(), None
    batch = []  # (samples over the context positions, policy, program) per policy
    for policy in policies:
        lp = policy.problem.build(ctx, policy.C) if lp is None else lp.at(policy.C)
        sol = solve_lp(lp, session)
        tries = max(policy.trials, attempts)
        wanted, kept = policy.trials, [np.zeros((0, lp.n), dtype=bool)]
        for start in range(0, tries, policy.trials):
            sel = sample_batch(lp, sol.values, policy,
                               range(start, min(start + policy.trials, tries)))
            if accept is not None:
                sel = sel[accept(lp, sel)][:wanted]
            wanted -= len(sel)
            kept.append(sel)
            if wanted <= 0:
                break
        samples = np.concatenate(kept)
        rows = np.zeros((len(samples), ctx.n), dtype=bool)
        rows[:, ctx.index_of(lp.ids)] = samples
        batch.append((rows, policy, lp))
        if _cells(batch) >= _BATCH_CELLS:
            yield from _select_batch(ctx, batch)
            batch = []
    if batch:
        yield from _select_batch(ctx, batch)


def _cells(batch) -> int:
    """A batch's samples times the number of links any of them holds."""
    held = np.logical_or.reduce([rows.any(axis=0) for rows, *_ in batch])
    return sum(len(rows) for rows, *_ in batch) * int(held.sum())


def _select_batch(ctx: AffectanceContext, batch) -> list:
    """Per policy of ``round_trials``' batch, its program and the final
    selection of each of its samples, all in one ``final_selection_batch``."""
    sel = np.concatenate([rows for rows, *_ in batch])
    bounds = [policy.extraction_bound for rows, policy, _ in batch for _ in rows]
    selections = iter(final_selection_batch(ctx, sel, bounds, batch[0][1].problem.objective))
    return [(lp, list(islice(selections, len(rows)))) for rows, _, lp in batch]


def run_sweep(ctx: AffectanceContext, policies: Sequence[RoundingPolicy]) -> list:
    """``run_pipeline`` of each policy, in order, as one ``round_trials``
    sweep; returns one schedule per policy, and raises AssertionError
    when a schedule's ``certify`` verdict (``Schedule.verified``) fails."""
    problem = policies[0].problem if policies else None
    if problem is not None and problem.primaries:
        raise ValueError("admission pipelines are driven by the admission module")
    schedules = []
    for _, selections in round_trials(ctx, policies):
        schedule = certify(ctx, ctx.ids[best_part(ctx, selections, problem.objective)])
        if not schedule.verified:
            raise AssertionError("pipeline produced an infeasible schedule")
        schedules.append(schedule)
    return schedules


def run_pipeline(ctx: AffectanceContext, policy: RoundingPolicy) -> Schedule:
    """Build ``policy.mode``'s program at ``policy.C`` and solve it, round
    ``policy.trials`` independent samples, extract and strengthen them all
    at once, and return the best resulting feasible set: the one-policy
    case of ``run_sweep``."""
    return run_sweep(ctx, [policy])[0]
