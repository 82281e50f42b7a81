"""Affectance kernel and feasibility predicates.

The affectance of link w on link v is w's interference at v's receiver
over v's SINR budget, clipped at 1:

    a_w(v) = min(1, I_wv / B_v)
    I_wv   = P_w / d_wv ** alpha
    B_v    = P_v / (beta_v * l_v ** alpha) - N_v

This equals the paper's c_v * (P_w / P_v) * (l_v / d_wv) ** alpha with
c_v = beta_v / (1 - beta_v * N_v * l_v ** alpha / P_v) = P_v / l_v ** alpha / B_v,
and a link meets its threshold alone exactly when B_v > 0.  When a set of
primary links is attached, every noise term adds the interference received
from the primaries, and the same rule yields the "hat" affectance used by
admission control.

The context computes each receiver's SINR terms once, from the link lengths
the instance holds (``Instance.lengths``), in a table with one row per
receiver, primaries first, and holds one n x n matrix, the unclipped
affectance; values are clipped where they are read.  Distances are read
by each table row's instance position, which the context also holds.

Every feasibility judgment is one kernel, ``_within``, on a condition
``(loads, limit, k)``: a set, one row of a boolean selection matrix, meets
it when its summed ``loads`` rows are within ``limit`` at its members and
at the first ``k`` columns, the primaries.  ``_verdict`` is the verdict on
a set as two conditions: the exact SINR inequality (``_exact_budgets``'
rows and budgets, with ``ctx.k``) and unclipped (hat) affectance sums
within 1.  ``certify`` judges each returned set by both once and stores the
result in its ``Schedule``; the exact oracles accept the sets it passes.

Link ids given to a context are read in one place, ``index_of``, which
turns them into context positions under ``model.link_id``'s rule and
refuses any other id; a set of ids is read by ``set_positions``, which
also refuses a repeated one.  Below them everything works on positions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .model import Instance, PowerAssignment, PrimarySet, link_id, link_ids, require_positive

logger = logging.getLogger(__name__)

# Finite stand-in for an unclipped value past the float range (zero or
# nearly zero cross distance), so that subset sums stay NaN-free.
RAW_CAP = 1e300

# Columns of ``AffectanceContext.table``, one row per receiver.
POWER, SIGNAL, BETA, NOISE, HAT_NOISE, BUDGET = range(6)

# Rows of the affectance matrix the context build computes at a time; it
# bounds only the build's distance temporaries, at O(ROW_BLOCK * n).
ROW_BLOCK = 256


class IndividuallyInfeasible(Exception):
    """The link cannot meet its SINR threshold even transmitting alone."""

    def __init__(self, link_id):
        super().__init__(f"link {link_id} cannot satisfy its SINR threshold alone")
        self.link_id = link_id


class InfeasiblePrimaries(Exception):
    """The primary set cannot satisfy its own SINR requirements."""


@dataclass(frozen=True)
class Schedule:
    """A selected link set with its recomputable certificate."""

    ids: tuple
    in_affectance: tuple
    out_affectance: tuple
    exact_sinr_ok: bool  # the exact half of the verdict
    verified: bool       # the whole verdict, both halves

    @property
    def size(self) -> int:
        return len(self.ids)


def _interference(powers_from, dist, alpha, budget=1.0, out=None):
    """Power each sender delivers at each receiver, ``P_w / d_wv ** alpha``,
    over the receiver's ``budget``, into ``out`` if given; capped at
    ``RAW_CAP`` after dividing, so a zero or nearly zero distance, whose
    quotient passes the float range, reads ``RAW_CAP`` whatever the budget."""
    with np.errstate(divide="ignore", over="ignore"):
        out = np.divide(powers_from[:, None], dist ** alpha, out=out)
        out /= budget
    return np.minimum(out, RAW_CAP, out=out)


def _budgets(terms, from_prim):
    """Hat noise, noise plus ``from_prim`` (one row per primary), and budget,
    signal over beta minus the hat noise, of the receivers' ``terms`` rows."""
    hat = terms[:, NOISE] + from_prim.sum(axis=0)
    return hat, terms[:, SIGNAL] / terms[:, BETA] - hat


class AffectanceContext:
    """Each receiver's SINR terms and the affectances, computed once.

    ``table`` has one row per receiver, primaries first (the secondary at
    context position p is row ``k + p``), with columns ``POWER``,
    ``SIGNAL`` P/l**alpha, ``BETA``, ``NOISE``, ``HAT_NOISE`` (adding the
    primaries' interference) and ``BUDGET``, signal over beta minus the hat
    noise, each l read from the instance's ``lengths``.  A primary's beta
    and noise are the instance's.  ``instance_pos`` holds each row's
    instance position, by which distances are read; ``powers`` (a view of
    the table), ``lengths`` and ``weights`` are the secondaries'.

    ``raw[w, v]`` is w's unclipped affectance on v, its interference at v
    over v's budget (capped at ``RAW_CAP``, 0 on the diagonal); it is the
    only n x n array held.  Thresholds at or below 1 read it as is, larger
    ones clip the rows or blocks they read.  With primaries, n x k
    ``raw_to_prim`` holds each secondary's unclipped affectance on each
    primary, and ``aff_to_prim_plain`` the clipped one over the primary's
    plain budget, the other primaries silent.  Distances and interference
    are not stored.

    ``primaries`` is None, empty or the instance's own primary set.  A
    receiver whose signal over beta is not finite raises ``ValueError``, a
    primary whose budget is not positive ``InfeasiblePrimaries``.  A link
    whose budget is not positive cannot meet its SINR threshold alone; it
    is dropped with a warning and listed in ``removed_ids``.
    """

    def __init__(self, instance: Instance, assignment: PowerAssignment,
                 primaries: Optional[PrimarySet] = None):
        if primaries is not None and primaries.links and primaries != instance.primaries:
            raise ValueError("primaries must be None, empty or the instance's own")
        self.instance = instance
        self.assignment = assignment
        self.primaries = primaries
        alpha = instance.alpha

        prims = primaries if primaries is not None else PrimarySet(links=(), powers=())
        self.prim_ids = [lk.id for lk in prims.links]
        k = self.k = len(self.prim_ids)
        receivers = self.prim_ids + sorted(lk.id for lk in instance.links)
        at = instance.positions(receivers)
        lengths = instance.lengths[at]
        powers = np.asarray(assignment.power(lengths[k:], alpha), dtype=float)
        if not np.all(np.isfinite(powers) & (powers > 0)):
            raise ValueError("power assignment produced a nonpositive or non-finite power")

        # PrimarySet refuses a primary's own beta and noise: the instance's apply
        links = [instance.link(i) for i in receivers]
        t = np.empty((len(receivers), 6))
        t[:, POWER] = np.concatenate([prims.powers, powers])
        t[:, BETA] = [lk.beta_override or instance.beta for lk in links]
        t[:, NOISE] = [instance.noise if lk.noise_override is None else lk.noise_override
                       for lk in links]
        from_prim = _interference(t[:k, POWER], instance._distances(at[:k, None], at), alpha)
        np.fill_diagonal(from_prim, 0.0)
        with np.errstate(divide="ignore", over="ignore"):  # refused below when not finite
            t[:, SIGNAL] = t[:, POWER] / lengths ** alpha
            t[:, HAT_NOISE], t[:, BUDGET] = _budgets(t, from_prim)
        bad = [receivers[i] for i in np.flatnonzero(~np.isfinite(t[:, BUDGET]))]
        if bad:  # the hat noise is finite, so the signal over beta is not
            raise ValueError(f"link(s) {bad}: signal P/l**alpha is not finite over beta")
        keep = t[:, BUDGET] > 0
        if not keep[:k].all():
            bad = [self.prim_ids[i] for i in np.flatnonzero(~keep[:k])]
            raise InfeasiblePrimaries(f"primary link(s) {bad} cannot satisfy their own SINR")

        # drop links that are infeasible even alone
        self.removed_ids = tuple(receivers[i] for i in np.flatnonzero(~keep))
        if self.removed_ids:
            logger.warning("dropping %d individually infeasible link(s): %s",
                           len(self.removed_ids), list(self.removed_ids))
        # column-major, so each column, ``powers`` among them, is contiguous
        self.table = np.asfortranarray(t[keep])
        self.instance_pos = at[keep]
        self.ids = np.array(receivers, dtype=int)[keep][k:]
        self._pos = {int(i): p for p, i in enumerate(self.ids)}
        self.lengths = lengths[keep][k:]
        self.powers = self.table[k:, POWER]
        self.weights = np.array([lk.weight for lk in links[k:]])[keep[k:]]

        n = len(self.ids)
        sec = self.instance_pos[k:]
        self.raw = np.empty((n, n))
        for r0 in range(0, n, ROW_BLOCK):
            r1 = min(r0 + ROW_BLOCK, n)
            _interference(self.powers[r0:r1], instance._distances(sec[r0:r1, None], sec),
                          alpha, self.table[k:, BUDGET], out=self.raw[r0:r1])
        np.fill_diagonal(self.raw, 0.0)

        to_prim = instance._distances(sec[:, None], self.instance_pos[:k])
        prim = self.table[:k]
        self.raw_to_prim = _interference(self.powers, to_prim, alpha, prim[:, BUDGET])
        self.aff_to_prim_plain = np.minimum(_interference(
            self.powers, to_prim, alpha, prim[:, SIGNAL] / prim[:, BETA] - prim[:, NOISE]), 1.0)

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def has_primaries(self) -> bool:
        return self.primaries is not None

    def index_of(self, ids: Iterable[int]) -> np.ndarray:
        """Context positions of link ids: ValueError for an id that
        ``model.link_id`` refuses, IndividuallyInfeasible for a dropped
        link, KeyError for an unknown one."""
        try:
            return np.array([self._pos[i] for i in link_ids(ids).tolist()], dtype=int)
        except KeyError as exc:
            lid = exc.args[0]
            if lid in self.removed_ids:
                raise IndividuallyInfeasible(lid) from None
            raise KeyError(f"unknown link id {lid}") from None

    def length_ge_mask(self) -> np.ndarray:
        """mask[v, u] true iff l_v >= l_u and v != u (LP row membership)."""
        m = self.lengths[:, None] >= self.lengths[None, :]
        np.fill_diagonal(m, False)
        return m


# ---------------------------------------------------------------------------
# operations

def c_factor(ctx: AffectanceContext, v: int) -> float:
    """The paper's c_v, v's signal over its (hat) budget."""
    row = ctx.table[ctx.k + ctx.index_of([v])[0]]
    return float(row[SIGNAL] / row[BUDGET])


def affectance(ctx: AffectanceContext, w: int, v: int) -> float:
    """Clipped affectance of link w on link v (0 when w == v)."""
    p, q = ctx.index_of([w, v])
    return min(float(ctx.raw[p, q]), 1.0)


def hat_noise(ctx: AffectanceContext, u: int) -> float:
    """Noise at u's receiver augmented by all primary transmissions."""
    if not ctx.has_primaries:
        raise ValueError("hat noise requires a context with primaries attached")
    u = link_id(u)  # before the primaries' lookup, where True would read as 1
    row = ctx.prim_ids.index(u) if u in ctx.prim_ids else ctx.k + ctx.index_of([u])[0]
    return float(ctx.table[row, HAT_NOISE])


# ---------------------------------------------------------------------------
# feasibility predicates

def _exact_budgets(ctx: AffectanceContext, pos=None) -> tuple:
    """Interference rows of the secondaries at context positions ``pos``
    (all when None) and each receiver's budget, primaries first:
    ``rows[w, v]``, the power w delivers at v's receiver (capped at
    ``RAW_CAP``, 0 at its own), is recomputed from the geometry of these
    links, the primaries included; the other terms are their rows of
    ``ctx.table``.  v meets its SINR threshold when its load from the
    transmitting rows is at most its budget."""
    rows = np.r_[:ctx.k, ctx.k + (np.arange(ctx.n) if pos is None else pos)]
    terms, at = ctx.table[rows], ctx.instance_pos[rows]
    interf = _interference(terms[:, POWER], ctx.instance._distances(at[:, None], at),
                           ctx.instance.alpha)
    np.fill_diagonal(interf, 0.0)
    return interf[ctx.k:], _budgets(terms, interf[:ctx.k])[1]


def _within(sel: np.ndarray, loads: np.ndarray, limit, k: int = 0) -> np.ndarray:
    """The one feasibility kernel: per row of ``sel``, whether ``sel @ loads``
    is within ``limit`` (a scalar or one per column) at the first ``k``
    columns and at every selected member, member j at column ``k + j``."""
    fits = sel.astype(float) @ loads <= limit
    # fits >= sel: a selected member's column must fit, an unselected one need not
    if k:
        return fits[:, :k].all(axis=1) & (fits[:, k:] >= sel).all(axis=1)
    return (fits >= sel).all(axis=1)


def _verdict(ctx: AffectanceContext, pos=None) -> tuple:
    """The verdict on candidate sets of the context positions ``pos`` (all
    when None) as two conditions for ``_within``: the exact SINR inequality
    at every member and every primary, the primaries transmitting, and
    unclipped (hat) affectance sums within 1 at every member.  The two
    state one condition, but their float sums can round apart within an
    ulp of the threshold, so a set passes only when both hold."""
    rows, budget = _exact_budgets(ctx, pos)
    raw = ctx.raw if pos is None else ctx.raw[np.ix_(pos, pos)]
    return (rows, budget, ctx.k), (raw, 1.0, 0)


def check_positions(ctx: AffectanceContext, idx: np.ndarray) -> bool:
    """Unclipped affectance sums within 1 at every member of the links at
    context positions ``idx``: strengthening's per-part check."""
    return bool(_within(np.ones((1, idx.size), bool), ctx.raw[idx[:, None], idx], 1.0)[0])


def set_positions(ctx: AffectanceContext, S) -> np.ndarray:
    """``index_of`` of the link set S, sorted; a repeated id is a ValueError."""
    pos = np.sort(ctx.index_of(S))
    repeated = pos[1:][pos[1:] == pos[:-1]]
    if repeated.size:
        raise ValueError(f"link id {ctx.ids[repeated[0]]} is repeated")
    return pos


def separation_check(ctx: AffectanceContext, S, q: float) -> bool:
    """d_uv * d_vu >= q**2 * l_u * l_v for every pair of the set S."""
    require_positive("q", q)
    idx = set_positions(ctx, S)
    at = ctx.instance_pos[ctx.k + idx]
    d = ctx.instance._distances(at[:, None], at)
    lhs, rhs = d * d.T, q * q * np.outer(ctx.lengths[idx], ctx.lengths[idx])
    off = ~np.eye(idx.size, dtype=bool)
    return bool(np.all(lhs[off] >= rhs[off]))


def certify(ctx: AffectanceContext, S) -> Schedule:
    """Build a schedule with per-link affectance sums and its ``_verdict``:
    ``exact_sinr_ok`` the exact condition, ``verified`` both.  S is read by
    ``set_positions``."""
    pos = set_positions(ctx, S)
    conditions = _verdict(ctx, pos)
    exact, within = (bool(_within(np.ones((1, pos.size), bool), *c)[0]) for c in conditions)
    sub = np.minimum(conditions[1][0], 1.0)  # the affectance condition's raw block
    return Schedule(
        ids=tuple(ctx.ids[pos].tolist()),
        in_affectance=tuple(float(x) for x in sub.sum(axis=0)),
        out_affectance=tuple(float(x) for x in sub.sum(axis=1)),
        exact_sinr_ok=exact,
        verified=exact and within,
    )
