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

The context computes each receiver's SINR terms once, in a table with one
row per receiver, primaries first, and holds one n x n matrix, the unclipped
affectance; values are clipped where they are read.

The library's only feasibility tests judge a boolean selection matrix, one
candidate set per row: ``_feasible_exact``, the SINR inequality over
``_exact_budgets`` (interference recomputed from geometry, the other terms
read from the table), and ``_feasible_affectance``, affectance sums within
gamma, terms clipped at 1 only when gamma > 1.  ``verify``, the one verdict
on a returned set, applies both at threshold 1, the exact one at the
primaries too, and reads the exact one from the set's ``certify`` schedule.

Link ids given to a context are read in one place, ``index_of``, which
turns them into context positions under ``model.link_id``'s rule and
refuses any other id; below it everything works on positions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .model import Instance, PowerAssignment, PrimarySet, link_id, link_ids

logger = logging.getLogger(__name__)

# Finite stand-in for an unclipped value past the float range (zero or
# nearly zero cross distance), so that subset sums stay NaN-free.
RAW_CAP = 1e300

# Columns of ``AffectanceContext.table``, one row per receiver.
POWER, SIGNAL, BETA, NOISE, HAT_NOISE, BUDGET = range(6)

# Rows of the affectance matrix computed at a time; bounds the
# construction temporaries at O(ROW_BLOCK * n).
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
    exact_sinr_ok: bool

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
    noise.  A primary's beta and noise are the instance's.  ``powers`` (a
    view of the table), ``lengths`` and ``weights`` are the secondaries'.

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
        lengths = np.array([instance.length_of(i) for i in receivers])
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
        from_prim = _interference(t[:k, POWER], instance.sr_matrix(self.prim_ids, receivers),
                                  alpha)
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
        self.ids = np.array(receivers, dtype=int)[keep][k:]
        self._pos = {int(i): p for p, i in enumerate(self.ids)}
        self.lengths = lengths[keep][k:]
        self.powers = self.table[k:, POWER]
        self.weights = np.array([instance.link(int(i)).weight for i in self.ids])

        n = len(self.ids)
        ids_list = [int(i) for i in self.ids]
        self.raw = np.empty((n, n))
        for r0 in range(0, n, ROW_BLOCK):
            r1 = min(r0 + ROW_BLOCK, n)
            _interference(self.powers[r0:r1], instance.sr_matrix(ids_list[r0:r1], ids_list),
                          alpha, self.table[k:, BUDGET], out=self.raw[r0:r1])
        np.fill_diagonal(self.raw, 0.0)

        to_prim = instance.sr_matrix(ids_list, self.prim_ids)
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
    pos = np.arange(ctx.n) if pos is None else pos
    terms = ctx.table[np.r_[:ctx.k, ctx.k + pos]]
    links = ctx.prim_ids + ctx.ids[pos].tolist()
    interf = _interference(terms[:, POWER], ctx.instance.sr_matrix(links, links),
                           ctx.instance.alpha)
    np.fill_diagonal(interf, 0.0)
    return interf[ctx.k:], _budgets(terms, interf[:ctx.k])[1]


def _feasible_exact(sel: np.ndarray, rows: np.ndarray, budget: np.ndarray,
                    k: int) -> np.ndarray:
    """Exact SINR feasibility of every selected member and every primary,
    the primaries transmitting too (``rows``, ``budget``: ``_exact_budgets``)."""
    loads = sel.astype(float) @ rows
    return (((loads[:, k:] <= budget[k:]) | ~sel).all(axis=1)
            & (loads[:, :k] <= budget[:k]).all(axis=1))


def _feasible_affectance(mat: np.ndarray, sel: np.ndarray, gamma: float,
                         anti: bool = False) -> np.ndarray:
    """Every selected member receives affectance at most gamma in ``mat``;
    with ``anti`` it also sends at most gamma.  Terms are clipped at 1 only
    when gamma > 1: at or below 1 a saturated term understates its true
    interference, so it must count as a violation."""
    if gamma > 1.0:
        mat = np.minimum(mat, 1.0)
    f = sel.astype(float)
    ok = ((f @ mat <= gamma) | ~sel).all(axis=1)
    if anti:
        ok &= ((f @ mat.T <= gamma) | ~sel).all(axis=1)
    return ok


def check_positions(ctx: AffectanceContext, idx: np.ndarray) -> bool:
    """Unclipped affectance sums within 1 at every member of the links at
    context positions ``idx``: strengthening's per-part check."""
    return bool(_feasible_affectance(ctx.raw[idx[:, None], idx], np.ones((1, idx.size), bool),
                                     1.0)[0])


def verify(ctx: AffectanceContext, S) -> bool:
    """The verdict on a returned set: every member's unclipped (hat)
    affectance sum is at most 1, and the exact SINR inequality holds at
    every member and every primary, the primaries transmitting.  ``S`` is
    the set's link ids or its ``certify`` schedule, whose exact flag is
    read rather than recomputed."""
    schedule = S if isinstance(S, Schedule) else certify(ctx, S)
    return schedule.exact_sinr_ok and check_positions(ctx, ctx.index_of(schedule.ids))


def separation_check(ctx: AffectanceContext, S, q: float) -> bool:
    """d_uv * d_vu >= q**2 * l_u * l_v for every pair in S."""
    idx = ctx.index_of(S)
    if idx.size <= 1:
        return True
    ids = ctx.ids[idx].tolist()
    d = ctx.instance.sr_matrix(ids, ids)
    lengths = ctx.lengths[idx]
    lhs = d * d.T
    rhs = q * q * np.outer(lengths, lengths)
    off = ~np.eye(idx.size, dtype=bool)
    return bool(np.all(lhs[off] >= rhs[off]))


def certify(ctx: AffectanceContext, S) -> Schedule:
    """Build a schedule with per-link affectance sums and an exact-SINR flag,
    true when the inequality holds at every member and every primary.  A
    repeated id is a ValueError, as is an id ``index_of`` refuses."""
    pos = np.sort(ctx.index_of(S))
    repeated = pos[1:][pos[1:] == pos[:-1]]
    if repeated.size:
        raise ValueError(f"link id {ctx.ids[repeated[0]]} is repeated")
    sub = np.minimum(ctx.raw[np.ix_(pos, pos)], 1.0)
    rows, budget = _exact_budgets(ctx, pos)
    return Schedule(
        ids=tuple(ctx.ids[pos].tolist()),
        in_affectance=tuple(float(x) for x in sub.sum(axis=0)),
        out_affectance=tuple(float(x) for x in sub.sum(axis=1)),
        exact_sinr_ok=bool(_feasible_exact(np.ones((1, pos.size), bool), rows, budget,
                                           ctx.k)[0]),
    )
