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

The context stores one n x n matrix, the unclipped affectance; values are
clipped where they are read.

The library's only feasibility tests judge a boolean selection matrix, one
candidate set per row: ``_feasible_exact``, the SINR inequality in budget
form over ``_exact_budgets`` (recomputed from geometry and powers), and
``_feasible_affectance``, affectance sums within gamma with terms clipped
at 1 only when gamma > 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .model import Instance, PowerAssignment, PrimarySet, validate_power_class

logger = logging.getLogger(__name__)

# Finite stand-in for an infinite unclipped value (zero cross distance),
# so that subset sums stay NaN-free.
RAW_CAP = 1e300

# Rows of the affectance matrix computed at a time; bounds the
# construction temporaries at O(ROW_BLOCK * n).
ROW_BLOCK = 256

FEASIBILITY_MODES = ("feasible", "anti_feasible", "bi_feasible", "exact_sinr")


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
    over the receiver's ``budget``; capped at ``RAW_CAP`` after dividing,
    so a zero distance reads ``RAW_CAP`` whatever the budget.  ``out``
    receives the result in place."""
    with np.errstate(divide="ignore"):
        out = np.divide(powers_from[:, None], dist ** alpha, out=out)
    out /= budget
    return np.minimum(out, RAW_CAP, out=out)


class AffectanceContext:
    """Immutable precomputation of powers, budgets and affectances.

    ``raw[w, v]`` is w's unclipped affectance on v, its interference at v
    over v's hat budget (capped at ``RAW_CAP``, 0 on the diagonal); it is
    the only n x n array held.  Thresholds at or below 1 read it as is,
    larger ones clip the rows or blocks they read.  With primaries, n x k
    ``raw_to_prim`` holds each secondary's unclipped affectance on each
    primary over the primary's hat budget, and ``aff_to_prim_plain`` the
    clipped one over its plain budget, the other primaries silent.
    Distances and interference are not stored.

    ``primaries`` is None, empty or the instance's own primary set.  A link
    whose hat budget is not positive cannot meet its SINR threshold alone;
    it is dropped with a warning and listed in ``removed_ids``.  A primary
    whose hat budget is not positive raises ``InfeasiblePrimaries``.
    """

    def __init__(self, instance: Instance, assignment: PowerAssignment,
                 primaries: Optional[PrimarySet] = None):
        if primaries is not None and primaries.links and primaries != instance.primaries:
            raise ValueError("primaries must be None, empty or the instance's own")
        self.instance = instance
        self.assignment = assignment
        self.primaries = primaries
        alpha = instance.alpha

        all_ids = sorted(lk.id for lk in instance.links)
        all_lengths = np.array([instance.length_of(i) for i in all_ids])
        all_powers = np.asarray(assignment.power(all_lengths, alpha), dtype=float)
        if not np.all(np.isfinite(all_powers) & (all_powers > 0)):
            raise ValueError("power assignment produced a nonpositive or non-finite power")

        # primaries: explicit powers, instance-global beta/noise
        prims = primaries if primaries is not None else PrimarySet(links=(), powers=())
        self.prim_ids = [lk.id for lk in prims.links]
        self.prim_powers = np.array(prims.powers, dtype=float)
        self.prim_lengths = np.array([instance.length_of(i) for i in self.prim_ids])
        k = self.k = len(self.prim_ids)

        # every receiver's budget, primaries first: signal over beta minus
        # noise, the hat noise adding the primaries' interference
        betas = np.array([instance.link(i).beta_override or instance.beta for i in all_ids])
        base_noise = np.array([
            instance.noise if instance.link(i).noise_override is None
            else instance.link(i).noise_override
            for i in all_ids
        ])
        from_prim = _interference(self.prim_powers,
                                  instance.sr_matrix(self.prim_ids, self.prim_ids + all_ids),
                                  alpha)
        np.fill_diagonal(from_prim, 0.0)
        noise = np.concatenate([np.full(k, instance.noise), base_noise])
        hat_noise = noise + from_prim.sum(axis=0)
        signal = np.concatenate([self.prim_powers, all_powers]) \
            / np.concatenate([self.prim_lengths, all_lengths]) ** alpha
        signal_over_beta = signal / np.concatenate([np.full(k, instance.beta), betas])
        budget = signal_over_beta - hat_noise
        if np.any(budget[:k] <= 0):
            bad = [self.prim_ids[i] for i in np.flatnonzero(budget[:k] <= 0)]
            raise InfeasiblePrimaries(f"primary link(s) {bad} cannot satisfy their own SINR")
        self.prim_hat_noise = hat_noise[:k]

        # drop links that are infeasible even alone
        keep = budget[k:] > 0
        self.removed_ids = tuple(i for i, k_ in zip(all_ids, keep) if not k_)
        if self.removed_ids:
            logger.warning("dropping %d individually infeasible link(s): %s",
                           len(self.removed_ids), list(self.removed_ids))

        self.ids = np.array([i for i, k_ in zip(all_ids, keep) if k_], dtype=int)
        self._pos = {int(i): p for p, i in enumerate(self.ids)}
        sel = np.flatnonzero(keep)
        self.lengths = all_lengths[sel]
        self.powers = all_powers[sel]
        self.betas = betas[sel]
        self.base_noise = base_noise[sel]
        self.hat_noise_sec = hat_noise[k:][sel]
        self.weights = np.array([instance.link(int(i)).weight for i in self.ids])
        sec_budget = budget[k:][sel]
        self.c = signal[k:][sel] / sec_budget

        n = len(self.ids)
        ids_list = [int(i) for i in self.ids]
        self.raw = np.empty((n, n))
        for r0 in range(0, n, ROW_BLOCK):
            r1 = min(r0 + ROW_BLOCK, n)
            _interference(self.powers[r0:r1], instance.sr_matrix(ids_list[r0:r1], ids_list),
                          alpha, sec_budget, out=self.raw[r0:r1])
        np.fill_diagonal(self.raw, 0.0)

        to_prim = instance.sr_matrix(ids_list, self.prim_ids)
        self.raw_to_prim = _interference(self.powers, to_prim, alpha, budget[:k])
        self.aff_to_prim_plain = np.minimum(
            _interference(self.powers, to_prim, alpha, signal_over_beta[:k] - noise[:k]), 1.0)

        self._power_class = None

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def has_primaries(self) -> bool:
        return self.primaries is not None

    def index_of(self, link_ids: Iterable[int]) -> np.ndarray:
        """Context positions of link ids; IndividuallyInfeasible for a
        dropped link, KeyError for an unknown one."""
        try:
            return np.array([self._pos[int(i)] for i in link_ids], dtype=int)
        except KeyError as exc:
            lid = exc.args[0]
            if lid in self.removed_ids:
                raise IndividuallyInfeasible(lid) from None
            raise KeyError(f"unknown link id {lid}") from None

    def power_class(self) -> dict:
        if self._power_class is None:
            self._power_class = validate_power_class(self.instance, self.assignment)
        return self._power_class

    def nearly_uniform(self, c1: float = 2.0) -> bool:
        if self.n <= 1:
            return True
        return float(self.powers.max()) <= c1 * float(self.powers.min())

    def length_ge_mask(self) -> np.ndarray:
        """mask[v, u] true iff l_v >= l_u and v != u (LP row membership)."""
        m = self.lengths[:, None] >= self.lengths[None, :]
        np.fill_diagonal(m, False)
        return m


# ---------------------------------------------------------------------------
# operations

def c_factor(ctx: AffectanceContext, v: int) -> float:
    return float(ctx.c[ctx.index_of([v])[0]])


def affectance(ctx: AffectanceContext, w: int, v: int) -> float:
    """Clipped affectance of link w on link v (0 when w == v)."""
    p, q = ctx.index_of([w, v])
    return min(float(ctx.raw[p, q]), 1.0)


def hat_noise(ctx: AffectanceContext, u: int) -> float:
    """Noise at u's receiver augmented by all primary transmissions."""
    if not ctx.has_primaries:
        raise ValueError("hat noise requires a context with primaries attached")
    if u in ctx.prim_ids:
        return float(ctx.prim_hat_noise[ctx.prim_ids.index(u)])
    return float(ctx.hat_noise_sec[ctx.index_of([u])[0]])


def aggregate_affectance(ctx: AffectanceContext, S, v: int, direction: str = "in") -> float:
    """Sum of pairwise affectances between v and the set S.

    direction "in" gives a_S(v), the total affectance on v from S;
    "out" gives a_v(S), the total affectance of v on S.
    """
    idx = ctx.index_of(S)
    p = ctx.index_of([v])[0]
    if direction == "in":
        return float(np.minimum(ctx.raw[idx, p], 1.0).sum())
    if direction == "out":
        return float(np.minimum(ctx.raw[p, idx], 1.0).sum())
    raise ValueError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# feasibility predicates

def _exact_budgets(ctx: AffectanceContext, ids=None) -> tuple:
    """Interference rows of the secondaries ``ids`` (all when None) and each
    receiver's budget, primaries first, from the geometry and powers of these
    links only.  ``rows[w, v]`` is the power w delivers at v's receiver
    (capped at ``RAW_CAP``, 0 at its own); v meets its SINR threshold when
    its load from the transmitting rows is at most ``signal / beta - noise -
    primary interference``, its budget."""
    ids = [int(i) for i in (ctx.ids if ids is None else ids)]
    idx = ctx.index_of(ids)
    inst = ctx.instance
    links = ctx.prim_ids + ids
    powers = np.concatenate([ctx.prim_powers, ctx.powers[idx]])
    lengths = np.concatenate([ctx.prim_lengths, ctx.lengths[idx]])
    interf = _interference(powers, inst.sr_matrix(links, links), inst.alpha)
    np.fill_diagonal(interf, 0.0)
    betas = np.concatenate([np.full(ctx.k, inst.beta), ctx.betas[idx]])
    noise = np.concatenate([np.full(ctx.k, inst.noise), ctx.base_noise[idx]])
    signal = powers / lengths ** inst.alpha
    return interf[ctx.k:], signal / betas - (noise + interf[:ctx.k].sum(axis=0))


def _feasible_exact(sel: np.ndarray, rows: np.ndarray, budget: np.ndarray, k: int,
                    primaries: bool = False) -> np.ndarray:
    """Exact SINR feasibility of every selected member, the primaries
    transmitting too (``rows``, ``budget``: ``_exact_budgets``); with
    ``primaries`` also at every primary."""
    loads = sel.astype(float) @ rows
    ok = ((loads[:, k:] <= budget[k:]) | ~sel).all(axis=1)
    if primaries:
        ok &= (loads[:, :k] <= budget[:k]).all(axis=1)
    return ok


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


def check_feasibility(ctx: AffectanceContext, S, gamma: float = 1.0,
                      mode: str = "feasible") -> bool:
    """Feasibility predicates over a link set.

    feasible: a_S(v) <= gamma for every member; anti_feasible: a_v(S) <=
    gamma; bi_feasible: both; exact_sinr: the SINR inequality holds at every
    member, the primaries transmitting too (gamma ignored).
    """
    if mode not in FEASIBILITY_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact_sinr":
        rows, budget = _exact_budgets(ctx, S)
        return bool(_feasible_exact(np.ones((1, len(rows)), bool), rows, budget, ctx.k)[0])
    return check_positions(ctx, ctx.index_of(S), gamma, mode)


def check_positions(ctx: AffectanceContext, idx: np.ndarray, gamma: float = 1.0,
                    mode: str = "feasible") -> bool:
    """``check_feasibility``'s affectance modes (not exact_sinr) on the
    links at context positions ``idx``."""
    raw = ctx.raw.T if mode == "anti_feasible" else ctx.raw
    return bool(_feasible_affectance(raw[idx[:, None], idx], np.ones((1, idx.size), bool),
                                     gamma, mode == "bi_feasible")[0])


def separation_check(ctx: AffectanceContext, S, q: float) -> bool:
    """d_uv * d_vu >= q**2 * l_u * l_v for every pair in S."""
    ids = [int(i) for i in S]
    idx = ctx.index_of(ids)
    if idx.size <= 1:
        return True
    d = ctx.instance.sr_matrix(ids, ids)
    lengths = ctx.lengths[idx]
    lhs = d * d.T
    rhs = q * q * np.outer(lengths, lengths)
    off = ~np.eye(idx.size, dtype=bool)
    return bool(np.all(lhs[off] >= rhs[off]))


def certify(ctx: AffectanceContext, S) -> Schedule:
    """Build a schedule with per-link affectance sums and an exact-SINR flag."""
    ids = tuple(sorted(int(i) for i in S))
    idx = ctx.index_of(ids)
    sub = np.minimum(ctx.raw[np.ix_(idx, idx)], 1.0)
    return Schedule(
        ids=ids,
        in_affectance=tuple(float(x) for x in sub.sum(axis=0)),
        out_affectance=tuple(float(x) for x in sub.sum(axis=1)),
        exact_sinr_ok=check_feasibility(ctx, ids, mode="exact_sinr"),
    )
