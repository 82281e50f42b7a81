"""LP relaxations over an affectance context.

Each builder returns a program whose variables follow the context's id
order (``ctx.ids``).  Coefficients are clipped affectances, so every
entry lies in [0, 1].

Each builder also attaches the second rounding stage's data: per row, the
variable whose survival the row decides (or -1 for the whole sample) and
the row's load limit, a slack multiple of its bound.  A stage-one sample
keeps a link only while every row it owns stays within its limit; each
builder's docstring states its limits.  The large-optimum primary rows
have no limit, since that pipeline checks the unclipped primary loads
itself.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .affectance import AffectanceContext
from .lp_core import LinearProgram

logger = logging.getLogger(__name__)

DEFAULT_C = 1.0

# Per-pair affectance cap on secondaries kept by the large-optimum
# admission prefilter; the coefficient of the 1/sqrt(log k) rule.
FILTER_COEFF = 10.0


def _warn_unless(cond: bool, message: str):
    if not cond:
        logger.warning(message)


def build_capacity_lp(ctx: AffectanceContext, C: float = DEFAULT_C) -> LinearProgram:
    """Maximize the number of links, bounding per link both the affectance
    received from and sent to no-shorter links by C (2n rows).  Stage-two
    limit: 3C on both rows of a link."""
    pc = ctx.power_class()
    _warn_unless(pc["non_decreasing"] and pc["sub_linear"],
                 "capacity LP expects a non-decreasing sub-linear power assignment")
    if not C > 0:
        raise ValueError("C must be positive")
    n = ctx.n
    keep = ctx.length_ge_mask().T  # keep[u, v]: l_v >= l_u, v != u
    rows = np.empty((2 * n, n))   # filled in place, without n x n float temporaries
    np.minimum(ctx.raw.T, 1.0, out=rows[:n])  # row u, coefficient at v: a_v(u)
    np.minimum(ctx.raw, 1.0, out=rows[n:])    # row u, coefficient at v: a_u(v)
    rows[:n] *= keep
    rows[n:] *= keep
    names = tuple(f"in_{int(u)}" for u in ctx.ids) + tuple(f"out_{int(u)}" for u in ctx.ids)
    return LinearProgram(
        objective=np.ones(n),
        row_coeffs=rows,
        row_bounds=np.full(2 * n, C),
        row_names=names,
        row_var=np.tile(np.arange(n), 2),
        row_limit=np.full(2 * n, 3.0 * C),
    )


def build_qos_lp(ctx: AffectanceContext, C: float = DEFAULT_C) -> LinearProgram:
    """Variant honoring per-link thresholds and noise: one row per link
    bounding the affectance it sends to all others by C.  Stage-two limit:
    3C."""
    _warn_unless(ctx.nearly_uniform(),
                 "QoS LP guarantee assumes (nearly) uniform power")
    if not C > 0:
        raise ValueError("C must be positive")
    n = ctx.n
    rows = ctx.aff  # row u, coeff at v: a_u(v)
    return LinearProgram(
        objective=np.ones(n),
        row_coeffs=rows,
        row_bounds=np.full(n, C),
        row_names=tuple(f"out_{int(u)}" for u in ctx.ids),
        row_var=np.arange(n),
        row_limit=np.full(n, 3.0 * C),
    )


def build_admission_lp(ctx: AffectanceContext, C: float = DEFAULT_C) -> LinearProgram:
    """Admission relaxation treating primary interference as noise.

    One aggregate row caps the total hat-affectance on the primaries at
    |P|, plus per-link rows as in the QoS program (hat values throughout).
    With no primaries the aggregate row is vacuous and omitted.
    Stage-two limits: 4C on a link row; 5|P| on the aggregate row, whose
    violation discards the whole sample.
    """
    if not ctx.has_primaries:
        raise ValueError("admission LP requires a context with primaries attached")
    _warn_unless(ctx.nearly_uniform(),
                 "admission guarantee assumes (nearly) uniform secondary power")
    if not C > 0:
        raise ValueError("C must be positive")
    n = ctx.n
    rows = [ctx.aff]
    bounds = [np.full(n, C)]
    names = [f"out_{int(u)}" for u in ctx.ids]
    var = [np.arange(n)]
    limits = [np.full(n, 4.0 * C)]
    if ctx.k and n:  # with no variables the aggregate row constrains nothing
        rows.insert(0, ctx.aff_to_prim.sum(axis=1).reshape(1, -1))
        bounds.insert(0, np.array([float(ctx.k)]))
        names.insert(0, "primaries_total")
        var.insert(0, np.array([-1]))
        limits.insert(0, np.array([5.0 * ctx.k]))
    return LinearProgram(
        objective=np.ones(n),
        row_coeffs=np.vstack(rows),
        row_bounds=np.concatenate(bounds),
        row_names=tuple(names),
        row_var=np.concatenate(var),
        row_limit=np.concatenate(limits),
    )


def admission_filter_threshold(k: int) -> float:
    """Per-pair affectance cap 1/(10 sqrt(ln k)); 1/10 when k < 2."""
    if k < 2:
        return 1.0 / FILTER_COEFF
    return 1.0 / (FILTER_COEFF * math.sqrt(math.log(k)))


def build_admission_large_lp(ctx: AffectanceContext, C: float = DEFAULT_C):
    """Admission relaxation for large optima.

    Secondaries whose (plain) affectance on some primary exceeds
    1/(10 sqrt(log k)) are filtered out; the program then caps each
    primary's received hat-affectance at 1/3 and keeps the per-link rows.
    Returns (kept_ids, program); variables follow kept_ids order.
    Stage-two limits: 4C on a link row, none on a primary row.
    """
    if not ctx.has_primaries or ctx.k == 0:
        raise ValueError("large-optimum admission requires at least one primary")
    _warn_unless(ctx.nearly_uniform(),
                 "admission guarantee assumes (nearly) uniform secondary power")
    if not C > 0:
        raise ValueError("C must be positive")
    if ctx.k == 1:
        logger.warning("single primary: filter threshold falls back to 1/10; "
                       "the general admission pipeline is the intended route")
    thr = admission_filter_threshold(ctx.k)
    keep = np.all(ctx.aff_to_prim_plain <= thr, axis=1)
    kept_ids = tuple(int(i) for i in ctx.ids[keep])
    idx = np.flatnonzero(keep)
    m = idx.size
    prim_rows = np.minimum(ctx.raw_to_prim[idx, :], 1.0).T
    link_rows = np.minimum(ctx.raw[np.ix_(idx, idx)], 1.0)
    names = tuple(f"prim_{int(w)}" for w in ctx.prim_ids) \
        + tuple(f"out_{i}" for i in kept_ids)
    lp = LinearProgram(
        objective=np.ones(m),
        row_coeffs=np.vstack([prim_rows, link_rows]),
        row_bounds=np.concatenate([np.full(ctx.k, 1.0 / 3.0), np.full(m, C)]),
        row_names=names,
        row_var=np.concatenate([np.full(ctx.k, -1), np.arange(m)]),
        row_limit=np.concatenate([np.full(ctx.k, np.inf), np.full(m, 4.0 * C)]),
    )
    return kept_ids, lp


def build_weighted_lp(ctx: AffectanceContext, C: float = DEFAULT_C) -> LinearProgram:
    """Maximize total weight; one row per link bounding its received
    affectance from all links by C.  Stage-two limit: 4C."""
    ratios = ctx.powers / ctx.lengths ** ctx.instance.alpha if ctx.n else np.zeros(0)
    _warn_unless(ctx.n <= 1 or bool(np.allclose(ratios, ratios[0])),
                 "weighted-capacity guarantee assumes linear power")
    if not C > 0:
        raise ValueError("C must be positive")
    n = ctx.n
    rows = np.minimum(ctx.raw.T, 1.0, out=np.empty((n, n)))  # row u, coeff at v: a_v(u)
    return LinearProgram(
        objective=ctx.weights.copy(),
        row_coeffs=rows,
        row_bounds=np.full(n, C),
        row_names=tuple(f"in_{int(u)}" for u in ctx.ids),
        row_var=np.arange(n),
        row_limit=np.full(n, 4.0 * C),
    )
