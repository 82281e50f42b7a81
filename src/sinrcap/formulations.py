"""LP relaxations over an affectance context.

Each builder returns a program whose variables are the links
``program.ids``, in the context's id order: every link of the context,
or the links the large-optimum prefilter keeps.  Coefficients are
clipped affectances, so every entry lies in [0, 1], except on the
admission program's aggregate row, whose coefficients are sums of
clipped affectances.

Each builder also attaches the second rounding stage's data: per row, the
variable whose survival the row decides (or -1 for the whole sample) and
the row's load limit, a slack multiple of its bound.  A stage-one sample
keeps a link only while every row it owns stays within its limit; each
builder's docstring states its limits.  The large-optimum primary rows
have no limit, since that pipeline checks the unclipped primary loads
itself.

All programs share one row template.  A row block is (fill, names, var,
bound, limit, scaled): ``fill`` writes the block's coefficients, which
never depend on C, into the rows it is handed; a scaled block's bound and
limit are multiples of C.  ``_link_rows`` is the per-link block of every
builder, and ``_program`` writes a builder's blocks, in order, into one
row matrix.  ``PROBLEMS`` states each program once, keyed by its mode.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .affectance import SIGNAL, AffectanceContext
from .lp_core import LinearProgram, block_bounds

logger = logging.getLogger(__name__)

DEFAULT_C = 1.0
OBJECTIVES = ("cardinality", "weight")  # what a set is worth: its links, or their weights

# Per-pair affectance cap on secondaries kept by the large-optimum
# admission prefilter; the coefficient of the 1/sqrt(log k) rule.
FILTER_COEFF = 10.0


def _link_rows(ctx: AffectanceContext, direction: str, slack: float,
               idx=None, keep=None) -> tuple:
    """One row per link of ``idx`` (every link when None), over the same
    links: the clipped affectance the link sends ("out": row u holds a_u(v)
    at v) or receives ("in": a_v(u)), times the 0/1 ``keep`` when given.
    Bound C, stage-two limit slack * C."""
    ids = ctx.ids if idx is None else ctx.ids[idx]

    def fill(out):
        raw = ctx.raw if idx is None else ctx.raw[np.ix_(idx, idx)]
        np.minimum(raw if direction == "out" else raw.T, 1.0, out=out)
        if keep is not None:
            out *= keep

    return fill, [f"{direction}_{int(u)}" for u in ids], np.arange(ids.size), 1.0, slack, True


def _program(ids: np.ndarray, C: float, *blocks, objective=None) -> LinearProgram:
    """Maximize ``objective`` (default: the count of links) over the links
    ``ids``, an array the program keeps, subject to the row blocks at
    constant C, each written in order into one preallocated row matrix."""
    objective = np.ones(ids.size) if objective is None else objective
    sizes = [len(b[1]) for b in blocks]
    scaling = tuple((size, *b[3:]) for size, b in zip(sizes, blocks))
    bounds, limits = block_bounds(scaling, C)
    rows = np.empty((sum(sizes), objective.size))
    for (fill, *_), start, size in zip(blocks, np.cumsum([0] + sizes), sizes):
        fill(rows[start:start + size])
    return LinearProgram(
        objective=objective,
        row_coeffs=rows,
        row_bounds=bounds,
        row_names=tuple(itertools.chain.from_iterable(b[1] for b in blocks)),
        row_var=np.concatenate([b[2] for b in blocks]),
        row_limit=limits,
        row_blocks=scaling,
        ids=ids,
    )


def build_capacity_lp(ctx: AffectanceContext, C: float = DEFAULT_C) -> LinearProgram:
    """Maximize the number of links, bounding per link both the affectance
    received from and sent to no-shorter links by C (2n rows).  Stage-two
    limit: 3C on both rows of a link."""
    keep = ctx.length_ge_mask().T  # keep[u, v]: l_v >= l_u, v != u
    return _program(ctx.ids.copy(), C, _link_rows(ctx, "in", 3.0, keep=keep),
                    _link_rows(ctx, "out", 3.0, keep=keep))


def build_qos_lp(ctx: AffectanceContext, C: float = DEFAULT_C) -> LinearProgram:
    """Variant honoring per-link thresholds and noise: one row per link
    bounding the affectance it sends to all others by C.  Stage-two limit:
    3C."""
    return _program(ctx.ids.copy(), C, _link_rows(ctx, "out", 3.0))


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
    links = _link_rows(ctx, "out", 4.0)
    if not (ctx.k and ctx.n):  # with no variables the aggregate row constrains nothing
        return _program(ctx.ids.copy(), C, links)
    total = (lambda out: np.minimum(ctx.raw_to_prim, 1.0).sum(axis=1, out=out[0]),
             ["primaries_total"], np.array([-1]), ctx.k, 5.0 * ctx.k, False)  # sums, not clipped
    return _program(ctx.ids.copy(), C, total, links)


def admission_filter_threshold(k: int) -> float:
    """Per-pair affectance cap 1/(10 sqrt(ln k)); 1/10 when k < 2."""
    if k < 2:
        return 1.0 / FILTER_COEFF
    return 1.0 / (FILTER_COEFF * math.sqrt(math.log(k)))


def build_admission_large_lp(ctx: AffectanceContext, C: float = DEFAULT_C) -> LinearProgram:
    """Admission relaxation for large optima.

    Secondaries whose (plain) affectance on some primary exceeds
    1/(10 sqrt(log k)) are filtered out; the program then caps each
    primary's received hat-affectance at 1/3 and keeps the per-link rows;
    the program's ``ids`` are the kept links.
    Stage-two limits: 4C on a link row, none on a primary row.
    """
    if not ctx.has_primaries or ctx.k == 0:
        raise ValueError("large-optimum admission requires at least one primary")
    thr = admission_filter_threshold(ctx.k)
    idx = np.flatnonzero(np.all(ctx.aff_to_prim_plain <= thr, axis=1))
    links = _link_rows(ctx, "out", 4.0, idx=idx)
    if ctx.k == 1:
        logger.warning("single primary: filter threshold falls back to 1/10; "
                       "the general admission pipeline is the intended route")
    prims = (lambda out: np.minimum(ctx.raw_to_prim[idx].T, 1.0, out=out),
             [f"prim_{int(w)}" for w in ctx.prim_ids], np.full(ctx.k, -1), 1 / 3, np.inf, False)
    return _program(ctx.ids[idx], C, prims, links)


def build_weighted_lp(ctx: AffectanceContext, C: float = DEFAULT_C) -> LinearProgram:
    """Maximize total weight; one row per link bounding its received
    affectance from all links by C.  Stage-two limit: 4C."""
    return _program(ctx.ids.copy(), C, _link_rows(ctx, "in", 4.0),
                    objective=ctx.weights.copy())


def _nearly_uniform(ctx: AffectanceContext) -> bool:
    """Every power within a factor of 2 of every other."""
    return ctx.n <= 1 or float(ctx.powers.max()) <= 2.0 * float(ctx.powers.min())


def _linear(ctx: AffectanceContext) -> bool:
    ratios = ctx.table[ctx.k:, SIGNAL]
    return ctx.n <= 1 or bool(np.allclose(ratios, ratios[0]))


@dataclass(frozen=True)
class Problem:
    """A program of the paper's problem ``name``: the name of its builder
    here, its objective (one of ``OBJECTIVES``), and the power
    precondition of its guarantee, if any, logged as ``warning`` once per
    build when broken.  Capacity states none: its guarantee holds for every
    ``PowerAssignment``, non-decreasing and sub-linear by construction."""
    name: str
    builder: str
    objective: str
    power: Optional[Callable] = None
    warning: str = ""

    @property
    def primaries(self) -> bool:  # admits secondaries beside the context's primaries
        return self.name == "admission"

    def build(self, ctx: AffectanceContext, C: float = DEFAULT_C) -> LinearProgram:
        if self.power is not None and not self.power(ctx):
            logger.warning(self.warning)
        return globals()[self.builder](ctx, C)  # looked up now, so a patched builder is used


_ADMISSION = "admission guarantee assumes (nearly) uniform secondary power"
PROBLEMS = {
    "capacity": Problem("capacity", "build_capacity_lp", "cardinality"),
    "qos": Problem("qos", "build_qos_lp", "cardinality", _nearly_uniform,
                   "QoS LP guarantee assumes (nearly) uniform power"),
    "weighted": Problem("weighted", "build_weighted_lp", "weight", _linear,
                        "weighted-capacity guarantee assumes linear power"),
    "admission_general": Problem("admission", "build_admission_lp", "cardinality",
                                 _nearly_uniform, _ADMISSION),
    "admission_large": Problem("admission", "build_admission_large_lp", "cardinality",
                               _nearly_uniform, _ADMISSION),
}
