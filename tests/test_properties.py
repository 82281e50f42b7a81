"""Structural property checks: affectance bounds around feasible sets,
separation of strongly feasible sets, and randomized-geometry invariants.

The bound constants below are ceilings calibrated once over the exact
seeded corpus used here (observed maxima: in 5.52, out 4.00, linear 3.76,
uniform-anti 2.61) with headroom; the checks guard against regressions
that would break the bounded-spillover structure the LP rows rely on.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrcap import (AffectanceContext, Instance, PowerAssignment,
                     build_capacity_lp, build_qos_lp, exact_admission, solve_lp)
from sinrcap.formulations import admission_filter_threshold

from conftest import feasible_prim_ctx, line_links, make_link, random_ctx

# frozen suite-wide ceilings (see module docstring)
K_IN_SHORTEST = 8.0
K_OUT_SHORTEST = 6.0
K_IN_LINEAR_ANY = 6.0
K_OUT_UNIFORM_ANY = 4.0

POWERS = {
    "uniform": PowerAssignment.uniform(),
    "mean": PowerAssignment.mean(),
    "linear": PowerAssignment.linear(),
    "exp07": PowerAssignment.exponent(0.7),
}


def _subset_tables(ctx):
    n = ctx.n
    bits = 1 << np.arange(n, dtype=np.int64)
    masks = np.arange(1, 1 << n, dtype=np.int64)
    sel = (masks[:, None] & bits[None, :]) != 0
    aff = np.minimum(ctx.raw, 1.0)
    in_loads = sel @ aff       # [m, v]: affectance received by v from the set
    out_loads = sel @ aff.T    # [m, v]: affectance sent by v to the set
    minlen = np.where(sel, ctx.lengths[None, :], np.inf).min(axis=1)
    return sel, in_loads, out_loads, minlen


def _corpus():
    for seed in range(25):
        for name, pa in POWERS.items():
            yield name, random_ctx(seed, n=8, R=4.0, delta=3.0, power=pa)


def test_bounded_spillover_around_feasible_sets():
    worst_in = worst_out = 0.0
    for name, ctx in _corpus():
        sel, in_loads, out_loads, minlen = _subset_tables(ctx)
        short_outside = ~sel & (ctx.lengths[None, :] <= minlen[:, None])
        for gamma in (0.5, 1.0):
            feas = np.all((in_loads <= gamma) | ~sel, axis=1)
            anti = np.all((out_loads <= gamma) | ~sel, axis=1)
            if feas.any():
                vals = np.where(short_outside[feas], in_loads[feas], 0.0)
                worst_in = max(worst_in, float(vals.max()) / gamma)
            if anti.any():
                vals = np.where(short_outside[anti], out_loads[anti], 0.0)
                worst_out = max(worst_out, float(vals.max()) / gamma)
    assert 0.0 < worst_in <= K_IN_SHORTEST
    assert 0.0 < worst_out <= K_OUT_SHORTEST


def test_bounded_spillover_linear_power_any_link():
    worst = 0.0
    for seed in range(25):
        ctx = random_ctx(seed, n=8, R=4.0, delta=3.0, power=POWERS["linear"])
        sel, in_loads, _, _ = _subset_tables(ctx)
        feas = np.all((in_loads <= 1.0) | ~sel, axis=1)
        if feas.any():
            vals = np.where(~sel[feas], in_loads[feas], 0.0)
            worst = max(worst, float(vals.max()))
    assert 0.0 < worst <= K_IN_LINEAR_ANY


def test_bounded_spillover_uniform_anti_any_link():
    worst = 0.0
    for seed in range(25):
        ctx = random_ctx(seed, n=8, R=4.0, delta=3.0, power=POWERS["uniform"])
        sel, _, out_loads, _ = _subset_tables(ctx)
        anti = np.all((out_loads <= 1.0) | ~sel, axis=1)
        if anti.any():
            vals = np.where(~sel[anti], out_loads[anti], 0.0)
            worst = max(worst, float(vals.max()))
    assert 0.0 < worst <= K_OUT_UNIFORM_ANY


def test_prefilter_misses_few_optimum_links():
    # links whose affectance on some primary exceeds the filter threshold
    # can make up at most 10 k sqrt(log k) members of any admissible optimum
    checked = 0
    for seed in range(8):
        ctx = feasible_prim_ctx(seed, n=9, R=5.0, delta=2.0, primaries=2)
        opt = exact_admission(ctx)
        thr = admission_filter_threshold(ctx.k)
        kept = set(int(i) for i, row in zip(ctx.ids, ctx.aff_to_prim_plain)
                   if np.all(row <= thr))
        outside = [i for i in opt.ids if i not in kept]
        assert len(outside) <= 10 * ctx.k * math.sqrt(math.log(ctx.k))
        checked += 1
    assert checked == 8


def test_lp_value_monotone_in_bound():
    for seed in range(5):
        ctx = random_ctx(seed + 300, n=10, R=3.0, delta=2.0)
        for build in (build_capacity_lp, build_qos_lp):
            lo = solve_lp(build(ctx, 0.5)).objective
            hi = solve_lp(build(ctx, 1.0)).objective
            assert hi >= lo - 1e-7


@given(dx=st.floats(min_value=1.2, max_value=50.0),
       dy=st.floats(min_value=0.0, max_value=50.0),
       alpha=st.floats(min_value=0.5, max_value=6.0))
@settings(max_examples=60, deadline=None)
def test_affectance_in_unit_interval(dx, dy, alpha):
    links = (make_link(0, 0.0, 0.0, 1.0, 0.0), make_link(1, dx, dy, dx + 1.0, dy))
    ctx = AffectanceContext(Instance(links=links, alpha=alpha), POWERS["uniform"])
    a = np.minimum(ctx.raw, 1.0)
    assert np.all(a >= 0.0) and np.all(a <= 1.0)
    assert a[0, 0] == 0.0 and a[1, 1] == 0.0


coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                  allow_infinity=False)


@given(sx=coord, sy=coord, w=st.floats(min_value=0.0, max_value=1e9),
       length=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=50, deadline=None)
def test_instance_files_preserve_float_values(tmp_path_factory, sx, sy, w, length):
    from sinrcap import read_instance, write_instance
    inst = Instance(links=(make_link(0, sx, sy, sx + length, sy, weight=w),),
                    alpha=2.5)
    path = tmp_path_factory.mktemp("io") / "one.json"
    write_instance(inst, path)
    back = read_instance(path)
    lk = back.link(0)
    assert (lk.sender.x, lk.sender.y) == (sx, sy)
    assert lk.receiver.x == sx + length
    assert lk.weight == w
