import logging
import math

import numpy as np
import pytest

from sinrcap import (AffectanceContext, Instance, PowerAssignment, PrimarySet,
                     admission_filter_threshold, build_admission_large_lp,
                     build_admission_lp, build_capacity_lp, build_qos_lp,
                     build_weighted_lp, exact_capacity, largest_bifeasible,
                     solve_lp)
from sinrcap.formulations import PROBLEMS
from sinrcap.model import parse_power
from sinrcap.rounding import RoundingPolicy, round_trials

from conftest import (colocated_pair, far_instance, feasible_prim_ctx, make_link,
                      random_ctx)

UNIFORM = PowerAssignment.uniform()


def uctx(inst):
    return AffectanceContext(inst, UNIFORM)


def test_capacity_single_link():
    inst = Instance(links=(make_link(0, 0, 0, 1, 0),), alpha=2.5)
    lp = build_capacity_lp(uctx(inst), 0.3)
    assert lp.m == 2
    assert solve_lp(lp).objective == pytest.approx(1.0)


def test_capacity_far_pair():
    lp = build_capacity_lp(uctx(far_instance(2)), 1.0)
    assert solve_lp(lp).objective == pytest.approx(2.0, abs=1e-6)


def test_capacity_colocated_pair_hand_lp():
    # mutual affectance 1 and equal lengths: each variable is capped at C by
    # the other link's rows, so LP* = 2C = 1.0 at C = 0.5
    ctx = uctx(colocated_pair())
    lp = build_capacity_lp(ctx, 0.5)
    assert solve_lp(lp).objective == pytest.approx(1.0, abs=1e-7)


def test_capacity_row_structure():
    # three links with distinct lengths: row of u holds a coefficient for v
    # exactly when l_v >= l_u and v != u
    links = (make_link(0, 0, 0, 1, 0), make_link(1, 10, 0, 12, 0),
             make_link(2, 30, 0, 34, 0))
    ctx = uctx(Instance(links=links, alpha=2.5))
    lp = build_capacity_lp(ctx, 1.0)
    n = 3
    for u in range(n):
        for v in range(n):
            in_coeff = lp.row_coeffs[u, v]
            out_coeff = lp.row_coeffs[n + u, v]
            if ctx.lengths[v] >= ctx.lengths[u] and v != u:
                assert in_coeff == min(ctx.raw[v, u], 1.0)
                assert out_coeff == min(ctx.raw[u, v], 1.0)
            else:
                assert in_coeff == 0.0
                assert out_coeff == 0.0


def test_qos_shapes_and_colocated_value():
    ctx = uctx(colocated_pair())
    lp = build_qos_lp(ctx, 0.5)
    assert lp.m == 2
    assert solve_lp(lp).objective == pytest.approx(1.0, abs=1e-7)
    single = uctx(Instance(links=(make_link(0, 0, 0, 1, 0),), alpha=2.5))
    assert solve_lp(build_qos_lp(single, 2.0)).objective == pytest.approx(1.0)
    far = uctx(far_instance(2))
    assert solve_lp(build_qos_lp(far, 1.0)).objective == pytest.approx(2.0, abs=1e-6)


def test_qos_honors_per_link_overrides():
    # a stricter beta on one link raises its c factor and so its row coefficients
    base = (make_link(0, 0, 0, 1, 0), make_link(1, 4, 0, 5, 0))
    harder = (make_link(0, 0, 0, 1, 0, beta_override=2.0), base[1])
    lp0 = build_qos_lp(uctx(Instance(links=base, alpha=2.5)), 1.0)
    lp1 = build_qos_lp(uctx(Instance(links=harder, alpha=2.5)), 1.0)
    # affectance of link 1 on link 0 doubles with beta_0 = 2
    assert lp1.row_coeffs[1, 0] == pytest.approx(2 * lp0.row_coeffs[1, 0])


def test_admission_reduces_to_qos_without_primaries():
    empty = PrimarySet(links=(), powers=())
    inst = Instance(links=far_instance(3).links, alpha=2.5, primaries=empty)
    ctx = AffectanceContext(inst, UNIFORM, primaries=empty)
    adm = build_admission_lp(ctx, 1.0)
    qos = build_qos_lp(ctx, 1.0)
    assert adm.m == qos.m  # the aggregate row is omitted when |P| = 0
    assert np.allclose(adm.row_coeffs, qos.row_coeffs)


def test_admission_far_primary_negligible():
    prim = PrimarySet(links=(make_link(9, 1e6, 0, 1e6 + 1, 0),), powers=(1.0,))
    inst = Instance(links=far_instance(3).links, alpha=2.5, primaries=prim)
    ctx = AffectanceContext(inst, UNIFORM, primaries=prim)
    value = solve_lp(build_admission_lp(ctx, 1.0)).objective
    assert value == pytest.approx(3.0, abs=1e-3)


def test_admission_colocated_primary_hand_lp():
    # one secondary whose affectance on the single primary is exactly 1:
    # the aggregate row reads delta <= 1, so LP* = 1
    prim = PrimarySet(links=(make_link(9, 10.0, 0.0, 11.0, 0.0),), powers=(1.0,))
    sec = (make_link(0, 12.0, 0.0, 12.5, 0.0),)  # sender at distance 1 from r_9
    inst = Instance(links=sec, alpha=2.5, primaries=prim)
    ctx = AffectanceContext(inst, UNIFORM, primaries=prim)
    assert min(ctx.raw_to_prim[0, 0], 1.0) == pytest.approx(1.0)
    lp = build_admission_lp(ctx, 1.0)
    assert lp.m == 2  # aggregate row plus one per-link row
    assert solve_lp(lp).objective == pytest.approx(1.0, abs=1e-7)


def test_filter_threshold_values():
    assert admission_filter_threshold(1) == pytest.approx(0.1)
    # hand arithmetic: 1 / (10 sqrt(ln 4)) = 0.0849322...
    assert admission_filter_threshold(4) == pytest.approx(0.08493, abs=1e-5)


def test_admission_large_filtering():
    prim = PrimarySet(links=(make_link(8, 100.0, 0.0, 101.0, 0.0),
                             make_link(9, 200.0, 0.0, 201.0, 0.0)), powers=(1.0, 1.0))
    far = [make_link(0, 0.0, 0.0, 1.0, 0.0), make_link(1, 300.0, 300.0, 301.0, 300.0)]
    # sender sits on primary 8's receiver: affectance on it is clipped to 1
    near = [make_link(2, 101.0, 0.0, 101.6, 0.0)]
    inst = Instance(links=tuple(far + near), alpha=2.5, primaries=prim)
    ctx = AffectanceContext(inst, UNIFORM, primaries=prim)
    lp = build_admission_large_lp(ctx, 1.0)
    assert lp.ids.tolist() == [0, 1]
    assert lp.m == 2 + lp.n


def test_weighted_values():
    single = Instance(links=(make_link(0, 0, 0, 1, 0, weight=7.0),), alpha=2.5)
    assert solve_lp(build_weighted_lp(uctx(single), 1.0)).objective == pytest.approx(7.0)

    far = far_instance(2)
    weighted = Instance(links=tuple(
        make_link(lk.id, lk.sender.x, lk.sender.y, lk.receiver.x, lk.receiver.y,
                  weight=w) for lk, w in zip(far.links, (3.0, 5.0))), alpha=2.5)
    assert solve_lp(build_weighted_lp(uctx(weighted), 1.0)).objective == \
        pytest.approx(8.0, abs=1e-6)

    # co-located unit pair, weights 1 and 2, C = 0.5: both variables capped at
    # 0.5 by the cross rows, LP* = 0.5 * 1 + 0.5 * 2 = 1.5
    pair = uctx(colocated_pair(weights=(1.0, 2.0)))
    assert solve_lp(build_weighted_lp(pair, 0.5)).objective == pytest.approx(1.5, abs=1e-7)


@pytest.mark.parametrize("seed", range(4))
def test_coefficients_clipped_and_bounds_positive(seed):
    ctx = random_ctx(seed, n=7, R=3.0, delta=2.0)
    for build in (build_capacity_lp, build_qos_lp, build_weighted_lp):
        lp = build(ctx, 0.7)
        assert np.all(lp.row_coeffs >= 0.0) and np.all(lp.row_coeffs <= 1.0)
        assert np.all(lp.row_bounds > 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_relaxation_dominates_bifeasible_witness(seed):
    # with C set to the max row load of the best 2-bi-feasible set's
    # indicator, that indicator is feasible, so LP* >= |W|; and |W| is at
    # least half the exhaustive optimum
    ctx = random_ctx(seed, n=9, R=4.0, delta=2.5)
    w2 = largest_bifeasible(ctx, 2.0)
    opt = exact_capacity(ctx, "cardinality", "exact_sinr")
    probe = build_capacity_lp(ctx, 1.0)
    indicator = np.zeros(ctx.n)
    if w2.ids:
        indicator[ctx.index_of(w2.ids)] = 1.0
    c_star = max(float(np.max(probe.row_coeffs @ indicator)), 1e-9)
    lp_star = solve_lp(build_capacity_lp(ctx, c_star)).objective
    assert lp_star >= len(w2.ids) - 1e-6
    assert len(w2.ids) >= math.ceil(opt.size / 2)


def _expected_rows(ctx, C):
    """Every builder's rows written out from ``ctx.raw``, ``ctx.raw_to_prim``
    and ``length_ge_mask()``: builder -> (coeffs, bounds, names, var, limit,
    objective)."""
    n, k = ctx.n, ctx.k
    keep = ctx.length_ge_mask().T
    aff = np.minimum(ctx.raw, 1.0)
    out_names = tuple(f"out_{int(u)}" for u in ctx.ids)
    in_names = tuple(f"in_{int(u)}" for u in ctx.ids)
    full = lambda m, v: np.full(m, float(v))  # noqa: E731
    large = np.all(ctx.aff_to_prim_plain <= admission_filter_threshold(k), axis=1)
    idx = np.flatnonzero(large)
    m = idx.size
    return {
        build_capacity_lp: (np.vstack([aff.T * keep, aff * keep]), full(2 * n, C),
                            in_names + out_names, np.tile(np.arange(n), 2),
                            full(2 * n, 3 * C), np.ones(n)),
        build_qos_lp: (aff, full(n, C), out_names, np.arange(n), full(n, 3 * C), np.ones(n)),
        build_weighted_lp: (aff.T, full(n, C), in_names, np.arange(n), full(n, 4 * C),
                            ctx.weights),
        build_admission_lp: (
            np.vstack([np.minimum(ctx.raw_to_prim, 1.0).sum(axis=1), aff]),
            np.concatenate([[float(k)], full(n, C)]), ("primaries_total",) + out_names,
            np.arange(-1, n), np.concatenate([[5.0 * k], full(n, 4 * C)]), np.ones(n)),
        build_admission_large_lp: (
            np.vstack([np.minimum(ctx.raw_to_prim[idx], 1.0).T, aff[np.ix_(idx, idx)]]),
            np.concatenate([full(k, 1 / 3), full(m, C)]),
            tuple(f"prim_{int(w)}" for w in ctx.prim_ids)
            + tuple(f"out_{int(i)}" for i in ctx.ids[idx]),
            np.concatenate([np.full(k, -1), np.arange(m)]),
            np.concatenate([full(k, np.inf), full(m, 4 * C)]), np.ones(m)),
    }


def test_builder_rows_match_definitions():
    ctx = feasible_prim_ctx(10, n=14, R=6.0, delta=2.0, primaries=3)
    aggregate = np.minimum(ctx.raw_to_prim, 1.0).sum(axis=1)
    assert aggregate.max() > 1.0  # an aggregate coefficient a clip would change
    assert np.any(ctx.raw > 1.0) and np.any(ctx.raw_to_prim > 1.0)
    large = np.all(ctx.aff_to_prim_plain <= admission_filter_threshold(ctx.k), axis=1)
    assert 0 < large.sum() < ctx.n
    C = 0.7
    for build, expected in _expected_rows(ctx, C).items():
        lp = build(ctx, C)
        kept = large if build is build_admission_large_lp else np.ones(ctx.n, dtype=bool)
        assert np.array_equal(lp.ids, ctx.ids[kept]), build.__name__
        coeffs, bounds, names, var, limit, objective = expected
        assert lp.row_coeffs.dtype == np.float64, build.__name__
        assert np.array_equal(lp.row_coeffs, coeffs), build.__name__
        assert np.array_equal(lp.row_bounds, bounds), build.__name__
        assert lp.row_names == names, build.__name__
        assert np.array_equal(lp.row_var, var), build.__name__
        assert np.array_equal(lp.row_limit, limit), build.__name__
        assert np.array_equal(lp.objective, objective), build.__name__


def test_program_at_another_constant_matches_a_fresh_build():
    ctx = feasible_prim_ctx(10, n=14, R=6.0, delta=2.0, primaries=3)
    for build in _expected_rows(ctx, 1.0):
        built = build(ctx, 0.7)
        for C in (0.2, 1.3, 3.0):
            derived, fresh = built.at(C), build(ctx, C)
            # the derived program shares the built one's arrays
            assert derived.row_coeffs is built.row_coeffs, build.__name__
            assert derived.objective is built.objective, build.__name__
            assert derived.row_var is built.row_var, build.__name__
            assert derived.ids is built.ids, build.__name__
            # and equals a fresh build bit for bit, fixed rows included
            for field in ("row_coeffs", "objective", "row_bounds", "row_var", "row_limit",
                          "ids"):
                a, b = getattr(derived, field), getattr(fresh, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (build.__name__, field)
            assert derived.row_names == fresh.row_names, build.__name__
            assert derived.row_blocks == fresh.row_blocks, build.__name__
        for bad in (0.0, -1.0, float("nan"), float("inf"), True, "2"):
            with pytest.raises(ValueError) as exc:
                built.at(bad)
            assert str(exc.value) == f"C must be a finite positive number, got {bad!r}"


@pytest.mark.parametrize("mode", [mode for mode, problem in PROBLEMS.items()
                                  if problem.power is not None])
def test_problem_warns_its_power_precondition_once_per_sweep(mode, caplog):
    # linear power breaks the nearly-uniform preconditions, uniform power the
    # linear one
    problem = PROBLEMS[mode]
    kept, broken = UNIFORM, PowerAssignment.linear()
    if problem.objective == "weight":
        kept, broken = broken, kept
    for power, warnings in ((broken, [problem.warning]), (kept, [])):
        ctx = feasible_prim_ctx(3, n=16, R=8.0, delta=4.0, primaries=2, power=power)
        policies = [RoundingPolicy(mode=mode, C=C, trials=2) for C in (0.5, 1.0, 2.0)]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sinrcap.formulations"):
            for program, _ in round_trials(ctx, policies):  # one build, two derived
                assert program.m > 0
        assert [r.getMessage() for r in caplog.records
                if r.name == "sinrcap.formulations"] == warnings


@pytest.mark.parametrize("spec", ["uniform", "uniform:3.5", "linear", "mean", "exp:0.0",
                                  "exp:0.37", "exp:1.0"])
def test_capacity_build_states_no_power_precondition(spec, caplog):
    # every power assignment is non-decreasing and sub-linear by construction
    ctx = feasible_prim_ctx(3, n=16, R=8.0, delta=4.0, primaries=2, power=parse_power(spec))
    with caplog.at_level(logging.DEBUG, logger="sinrcap.formulations"):
        assert PROBLEMS["capacity"].build(ctx, 1.0).m > 0
    assert [r for r in caplog.records if r.name == "sinrcap.formulations"] == []


@pytest.mark.parametrize("mode", PROBLEMS)
def test_problem_builds_through_its_named_builder_when_called(mode, monkeypatch):
    # the table names each builder and looks it up at build time, so a
    # builder patched after import (as perfbench's spans do) is the one used
    import sinrcap.formulations as formulations

    problem = PROBLEMS[mode]
    ctx = feasible_prim_ctx(3, n=16, R=8.0, delta=4.0, primaries=2)
    build = getattr(formulations, problem.builder)
    calls = []
    monkeypatch.setattr(formulations, problem.builder,
                        lambda c, C: calls.append(C) or build(c, C))
    lp = problem.build(ctx, 0.7)
    assert calls == [0.7]
    fresh = build(ctx, 0.7)
    assert lp.row_coeffs.tobytes() == fresh.row_coeffs.tobytes()
    # and the program maximizes the objective the table states, over its links
    expected = ctx.weights if problem.objective == "weight" else np.ones(lp.ids.size)
    assert problem.objective in ("cardinality", "weight")
    assert np.array_equal(lp.objective, expected)
