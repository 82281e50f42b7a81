import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from sinrcap import (AffectanceContext, GenConfig, Instance, Link, PowerAssignment,
                     RoundingPolicy, admit_sweep, bernoulli_draws, build_admission_large_lp,
                     build_admission_lp, build_capacity_lp, build_qos_lp, build_weighted_lp,
                     certify, exact_capacity, generate_instance, run_pipeline, run_sweep,
                     schedule_value, signal_strengthen, solve_lp)
from sinrcap import formulations, rounding
from sinrcap.affectance import check_positions
from sinrcap.greedy import GREEDY_VARIANTS
from sinrcap.lp_core import LinearProgram
from sinrcap.rounding import (ROUNDING_MODES, _extract_rows, _first_fit, _strengthen_rows,
                              best_part, final_selection_batch, round_trials, sample_batch,
                              winner)

from conftest import (better, colocated_pair, far_instance, feasible_prim_ctx, make_link,
                      random_ctx, sampled, selection)

UNIFORM = PowerAssignment.uniform()


def test_draws_are_link_keyed():
    full = bernoulli_draws(42, 3, list(range(10)))
    sub = bernoulli_draws(42, 3, [2, 5, 7])
    assert np.array_equal(sub, full[[2, 5, 7]])
    again = bernoulli_draws(42, 3, list(range(10)))
    assert np.array_equal(full, again)
    other_trial = bernoulli_draws(42, 4, list(range(10)))
    assert not np.array_equal(full, other_trial)


@pytest.mark.parametrize("cast", [np.int64, np.int32])
@pytest.mark.parametrize("seed", [3, -1])
def test_a_numpy_integer_seed_draws_as_the_equal_python_int(cast, seed):
    ids = [0, 1, 5000]  # dense and sparse reads of the stream
    assert np.array_equal(bernoulli_draws(cast(seed), cast(2), ids), bernoulli_draws(seed, 2, ids))
    for ctx, sweep, mode in ((random_ctx(3, n=12), run_sweep, "capacity"),
                             (feasible_prim_ctx(21, n=12, primaries=2), admit_sweep,
                              "admission_general")):
        got, want = (sweep(ctx, [RoundingPolicy(mode=mode, trials=5, seed=s)])
                     for s in (cast(seed), seed))
        assert got == want


@pytest.mark.parametrize("field,message", [
    (dict(mode="foo"), "unknown rounding mode 'foo'"),
    (dict(trials=0), "trials must be >= 1"),
    (dict(C=0.0), "C must be a finite positive number, got 0.0"),
    (dict(C="a"), "C must be a finite positive number, got 'a'"),
    (dict(C=True), "C must be a finite positive number, got True"),
    (dict(C=float("inf")), "C must be a finite positive number, got inf"),
    (dict(C=float("nan")), "C must be a finite positive number, got nan"),
    (dict(trials=2.5), "trials must be an integer, got 2.5"),
    (dict(trials=True), "trials must be an integer, got True"),
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
], ids=["mode-unknown", "trials-0", "C-0", "C-str", "C-bool", "C-inf", "C-nan", "trials-float",
        "trials-bool", "seed-float"])
def test_policy_refuses_a_bad_field(field, message):
    with pytest.raises(ValueError) as exc:
        RoundingPolicy(**{"mode": "capacity", **field})
    assert str(exc.value) == message


def test_sparse_ids_read_the_dense_stream():
    # a sparse call (max id >= 4 * len(ids) + 1024) must give each link the
    # draw a dense call gives it
    assert bernoulli_draws(1, 0, [5000])[0] == bernoulli_draws(1, 0, range(5001))[5000]
    rng = np.random.default_rng(8)
    ids = rng.choice(60_000, 40, replace=False)
    dense = bernoulli_draws(9, 4, range(60_000))
    assert np.array_equal(bernoulli_draws(9, 4, ids), dense[ids])
    assert np.array_equal(bernoulli_draws(9, 4, [0, 1, 2, 3, 4, 5, 59_999]),
                          dense[[0, 1, 2, 3, 4, 5, 59_999]])
    with pytest.raises(ValueError, match="nonnegative"):
        bernoulli_draws(9, 4, [3, -1])


def _philox_stream(seed, trial, ids):
    """Entries ``ids`` of numpy's own generator over the Philox stream
    keyed by (seed mod 2**64, trial): the reference for the draws."""
    key = np.array([int(seed) % 2 ** 64, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(max(ids) + 1)[ids]


@pytest.mark.parametrize("ids", [list(range(40)), [3, 70_000, 12, 5_001, 9]],
                         ids=["dense", "sparse"])
@pytest.mark.parametrize("seed", [7, -3, 2 ** 63 + 5, np.int64(11), np.uint64(2 ** 64 - 2)],
                         ids=["int", "negative", "past-int64", "numpy-int64", "numpy-uint64"])
def test_draws_are_the_generator_stream_of_the_seed_and_trial(ids, seed):
    trials = [0, 1, 2, 50]
    want = np.array([_philox_stream(seed, t, ids) for t in trials])
    got = np.array([bernoulli_draws(seed, t, ids) for t in trials])
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # sample_batch over a program without rows keeps exactly the draws under delta
    delta = np.linspace(0.05, 0.95, len(ids))
    lp = LinearProgram(objective=np.ones(len(ids)), row_coeffs=np.zeros((0, len(ids))),
                       row_bounds=np.zeros(0), ids=np.array(ids))
    policy = RoundingPolicy(mode="capacity", trials=len(trials), seed=seed)
    assert np.array_equal(sample_batch(lp, delta, policy, trials), want < delta)


def test_sample_round_degenerate_deltas():
    ctx = AffectanceContext(far_instance(5), UNIFORM)
    lp = build_capacity_lp(ctx, 1.0)
    policy = RoundingPolicy(mode="capacity", C=1.0, trials=1, seed=0)
    assert sampled(lp, np.zeros(5), policy, 0) == ()
    # all-ones fractional values with negligible affectances keep every link
    assert sampled(lp, np.ones(5), policy, 0) == tuple(int(i) for i in ctx.ids)


def test_sample_round_deterministic():
    ctx = random_ctx(3, n=10, R=4.0)
    lp = build_capacity_lp(ctx, 1.0)
    sol = solve_lp(lp)
    policy = RoundingPolicy(mode="capacity", C=1.0, trials=1, seed=11)
    a = sampled(lp, sol.values, policy, 5)
    b = sampled(lp, sol.values, policy, 5)
    assert a == b


def test_second_stage_condition_frequency():
    # the probability that a link passes both second-stage conditions is at
    # least 1/3 when the fractional values satisfy the capacity rows
    ctx = random_ctx(5, n=16, R=3.0, delta=2.0)
    C = 1.0
    sol = solve_lp(build_capacity_lp(ctx, C))
    policy = RoundingPolicy(mode="capacity", C=C, trials=1, seed=99)
    trials = 3000
    mask = ctx.length_ge_mask()
    aff = np.minimum(ctx.raw, 1.0)
    m_in = aff * mask
    m_out = aff.T * mask
    hold = np.zeros(ctx.n)
    for t in range(trials):
        draws = bernoulli_draws(policy.seed, t, ctx.ids)
        sel = (draws < sol.values).astype(float)
        ok = (sel @ m_in <= 3 * C) & (sel @ m_out <= 3 * C)
        hold += ok
    freq = hold / trials
    sigma = np.sqrt((1 / 3) * (2 / 3) / trials)
    assert np.all(freq >= 1 / 3 - 3 * sigma)


def _per_mode_survivors(ctx, mode, C, ids, selected):
    """Stage two as each mode's conditions state it, from the clipped
    affectance directly: the reference the LP-row form must reproduce.
    None: sample discarded."""
    idx = ctx.index_of(ids)
    aff = np.minimum(ctx.raw[np.ix_(idx, idx)], 1.0)
    sel = selected.astype(float)
    if mode == "capacity":
        mask = ctx.length_ge_mask()[np.ix_(idx, idx)]
        keep = (sel @ (aff * mask) <= 3 * C) & (sel @ (aff.T * mask) <= 3 * C)
    elif mode == "qos":
        keep = aff @ sel <= 3 * C
    elif mode == "weighted":
        keep = sel @ aff <= 4 * C
    else:
        keep = aff @ sel <= 4 * C
        if mode == "admission_general" and \
                sel @ np.minimum(ctx.raw_to_prim[idx], 1.0).sum(axis=1) > 5 * ctx.k:
            return None
    return tuple(int(i) for i in ids[selected & keep])


BUILDERS = {"capacity": build_capacity_lp, "qos": build_qos_lp,
            "weighted": build_weighted_lp, "admission_general": build_admission_lp,
            "admission_large": build_admission_large_lp}


@pytest.mark.parametrize("mode", ROUNDING_MODES)
def test_stage_two_matches_per_mode_conditions(mode):
    shrunk = discarded = 0
    for seed in range(4):
        if mode == "admission_large":  # the prefilter keeps links far from primaries
            ctx = feasible_prim_ctx(seed, n=40, R=8.0, delta=2.0, primaries=2)
        elif mode == "admission_general":
            ctx = feasible_prim_ctx(seed, n=16, R=4.0, delta=2.0, primaries=2)
        else:
            ctx = random_ctx(seed, n=16, R=3.0, delta=2.0)
        for C in (0.4, 1.0, 2.0):
            lp = BUILDERS[mode](ctx, C)
            ids = lp.ids
            delta = np.random.default_rng(seed).uniform(0.3, 1.0, ids.size)
            policy = RoundingPolicy(mode=mode, C=C, trials=1, seed=seed)
            for t in range(40):
                selected = bernoulli_draws(seed, t, ids) < delta
                expected = _per_mode_survivors(ctx, mode, C, ids, selected)
                discarded += expected is None
                expected = expected or ()
                assert sampled(lp, delta, policy, t) == expected
                shrunk += len(expected) < selected.sum()
    assert shrunk > 0  # stage two did drop links
    assert (discarded > 0) == (mode == "admission_general")


def _extracted(ctx, S, bound):
    """Ids of S's low-affectance members: a one-row ``_extract_rows``."""
    return tuple(ctx.ids[_extract_rows(ctx, selection(ctx, S), [bound])[0]].tolist())


@pytest.mark.parametrize("C", [0.5, 1.0, 3.0])
def test_weighted_extraction_keeps_every_stage_two_survivor(C):
    # a weighted program's stage two holds each survivor's clipped load,
    # received from the stage-one sample, to 4C; the survivors are a subset
    # of that sample, so their loads stay within 4C, below extraction's 12C
    drawn = survived = 0
    for seed in range(4):
        ctx = random_ctx(seed, n=30, R=5.0, delta=2.0, power=PowerAssignment.linear())
        lp = build_weighted_lp(ctx, C)
        policy = RoundingPolicy(mode="weighted", C=C, trials=40, seed=seed)
        delta = np.random.default_rng(seed).uniform(0.2, 1.0, lp.n)
        rows = np.zeros((policy.trials, ctx.n), dtype=bool)
        rows[:, ctx.index_of(lp.ids)] = sample_batch(lp, delta, policy, range(policy.trials))
        kept = _extract_rows(ctx, rows, [policy.extraction_bound] * policy.trials)
        assert np.array_equal(kept, rows)
        loads = (rows.astype(float) @ np.minimum(ctx.raw, 1.0))[rows]
        assert loads.max(initial=0.0) <= 4.0 * C
        drawn += sum(int((bernoulli_draws(seed, t, lp.ids) < delta).sum())
                     for t in range(policy.trials))
        survived += int(rows.sum())
    # not vacuous: stage two dropped links, and some survivor's load
    # exceeds C, so extraction at a bound of C would drop it
    assert 0 < survived < drawn
    assert (_extract_rows(ctx, rows, [C] * policy.trials) != rows).any()


def test_extract_low_affectance():
    ctx = AffectanceContext(far_instance(4), UNIFORM)
    ids = tuple(int(i) for i in ctx.ids)
    assert _extracted(ctx, ids, 12.0) == ids
    assert _extracted(ctx, (), 12.0) == ()
    dense = AffectanceContext(colocated_pair(noise=0.1), UNIFORM)
    # each member receives affectance 1 from the other; bound 0.5 drops both
    assert _extracted(dense, (0, 1), 0.5) == ()


def test_extract_keeps_half_on_rounded_sets():
    ctx = random_ctx(8, n=14, R=2.5, delta=2.0)
    C = 1.0
    lp = build_capacity_lp(ctx, C)
    sol = solve_lp(lp)
    policy = RoundingPolicy(mode="capacity", C=C, trials=1, seed=4)
    for t in range(50):
        s = sampled(lp, sol.values, policy, t)
        kept = _extracted(ctx, s, 12 * C)
        assert 2 * len(kept) >= len(s)


def test_signal_strengthen_basics():
    ctx = AffectanceContext(far_instance(4), UNIFORM)
    ids = tuple(int(i) for i in ctx.ids)
    assert signal_strengthen(ctx, ids) == [ids]
    assert signal_strengthen(ctx, ()) == []
    dense = AffectanceContext(colocated_pair(noise=0.1), UNIFORM)
    parts = signal_strengthen(dense, (0, 1))
    assert sorted(parts) == [(0,), (1,)]


def test_signal_strengthen_partition_properties():
    ctx = random_ctx(7, n=12, R=2.0, delta=2.0)
    ids = [int(i) for i in ctx.ids]
    parts = signal_strengthen(ctx, ids)
    flat = [i for part in parts for i in part]
    assert sorted(flat) == sorted(ids)  # disjoint cover
    assert len(set(flat)) == len(flat)
    for part in parts:
        assert check_positions(ctx, ctx.index_of(part))


def test_signal_strengthen_parts_pass_exact_sinr():
    for seed in range(4):
        ctx = random_ctx(seed, n=10, R=2.0, delta=2.0)
        parts = signal_strengthen(ctx, [int(i) for i in ctx.ids])
        for part in parts:
            assert certify(ctx, part).exact_sinr_ok


def test_sweep_raises_on_a_schedule_verify_refuses(monkeypatch):
    ctx = random_ctx(3, n=8)
    judged, certify = [], rounding.certify

    def refused(ctx, ids):
        judged.append(certify(ctx, ids))
        return dataclasses.replace(judged[-1], verified=False)

    monkeypatch.setattr(rounding, "certify", refused)
    with pytest.raises(AssertionError, match="pipeline produced an infeasible schedule"):
        run_pipeline(ctx, RoundingPolicy(mode="capacity", trials=3))
    assert len(judged) == 1


def test_strengthening_check_runs_under_optimize():
    """The per-part feasibility check is an explicit raise, so python -O
    (which strips assert statements) does not skip it."""
    code = textwrap.dedent("""
        from sinrcap import AffectanceContext, Instance, Link, Point, PowerAssignment
        from sinrcap import rounding
        if __debug__:
            raise SystemExit("not running under -O")
        inst = Instance(links=(Link(0, Point(0.0, 0.0), Point(1.0, 0.0)),), alpha=2.5)
        ctx = AffectanceContext(inst, PowerAssignment.uniform())
        rounding.check_positions = lambda *args, **kwargs: False
        try:
            rounding.signal_strengthen(ctx, [0])
        except AssertionError as exc:
            print("raised:", exc)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: signal strengthening produced an infeasible part")


def test_pipeline_single_and_far():
    single = AffectanceContext(Instance(links=(make_link(0, 0, 0, 1, 0),), alpha=2.5),
                               UNIFORM)
    policy = RoundingPolicy(mode="capacity", C=1.0, trials=10, seed=1)
    assert run_pipeline(single, policy).ids == (0,)
    far = AffectanceContext(far_instance(5), UNIFORM)
    sched = run_pipeline(far, policy)
    assert sched.ids == tuple(int(i) for i in far.ids)


def test_pipeline_deterministic():
    ctx = random_ctx(4, n=12, R=3.0)
    policy = RoundingPolicy(mode="capacity", C=1.0, trials=25, seed=17)
    a = run_pipeline(ctx, policy)
    b = run_pipeline(ctx, policy)
    assert a == b


@pytest.mark.parametrize("seed", range(5))
def test_pipeline_never_beats_oracle(seed):
    ctx = random_ctx(seed, n=9, R=3.0, delta=2.0)
    policy = RoundingPolicy(mode="capacity", C=1.0, trials=30, seed=seed)
    sched = run_pipeline(ctx, policy)
    opt = exact_capacity(ctx, "cardinality", "exact_sinr")
    assert sched.size <= opt.size
    assert sched.exact_sinr_ok


@pytest.mark.parametrize("mode", ["capacity", "qos", "weighted"])
def test_pipeline_rounds_the_program_of_its_mode(mode):
    ctx = random_ctx(12, n=20, R=3.0, delta=2.0, power=PowerAssignment.linear())
    for C in (0.6, 1.4):
        policy = RoundingPolicy(mode=mode, C=C, trials=15, seed=3)
        program = BUILDERS[mode](ctx, C)
        sel = sample_batch(program, solve_lp(program).values, policy, range(policy.trials))
        objective = formulations.PROBLEMS[mode].objective
        parts = final_selection_batch(ctx, sel, [policy.extraction_bound] * len(sel),
                                      objective)
        best = best_part(ctx, parts, objective)
        assert run_pipeline(ctx, policy).ids == tuple(ctx.ids[best].tolist())
    with pytest.raises(ValueError, match="admission module"):
        run_pipeline(ctx, RoundingPolicy(mode="admission_general"))


def test_pipeline_looks_its_builder_up_when_it_runs(monkeypatch):
    ctx = random_ctx(12, n=20, R=3.0, delta=2.0)
    calls = []
    build = formulations.build_qos_lp
    monkeypatch.setattr(formulations, "build_qos_lp",
                        lambda c, C: calls.append(C) or build(c, C))
    run_sweep(ctx, [RoundingPolicy(mode="qos", C=C, trials=3) for C in (0.5, 1.0)])
    assert calls == [0.5]  # built once per sweep, derived at the next constant
    run_pipeline(ctx, RoundingPolicy(mode="qos", C=2.0, trials=3))
    assert calls == [0.5, 2.0]


def test_context_shared_across_threads():
    # contexts are read-only after construction; concurrent pipeline runs on
    # one context must agree with each other (and with a sequential run)
    from concurrent.futures import ThreadPoolExecutor

    ctx = random_ctx(6, n=14, R=3.0, delta=2.0)
    policy = RoundingPolicy(mode="capacity", C=1.0, trials=20, seed=9)
    sequential = run_pipeline(ctx, policy)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: run_pipeline(ctx, policy), range(4)))
    assert all(r == sequential for r in results)


def test_expected_selection_size():
    # mean second-stage set size over many trials stays above LP*/3 minus
    # three standard errors
    ctx = random_ctx(10, n=16, R=3.0, delta=2.0)
    C = 1.0
    lp = build_capacity_lp(ctx, C)
    sol = solve_lp(lp)
    policy = RoundingPolicy(mode="capacity", C=C, trials=1, seed=23)
    sizes = []
    for t in range(2000):
        sizes.append(len(sampled(lp, sol.values, policy, t)))
    sizes = np.array(sizes, dtype=float)
    sem = sizes.std(ddof=1) / np.sqrt(len(sizes))
    assert sizes.mean() >= sol.objective / 3 - 3 * sem


# The per-trial engine the batched one replaced, kept as the reference:
# stage two as one matvec per trial, extraction per set, and the per-set
# first-fit loop of signal strengthening at threshold 1.

def _reference_sample_round(lp, delta, policy, trial):
    use_ids = lp.ids
    selected = bernoulli_draws(policy.seed, trial, use_ids) < delta
    over = lp.row_coeffs @ selected.astype(float) > lp.row_limit
    if np.any(lp.row_var[over] < 0):
        return ()
    selected[lp.row_var[over]] = False
    return tuple(int(i) for i in use_ids[selected])


def _reference_extract(ctx, S, bound=12.0):
    ids = np.asarray(sorted(int(i) for i in S), dtype=int)
    if ids.size == 0:
        return ()
    idx = ctx.index_of(ids)
    in_sums = np.minimum(ctx.raw[np.ix_(idx, idx)], 1.0).sum(axis=0)
    return tuple(int(i) for i in ids[in_sums <= bound])


_LIMIT = 1.0 - 1e-12  # strengthening's load limit, a margin below 1


def _reference_strengthen(ctx, S):
    ids = sorted(int(i) for i in S)
    if not ids:
        return []
    idx = ctx.index_of(ids)
    order = np.argsort(-ctx.lengths[idx], kind="stable")
    mat = ctx.raw[np.ix_(idx, idx)]  # positions within ids from here on
    parts = []      # each entry: [member_positions, received_sums]
    for u in order:
        for entry in parts:
            members, in_sums = entry
            updated = in_sums + mat[u, members]
            own = float(mat[members, u].sum())
            if own <= _LIMIT and np.all(updated <= _LIMIT):
                entry[0] = members + [u]
                entry[1] = np.append(updated, own)
                break
        else:
            parts.append([[u], np.zeros(1)])
    out = []
    for members, _ in parts:
        part = tuple(sorted(ids[p] for p in members))
        if not check_positions(ctx, ctx.index_of(part)):
            raise AssertionError("signal strengthening produced an infeasible part")
        out.append(part)
    return out


def _engine_cases(with_primaries):
    """(ctx, lp) pairs: whole-context capacity and weighted programs, a
    program over a subset of the context's links, and with primaries the
    admission programs (the general one has a whole-sample drop row)."""
    for seed in range(3):
        if with_primaries:
            ctx = feasible_prim_ctx(seed, n=40, R=6.0, delta=2.0, primaries=2)
            yield ctx, build_admission_lp(ctx, 1.0)
            yield ctx, build_admission_large_lp(ctx, 2.0)
        else:
            ctx = random_ctx(seed, n=24, R=2.5, delta=2.0)
            yield ctx, build_capacity_lp(ctx, 1.0)
            yield ctx, build_weighted_lp(ctx, 2.0)
        sub = set(ctx.ids[::2].tolist())
        inst = dataclasses.replace(ctx.instance, links=tuple(
            lk for lk in ctx.instance.links if lk.id in sub))
        yield ctx, build_qos_lp(AffectanceContext(inst, ctx.assignment), 1.0)


@pytest.mark.parametrize("trials", [1, 7])
@pytest.mark.parametrize("with_primaries", [False, True], ids=["plain", "primaries"])
def test_batched_engine_matches_per_set_reference(with_primaries, trials):
    seen = {"stage_two_drop": 0, "whole_sample_drop": 0, "extract_drop": 0, "multi_part": 0}
    for case, (ctx, lp) in enumerate(_engine_cases(with_primaries)):
        ids = lp.ids
        delta = np.random.default_rng(case).uniform(0.4, 1.0, len(ids))
        policy = RoundingPolicy(mode="capacity", C=1.0, trials=trials, seed=case)
        numbers = range(3, 3 + trials)
        sel = sample_batch(lp, delta, policy, numbers)
        samples = [_reference_sample_round(lp, delta, policy, t) for t in numbers]
        assert [tuple(int(i) for i in ids[row]) for row in sel] == samples
        for t, sample in zip(numbers, samples):
            drawn = bernoulli_draws(case, t, ids) < delta
            over = lp.row_coeffs @ drawn.astype(float) > lp.row_limit
            seen["stage_two_drop"] += len(sample) < drawn.sum()
            seen["whole_sample_drop"] += bool(np.any(lp.row_var[over] < 0))
        # the same rows plus an empty and a singleton set, over context positions
        sets = samples + [(), tuple(int(i) for i in ids[-1:])]
        rows = selection(ctx, *sets)
        bound = 1.5  # low enough that extraction drops members
        kept = _extract_rows(ctx, rows, [bound] * len(rows))
        kept_sets = [_reference_extract(ctx, s, bound) for s in sets]
        assert [tuple(ctx.ids[row].tolist()) for row in kept] == kept_sets
        parts = [[tuple(ctx.ids[p].tolist()) for p in row]
                 for row in _strengthen_rows(ctx, rows)]
        assert parts == [_reference_strengthen(ctx, s) for s in sets]
        best = [best_part(ctx, [ctx.index_of(p) for p in _reference_strengthen(ctx, k)],
                          "cardinality") for k in kept_sets]
        assert [p.tolist() for p in final_selection_batch(
            ctx, rows, [bound] * len(rows), "cardinality")] == \
            [p.tolist() for p in best]
        assert _extracted(ctx, sets[0], bound) == kept_sets[0]
        assert signal_strengthen(ctx, sets[0]) == parts[0]
        seen["extract_drop"] += sum(len(k) < len(s) for k, s in zip(kept_sets, sets))
        seen["multi_part"] += sum(len(p) > 1 for p in parts)
    # none of the compared paths was vacuous
    assert seen["stage_two_drop"] and seen["extract_drop"] and seen["multi_part"]
    assert bool(seen["whole_sample_drop"]) == with_primaries  # the aggregate row


def test_strengthening_a_gapped_subset_of_sparse_ids_matches_per_set_reference():
    rng = np.random.default_rng(5)
    seen_parts = 0
    for seed in range(3):
        inst = generate_instance(GenConfig(n=40, R=2.5, delta=2.0, seed=seed))
        sparse = Instance(links=tuple(Link(1000 * lk.id + 7 * (lk.id % 3), lk.sender,
                                           lk.receiver, weight=lk.weight)
                                      for lk in inst.links), alpha=inst.alpha)
        ctx = AffectanceContext(sparse, UNIFORM)
        # every third position left out: the rows' union has gaps and is a
        # strict subset of the context
        cols = np.flatnonzero(np.arange(ctx.n) % 3 != 1)
        rows = np.zeros((6, ctx.n), dtype=bool)
        rows[:, cols] = rng.random((6, cols.size)) < rng.uniform(0.3, 0.9, (6, 1))
        rows[0] = False
        rows[1, cols[1:]] = False
        rows[2, cols] = True
        assert 0 < rows.any(axis=0).sum() < ctx.n
        sets = [tuple(int(i) for i in ctx.ids[row]) for row in rows]
        parts = [[tuple(ctx.ids[p].tolist()) for p in row]
                 for row in _strengthen_rows(ctx, rows)]
        assert parts == [_reference_strengthen(ctx, s) for s in sets]
        seen_parts += sum(len(p) > 1 for p in parts)
    assert seen_parts  # some row was split into several parts


@pytest.mark.parametrize("mode", ["capacity", "qos", "weighted"])
def test_sweep_matches_per_constant_pipelines(mode):
    ctx = random_ctx(12, n=30, R=3.0, delta=2.0, power=PowerAssignment.linear())
    constants = (0.2, 1.4, 0.6, 1.4, 2.2)  # unsorted, with a repeat
    policies = [RoundingPolicy(mode=mode, C=C, trials=12, seed=4) for C in constants]
    per_constant = [run_pipeline(ctx, policy) for policy in policies]
    assert run_sweep(ctx, policies) == per_constant
    assert len({s.ids for s in per_constant}) > 1  # the constants did differ
    assert run_sweep(ctx, []) == []


def test_sweep_of_mixed_modes_is_refused():
    # a sweep is one problem over several constants: one message, raised
    # through the trial loop and both of its reducers
    ctx = random_ctx(3, n=24, R=3.0, delta=2.0, power=PowerAssignment.linear())
    prim = feasible_prim_ctx(8, n=16, R=6.0, delta=3.0, primaries=2)
    mixed = [RoundingPolicy(mode=mode, C=C, trials=9, seed=2)
             for mode, C in (("weighted", 1.0), ("capacity", 0.8), ("weighted", 2.0))]
    admission = [RoundingPolicy(mode=mode, trials=9, seed=2)
                 for mode in ("admission_large", "admission_general")]
    message = "a sweep's policies must share one mode"
    for c, policies in ((ctx, mixed), (prim, admission)):
        with pytest.raises(ValueError, match=message):
            next(round_trials(c, policies))
    with pytest.raises(ValueError, match=message):
        run_sweep(ctx, mixed)
    with pytest.raises(ValueError, match=message):
        admit_sweep(prim, admission)


@pytest.mark.parametrize("objective", ["cardinality", "weight"])
def test_final_selection_batch_takes_a_bound_per_row(objective):
    ctx = random_ctx(5, n=30, R=3.0, delta=2.0, power=PowerAssignment.linear())
    sel = np.random.default_rng(2).random((30, ctx.n)) < 0.4
    bounds = np.linspace(1.0, 24.0, 30)
    batch = [p.tolist() for p in final_selection_batch(ctx, sel, bounds, objective)]
    assert batch == [final_selection_batch(ctx, row[None], [bound], objective)[0].tolist()
                     for row, bound in zip(sel, bounds)]
    assert len(set(map(tuple, batch))) > 1


@pytest.mark.parametrize("objective", ["cardinality", "weight"])
def test_winner_matches_the_loop_form_of_the_best_set_rule(objective):
    # weights in {2, 4, 8} and parts of at most three of six links, some
    # copies of earlier ones, so values tie between different parts and
    # between copies of one part
    ctx = random_ctx(4, n=6, weight_dist="weight_class")
    rng = np.random.default_rng(7)
    seen = {"tie": 0, "copy": 0, "none": 0}
    for _ in range(300):
        parts = []
        for _ in range(rng.integers(0, 7)):
            if parts and rng.random() < 0.3:
                parts.append(parts[rng.integers(len(parts))].copy())
            else:
                parts.append(np.sort(rng.choice(ctx.n, rng.integers(0, 4), replace=False)))
        values = [float(ctx.weights[p].sum()) if objective == "weight" else float(len(p))
                  for p in parts]
        want, best_val, best_key = None, 0.0, ()
        for i, (val, p) in enumerate(zip(values, parts)):
            if better(val, tuple(p.tolist()), best_val, best_key):
                want, best_val, best_key = i, val, tuple(p.tolist())
        assert winner(ctx, parts, objective) == want
        assert best_part(ctx, parts, objective).tolist() == list(best_key)
        top = [tuple(p.tolist()) for val, p in zip(values, parts)
               if want is not None and val == best_val]
        seen["tie"] += len(set(top)) > 1
        seen["copy"] += len(top) > len(set(top))
        seen["none"] += want is None
    assert all(seen.values()), seen


def test_objectives_come_from_one_vocabulary():
    vocabulary = set(formulations.OBJECTIVES)
    assert {problem.objective for problem in formulations.PROBLEMS.values()} <= vocabulary
    assert {objective for _, objective in GREEDY_VARIANTS.values()} <= vocabulary
    ctx = random_ctx(4, n=6)
    sched = certify(ctx, ctx.ids[:1])
    for unknown in ("capacity", "weighted", "size"):  # mode names are not objectives
        with pytest.raises(ValueError, match="unknown objective"):
            best_part(ctx, [np.arange(2)], unknown)
        with pytest.raises(ValueError, match="unknown objective"):
            schedule_value(ctx, sched, unknown)
        with pytest.raises(ValueError, match="unknown objective"):
            exact_capacity(ctx, unknown)


def test_round_trials_batches_consecutive_pairs_up_to_the_cell_budget(monkeypatch):
    ctx = random_ctx(12, n=30, R=3.0, delta=2.0, power=PowerAssignment.linear())
    policies = [RoundingPolicy(mode="capacity", C=C, trials=12, seed=4)
                for C in (0.2, 1.4, 0.6, 1.4, 2.2, 0.6)]
    batches = []
    select = rounding.final_selection_batch

    def recorded(ctx, sel, bounds, objective):
        batches.append(sel)
        return select(ctx, sel, bounds, objective)

    def cells(sel):
        return len(sel) * int(sel.any(axis=0).sum())

    monkeypatch.setattr(rounding, "final_selection_batch", recorded)
    whole = run_sweep(ctx, policies)
    assert [len(b) for b in batches] == [72]
    for budget in (1, 100, 200, 300, 500):
        batches.clear()
        monkeypatch.setattr(rounding, "_BATCH_CELLS", budget)
        assert run_sweep(ctx, policies) == whole
        assert sum(len(b) for b in batches) == 72
        for b in batches:
            assert len(b) % 12 == 0  # a policy is never split
            # every batch but the last ran at the policy that took it to the budget
            assert cells(b[:-12]) < budget
            assert b is batches[-1] or cells(b) >= budget
        if budget == 1:
            assert len(batches) == 6
        else:
            assert 1 < len(batches) < 6, budget


def test_round_trials_builds_each_mode_once_per_sweep(monkeypatch):
    ctx = random_ctx(4, n=12, R=4.0, delta=2.0)
    prim = feasible_prim_ctx(8, n=16, R=6.0, delta=3.0, primaries=2)
    calls, warm = [], []
    solve = rounding.solve_lp

    def counted(name):
        build = getattr(formulations, name)
        return lambda c, C: calls.append(name) or build(c, C)

    def recorded(lp, session=None):
        sol = solve(lp, session)
        warm.append(session.warm)
        return sol

    for name in ("build_capacity_lp", "build_admission_large_lp"):
        monkeypatch.setattr(formulations, name, counted(name))
    monkeypatch.setattr(rounding, "solve_lp", recorded)
    constants = (0.6, 1.2, 1.8)
    for c, mode in ((ctx, "capacity"), (prim, "admission_large"), (ctx, "capacity")):
        calls.clear()
        warm.clear()
        programs = [lp for lp, _ in round_trials(
            c, [RoundingPolicy(mode=mode, C=C, trials=3) for C in constants])]
        assert calls == [formulations.PROBLEMS[mode].builder]  # each sweep builds again, once
        assert warm == [False, True, True]
        first = programs[0]
        for program, C in zip(programs, constants):
            assert program.objective is first.objective
            assert program.row_coeffs is first.row_coeffs
            assert program.ids is first.ids
            fresh = formulations.PROBLEMS[mode].build(c, C)
            assert np.array_equal(program.row_bounds, fresh.row_bounds)
            assert np.array_equal(program.row_limit, fresh.row_limit)


def _bin_fit(size, rows, steps):
    """A ``_first_fit`` callback packing items of the given sizes into unit
    bins; checks the arguments the engine hands it."""
    loads = np.zeros((rows, steps + 1))

    def fit(i, cols, groups, width):
        a = cols.shape[0]
        assert cols.shape == (a, i + 1) and groups.shape == (a, i)
        assert width >= groups.max(initial=-1) + 2
        u = size[cols[:, i]]
        choice = (loads[:a, :width] + u[:, None] <= 1.0).argmax(axis=1)
        loads[np.arange(a), choice] += u
        return choice

    return fit


def _reference_first_fit(ids, row, rank, size):
    """One row's first fit into unit bins, one column at a time."""
    bins = []  # [members, load]
    for c in rank:
        if not row[c]:
            continue
        for b in bins:
            if b[1] + size[c] <= 1.0:
                b[0].append(int(ids[c]))
                b[1] += size[c]
                break
        else:
            bins.append([[int(ids[c])], size[c]])
    return [tuple(sorted(m)) for m, _ in bins]


@pytest.mark.parametrize("seed", range(4))
def test_first_fit_matches_sequential_reference(seed):
    rng = np.random.default_rng(seed)
    n = 30
    ids = rng.permutation(1000)[:n]  # unsorted labels: groups come back sorted by id
    size = rng.uniform(0.05, 1.0, n)
    # a coarse key, so the rank order has ties (broken by column)
    rank = np.argsort(-np.round(size, 1), kind="stable")
    sel = rng.random((7, n)) < rng.uniform(0.1, 0.9, (7, 1))  # rows of unequal size
    sel[2] = False     # an empty row
    sel[4] = True      # a row that places every column
    sel[5, :] = False  # a singleton
    sel[5, 3] = True
    steps = int(sel.sum(axis=1).max())
    out = [[tuple(g.tolist()) for g in groups]
           for groups in _first_fit(ids, sel, rank, _bin_fit(size, len(sel), steps))]
    assert out == [_reference_first_fit(ids, row, rank, size) for row in sel]
    assert out[2] == [] and out[5] == [(int(ids[3]),)]
    assert sorted(i for g in out[4] for i in g) == sorted(ids.tolist())
    assert any(len(groups) > 1 for groups in out)  # the placement was not trivial


def test_first_fit_without_rows_or_columns():
    ids, rank, size = np.arange(5), np.arange(5), np.full(5, 0.5)
    assert list(_first_fit(ids, np.zeros((0, 5), bool), rank, _bin_fit(size, 0, 0))) == []
    empty = np.arange(0)
    assert list(_first_fit(empty, np.zeros((2, 0), bool), empty,
                           _bin_fit(size, 2, 0))) == [[], []]
