import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from sinrcap import (AffectanceContext, GenConfig, Instance, Link, LpSession,
                     PowerAssignment, RoundingPolicy, bernoulli_draws,
                     build_admission_large_lp, build_admission_lp, build_capacity_lp,
                     build_qos_lp, build_weighted_lp, check_feasibility, exact_capacity,
                     extract_low_affectance, final_selection, generate_instance,
                     run_pipeline, run_sweep, sample_round, signal_strengthen, solve_lp)
from sinrcap import formulations, rounding
from sinrcap.rounding import (ROUNDING_MODES, _extract_rows, _first_fit, _strengthen_rows,
                              best_part, final_selection_batch, round_trials, sample_batch)

from conftest import (colocated_pair, far_instance, feasible_prim_ctx, make_link,
                      random_ctx)

UNIFORM = PowerAssignment.uniform()


def test_draws_are_link_keyed():
    full = bernoulli_draws(42, 3, list(range(10)))
    sub = bernoulli_draws(42, 3, [2, 5, 7])
    assert np.array_equal(sub, full[[2, 5, 7]])
    again = bernoulli_draws(42, 3, list(range(10)))
    assert np.array_equal(full, again)
    other_trial = bernoulli_draws(42, 4, list(range(10)))
    assert not np.array_equal(full, other_trial)


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


def test_sample_round_degenerate_deltas():
    ctx = AffectanceContext(far_instance(5), UNIFORM)
    lp = build_capacity_lp(ctx, 1.0)
    policy = RoundingPolicy(mode="capacity", C=1.0, trials=1, seed=0)
    assert sample_round(lp, np.zeros(5), policy, 0) == ()
    # all-ones fractional values with negligible affectances keep every link
    assert sample_round(lp, np.ones(5), policy, 0) == tuple(int(i) for i in ctx.ids)


def test_sample_round_deterministic():
    ctx = random_ctx(3, n=10, R=4.0)
    lp = build_capacity_lp(ctx, 1.0)
    sol = solve_lp(lp)
    policy = RoundingPolicy(mode="capacity", C=1.0, trials=1, seed=11)
    a = sample_round(lp, sol.values, policy, 5)
    b = sample_round(lp, sol.values, policy, 5)
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
                assert sample_round(lp, delta, policy, t) == expected
                shrunk += len(expected) < selected.sum()
    assert shrunk > 0  # stage two did drop links
    assert (discarded > 0) == (mode == "admission_general")


def test_extract_low_affectance():
    ctx = AffectanceContext(far_instance(4), UNIFORM)
    ids = tuple(int(i) for i in ctx.ids)
    assert extract_low_affectance(ctx, ids, 12.0) == ids
    assert extract_low_affectance(ctx, (), 12.0) == ()
    dense = AffectanceContext(colocated_pair(noise=0.1), UNIFORM)
    # each member receives affectance 1 from the other; bound 0.5 drops both
    assert extract_low_affectance(dense, (0, 1), 0.5) == ()


def test_extract_keeps_half_on_rounded_sets():
    ctx = random_ctx(8, n=14, R=2.5, delta=2.0)
    C = 1.0
    lp = build_capacity_lp(ctx, C)
    sol = solve_lp(lp)
    policy = RoundingPolicy(mode="capacity", C=C, trials=1, seed=4)
    for t in range(50):
        s = sample_round(lp, sol.values, policy, t)
        kept = extract_low_affectance(ctx, s, 12 * C)
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
        assert check_feasibility(ctx, part, 1.0, "feasible")


def test_signal_strengthen_parts_pass_exact_sinr():
    for seed in range(4):
        ctx = random_ctx(seed, n=10, R=2.0, delta=2.0)
        parts = signal_strengthen(ctx, [int(i) for i in ctx.ids])
        for part in parts:
            assert check_feasibility(ctx, part, mode="exact_sinr")


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
        assert run_pipeline(ctx, policy).ids == \
            best_part(ctx, next(round_trials(ctx, [(program, policy)])), mode)
    with pytest.raises(ValueError, match="admission module"):
        run_pipeline(ctx, RoundingPolicy(mode="admission_general"))


def test_pipeline_looks_its_builder_up_when_it_runs(monkeypatch):
    ctx = random_ctx(12, n=20, R=3.0, delta=2.0)
    calls = []
    build = formulations.build_qos_lp
    monkeypatch.setattr(formulations, "build_qos_lp",
                        lambda c, C: calls.append(C) or build(c, C))
    session = LpSession()
    for C in (0.5, 1.0):
        run_pipeline(ctx, RoundingPolicy(mode="qos", C=C, trials=3), session)
    assert calls == [0.5]  # built once per session, derived at the next constant


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
        sizes.append(len(sample_round(lp, sol.values, policy, t)))
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
        if not check_feasibility(ctx, part, 1.0, "feasible"):
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
        sub = [int(i) for i in ctx.ids[::2]]
        yield ctx, build_qos_lp(AffectanceContext(ctx.instance.restrict(sub),
                                                  ctx.assignment), 1.0)


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
        # the same rows plus an empty and a singleton set, over sorted ids
        sets = samples + [(), tuple(int(i) for i in ids[-1:])]
        order = np.argsort(ids)
        rows = np.array([np.isin(ids[order], s) for s in sets])
        idx = ctx.index_of(ids[order])
        bound = 1.5  # low enough that extraction drops members
        kept = _extract_rows(ctx, idx, rows, [bound] * len(rows))
        kept_sets = [_reference_extract(ctx, s, bound) for s in sets]
        assert [tuple(int(i) for i in ids[order][row]) for row in kept] == kept_sets
        parts = [[tuple(ctx.ids[p].tolist()) for p in row]
                 for row in _strengthen_rows(ctx, idx, rows)]
        assert parts == [_reference_strengthen(ctx, s) for s in sets]
        assert final_selection_batch(ctx, ids, rows[:, np.argsort(order)], [bound] * len(rows),
                                     ["capacity"] * len(rows)) == \
            [best_part(ctx, _reference_strengthen(ctx, k), "capacity") for k in kept_sets]
        assert extract_low_affectance(ctx, sets[0], bound) == kept_sets[0]
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
        # every third position left out, then unsorted: the rows' union has
        # gaps and is a strict subset of the context
        cols = rng.permutation(np.flatnonzero(np.arange(ctx.n) % 3 != 1))
        rows = rng.random((6, cols.size)) < rng.uniform(0.3, 0.9, (6, 1))
        rows[0] = False
        rows[1, 1:] = False
        rows[2, :] = True
        idx = cols
        assert 0 < np.unique(idx[rows.any(axis=0)]).size < ctx.n
        sets = [tuple(int(i) for i in ctx.ids[idx[row]]) for row in rows]
        parts = [[tuple(ctx.ids[p].tolist()) for p in row]
                 for row in _strengthen_rows(ctx, idx, rows)]
        assert parts == [_reference_strengthen(ctx, s) for s in sets]
        seen_parts += sum(len(p) > 1 for p in parts)
    assert seen_parts  # some row was split into several parts


@pytest.mark.parametrize("mode", ["capacity", "qos", "weighted"])
def test_sweep_matches_per_constant_pipelines(mode):
    ctx = random_ctx(12, n=30, R=3.0, delta=2.0, power=PowerAssignment.linear())
    constants = (0.2, 1.4, 0.6, 1.4, 2.2)  # unsorted, with a repeat
    policies = [RoundingPolicy(mode=mode, C=C, trials=12, seed=4) for C in constants]
    session = LpSession()
    per_constant = [run_pipeline(ctx, policy, session) for policy in policies]
    assert run_sweep(ctx, policies, LpSession()) == per_constant
    assert len({s.ids for s in per_constant}) > 1  # the constants did differ
    assert run_sweep(ctx, [], LpSession()) == []


def test_sweep_of_mixed_modes_matches_per_policy_pipelines():
    ctx = random_ctx(3, n=24, R=3.0, delta=2.0, power=PowerAssignment.linear())
    policies = [RoundingPolicy(mode=mode, C=C, trials=9, seed=2)
                for mode, C in (("weighted", 1.0), ("capacity", 0.8), ("qos", 1.0),
                                ("weighted", 2.0))]
    session = LpSession()
    assert run_sweep(ctx, policies, LpSession()) == \
        [run_pipeline(ctx, policy, session) for policy in policies]


def test_final_selection_batch_takes_a_bound_and_mode_per_row():
    ctx = random_ctx(5, n=30, R=3.0, delta=2.0, power=PowerAssignment.linear())
    sel = np.random.default_rng(2).random((30, ctx.n)) < 0.4
    bounds = np.linspace(1.0, 24.0, 30)
    modes = ["weighted", "capacity", "qos"] * 10
    batch = final_selection_batch(ctx, ctx.ids, sel, bounds, modes)
    assert batch == [final_selection(ctx, ctx.ids[row], bound, mode)
                     for row, bound, mode in zip(sel, bounds, modes)]
    assert len(set(batch)) > 1


def test_round_trials_batches_consecutive_pairs_up_to_the_cell_budget(monkeypatch):
    ctx = random_ctx(12, n=30, R=3.0, delta=2.0, power=PowerAssignment.linear())
    policies = [RoundingPolicy(mode=mode, C=C, trials=12, seed=4)
                for mode, C in (("weighted", 0.2), ("capacity", 1.4), ("qos", 0.6),
                                ("weighted", 1.4), ("capacity", 2.2), ("qos", 0.6))]
    batches = []
    select = rounding.final_selection_batch

    def recorded(ctx, ids, sel, bounds, modes):
        batches.append(sel)
        return select(ctx, ids, sel, bounds, modes)

    def cells(sel):
        return len(sel) * int(sel.any(axis=0).sum())

    monkeypatch.setattr(rounding, "final_selection_batch", recorded)
    whole = run_sweep(ctx, policies)
    assert [len(b) for b in batches] == [72]
    for budget in (1, 300, 500, 800):
        batches.clear()
        monkeypatch.setattr(rounding, "_BATCH_CELLS", budget)
        assert run_sweep(ctx, policies) == whole
        assert sum(len(b) for b in batches) == 72
        for b in batches:
            assert len(b) % 12 == 0  # a pair is never split
            # every batch but the last ran at the pair that took it to the budget
            assert cells(b[:-12]) < budget
            assert b is batches[-1] or cells(b) >= budget
        if budget == 1:
            assert len(batches) == 6
        else:
            assert 1 < len(batches) < 6, budget


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
