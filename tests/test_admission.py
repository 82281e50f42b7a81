import dataclasses
import logging
import math

import numpy as np
import pytest

from sinrcap import (AffectanceContext, Instance, PowerAssignment, PrimarySet,
                     RetriesExhausted, RoundingPolicy, admit_general, admit_large_opt,
                     admit_sweep, certify, exact_admission)
from sinrcap import admission, rounding
from sinrcap.affectance import check_positions
from sinrcap.formulations import build_admission_large_lp
from sinrcap.lp_core import FractionalSolution
from sinrcap.rounding import final_selection_batch, round_trials

from conftest import (ColdSession, better, far_instance, feasible_prim_ctx, make_link,
                      random_ctx, sampled, selection)

UNIFORM = PowerAssignment.uniform()


def prim_ctx(seed, n=10, R=6.0, delta=2.0, primaries=2, beta=1.0, noise=0.0):
    return feasible_prim_ctx(seed, n=n, R=R, delta=delta, beta=beta, noise=noise,
                             primaries=primaries)


def policy(mode, seed=0, trials=20, C=1.0):
    return RoundingPolicy(mode=mode, C=C, trials=trials, seed=seed)


def test_general_no_primaries_reduces_to_plain_pipeline():
    empty = PrimarySet(links=(), powers=())
    inst = Instance(links=far_instance(4).links, alpha=2.5, primaries=empty)
    ctx = AffectanceContext(inst, UNIFORM, primaries=empty)
    res = admit_general(ctx, policy("admission_general"))
    assert res.admitted.ids == (0, 1, 2, 3)
    assert res.verified
    assert res.groups == ((0, 1, 2, 3),)


def test_general_far_primary_keeps_capacity():
    prim = PrimarySet(links=(make_link(9, 1e6, 0.0, 1e6 + 1, 0.0),), powers=(1.0,))
    inst = Instance(links=far_instance(4).links, alpha=2.5, primaries=prim)
    ctx = AffectanceContext(inst, UNIFORM, primaries=prim)
    res = admit_general(ctx, policy("admission_general"))
    assert res.admitted.size == 4
    assert res.verified


@pytest.mark.parametrize("seed", range(6))
def test_general_never_beats_admission_oracle(seed):
    ctx = prim_ctx(seed, n=9, primaries=1 + seed % 2)
    res = admit_general(ctx, policy("admission_general", seed=seed, trials=30))
    opt = exact_admission(ctx)
    assert res.admitted.size <= opt.size
    assert res.verified
    # every primary keeps a unit budget in unclipped hat-affectance terms
    assert all(load <= 1.0 for load in res.per_primary_load)


def partition(ctx, R):
    """Primary-safe groups of the id set R as id tuples: a one-set
    ``_partition_rows``."""
    return _id_groups(ctx, admission._partition_rows(ctx, [ctx.index_of(R)])[0])


def _id_groups(ctx, groups):
    return [tuple(ctx.ids[g].tolist()) for g in groups]


def test_partition_by_primaries_basics():
    ctx = prim_ctx(3, n=8, primaries=2)
    assert partition(ctx, []) == []
    far = AffectanceContext(far_instance(4), UNIFORM,
                            primaries=PrimarySet(links=(), powers=()))
    assert partition(far, [0, 1, 2, 3]) == [(0, 1, 2, 3)]


def test_partition_groups_respect_unit_budget():
    for seed in range(5):
        ctx = prim_ctx(seed + 10, n=12, R=4.0, primaries=2)
        ids = [int(i) for i in ctx.ids]
        groups = partition(ctx, ids)
        covered = [i for g in groups for i in g]
        assert len(covered) == len(set(covered))
        for g in groups:
            loads = ctx.raw_to_prim[ctx.index_of(g), :].sum(axis=0)
            assert np.all(loads <= 1.0)


def test_partition_drops_overloading_link(caplog):
    # a secondary sender almost on the primary receiver overloads it alone
    prim = PrimarySet(links=(make_link(9, 0.0, 0.0, 1.0, 0.0),), powers=(1.0,))
    sec = (make_link(0, 1.2, 0.0, 2.2, 0.0), make_link(1, 50.0, 0.0, 51.0, 0.0))
    inst = Instance(links=sec, alpha=2.0, primaries=prim)
    ctx = AffectanceContext(inst, UNIFORM, primaries=prim)
    assert ctx.raw_to_prim[0, 0] > 1.0
    with caplog.at_level(logging.WARNING):
        groups = partition(ctx, [0, 1])
    assert groups == [(1,)]
    assert any("overload" in r.message for r in caplog.records)


def _reference_partition(ctx, R):
    """Primary-safe grouping as a plain first-fit loop over [members, load]
    pairs, links sorted by clipped primary load, heaviest first."""
    ids = sorted(int(i) for i in R)
    if not ids:
        return []
    if ctx.k == 0:
        return [tuple(ids)]
    idx = ctx.index_of(ids)
    order = sorted(range(len(ids)),
                   key=lambda p: (-float(np.minimum(ctx.raw_to_prim[idx[p]], 1.0).sum()),
                                  ids[p]))
    groups = []
    for p in order:
        contrib = ctx.raw_to_prim[idx[p], :]
        if np.any(contrib > 1.0):
            continue
        for entry in groups:
            if np.all(entry[1] + contrib <= 1.0):
                entry[0].append(ids[p])
                entry[1] = entry[1] + contrib
                break
        else:
            groups.append([[ids[p]], contrib.copy()])
    return [tuple(sorted(g)) for g, _ in groups]


def test_partition_matches_first_fit_reference():
    rng = np.random.default_rng(7)
    shapes = set()
    for seed in range(20):
        k = 1 + seed % 8
        ctx = prim_ctx(100 + 10 * seed, n=int(rng.integers(8, 30)), R=4.0 + k, primaries=k)
        ids = [int(i) for i in ctx.ids]
        for R in (ids, [i for i in ids if rng.random() < 0.5]):
            groups = partition(ctx, R)
            assert groups == _reference_partition(ctx, R)
            shapes.add((len(groups) > 1, sum(map(len, groups)) < len(R)))
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


def _lockstep_batch(ctx, rng):
    """Sets of very different lengths, empty ones among them."""
    ids = [int(i) for i in ctx.ids]
    return [[], ids, [i for i in ids if rng.random() < 0.3], ids[:1], [],
            ids[len(ids) // 2:], [i for i in ids if rng.random() < 0.8], ids[-2:]]


def test_lockstep_partition_matches_reference_row_by_row(caplog):
    rng = np.random.default_rng(11)
    none = PrimarySet(links=(), powers=())
    affected_total = 0
    for k in range(9):
        if k == 0:
            ctx = AffectanceContext(random_ctx(3, n=15).instance, UNIFORM, primaries=none)
        else:
            ctx = prim_ctx(200 + 10 * k, n=int(rng.integers(10, 30)), R=3.0 + k,
                           primaries=k)
        assert ctx.k == k
        batch = _lockstep_batch(ctx, rng)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sinrcap.admission"):
            groups = [_id_groups(ctx, g) for g in
                      admission._partition_rows(ctx, [ctx.index_of(R) for R in batch])]
        assert groups == [_reference_partition(ctx, R) for R in batch]
        assert groups == [partition(ctx, R) for R in batch]
        # one warning names the links that alone overload a primary in the
        # whole batch, then one per such set, as each runs on its own
        over = set(ctx.ids[np.any(ctx.raw_to_prim > 1.0, axis=1)].tolist())
        affected = [sorted(over & set(R)) for R in batch if over & set(R)]
        union = [sorted(set().union(*affected))] if affected else []
        warnings = [r for r in caplog.records if "overload" in r.getMessage()]
        assert [r.args[1] for r in warnings] == union + affected
        affected_total += len(affected)
    assert affected_total > 0


def test_admit_general_warns_once_about_dropped_links(caplog):
    ctx = prim_ctx(220, n=20, R=5.0, primaries=2)
    over = set(ctx.ids[np.any(ctx.raw_to_prim > 1.0, axis=1)].tolist())
    with caplog.at_level(logging.WARNING, logger="sinrcap.admission"):
        admit_general(ctx, policy("admission_general"))
    warnings = [r for r in caplog.records if "overload" in r.getMessage()]
    assert len(warnings) == 1  # one per call, not one per trial
    assert warnings[0].args[1] and set(warnings[0].args[1]) <= over


@pytest.mark.parametrize("seed", range(4))
def test_large_opt_verifies(seed):
    ctx = prim_ctx(seed + 30, n=10, R=8.0, primaries=2)
    res = admit_large_opt(ctx, policy("admission_large", seed=seed, trials=20))
    assert res.verified
    assert res.admitted.size <= exact_admission(ctx).size
    assert all(load <= 1.0 for load in res.per_primary_load)


def test_large_opt_excludes_filtered_links():
    prim = PrimarySet(links=(make_link(8, 100.0, 0.0, 101.0, 0.0),
                             make_link(9, 300.0, 0.0, 301.0, 0.0)), powers=(1.0, 1.0))
    # link 0 sits right next to primary 8's receiver; link 1 is far away
    sec = (make_link(0, 101.5, 0.0, 102.5, 0.0), make_link(1, 0.0, 0.0, 1.0, 0.0))
    inst = Instance(links=sec, alpha=2.5, primaries=prim)
    ctx = AffectanceContext(inst, UNIFORM, primaries=prim)
    res = admit_large_opt(ctx, policy("admission_large", trials=30))
    assert 0 not in res.admitted.ids
    assert res.notes["filtered_to"] == 1


def test_large_opt_single_primary_flagged():
    ctx = prim_ctx(5, n=8, R=10.0, primaries=1)
    res = admit_large_opt(ctx, policy("admission_large", trials=10))
    assert res.notes["k1_fallback"]
    assert res.verified


def test_verify_with_primaries_cases():
    # empty admitted set with feasible primaries
    ctx = prim_ctx(11, n=6, primaries=2)
    assert certify(ctx, ()).verified
    # a secondary co-located with the primary receiver at equal power breaks it
    prim = PrimarySet(links=(make_link(9, 0.0, 0.0, 1.0, 0.0),), powers=(1.0,))
    sec = (make_link(0, 1.0, 0.0, 2.0, 0.0),)
    inst = Instance(links=sec, alpha=2.0, noise=0.01, primaries=prim)
    ctx2 = AffectanceContext(inst, UNIFORM, primaries=prim)
    assert not certify(ctx2, (0,)).verified


@pytest.mark.parametrize("mode", ["admission_general", "admission_large"])
def test_admission_raises_on_a_result_verify_refuses(mode, monkeypatch):
    ctx = prim_ctx(11, n=6, primaries=2)
    certify = admission.certify
    monkeypatch.setattr(admission, "certify",
                        lambda ctx, ids: dataclasses.replace(certify(ctx, ids), verified=False))
    with pytest.raises(AssertionError, match="admission result failed verification"):
        admit_sweep(ctx, [policy(mode, trials=5)])


def test_admission_with_all_secondaries_removed():
    # every secondary is individually infeasible; both pipelines must come
    # back empty and verified rather than erroring
    bad = tuple(make_link(i, 10.0 * i, 0.0, 10.0 * i + 1.0, 0.0, noise_override=5.0)
                for i in range(3))
    prim = PrimarySet(links=(make_link(99, 100.0, 0.0, 101.0, 0.0),), powers=(1.0,))
    inst = Instance(links=bad, alpha=2.0, beta=1.0, noise=0.0, primaries=prim)
    ctx = AffectanceContext(inst, UNIFORM, primaries=prim)
    assert ctx.n == 0 and ctx.removed_ids == (0, 1, 2)
    res = admit_general(ctx, policy("admission_general", trials=3))
    assert res.admitted.ids == () and res.verified
    res2 = admit_large_opt(ctx, policy("admission_large", trials=3))
    assert res2.admitted.ids == () and res2.verified
    assert exact_admission(ctx).ids == ()


def test_admission_results_pass_verification_sweep():
    for seed in range(4):
        ctx = prim_ctx(seed + 50, n=10, R=5.0, primaries=4)
        res = admit_general(ctx, policy("admission_general", seed=seed, trials=15))
        assert res.verified
        assert certify(ctx, res.admitted.ids).verified
        # hat-affectance one-feasibility of the admitted set
        assert check_positions(ctx, ctx.index_of(res.admitted.ids))


def _ring_ctx(count=20, radius=2.75):
    """One primary with ``count`` unit secondaries around its receiver, each
    at plain affectance ~0.08 on it: every link passes the prefilter, but
    more than 12 of them together overload the primary."""
    prim = PrimarySet(links=(make_link(99, 0.0, 0.0, 1.0, 0.0),), powers=(1.0,))
    links = []
    for i in range(count):
        a = 2 * math.pi * i / count
        sx, sy = 1.0 + radius * math.cos(a), radius * math.sin(a)
        links.append(make_link(i, sx, sy, sx + math.cos(a), sy + math.sin(a)))
    inst = Instance(links=tuple(links), alpha=2.5, primaries=prim)
    return AffectanceContext(inst, UNIFORM, primaries=prim)


def _sequential_large_opt(ctx, pol, retry_cap):
    """admit_large_opt's attempts one sample at a time, the reference its
    block batching must reproduce: (best ids, successes, attempts made)."""
    lp = build_admission_large_lp(ctx, pol.C)
    sol = rounding.solve_lp(lp)
    best_ids, successes = (), 0
    attempts_cap = max(pol.trials, retry_cap)
    for trial in range(attempts_cap):
        sample = sampled(lp, sol.values, pol, trial)
        if np.any(ctx.raw_to_prim[ctx.index_of(sample)].sum(axis=0) > 1.0):
            continue
        successes += 1
        cand = tuple(ctx.ids[final_selection_batch(ctx, selection(ctx, sample),
                                                   [pol.extraction_bound], "cardinality")[0]]
                     .tolist())
        if better(len(cand), cand, len(best_ids), best_ids):
            best_ids = cand
        if successes >= pol.trials:
            break
    if successes == 0:
        raise RetriesExhausted("no success")
    return best_ids, successes, trial + 1


def _fixed_fractions(monkeypatch, value):
    # every variable at the same fractional value, so the primary budget
    # fails often enough to need more than one block of attempts
    monkeypatch.setattr(rounding, "solve_lp",
                        lambda lp, session=None: FractionalSolution(np.full(lp.n, value), 0.0))


def test_large_opt_blocks_match_sequential_attempts(monkeypatch):
    ctx = _ring_ctx()
    second_block = short_of_trials = 0
    for value, trials, retry_cap in ((0.65, 5, 200), (0.7, 5, 200), (0.6, 8, 200),
                                     (0.5, 5, 200), (0.7, 5, 7), (0.65, 4, 11)):
        _fixed_fractions(monkeypatch, value)
        for seed in range(4):
            pol = policy("admission_large", seed=seed, trials=trials, C=10.0)
            monkeypatch.setattr(admission, "RETRY_CAP", retry_cap)
            try:
                best, successes, attempts = _sequential_large_opt(ctx, pol, retry_cap)
            except RetriesExhausted:
                with pytest.raises(RetriesExhausted):
                    admit_large_opt(ctx, pol)
                continue
            res = admit_large_opt(ctx, pol)
            assert res.admitted.ids == best
            assert res.notes["successful_samples"] == successes
            assert res.verified
            second_block += attempts > trials
            short_of_trials += successes < trials
    assert second_block > 0 and short_of_trials > 0


def test_large_opt_blocks_exhaust_retries(monkeypatch):
    ctx = _ring_ctx()
    _fixed_fractions(monkeypatch, 1.0)  # every sample holds all 20 links
    pol = policy("admission_large", trials=3, C=10.0)
    with pytest.raises(RetriesExhausted):
        _sequential_large_opt(ctx, pol, 7)
    monkeypatch.setattr(admission, "RETRY_CAP", 7)
    with pytest.raises(RetriesExhausted):
        admit_large_opt(ctx, pol)


@pytest.mark.parametrize("mode", ["admission_general", "admission_large"])
def test_admit_sweep_matches_per_constant_pipelines(mode, monkeypatch):
    ctx = prim_ctx(62, n=16, R=8.0, primaries=2)
    policies = [policy(mode, seed=3, trials=12, C=C) for C in (0.4, 1.2, 0.8, 1.2, 2.0)]
    sweep = admit_sweep(ctx, policies)  # one session: warm re-solves
    monkeypatch.setattr(rounding, "LpSession", ColdSession)
    pipeline = admit_general if mode == "admission_general" else admit_large_opt
    assert sweep == [pipeline(ctx, p) for p in policies]
    assert len({res.admitted.ids for res in sweep}) > 1  # the constants did differ


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_admit_general_wins_with_the_best_group_of_every_trial(seed):
    # the loop form of the best-set rule over every group of every trial,
    # in trial order, names the winning trial, whose groups and aggregate
    # primary load the result reports
    ctx = prim_ctx(seed, n=30, R=8.0, primaries=3)
    pol = policy("admission_general", seed=seed, trials=20, C=2.0)
    (_, sets), = round_trials(ctx, [pol])
    grouped = admission._partition_rows(ctx, sets)
    best, best_key, won, tops = 0, (), None, set()
    for trial, groups in enumerate(grouped):
        for g in groups:
            key = tuple(g.tolist())
            if better(len(key), key, best, best_key):
                best, best_key, won = len(key), key, trial
    for groups in grouped:
        tops.update(tuple(g.tolist()) for g in groups if len(g) == best)
    res = admit_general(ctx, pol)
    assert res.admitted.ids == tuple(ctx.ids[list(best_key)].tolist())
    assert res.groups == tuple(tuple(ctx.ids[g].tolist()) for g in grouped[won])
    assert res.notes["aggregate_primary_load"] == \
        float(np.minimum(ctx.raw_to_prim[sets[won]], 1.0).sum())
    assert won > 0 and len(tops) > 1  # not the first trial, and won on a tie


def test_admit_sweep_refuses_mixed_or_non_admission_modes():
    ctx = prim_ctx(62, n=16, R=8.0, primaries=2)
    assert admit_sweep(ctx, []) == []
    for modes in (("capacity",), ("admission_large", "qos"), ("qos", "admission_large")):
        with pytest.raises(ValueError, match="must use an admission mode"):
            admit_sweep(ctx, [policy(mode) for mode in modes])
    # a mix of admission modes is refused by the trial loop, as any mix is
    with pytest.raises(ValueError, match="must share one mode"):
        admit_sweep(ctx, [policy("admission_general"), policy("admission_large")])
    # the one-policy cases keep their own mode checks
    with pytest.raises(ValueError, match="admission_general"):
        admit_general(ctx, policy("admission_large"))
    with pytest.raises(ValueError, match="admission_large"):
        admit_large_opt(ctx, policy("admission_general"))
