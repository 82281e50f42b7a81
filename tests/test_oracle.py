from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from sinrcap import (AffectanceContext, GenConfig, InfeasiblePrimaries, Instance,
                     PowerAssignment, PrimarySet, TooLarge, exact_admission,
                     exact_capacity, generate_instance, largest_bifeasible,
                     run_oracle_suite, schedule_value)
from sinrcap import oracle
from sinrcap.affectance import _verdict, _within

from conftest import colocated_pair, far_instance, feasible_prim_ctx, make_link, random_ctx

UNIFORM = PowerAssignment.uniform()


def test_empty_instance():
    ctx = AffectanceContext(Instance(links=(), alpha=2.5), UNIFORM)
    assert exact_capacity(ctx).ids == ()
    assert exact_capacity(ctx, "weight").ids == ()
    assert largest_bifeasible(ctx).ids == ()
    prim = PrimarySet(links=(make_link(9, 0.0, 0.0, 1.0, 0.0),), powers=(1.0,))
    inst = Instance(links=(), alpha=2.5, primaries=prim)
    assert exact_admission(AffectanceContext(inst, UNIFORM, primaries=prim)).ids == ()


@pytest.mark.parametrize("gamma", [float("nan"), -1.0, 0.0, float("inf"), True, "2"])
@pytest.mark.parametrize("oracle", [
    largest_bifeasible, partial(exact_capacity, objective="cardinality", mode="affectance"),
    exact_capacity], ids=["bifeasible", "affectance", "exact"])
def test_oracles_refuse_a_gamma_that_is_not_a_finite_positive_number(oracle, gamma):
    # these used to return () as the optimum
    ctx = AffectanceContext(generate_instance(GenConfig(n=6, R=6.0, delta=2.0, seed=4)), UNIFORM)
    with pytest.raises(ValueError) as exc:
        oracle(ctx, gamma=gamma)
    assert str(exc.value) == f"gamma must be a finite positive number, got {gamma!r}"


def test_far_pair_both_selected():
    ctx = AffectanceContext(far_instance(2), UNIFORM)
    assert exact_capacity(ctx).ids == (0, 1)


def test_colocated_pair_tie_picks_lower_id():
    ctx = AffectanceContext(colocated_pair(noise=0.1), UNIFORM)
    sched = exact_capacity(ctx)
    assert sched.ids == (0,)


def test_weight_objective():
    inst = colocated_pair(noise=0.1, weights=(1.0, 5.0))
    ctx = AffectanceContext(inst, UNIFORM)
    sched = exact_capacity(ctx, objective="weight")
    assert sched.ids == (1,)
    assert schedule_value(ctx, sched, "weight") == 5.0


def test_cap_enforced():
    ctx = random_ctx(0, n=8)
    big = AffectanceContext(far_instance(21), UNIFORM)
    with pytest.raises(TooLarge):
        exact_capacity(big)
    exact_capacity(ctx)  # under the cap: fine


@pytest.mark.parametrize("seed", range(4))
def test_affectance_mode_matches_exact_at_one(seed):
    ctx = random_ctx(seed, n=9, R=3.5, delta=2.0)
    a = exact_capacity(ctx, "cardinality", "affectance", gamma=1.0)
    b = exact_capacity(ctx, "cardinality", "exact_sinr")
    assert a.size == b.size
    assert a.ids == b.ids


def test_exact_admission_infeasible_primaries():
    # two primaries placed so each jams the other at equal power
    plinks = (make_link(8, 0.0, 0.0, 1.0, 0.0), make_link(9, 1.0, 0.0, 0.0, 0.0))
    prim = PrimarySet(links=plinks, powers=(1.0, 1.0))
    inst = Instance(links=(make_link(0, 50.0, 0.0, 51.0, 0.0),), alpha=2.5,
                    noise=0.1, primaries=prim)
    with pytest.raises(InfeasiblePrimaries):
        AffectanceContext(inst, UNIFORM, primaries=prim)


@pytest.mark.parametrize("seed", range(6))
def test_exact_admission_is_exact_capacity_of_a_context_with_primaries(seed):
    # the context refuses primaries infeasible on their own, so the empty set
    # always passes the exact accept and admission needs no check of its own
    ctx = feasible_prim_ctx(50 * seed, n=10, R=5.0, delta=2.0, primaries=1 + seed % 3)
    assert ctx.k == 1 + seed % 3
    assert _verdict_passes(ctx)(np.zeros((1, ctx.n), bool))[0]
    assert exact_admission(ctx) == exact_capacity(ctx)


def test_exact_admission_far_primary_equals_capacity():
    prim = PrimarySet(links=(make_link(9, 1e6, 0.0, 1e6 + 1, 0.0),), powers=(1.0,))
    base = far_instance(3)
    inst = Instance(links=base.links, alpha=2.5, primaries=prim)
    ctx = AffectanceContext(inst, UNIFORM, primaries=prim)
    adm = exact_admission(ctx)
    cap = exact_capacity(AffectanceContext(base, UNIFORM))
    assert adm.size == cap.size == 3


def test_exact_admission_hand_instance():
    # One primary of length 1 (power 1, alpha 2, N 0, beta 1), receiver at
    # (1, 0).  Three secondaries of length 1:
    #   link 0 sender at (2.5, 0): interference at the primary 1/1.5**2 =
    #     0.444, primary SINR 1/0.444 = 2.25 >= 1; link 0's receiver at
    #     (3.5, 0) hears the primary at distance 3.5: interference 1/12.25,
    #     own SINR about 12: fine.
    #   link 1 sender at (1.5, 0): interference at the primary 1/0.25 = 4,
    #     primary SINR 1/4 < 1: never admissible.
    #   link 2 at x = 1000: negligible both ways.
    # {0, 2} keeps the primary at SINR 1/(0.444 + 1e-6) > 1 and both members
    # comfortable, so OPT = {0, 2}.
    prim = PrimarySet(links=(make_link(9, 0.0, 0.0, 1.0, 0.0),), powers=(1.0,))
    sec = (make_link(0, 2.5, 0.0, 3.5, 0.0),
           make_link(1, 1.5, 0.0, 1.5, 1.0),
           make_link(2, 1000.0, 0.0, 1001.0, 0.0))
    inst = Instance(links=sec, alpha=2.0, beta=1.0, noise=0.0, primaries=prim)
    ctx = AffectanceContext(inst, UNIFORM, primaries=prim)
    sched = exact_admission(ctx)
    assert sched.ids == (0, 2)


def test_largest_bifeasible_basics():
    single = AffectanceContext(Instance(links=(make_link(0, 0, 0, 1, 0),), alpha=2.5),
                               UNIFORM)
    assert largest_bifeasible(single, 2.0).ids == (0,)
    far = AffectanceContext(far_instance(4), UNIFORM)
    assert largest_bifeasible(far, 2.0).ids == (0, 1, 2, 3)


@pytest.mark.parametrize("seed", range(5))
def test_bifeasible_witness_at_least_half_opt(seed):
    ctx = random_ctx(seed + 100, n=9, R=3.0, delta=2.0)
    opt = exact_capacity(ctx)
    w2 = largest_bifeasible(ctx, 2.0)
    assert 2 * w2.size >= opt.size


def _meets(*conditions):
    """An accept: a set passes when it meets every ``(loads, limit, k)``
    condition."""
    return lambda sel: np.logical_and.reduce([_within(sel, *c) for c in conditions])


def _verdict_passes(ctx):
    """The shared verdict as an accept: a set passes when it meets both
    conditions."""
    return _meets(*_verdict(ctx))


def _bifeasible(ctx, gamma=2.0):
    """Clipped affectance sums within gamma at every member, received and
    sent, as an accept."""
    clipped = np.minimum(ctx.raw, 1.0)
    return _meets((clipped, gamma, 0), (clipped.T, gamma, 0))


def _brute_force(ctx, accept, weights=None):
    """Reference enumeration: judge all 2**n masks with ``accept`` and take
    the largest cardinality (or weight), ties to the smallest id tuple.
    Also returns the sizes of all sets tied at the best value."""
    sel = ((np.arange(1 << ctx.n)[:, None] >> np.arange(ctx.n)) & 1) == 1
    values = sel.sum(axis=1) if weights is None else sel.astype(float) @ weights
    ok = accept(sel)
    tied = np.flatnonzero(ok & (values == values[ok].max()))
    ids = min(tuple(int(i) for i in ctx.ids[sel[r]]) for r in tied)
    return ids, {int(sel[r].sum()) for r in tied}


def _sets_in_search_order(n):
    """Every subset of range(n) as a bool row and as a sorted index tuple,
    by size and each size in lexicographic order."""
    sets = sorted((tuple(i for i in range(n) if m >> i & 1) for m in range(1 << n)),
                  key=lambda t: (len(t), t))
    sel = np.zeros((len(sets), n), dtype=bool)
    for row, t in zip(sel, sets):
        row[list(t)] = True
    return sel, sets


def _conflict_pairs(rng, n):
    """A set passes when it holds no pair of a random conflict graph."""
    u, v = np.nonzero(np.triu(rng.random((n, n)) < 0.25, 1))
    return lambda sel: ~np.any(sel[:, u] & sel[:, v], axis=1)


def _weight_cap(rng, n, cap=None):
    """A set passes when its random nonnegative weights sum to at most cap."""
    w = rng.random(n)
    cap = rng.uniform(0.5, 3.0) if cap is None else cap
    return lambda sel: sel.astype(float) @ w <= cap


def _context_case(accept, R=4.0, primaries=0):
    """seed -> (n, accept(ctx)) on a random context of 6 to 12 links."""
    def case(seed):
        kw = dict(n=6 + seed % 7, R=R, delta=2.0)
        ctx = feasible_prim_ctx(40 * seed, primaries=primaries, **kw) if primaries \
            else random_ctx(seed, **kw)
        return ctx.n, accept(ctx)
    return case


def _synthetic_case(make):
    """seed -> (n, make(rng, n)) over 6 to 12 indices."""
    return lambda seed: (6 + seed % 7, make(np.random.default_rng(seed), 6 + seed % 7))


# name -> (seed -> (n, a hereditary accept over range(n)))
HEREDITARY_PREDICATES = {
    "verdict": _context_case(_verdict_passes),
    "admission_verdict": _context_case(_verdict_passes, R=5.0, primaries=2),
    "affectance": _context_case(lambda ctx: _meets((np.minimum(ctx.raw, 1.0), 1.5, 0))),
    "bifeasible": _context_case(_bifeasible, R=3.0),
    "conflict_pairs": _synthetic_case(_conflict_pairs),
    "weight_cap": _synthetic_case(_weight_cap),
}


def _join_candidates(sets, passed):
    """The sets the join judges, in search order: the empty set; if it
    passed, every singleton, then each set whose two subsets without its
    largest or its second-largest member both passed."""
    if () not in passed:
        return [()]
    return [t for t in sets if len(t) < 2 or {t[:-1], t[:-2] + t[-1:]} <= passed]


def _search(n, accept):
    """The sets ``_accepted_sets`` yields and the sets it hands to
    ``accept``, as sorted index tuples, in order."""
    judged = []

    def recording(sel):
        judged.extend(tuple(np.flatnonzero(row).tolist()) for row in sel)
        return accept(sel)

    blocks = list(oracle._accepted_sets(n, recording))
    assert all(len(block) <= oracle._CHUNK and len(set(block.sum(axis=1).tolist())) == 1
               for block in blocks)  # a block's sets share one size
    return [tuple(np.flatnonzero(row).tolist()) for b in blocks for row in b], judged


@pytest.mark.parametrize("chunk", [oracle._CHUNK, 5], ids=["chunk", "small_chunk"])
@pytest.mark.parametrize("case", HEREDITARY_PREDICATES)
def test_join_search_judges_the_join_and_yields_every_accepted_set(case, chunk, monkeypatch):
    # brute force over all 2**n sets: the search yields exactly the accepted
    # ones in search order, the empty set first, and judges exactly the empty
    # set, the singletons and each set whose two subsets without one of its
    # two largest members passed; a small chunk splits runs of siblings
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    judged_total, prefix_rule_total, largest = 0, 0, 0
    for seed in range(8):
        n, accept = HEREDITARY_PREDICATES[case](seed)
        sel, sets = _sets_in_search_order(n)
        passed = {t for t, ok in zip(sets, accept(sel)) if ok}
        yielded, judged = _search(n, accept)
        assert yielded == [t for t in sets if t in passed], (case, seed)
        assert yielded[0] == () and len(yielded) < len(sets)
        assert judged == _join_candidates(sets, passed), (case, seed)
        largest = max(largest, len(yielded[-1]))
        judged_total += len(judged)
        # the rule the join replaced: every passed set plus an index above its top
        prefix_rule_total += 1 + sum(n - 1 - max(t, default=-1) for t in passed)
    assert largest >= 3 and judged_total < prefix_rule_total


def test_join_search_stops_at_a_refused_empty_set():
    # an empty set that fails its predicate: nothing passes, one row judged
    for n, accept in [(8, lambda sel: np.zeros(len(sel), dtype=bool)),
                      (8, _weight_cap(np.random.default_rng(1), 8, cap=-1.0))]:
        assert _search(n, accept) == ([], [()])


def _integer_weight_ctx(seed):
    """Up to 14 links with weights in {1, 2}, so that sets of different
    sizes often tie in weight."""
    inst = generate_instance(GenConfig(n=8 + seed % 7, R=6.0, delta=2.0, seed=seed))
    rng = np.random.default_rng(seed)
    links = tuple(replace(lk, weight=float(rng.integers(1, 3))) for lk in inst.links)
    return AffectanceContext(replace(inst, links=links), UNIFORM)


# name -> (oracle, the same check for the reference, reference weights)
EQUIVALENCE_CASES = {
    "cardinality": (exact_capacity, _verdict_passes, lambda ctx: None),
    "weight": (partial(exact_capacity, objective="weight"), _verdict_passes,
               lambda ctx: ctx.weights),
    "affectance_raw": (partial(exact_capacity, mode="affectance", gamma=0.8),
                       lambda ctx: _meets((ctx.raw, 0.8, 0)),
                       lambda ctx: None),
    "affectance_clipped": (partial(exact_capacity, mode="affectance", gamma=2.0),
                           lambda ctx: _meets((np.minimum(ctx.raw, 1.0), 2.0, 0)),
                           lambda ctx: None),
    "bifeasible": (largest_bifeasible, _bifeasible, lambda ctx: None),
    "admission": (exact_admission, _verdict_passes, lambda ctx: None),
}


@pytest.mark.parametrize("case", EQUIVALENCE_CASES)
def test_level_wise_search_matches_all_masks(case):
    oracle, check, weights = EQUIVALENCE_CASES[case]
    sizes, cross_size_ties = set(), 0
    for seed in range(30):
        ctx = feasible_prim_ctx(100 * seed, n=8 + seed % 7, R=6.0, delta=2.0, primaries=2) \
            if case == "admission" else _integer_weight_ctx(seed)
        expected, tie_sizes = _brute_force(ctx, check(ctx), weights(ctx))
        assert oracle(ctx).ids == expected, (case, seed)
        sizes.add(len(expected))
        cross_size_ties += len(tie_sizes) > 1
    assert len(sizes) >= 3  # optima of several sizes, not a trivial family
    if case == "weight":
        assert cross_size_ties >= 5  # the tie rule is exercised across sizes


def test_every_subset_feasible_returns_all_links():
    ctx = AffectanceContext(far_instance(20), UNIFORM)
    everything = tuple(range(20))
    assert exact_capacity(ctx).ids == everything
    assert exact_capacity(ctx, "weight").ids == everything
    assert exact_capacity(ctx, "cardinality", "affectance", 1.0).ids == everything
    assert largest_bifeasible(ctx, 2.0).ids == everything
    prim = PrimarySet(links=(make_link(99, 1e6, 0.0, 1e6 + 1, 0.0),), powers=(1.0,))
    with_prim = replace(far_instance(20), primaries=prim)
    assert exact_admission(AffectanceContext(with_prim, UNIFORM, primaries=prim)).ids \
        == everything


def test_exact_admission_nothing_fits_beside_primaries():
    # One primary of length 1 with its receiver at (1, 0), as in the hand
    # instance above.  Each secondary's sender sits 0.5 from that receiver
    # (interference 4 > signal 1), while its own receiver, 1 further out,
    # hears the primary at distance > 1.5 and so is feasible alone.
    prim = PrimarySet(links=(make_link(9, 0.0, 0.0, 1.0, 0.0),), powers=(1.0,))
    sec = (make_link(0, 1.5, 0.0, 2.5, 0.0),
           make_link(1, 1.0, 0.5, 1.0, 1.5),
           make_link(2, 1.0, -0.5, 1.0, -1.5))
    inst = Instance(links=sec, alpha=2.0, beta=1.0, noise=0.0, primaries=prim)
    ctx = AffectanceContext(inst, UNIFORM, primaries=prim)
    assert ctx.n == 3  # every secondary is feasible on its own
    assert exact_admission(ctx).ids == ()


def test_oracle_suite_at_the_enumeration_cap():
    configs = [GenConfig(n=20, R=4.0 + 2.0 * (i % 3), delta=4.0, seed=i) for i in range(4)]
    report = run_oracle_suite(configs, trials=20)
    assert [row["n"] for row in report["rows"]] == [20] * 4
    assert all(all(row["verdicts"].values()) for row in report["rows"])
    assert report["all_ok"]
