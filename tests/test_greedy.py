import numpy as np
import pytest

from sinrcap import (AffectanceContext, GenConfig, Instance, Link, PowerAssignment,
                     RoundingPolicy, build_weighted_lp, certify, check_feasibility,
                     exact_capacity, generate_instance, greedy_base, greedy_combined,
                     greedy_combined_sweep, greedy_length_classes, greedy_sweep,
                     greedy_weight_classes, run_pipeline, schedule_weight)
from sinrcap.greedy import (_class_candidates, length_class_partition,
                            weight_class_partition)
from sinrcap.rounding import final_selection_batch, round_trials

from conftest import colocated_pair, far_instance, feasible_prim_ctx, make_link, random_ctx

UNIFORM = PowerAssignment.uniform()


def test_base_accepts_all_far_links():
    ctx = AffectanceContext(far_instance(5), UNIFORM)
    assert greedy_base(ctx, 1.0).ids == tuple(int(i) for i in ctx.ids)


def test_base_colocated_pair_keeps_lower_id():
    ctx = AffectanceContext(colocated_pair(noise=0.1), UNIFORM)
    sched = greedy_base(ctx, 0.5)
    assert sched.ids == (0,)


@pytest.mark.parametrize("seed", range(5))
def test_base_never_beats_oracle(seed):
    ctx = random_ctx(seed, n=9, R=3.0, delta=2.5)
    sched = greedy_base(ctx, 1.0)
    assert sched.size <= exact_capacity(ctx).size
    assert sched.exact_sinr_ok


def test_weight_classes_equal_weights_match_base():
    ctx = random_ctx(2, n=10, R=4.0, delta=2.0)  # generated weights ignored
    inst = ctx.instance
    flat = Instance(links=tuple(
        make_link(lk.id, lk.sender.x, lk.sender.y, lk.receiver.x, lk.receiver.y,
                  weight=3.0) for lk in inst.links), alpha=inst.alpha)
    fctx = AffectanceContext(flat, UNIFORM)
    assert greedy_weight_classes(fctx, 1.0).ids == greedy_base(fctx, 1.0).ids


def test_weight_classes_prefer_heavy_singleton():
    far = far_instance(2)
    n = 2
    inst = Instance(links=(
        make_link(0, *_coords(far.links[0]), weight=1.0),
        make_link(1, *_coords(far.links[1]), weight=float(n)),
    ), alpha=2.5)
    ctx = AffectanceContext(inst, UNIFORM)
    sched = greedy_weight_classes(ctx, 1.0)
    assert sched.ids == (1,)
    assert schedule_weight(ctx, sched) == pytest.approx(2.0)


def _coords(lk):
    return lk.sender.x, lk.sender.y, lk.receiver.x, lk.receiver.y


def test_weight_classes_scale_invariance():
    ctx = random_ctx(6, n=10, R=4.0, delta=2.0, weight_dist="ordinary")
    inst = ctx.instance
    scaled = Instance(links=tuple(
        make_link(lk.id, *_coords(lk), weight=37.0 * lk.weight) for lk in inst.links),
        alpha=inst.alpha)
    a = greedy_weight_classes(ctx, 1.0)
    b = greedy_weight_classes(AffectanceContext(scaled, UNIFORM), 1.0)
    assert a.ids == b.ids


def test_length_classes_single_and_split():
    # all lengths within [1, 2): a single class
    links = tuple(make_link(i, 20.0 * i, 0.0, 20.0 * i + 1.0 + 0.1 * i, 0.0)
                  for i in range(4))
    ctx = AffectanceContext(Instance(links=links, alpha=2.5), UNIFORM)
    assert greedy_length_classes(ctx, 1.0).ids == (0, 1, 2, 3)
    # lengths 1 and 8 land in classes t=0 and t=3; both are far apart, each
    # class solution is a singleton and the heavier (by weight) wins
    links = (make_link(0, 0.0, 0.0, 1.0, 0.0, weight=1.0),
             make_link(1, 500.0, 0.0, 508.0, 0.0, weight=5.0))
    ctx = AffectanceContext(Instance(links=links, alpha=2.5), UNIFORM)
    assert greedy_length_classes(ctx, 1.0).ids == (1,)


@pytest.mark.parametrize("seed", range(4))
def test_class_greedys_never_beat_weighted_oracle(seed):
    ctx = random_ctx(seed, n=9, R=3.0, delta=3.0, weight_dist="ordinary")
    opt_w = schedule_weight(ctx, exact_capacity(ctx, "weight", "exact_sinr"))
    for algo in (greedy_weight_classes, greedy_length_classes, greedy_combined):
        sched = algo(ctx, 1.0)
        assert schedule_weight(ctx, sched) <= opt_w + 1e-9
        assert sched.exact_sinr_ok


def test_combined_at_least_each_constituent():
    for seed in range(4):
        ctx = random_ctx(seed + 20, n=10, R=3.0, delta=4.0, weight_dist="reversed")
        w = schedule_weight(ctx, greedy_weight_classes(ctx, 1.0))
        l = schedule_weight(ctx, greedy_length_classes(ctx, 1.0))
        c = schedule_weight(ctx, greedy_combined(ctx, 1.0))
        assert c >= max(w, l) - 1e-12


def test_discard_light_links_loses_at_most_half():
    # the best solution among links kept by the weight-class prescaling is
    # at least half the weighted optimum
    for seed in range(4):
        ctx = random_ctx(seed + 40, n=9, R=3.0, delta=2.0, weight_dist="ordinary")
        opt = exact_capacity(ctx, "weight", "exact_sinr")
        opt_w = schedule_weight(ctx, opt)
        max_w = float(ctx.weights.max())
        kept = [int(i) for i, w in zip(ctx.ids, ctx.weights)
                if w * ctx.n / max_w >= 1.0]
        kept_opt = [i for i in opt.ids if i in kept]
        kept_w = float(sum(ctx.weights[ctx.index_of([i])][0] for i in kept_opt))
        best_single = max_w  # the heaviest link survives prescaling
        assert max(kept_w, best_single) >= opt_w / 2 - 1e-9


def test_class_partitions_cover_disjointly():
    for seed in range(4):
        ctx = random_ctx(seed + 80, n=14, R=4.0, delta=6.0, weight_dist="ordinary")
        lc = length_class_partition(ctx)
        members = sorted(u for c in lc.values() for u in c)
        assert members == list(range(ctx.n))  # lengths: full disjoint cover
        wc = weight_class_partition(ctx)
        wmembers = sorted(u for c in wc.values() for u in c)
        assert len(wmembers) == len(set(wmembers))
        scaled = ctx.weights * (ctx.n / float(ctx.weights.max()))
        assert wmembers == sorted(u for u in range(ctx.n) if scaled[u] >= 1.0)


def test_empty_instance():
    ctx = AffectanceContext(Instance(links=(), alpha=2.5), UNIFORM)
    assert weight_class_partition(ctx) == {}
    assert length_class_partition(ctx) == {}
    for algo in (greedy_base, greedy_weight_classes, greedy_length_classes,
                 greedy_combined):
        assert algo(ctx, 1.0).ids == ()


def test_outputs_one_feasible():
    for seed in range(3):
        ctx = random_ctx(seed + 60, n=12, R=2.5, delta=3.0)
        for algo in (greedy_base, greedy_combined):
            sched = algo(ctx, 2.5)  # generous acceptance still ends feasible
            assert check_feasibility(ctx, sched.ids, 1.0, "feasible")
            assert sched.exact_sinr_ok


def test_greedy_sweep_matches_per_constant_calls():
    constants = (1.5, 0.5, 1.0, 0.5, 3.0)  # unsorted, with a repeat
    variants = {"base": greedy_base, "weight_classes": greedy_weight_classes,
                "length_classes": greedy_length_classes}
    differ = set()
    for seed in range(4):
        ctx = random_ctx(seed, n=40, R=4.0, delta=4.0, power=PowerAssignment.linear())
        for variant, algo in variants.items():
            per_constant = [algo(ctx, c) for c in constants]
            assert greedy_sweep(ctx, variant, constants) == per_constant
            if len({s.ids for s in per_constant}) > 1:
                differ.add(variant)
        assert greedy_combined_sweep(ctx, constants) == \
            [greedy_combined(ctx, c) for c in constants]
        assert greedy_sweep(ctx, "base", []) == []
        with pytest.raises(ValueError, match="positive"):
            greedy_sweep(ctx, "weight_classes", [1.0, 0.0])
    assert differ == set(variants)  # every variant's constants mattered somewhere


def _reweighted(inst, weights):
    return Instance(links=tuple(Link(lk.id, lk.sender, lk.receiver, weight=float(w))
                                for lk, w in zip(inst.links, weights)),
                    alpha=inst.alpha, beta=inst.beta, noise=inst.noise)


def test_every_selection_keeps_the_heaviest_set_ties_to_smallest_ids():
    greedies = (greedy_weight_classes, greedy_length_classes, greedy_combined)
    # all weights 0: no set beats the empty one
    zero = _reweighted(generate_instance(GenConfig(n=10, R=6.0, delta=2.0, seed=3)),
                       [0.0] * 10)
    ctx = AffectanceContext(zero, UNIFORM)
    pipeline = run_pipeline(ctx, RoundingPolicy(mode="weighted", trials=20))
    assert pipeline.ids == ()
    assert exact_capacity(ctx, "weight").ids == ()
    for algo in greedies:
        assert algo(ctx, 1.0).ids == ()
    # long link 0 blocks the unit links 1 and 2, which coexist: {0} and
    # {1, 2} both weigh 4, lie in different weight and length classes, and
    # the smaller id tuple wins although its class is scanned last
    tie = Instance(links=(make_link(0, 1.1, 0.0, 100.9, 0.0, weight=4.0),
                          make_link(1, 0.0, 0.0, 1.0, 0.0, weight=2.0),
                          make_link(2, 100.0, 0.0, 101.0, 0.0, weight=2.0)), alpha=2.5)
    ctx = AffectanceContext(tie, UNIFORM)
    assert sorted(weight_class_partition(ctx).items()) == [(0, [1, 2]), (1, [0])]
    assert sorted(length_class_partition(ctx))[0] == 0
    assert length_class_partition(ctx)[0] == [1, 2]
    assert certify(ctx, (1, 2)).exact_sinr_ok and not certify(ctx, (0, 1)).exact_sinr_ok
    assert exact_capacity(ctx, "weight").ids == (0,)
    for algo in greedies:
        assert algo(ctx, 1.0).ids == (0,)
    # equal weights: several rounded sets share the largest weight
    flat = _reweighted(generate_instance(GenConfig(n=8, R=3.0, delta=2.0, seed=3)),
                       [2.0] * 8)
    ctx = AffectanceContext(flat, PowerAssignment.linear())
    lp, policy = build_weighted_lp(ctx, 1.0), RoundingPolicy(mode="weighted", trials=20,
                                                             seed=3)
    rounded = set(next(round_trials(ctx, [(lp, policy)])))
    heaviest = sorted(s for s in rounded if len(s) == max(map(len, rounded)))
    assert len(heaviest) > 1
    assert run_pipeline(ctx, policy).ids == heaviest[0]


def _reference_greedy(ctx, classes, c_g, order, weighted):
    """The greedy runner as separate per-variant code: every class's final
    selection in one batch, then the heaviest (or, unweighted, the single)
    selection, ties to the smaller id tuple."""
    sel = np.zeros((len(classes), ctx.n), dtype=bool)
    for row, t in zip(sel, sorted(classes)):
        row[_class_candidates(ctx, classes[t], c_g, order)] = True
    selections = final_selection_batch(ctx, ctx.ids, sel, [12.0] * len(sel),
                                       ["capacity"] * len(sel))
    if not weighted:
        return certify(ctx, selections[0])
    best_ids, best_w = (), -1.0
    for ids in selections:
        w = float(ctx.weights[ctx.index_of(ids)].sum()) if ids else 0.0
        if w > best_w or (w == best_w and ids < best_ids):
            best_ids, best_w = ids, w
    return certify(ctx, best_ids)


def test_greedies_match_reference_on_random_contexts():
    for seed in range(20):
        k = 1 + seed % 8
        ctx = feasible_prim_ctx(200 + 10 * seed, n=12 + seed, R=5.0 + 2 * k, delta=2.0,
                                primaries=k, weight_dist=("ordinary", "reversed")[seed % 2])
        assert ctx.k == k and np.all(ctx.weights > 0)
        c_g = (0.5, 1.0, 2.0)[seed % 3]
        cases = [(greedy_base, {0: range(ctx.n)}, "length", False),
                 (greedy_weight_classes, weight_class_partition(ctx), "length", True),
                 (greedy_length_classes, length_class_partition(ctx), "weight", True)]
        for algo, classes, order, weighted in cases:
            assert algo(ctx, c_g) == _reference_greedy(ctx, classes, c_g, order, weighted)
