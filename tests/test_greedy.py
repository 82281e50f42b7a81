import dataclasses
import math

import numpy as np
import pytest

from sinrcap import (AffectanceContext, GenConfig, Instance, Link, PowerAssignment,
                     RoundingPolicy, certify, exact_capacity, generate_instance,
                     greedy_base, greedy_combined, greedy_sweep, run_pipeline,
                     schedule_value)
from sinrcap.affectance import check_positions
from sinrcap import greedy
from sinrcap.greedy import (_greedy_accept, base_scan, length_class_scan,
                            weight_class_scan)
from sinrcap.harness import WEIGHT_DISTRIBUTIONS
from sinrcap.rounding import final_selection_batch, round_trials

from conftest import (colocated_pair, far_instance, feasible_prim_ctx, make_link,
                      random_ctx)

UNIFORM = PowerAssignment.uniform()


def weight_classes(ctx, c_g):
    return greedy_sweep(ctx, ["greedy_w"], [c_g])["greedy_w"][0]


def length_classes(ctx, c_g):
    return greedy_sweep(ctx, ["greedy_l"], [c_g])["greedy_l"][0]


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
    assert weight_classes(fctx, 1.0).ids == greedy_base(fctx, 1.0).ids


def test_weight_classes_prefer_heavy_singleton():
    far = far_instance(2)
    n = 2
    inst = Instance(links=(
        make_link(0, *_coords(far.links[0]), weight=1.0),
        make_link(1, *_coords(far.links[1]), weight=float(n)),
    ), alpha=2.5)
    ctx = AffectanceContext(inst, UNIFORM)
    sched = weight_classes(ctx, 1.0)
    assert sched.ids == (1,)
    assert schedule_value(ctx, sched, "weight") == pytest.approx(2.0)


def _coords(lk):
    return lk.sender.x, lk.sender.y, lk.receiver.x, lk.receiver.y


def test_weight_classes_scale_invariance():
    ctx = random_ctx(6, n=10, R=4.0, delta=2.0, weight_dist="ordinary")
    inst = ctx.instance
    scaled = Instance(links=tuple(
        make_link(lk.id, *_coords(lk), weight=37.0 * lk.weight) for lk in inst.links),
        alpha=inst.alpha)
    a = weight_classes(ctx, 1.0)
    b = weight_classes(AffectanceContext(scaled, UNIFORM), 1.0)
    assert a.ids == b.ids


def test_length_classes_single_and_split():
    # all lengths within [1, 2): a single class
    links = tuple(make_link(i, 20.0 * i, 0.0, 20.0 * i + 1.0 + 0.1 * i, 0.0)
                  for i in range(4))
    ctx = AffectanceContext(Instance(links=links, alpha=2.5), UNIFORM)
    assert length_classes(ctx, 1.0).ids == (0, 1, 2, 3)
    # lengths 1 and 8 land in classes t=0 and t=3; both are far apart, each
    # class solution is a singleton and the heavier (by weight) wins
    links = (make_link(0, 0.0, 0.0, 1.0, 0.0, weight=1.0),
             make_link(1, 500.0, 0.0, 508.0, 0.0, weight=5.0))
    ctx = AffectanceContext(Instance(links=links, alpha=2.5), UNIFORM)
    assert length_classes(ctx, 1.0).ids == (1,)


@pytest.mark.parametrize("seed", range(4))
def test_class_greedys_never_beat_weighted_oracle(seed):
    ctx = random_ctx(seed, n=9, R=3.0, delta=3.0, weight_dist="ordinary")
    opt_w = schedule_value(ctx, exact_capacity(ctx, "weight", "exact_sinr"), "weight")
    for algo in (weight_classes, length_classes, greedy_combined):
        sched = algo(ctx, 1.0)
        assert schedule_value(ctx, sched, "weight") <= opt_w + 1e-9
        assert sched.exact_sinr_ok


def test_combined_at_least_each_constituent():
    for seed in range(4):
        ctx = random_ctx(seed + 20, n=10, R=3.0, delta=4.0, weight_dist="reversed")
        w = schedule_value(ctx, weight_classes(ctx, 1.0), "weight")
        l = schedule_value(ctx, length_classes(ctx, 1.0), "weight")
        c = schedule_value(ctx, greedy_combined(ctx, 1.0), "weight")
        assert c >= max(w, l) - 1e-12


def test_discard_light_links_loses_at_most_half():
    # the best solution among links kept by the weight-class prescaling is
    # at least half the weighted optimum
    for seed in range(4):
        ctx = random_ctx(seed + 40, n=9, R=3.0, delta=2.0, weight_dist="ordinary")
        opt = exact_capacity(ctx, "weight", "exact_sinr")
        opt_w = schedule_value(ctx, opt, "weight")
        max_w = float(ctx.weights.max())
        kept = [int(i) for i, w in zip(ctx.ids, ctx.weights)
                if w * ctx.n / max_w >= 1.0]
        kept_opt = [i for i in opt.ids if i in kept]
        kept_w = float(sum(ctx.weights[ctx.index_of([i])][0] for i in kept_opt))
        best_single = max_w  # the heaviest link survives prescaling
        assert max(kept_w, best_single) >= opt_w / 2 - 1e-9


def _dict_classes(ratios):
    """The doubling rule stated link by link: the positions whose ratio is
    at least 1, by exponent floor(log2(ratio)), each list in position order."""
    classes = {}
    for u, r in enumerate(ratios.tolist()):
        if r >= 1.0:
            classes.setdefault(math.floor(math.log2(r)), []).append(u)
    return classes


def _reference_scans(ctx):
    """Each scan function -> (its classes by ``_dict_classes``, its order)."""
    top = float(ctx.weights.max()) if ctx.n else 0.0
    return {base_scan: ({0: list(range(ctx.n))} if ctx.n else {}, "length"),
            weight_class_scan: (_dict_classes(ctx.weights * (ctx.n / top)) if top > 0 else {},
                                "length"),
            length_class_scan: (_dict_classes(ctx.lengths / float(ctx.lengths.min()))
                                if ctx.n else {}, "weight")}


def _scan_key(ctx, order):
    """A scan's order within a class, ties by id."""
    return lambda u: ((ctx.lengths[u] if order == "length" else -ctx.weights[u]),
                      int(ctx.ids[u]))


def test_scans_are_disjoint_ranked_doubling_classes():
    for seed in range(8):
        ctx = random_ctx(seed + 80, n=14, R=4.0, delta=6.0,
                         weight_dist=WEIGHT_DISTRIBUTIONS[seed % 4])
        for scan, (classes, order) in _reference_scans(ctx).items():
            ranked = [c.tolist() for c in scan(ctx)]
            members = [u for c in ranked for u in c]
            assert len(members) == len(set(members))  # disjoint
            assert sorted(members) == sorted(u for c in classes.values() for u in c)
            # in ascending exponent, each class ranked by key, then by id
            assert [sorted(c) for c in ranked] == [classes[t] for t in sorted(classes)]
            assert ranked == [sorted(c, key=_scan_key(ctx, order)) for c in ranked]
        assert sorted(u for c in length_class_scan(ctx) for u in c) == list(range(ctx.n))


def test_empty_instance():
    ctx = AffectanceContext(Instance(links=(), alpha=2.5), UNIFORM)
    for scan in (base_scan, weight_class_scan, length_class_scan):
        assert scan(ctx) == []
    for algo in (greedy_base, weight_classes, length_classes,
                 greedy_combined):
        assert algo(ctx, 1.0).ids == ()


def test_outputs_one_feasible():
    for seed in range(3):
        ctx = random_ctx(seed + 60, n=12, R=2.5, delta=3.0)
        for algo in (greedy_base, greedy_combined):
            sched = algo(ctx, 2.5)  # generous acceptance still ends feasible
            assert check_positions(ctx, ctx.index_of(sched.ids))
            assert sched.exact_sinr_ok


def test_greedy_sweep_matches_per_constant_calls():
    constants = (1.5, 0.5, 1.0, 0.5, 3.0)  # unsorted, with a repeat
    variants = {"base": greedy_base, "greedy_w": weight_classes,
                "greedy_l": length_classes, "greedy": greedy_combined}
    differ = set()
    for seed in range(4):
        ctx = random_ctx(seed, n=40, R=4.0, delta=4.0, power=PowerAssignment.linear())
        swept = greedy_sweep(ctx, list(variants), constants)
        assert list(swept) == list(variants)
        for variant, algo in variants.items():
            per_constant = [algo(ctx, c) for c in constants]
            assert swept[variant] == per_constant
            assert greedy_sweep(ctx, [variant], constants) == {variant: per_constant}
            if len({s.ids for s in per_constant}) > 1:
                differ.add(variant)
        assert greedy_sweep(ctx, ["base"], []) == {"base": []}
    assert differ == set(variants)  # every variant's constants mattered somewhere


@pytest.mark.parametrize("variants,constants,message", [
    (["greedy_w"], [1.0, 0.0], "c_g must be a finite positive number, got 0.0"),
    (["base", "nope"], [1.0], "unknown greedy variant 'nope'"),
], ids=["constant", "variant"])
def test_greedy_sweep_refuses_bad_arguments_by_name(variants, constants, message):
    ctx = random_ctx(1, n=6)
    with pytest.raises(ValueError) as exc:
        greedy_sweep(ctx, variants, constants)
    assert str(exc.value) == message


@pytest.mark.parametrize("variant", list(greedy.GREEDY_VARIANTS))
def test_greedy_sweep_raises_on_a_set_that_fails_its_verdict(variant, monkeypatch):
    ctx = random_ctx(3, n=12)
    monkeypatch.setattr(greedy, "certify",
                        lambda ctx, ids: dataclasses.replace(certify(ctx, ids), verified=False))
    with pytest.raises(AssertionError) as exc:
        greedy_sweep(ctx, [variant], [1.0])
    assert str(exc.value) == f"{variant} produced an infeasible schedule"


def _heavier(ctx, a, b):
    """The combined greedy's rule stated on its two class runs: the heavier
    schedule; equal weights go to the smaller id tuple, then to a."""
    wa, wb = schedule_value(ctx, a, "weight"), schedule_value(ctx, b, "weight")
    return b if wb > wa or (wb == wa and b.ids < a.ids) else a


def test_combined_greedy_is_the_heavier_class_run():
    constants = [0.5, 1.0, 2.0]
    ties = set()  # which class run won an equal-weight tie
    for seed in range(40, 58):
        ctx = random_ctx(seed, n=12, R=4.0, delta=3.0)
        flat = AffectanceContext(_reweighted(ctx.instance, [2.0] * ctx.n), UNIFORM)
        for context in (ctx, flat):
            runs = greedy_sweep(context, ["greedy_w", "greedy_l", "greedy"], constants)
            assert runs["greedy"] == [_heavier(context, w, l)
                                      for w, l in zip(runs["greedy_w"], runs["greedy_l"])]
            assert runs["greedy"] == greedy_sweep(context, ["greedy"], constants)["greedy"]
            for w, l in zip(runs["greedy_w"], runs["greedy_l"]):
                if w.ids != l.ids and (schedule_value(context, w, "weight")
                                       == schedule_value(context, l, "weight")):
                    ties.add("w" if w.ids < l.ids else "l")
    assert ties == {"w", "l"}


def test_greedy_sweep_runs_each_scan_once(monkeypatch):
    calls = {"scans": [], "blocks": [], "batches": 0, "certify": []}

    def counted_scan(scan):
        def wrapper(ctx):
            calls["scans"].append(scan)
            return scan(ctx)
        return wrapper

    def accept_counted(aff, c_g):
        calls["blocks"].append(aff)
        return _greedy_accept(aff, c_g)

    def batch_counted(*args):
        calls["batches"] += 1
        return final_selection_batch(*args)

    def certify_counted(ctx, ids):
        calls["certify"].append(tuple(ids.tolist()))
        return certify(ctx, ids)

    wrapped = {scan: counted_scan(scan) for scan in (base_scan, weight_class_scan,
                                                     length_class_scan)}
    for variant, (scans, objective) in list(greedy.GREEDY_VARIANTS.items()):
        monkeypatch.setitem(greedy.GREEDY_VARIANTS, variant,
                            (tuple(wrapped[scan] for scan in scans), objective))
    monkeypatch.setattr(greedy, "_greedy_accept", accept_counted)
    monkeypatch.setattr(greedy, "final_selection_batch", batch_counted)
    monkeypatch.setattr(greedy, "certify", certify_counted)
    ctx = random_ctx(5, n=40, R=4.0, delta=8.0)
    constants = [0.5, 1.0, 2.0]
    by_weight, by_length = weight_class_scan(ctx), length_class_scan(ctx)
    assert len(by_weight) > 1 and len(by_length) > 1
    classes = by_weight + by_length
    runs = greedy_sweep(ctx, ["greedy_w", "greedy_l", "greedy"], constants)
    assert calls["scans"] == [weight_class_scan, length_class_scan]
    # one acceptance scan per class and constant, all of a class's on one
    # block object: the class's clipped affectance in scan order
    assert len(calls["blocks"]) == len(classes) * len(constants)
    for c, i in zip(classes, range(0, len(calls["blocks"]), len(constants))):
        block = calls["blocks"][i]
        assert all(other is block for other in calls["blocks"][i:i + len(constants)])
        assert np.array_equal(block, np.minimum(ctx.raw[np.ix_(c, c)], 1.0))
    assert len({id(block) for block in calls["blocks"]}) == len(classes)
    assert calls["batches"] == 1
    # every returned set certified through the module's name, each once
    distinct = {s.ids for schedules in runs.values() for s in schedules}
    assert sorted(calls["certify"]) == sorted(distinct)
    # the combined rows repeat class runs' sets, which are not certified again
    assert len(distinct) < 3 * len(constants)


def _reweighted(inst, weights):
    return Instance(links=tuple(Link(lk.id, lk.sender, lk.receiver, weight=float(w))
                                for lk, w in zip(inst.links, weights)),
                    alpha=inst.alpha, beta=inst.beta, noise=inst.noise)


def test_every_selection_keeps_the_heaviest_set_ties_to_smallest_ids():
    greedies = (weight_classes, length_classes, greedy_combined)
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
    assert [c.tolist() for c in weight_class_scan(ctx)] == [[1, 2], [0]]
    assert length_class_scan(ctx)[0].tolist() == [1, 2]  # exponent 0: the unit links
    assert certify(ctx, (1, 2)).exact_sinr_ok and not certify(ctx, (0, 1)).exact_sinr_ok
    assert exact_capacity(ctx, "weight").ids == (0,)
    for algo in greedies:
        assert algo(ctx, 1.0).ids == (0,)
    # equal weights: several rounded sets share the largest weight
    flat = _reweighted(generate_instance(GenConfig(n=8, R=3.0, delta=2.0, seed=3)),
                       [2.0] * 8)
    ctx = AffectanceContext(flat, PowerAssignment.linear())
    policy = RoundingPolicy(mode="weighted", trials=20, seed=3)
    _, selections = next(round_trials(ctx, [policy]))
    rounded = {tuple(ctx.ids[p].tolist()) for p in selections}
    heaviest = sorted(s for s in rounded if len(s) == max(map(len, rounded)))
    assert len(heaviest) > 1
    assert run_pipeline(ctx, policy).ids == heaviest[0]


def _reference_accept(ctx, order, c_g):
    """The acceptance scan stated over the whole context: n-length loads,
    each accepted link adding its clipped row and column of ``ctx.raw``."""
    accepted, in_load, out_load = [], np.zeros(ctx.n), np.zeros(ctx.n)
    for u in order:
        if in_load[u] <= c_g and out_load[u] <= c_g:
            accepted.append(u)
            in_load += np.minimum(ctx.raw[u, :], 1.0)
            out_load += np.minimum(ctx.raw[:, u], 1.0)
    return accepted


def _reference_greedy(ctx, classes, c_g, order, weighted):
    """The greedy runner as separate per-variant code: each class of the
    dict rule sorted in Python and scanned by ``_reference_accept``, every
    class's final selection in one batch, then the heaviest (or, unweighted,
    the single) selection, ties to the smaller id tuple."""
    sel = np.zeros((len(classes), ctx.n), dtype=bool)
    for row, t in zip(sel, sorted(classes)):
        row[_reference_accept(ctx, sorted(classes[t], key=_scan_key(ctx, order)), c_g)] = True
    selections = [tuple(ctx.ids[p].tolist()) for p in
                  final_selection_batch(ctx, sel, [12.0] * len(sel), "cardinality")]
    if not weighted:
        return certify(ctx, selections[0] if selections else ())
    best_ids, best_w = (), -1.0
    for ids in selections:
        w = float(ctx.weights[ctx.index_of(ids)].sum()) if ids else 0.0
        if w > best_w or (w == best_w and ids < best_ids):
            best_ids, best_w = ids, w
    return certify(ctx, best_ids)


def test_greedies_match_reference_on_random_contexts():
    contexts = []
    for seed in range(20):
        k = 1 + seed % 8
        prim_ctx = feasible_prim_ctx(200 + 10 * seed, n=12 + seed, R=5.0 + 2 * k, delta=2.0,
                                     primaries=k, weight_dist=WEIGHT_DISTRIBUTIONS[seed % 4])
        assert prim_ctx.k == k
        # the greedy scans read no primary loads, so they refuse primaries
        for algo in (greedy_base, weight_classes, length_classes, greedy_combined):
            with pytest.raises(ValueError, match="^greedy takes no primaries: admission "
                                                 "pipelines are driven by the admission module$"):
                algo(prim_ctx, 1.0)
        ctx = AffectanceContext(prim_ctx.instance, UNIFORM)  # the same instance, no primaries
        assert ctx.k == 0 and np.all(ctx.weights > 0)
        contexts.append(ctx)
    # weight classes whose rescaled weights are exact powers of two, at the
    # class boundaries: n = 1 and n = 16 under the weight_class distribution
    for seed, n in [(1, 1), (2, 1), (3, 16), (4, 16)]:
        ctx = random_ctx(seed, n=n, R=6.0, delta=2.0, weight_dist="weight_class")
        scaled = ctx.weights * (ctx.n / float(ctx.weights.max()))
        assert ctx.n == n and all(math.log2(w).is_integer() for w in scaled.tolist())
        contexts.append(ctx)
    algos = {base_scan: (greedy_base, False), weight_class_scan: (weight_classes, True),
             length_class_scan: (length_classes, True)}
    for i, ctx in enumerate(contexts):
        c_g = (0.5, 1.0, 2.0)[i % 3]
        for scan, (classes, order) in _reference_scans(ctx).items():
            algo, weighted = algos[scan]
            expected = _reference_greedy(ctx, classes, c_g, order, weighted)
            assert expected.verified
            assert algo(ctx, c_g) == expected
