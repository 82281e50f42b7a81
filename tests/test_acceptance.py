"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines and the recorded (non-asserted) diagnostics.
"""

import itertools
import math

import numpy as np

from sinrcap import (AffectanceContext, GenConfig, Instance, Link,
                     PowerAssignment, PrimarySet, RoundingPolicy, admit_general,
                     admit_large_opt, bernoulli_draws, build_capacity_lp,
                     certify, exact_capacity, generate_instance,
                     greedy_base, greedy_combined, largest_bifeasible,
                     run_compare, run_pipeline, schedule_value,
                     separation_check, signal_strengthen, solve_lp, verify)
from sinrcap.affectance import BETA, NOISE, RAW_CAP, check_positions
from sinrcap.formulations import admission_filter_threshold
from sinrcap.harness import CSV_COLUMNS

from conftest import feasible_prim_ctx, make_link, random_ctx

UNIFORM = PowerAssignment.uniform()


def _distances(ctx):
    """Sender-to-receiver distances over the context's links, from geometry."""
    ids = [int(i) for i in ctx.ids]
    return ctx.instance.sr_matrix(ids, ids)


def _qos_instance(seed, n):
    """Uniform-power corpus with per-link thresholds >= 1 and tiny noise."""
    rng = np.random.default_rng(seed + 777)
    base = generate_instance(GenConfig(n=n, R=5.0, delta=2.5, seed=seed))
    links = tuple(
        Link(id=lk.id, sender=lk.sender, receiver=lk.receiver, weight=lk.weight,
             beta_override=float(rng.uniform(1.0, 2.0)),
             noise_override=float(rng.uniform(0.0, 0.05)))
        for lk in base.links)
    return Instance(links=links, alpha=base.alpha, beta=1.0, noise=0.0)


def test_criterion_1_feasibility_soundness():
    runs = failures = 0

    def check(ctx, sched):
        nonlocal runs, failures
        runs += 1
        ok = verify(ctx, sched.ids) and certify(ctx, sched.ids).exact_sinr_ok
        if not ok:
            failures += 1

    powers = [UNIFORM, PowerAssignment.mean(), PowerAssignment.linear()]
    for i in range(300):  # capacity
        n = (15, 40, 80)[i % 3]
        ctx = random_ctx(i, n=n, R=3.0 + (i % 5), delta=2.0 + (i % 3),
                         power=powers[i % 3])
        policy = RoundingPolicy(mode="capacity", C=0.5 + 0.25 * (i % 4),
                                trials=10, seed=i)
        check(ctx, run_pipeline(ctx, policy))

    for i in range(250):  # variable QoS
        n = (15, 40)[i % 2]
        ctx = AffectanceContext(_qos_instance(i, n), UNIFORM)
        policy = RoundingPolicy(mode="qos", C=0.5 + 0.5 * (i % 3), trials=10, seed=i)
        check(ctx, run_pipeline(ctx, policy))

    for i in range(250):  # weighted
        dist = ("ordinary", "reversed", "length_determined", "weight_class")[i % 4]
        ctx = random_ctx(i, n=40, R=4.0 + (i % 4), delta=2.0 + (i % 3),
                         power=PowerAssignment.linear(), weight_dist=dist)
        policy = RoundingPolicy(mode="weighted", C=0.5 + 0.25 * (i % 4),
                                trials=10, seed=i)
        check(ctx, run_pipeline(ctx, policy))

    for i in range(200):  # admission
        k = (1, 2)[i % 2]
        ctx = feasible_prim_ctx(1000 + i, n=15, R=6.0, delta=2.0, primaries=k)
        policy = RoundingPolicy(mode="admission_general", C=1.0, trials=10, seed=i)
        res = admit_general(ctx, policy)
        runs += 1
        if not (res.verified and certify(ctx, res.admitted.ids).exact_sinr_ok):
            failures += 1

    assert runs >= 1000
    assert failures == 0
    print(f"\nACCEPTANCE 1 feasibility soundness: PASS "
          f"({runs} runs, {failures} violations)")


def test_criterion_2_oracle_dominance_and_relaxation():
    instances = violations = 0
    for seed in range(200):
        n = 8 + seed % 5  # 8..12
        ctx = random_ctx(seed, n=n, R=3.0 + (seed % 3), delta=2.0)
        opt = exact_capacity(ctx, "cardinality", "exact_sinr")
        opt_w = exact_capacity(ctx, "weight", "exact_sinr")
        cap = run_pipeline(ctx, RoundingPolicy(mode="capacity", C=1.0, trials=20, seed=seed))
        grd = greedy_base(ctx, 1.0)
        grd_c = greedy_combined(ctx, 1.0)
        wgt = run_pipeline(ctx, RoundingPolicy(mode="weighted", C=1.0, trials=20, seed=seed))
        w2 = largest_bifeasible(ctx, 2.0)
        probe = build_capacity_lp(ctx, 1.0)
        indicator = np.zeros(ctx.n)
        if w2.ids:
            indicator[ctx.index_of(w2.ids)] = 1.0
        c_star = max(float(np.max(probe.row_coeffs @ indicator)), 1e-9)
        lp_star = solve_lp(build_capacity_lp(ctx, c_star)).objective

        weight = {sched: schedule_value(ctx, sched, "weight") for sched in (grd_c, wgt, opt_w)}
        ok = (cap.size <= opt.size and grd.size <= opt.size
              and weight[grd_c] <= weight[opt_w] + 1e-9 and weight[wgt] <= weight[opt_w] + 1e-9
              and lp_star >= len(w2.ids) - 1e-6
              and len(w2.ids) >= math.ceil(opt.size / 2))
        instances += 1
        violations += 0 if ok else 1
    assert instances == 200 and violations == 0
    print(f"\nACCEPTANCE 2 oracle dominance + relaxation: PASS "
          f"({instances} instances, {violations} violations)")


def test_criterion_3_rounding_probability():
    # one comfortable bound and one where the second-stage conditions
    # genuinely bind (smaller C concentrates the row sums near the budget)
    trials = 10_000
    sigma = math.sqrt((1 / 3) * (2 / 3) / trials)
    floor = 1 / 3 - 3 * sigma
    worst = 1.0
    for C in (1.0, 0.4):
        ctx = random_ctx(31, n=40, R=4.0, delta=2.5)
        sol = solve_lp(build_capacity_lp(ctx, C))
        mask = ctx.length_ge_mask()
        aff = np.minimum(ctx.raw, 1.0)
        m_in, m_out = aff * mask, aff.T * mask
        sel = np.empty((trials, ctx.n))
        for t in range(trials):
            sel[t] = bernoulli_draws(5, t, ctx.ids) < sol.values
        hold = ((sel @ m_in <= 3 * C) & (sel @ m_out <= 3 * C)).mean(axis=0)
        assert np.all(hold >= floor), \
            f"C={C}: min frequency {hold.min():.4f} < {floor:.4f}"
        worst = min(worst, float(hold.min()))
    print(f"\nACCEPTANCE 3 rounding probability: PASS "
          f"(min per-link frequency {worst:.4f} >= {floor:.4f})")


def _sparsify_input(seed, k, m=60):
    """Cluster of m unit links with k short primaries placed so the
    per-pair and aggregate affectance preconditions hold, with the
    aggregate sitting essentially at its unit boundary."""
    rng = np.random.default_rng(seed)
    alpha = 2.5
    # nominal aggregate load 0.85 per primary; cluster jitter and the hat
    # factor push the realized maximum close to (but under) the unit cap
    d = (m / 0.85) ** (1 / alpha)
    links = []
    for i in range(m):
        x, y = rng.uniform(-0.25, 0.25, 2)
        links.append(make_link(i, x, y, x + 1.0, y))
    prims, powers = [], []
    for j in range(k):
        angle = 2 * math.pi * j / k + rng.uniform(0, 0.2)
        px, py = (d + 1.0) * math.cos(angle), (d + 1.0) * math.sin(angle)
        prims.append(make_link(1000 + j, px, py, px - math.cos(angle),
                               py - math.sin(angle)))
        powers.append(1.0)
    prim = PrimarySet(links=tuple(prims), powers=tuple(powers))
    inst = Instance(links=tuple(links), alpha=alpha, primaries=prim)
    return AffectanceContext(inst, UNIFORM, primaries=prim)


def test_criterion_4_sparsification_acceptance():
    trials = 1000
    sigma = math.sqrt(0.9 * 0.1 / trials)
    floor = 0.9 - 3 * sigma
    worst = 1.0
    for i in range(100):
        k = (2, 4)[i % 2]
        ctx = _sparsify_input(i, k)
        per_pair = np.minimum(ctx.raw_to_prim, 1.0)
        thr = admission_filter_threshold(ctx.k)
        assert np.all(per_pair <= thr), "synthetic input violates the per-pair cap"
        assert np.all(per_pair.sum(axis=0) <= 1.0), "aggregate precondition violated"
        rng = np.random.default_rng(9000 + i)
        keep = rng.random((trials, ctx.n)) < 1 / 6
        loads = keep.astype(float) @ per_pair
        freq = float(np.all(loads <= 1 / 3, axis=1).mean())
        worst = min(worst, freq)
        assert freq >= floor, f"input {i}: acceptance {freq:.3f} < {floor:.3f}"
    print(f"\nACCEPTANCE 4 sparsification: PASS "
          f"(worst per-input acceptance {worst:.3f} >= {floor:.3f})")


def _gamma_feasible_set(ctx, gamma, rng):
    order = rng.permutation(ctx.n)
    chosen = []
    for u in order:
        cand = chosen + [int(u)]
        sub = np.minimum(ctx.raw[np.ix_(cand, cand)], 1.0)
        if np.all(sub.sum(axis=0) <= gamma):
            chosen = cand
    return [int(ctx.ids[i]) for i in chosen]


def test_criterion_5_signal_strengthening():
    rng = np.random.default_rng(5)
    lines = []
    for ratio in (2, 3, 6, 12):
        worst_parts = 0
        for seed in range(12):
            ctx = random_ctx(400 + seed, n=30, R=3.0, delta=3.0)
            source = _gamma_feasible_set(ctx, float(ratio), rng)
            parts = signal_strengthen(ctx, source)
            flat = sorted(i for p in parts for i in p)
            assert flat == sorted(source)
            for part in parts:
                assert check_positions(ctx, ctx.index_of(part))
                assert certify(ctx, part).exact_sinr_ok
            worst_parts = max(worst_parts, len(parts))
        lines.append(f"gamma/theta={ratio}: max parts {worst_parts} "
                     f"(reference curve value {ratio * ratio})")
    print("\nACCEPTANCE 5 signal strengthening: PASS (all parts feasible)")
    for line in lines:
        print("  " + line)


def test_criterion_6_separation():
    checked = 0
    for seed in range(100):
        n = 8 + seed % 5
        ctx = random_ctx(600 + seed, n=n, R=4.0, delta=2.0)
        bits = 1 << np.arange(ctx.n, dtype=np.int64)
        masks = np.arange(1, 1 << ctx.n, dtype=np.int64)
        sel = (masks[:, None] & bits[None, :]) != 0
        in_loads = sel @ ctx.raw
        for q in (2.0, 3.0):
            gamma = 1.0 / q ** ctx.instance.alpha
            feas = np.all((in_loads <= gamma) | ~sel, axis=1)
            # pairwise separation violations present inside any feasible set?
            dist = _distances(ctx)
            lhs = dist * dist.T
            rhs = q * q * np.outer(ctx.lengths, ctx.lengths)
            viol = (lhs < rhs) & ~np.eye(ctx.n, dtype=bool)
            bad_inside = ((sel @ viol.astype(float)) * sel).sum(axis=1)
            assert not np.any(feas & (bad_inside > 0))
            checked += int(feas.sum())
            # spot check through the public predicate on the largest witness
            if feas.any():
                m = int(np.flatnonzero(feas)[np.argmax(sel[feas].sum(axis=1))])
                ids = [int(i) for i in ctx.ids[sel[m]]]
                assert separation_check(ctx, ids, q)
    print(f"\nACCEPTANCE 6 separation: PASS ({checked} strongly feasible sets)")


def test_criterion_7_clipping_equivalence():
    mismatches = subsets = 0
    for seed in range(50):
        n = 7 + seed % 4  # 7..10
        beta = (1.0, 1.25)[seed % 2]
        noise = (0.0, 0.02)[seed % 2]
        ctx = random_ctx(700 + seed, n=n, R=3.0, delta=2.0, beta=beta, noise=noise)
        bits = 1 << np.arange(ctx.n, dtype=np.int64)
        masks = np.arange(0, 1 << ctx.n, dtype=np.int64)
        sel = (masks[:, None] & bits[None, :]) != 0
        aff_ok = np.all(((sel @ ctx.raw) <= 1.0) | ~sel, axis=1)
        alpha = ctx.instance.alpha
        sec = ctx.table[ctx.k:]
        budget = ctx.powers / ctx.lengths ** alpha / sec[:, BETA] - sec[:, NOISE]
        with np.errstate(divide="ignore"):
            interf = np.minimum(ctx.powers[:, None] / _distances(ctx) ** alpha, RAW_CAP)
        np.fill_diagonal(interf, 0.0)
        exact_ok = np.all(((sel @ interf) <= budget) | ~sel, axis=1)
        mismatches += int(np.sum(aff_ok != exact_ok))
        subsets += sel.shape[0]
        # spot check through the public predicate
        ids = [int(i) for i in ctx.ids][:5]
        for r in range(len(ids) + 1):
            for sub in itertools.combinations(ids, r):
                assert (check_positions(ctx, ctx.index_of(sub))
                        == certify(ctx, sub).exact_sinr_ok)
    assert mismatches == 0
    print(f"\nACCEPTANCE 7 clipping equivalence: PASS "
          f"({subsets} subsets, {mismatches} mismatches)")


def test_criterion_8_admission_safety():
    runs = 0
    group_flags = []
    for i in range(300):
        k = (1, 2, 4)[i % 3]
        method = "large" if (i % 6 == 5 and k >= 2) else "general"
        ctx = feasible_prim_ctx(8000 + 7 * i, n=10 + (i % 2) * 4,
                                R=5.0 + (i % 3) * 2, delta=2.0, primaries=k)
        if method == "general":
            res = admit_general(ctx, RoundingPolicy(
                mode="admission_general", C=1.0, trials=10, seed=i))
        else:
            res = admit_large_opt(ctx, RoundingPolicy(
                mode="admission_large", C=1.0, trials=10, seed=i))
        assert res.verified
        assert verify(ctx, res.admitted.ids)
        if res.notes.get("group_count", 0) > 10 * ctx.k:
            group_flags.append((i, res.notes["group_count"], ctx.k))
        runs += 1
    assert runs == 300
    print(f"\nACCEPTANCE 8 admission safety: PASS (300 runs verified; "
          f"{len(group_flags)} group-count flags over 10|P|)")
    for flag in group_flags:
        print(f"  flagged run {flag[0]}: {flag[1]} groups for |P|={flag[2]}")


def test_criterion_9_experiment_harness(tmp_path):
    out = tmp_path / "compare.csv"
    configs = [
        GenConfig(n=100, R=r, delta=d, seed=900 + i)
        for i, (d, r) in enumerate(itertools.product((2.0, 8.0, 32.0),
                                                     (8.0, 32.0, 128.0)))
    ]
    sweep = [round(0.2 * i, 10) for i in range(1, 16)]
    records = run_compare(configs, sweep, trials=100, out_path=out,
                          power=PowerAssignment.linear())
    header = out.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert "ratio" in header
    ratios = {(r.delta, r.R): r.ratio for r in records if r.algo == "ratio"}
    assert len(ratios) == 9
    print("\nACCEPTANCE 9 experiment harness: PASS (9 configs, CSV written)")
    print("  LP/greedy ratio by (delta, R) [qualitative: greedy gains as "
          "delta and density grow]:")
    for (d, r), ratio in sorted(ratios.items()):
        print(f"    delta={d:5.1f} R={r:5.1f} density={100 / r ** 2:8.4f} "
              f"ratio={ratio:.3f}")


def test_criterion_10_determinism(tmp_path):
    configs = [GenConfig(n=30, R=6.0, delta=4.0, seed=s) for s in (11, 12)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_compare(configs, [0.4, 0.8, 1.2], trials=25, out_path=a)
    run_compare(configs, [0.4, 0.8, 1.2], trials=25, out_path=b)
    assert a.read_bytes() == b.read_bytes()
    print("\nACCEPTANCE 10 determinism: PASS (byte-identical CSVs)")
