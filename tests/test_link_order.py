"""A file's link order does not matter.

A context lists its links by id, whatever order the instance holds them in,
and reads their geometry through each link's instance position.  So the
same links listed in another order give a bit-identical context and the
same result from every pipeline, greedy, oracle and check.
"""

import numpy as np
import pytest

from sinrcap import (AffectanceContext, DistanceMatrix, Instance, Link, Point, PowerAssignment,
                     PrimarySet, RoundingPolicy, admit_sweep, certify, exact_admission,
                     exact_capacity, greedy_sweep, largest_bifeasible, run_sweep,
                     separation_check)
from sinrcap.greedy import GREEDY_VARIANTS

N = 14
SWEEP = (0.5, 1.0, 2.0)


def _links(rng, ids, x0=0.0):
    """Links of the given ids, senders in the 12 x 12 square from (x0, 0),
    lengths in [1, 3]."""
    links = []
    for lid in ids:
        sx, sy = rng.uniform(0.0, 12.0, 2) + (x0, 0.0)
        length, angle = rng.uniform(1.0, 3.0), rng.uniform(0.0, 2 * np.pi)
        links.append(Link(int(lid), Point(sx, sy),
                          Point(sx + length * np.cos(angle), sy + length * np.sin(angle)),
                          weight=float(rng.uniform(1.0, 10.0))))
    return links


def _pair(seed, primaries, metric):
    """The same instance twice: links in id order, then shuffled.  Ids are
    sparse, one is at least 4n + 1024 (so draws take the sparse path), and
    each primary id lies between secondary ids.  With ``metric``, the
    distances are an explicit matrix, permuted with the links."""
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(np.arange(0, 300, 3), N - 1, replace=False))
    ids = np.append(ids, 4 * N + 1024 + seed)
    links = _links(rng, ids)
    prims = _links(rng, ids[N // 2 - primaries:N // 2] + 1, x0=40.0)  # far off
    perm = rng.permutation(N)
    assert not np.array_equal(perm, np.arange(N))

    def make(order):
        every = [links[i] for i in order] + prims
        kw = {}
        if metric:
            pts = np.array([(p.x, p.y) for lk in every for p in (lk.sender, lk.receiver)])
            diff = pts[:, None] - pts[None]
            kw["metric"] = DistanceMatrix(np.hypot(diff[..., 0], diff[..., 1]))
        if prims:
            kw["primaries"] = PrimarySet(links=tuple(prims), powers=(2.0,) * len(prims))
        return Instance(links=tuple(every[:N]), alpha=3.0, beta=1.0, noise=0.01, **kw)

    ordered, shuffled = make(np.arange(N)), make(perm)
    if metric:  # the shuffled matrix is the ordered one, rows and columns permuted
        points = np.r_[np.c_[2 * perm, 2 * perm + 1].ravel(), 2 * N + np.arange(2 * primaries)]
        assert np.array_equal(shuffled.metric.values,
                              ordered.metric.values[np.ix_(points, points)])
    return ordered, shuffled


def _outcome(call):
    """What ``call`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # both listings must fail alike
        return type(exc), str(exc)


def _results(ctx):
    policies = {mode: [RoundingPolicy(mode, C, trials=20, seed=5) for C in SWEEP]
                for mode in ("capacity", "weighted", "admission_general", "admission_large")}
    optimum = exact_capacity(ctx)
    sets = [optimum.ids, ctx.ids.tolist(), ctx.ids[::2].tolist(), ctx.ids[1::3].tolist()]
    return {
        "removed": ctx.removed_ids,
        **{f"run_sweep {mode}": _outcome(lambda m=mode: run_sweep(ctx, policies[m]))
           for mode in ("capacity", "weighted")},
        "greedy_sweep": _outcome(lambda: greedy_sweep(ctx, GREEDY_VARIANTS, SWEEP)),
        **{f"admit_sweep {mode}": _outcome(lambda m=mode: admit_sweep(ctx, policies[m]))
           for mode in ("admission_general", "admission_large")},
        "exact_capacity": optimum,
        "exact_capacity weight": exact_capacity(ctx, "weight"),
        "exact_admission": _outcome(lambda: exact_admission(ctx)),
        "largest_bifeasible": largest_bifeasible(ctx),
        "certify": [certify(ctx, S) for S in sets],
        "separation_check": [separation_check(ctx, S, q) for S in sets for q in (0.5, 1.0, 2.0)],
    }


# (seed, primaries in the instance, explicit distance matrix, primaries attached)
CASES = {
    "plain": (1, 0, False, False),
    "one-primary-unattached": (2, 1, False, False),
    "one-primary": (2, 1, False, True),
    "two-primaries-unattached": (3, 2, False, False),
    "two-primaries": (3, 2, False, True),
    "matrix-unattached": (4, 1, True, False),
    "matrix": (4, 1, True, True),
}


@pytest.mark.parametrize("case", CASES)
def test_link_order_does_not_change_the_context_or_any_result(case):
    seed, primaries, metric, attach = CASES[case]
    ordered, shuffled = _pair(seed, primaries, metric)
    power = PowerAssignment.mean()
    a, b = (AffectanceContext(inst, power, primaries=inst.primaries if attach else None)
            for inst in (ordered, shuffled))
    assert not np.array_equal(a.instance_pos, b.instance_pos)
    assert a.ids.tolist() == b.ids.tolist()
    for name in ("table", "raw", "raw_to_prim", "aff_to_prim_plain", "weights"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    results = _results(a)
    assert results["exact_capacity"].size > 1
    if attach:
        assert results["exact_admission"].verified
    else:
        assert results["greedy_sweep"]["greedy"][0].verified
    assert _results(b) == results
