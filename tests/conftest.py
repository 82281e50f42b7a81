import math

import numpy as np
import pytest

from sinrcap import (AffectanceContext, GenConfig, InfeasiblePrimaries, Instance,
                     Link, LpSession, Point, PowerAssignment, generate_instance)
from sinrcap.rounding import sample_batch


class ColdSession(LpSession):
    """Loads every program cold, as solving without a session did."""

    def solve(self, lp):
        return LpSession().solve(lp)


def make_link(lid, sx, sy, rx, ry, **kw):
    return Link(id=lid, sender=Point(sx, sy), receiver=Point(rx, ry), **kw)


def distance(p, q):
    """Planar distance between points, in pure Python: a reference
    computed apart from the library's distance rule."""
    return math.hypot(p.x - q.x, p.y - q.y)


def sr_distance(inst, w, v):
    """``distance`` from link w's sender to link v's receiver."""
    return distance(inst.link(w).sender, inst.link(v).receiver)


def line_links(*segments, **kw):
    """Links along the x axis given as (sx, rx) pairs."""
    return tuple(make_link(i, s, 0.0, r, 0.0, **kw) for i, (s, r) in enumerate(segments))


def far_instance(n=4, alpha=2.5, beta=1.0, noise=0.0, spacing=1000.0):
    """Unit links so far apart that all cross affectances are negligible."""
    links = tuple(make_link(i, i * spacing, 0.0, i * spacing + 1.0, 0.0)
                  for i in range(n))
    return Instance(links=links, alpha=alpha, beta=beta, noise=noise)


def colocated_pair(alpha=2.5, beta=1.0, noise=0.0, weights=(1.0, 1.0)):
    """Two identical unit links on top of each other (mutual affectance 1)."""
    links = tuple(make_link(i, 0.0, 0.0, 1.0, 0.0, weight=w)
                  for i, w in enumerate(weights))
    return Instance(links=links, alpha=alpha, beta=beta, noise=noise)


def random_ctx(seed, n=8, R=5.0, delta=3.0, power=None, beta=1.0, noise=0.0,
               weight_dist="ordinary", primaries=0, attach_primaries=False):
    cfg = GenConfig(n=n, R=R, delta=delta, weight_dist=weight_dist, beta=beta,
                    noise=noise, seed=seed, primaries=primaries)
    inst = generate_instance(cfg)
    power = power or PowerAssignment.uniform()
    prim = inst.primaries if (attach_primaries and inst.primaries) else None
    return AffectanceContext(inst, power, primaries=prim)


def feasible_prim_ctx(seed, **kw):
    """First seed at or after ``seed`` whose random primaries can coexist."""
    for s in range(seed, seed + 200):
        try:
            return random_ctx(s, attach_primaries=True, **kw)
        except InfeasiblePrimaries:
            continue
    raise RuntimeError("no feasible primary layout found")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def better(cand_val, cand_key, best_val, best_key) -> bool:
    """One step of the best-set rule as a loop, the reference that
    ``rounding.winner`` must match: a larger objective, or an equal one with
    a smaller key tuple."""
    return cand_val > best_val or (cand_val == best_val and cand_key < best_key)


def selection(ctx, *sets):
    """Boolean rows over the context positions, one per set of link ids."""
    sel = np.zeros((len(sets), ctx.n), dtype=bool)
    for row, S in zip(sel, sets):
        row[ctx.index_of(S)] = True
    return sel


def sampled(lp, delta, policy, trial):
    """Ids of one trial's two-stage sample: a one-row ``sample_batch``."""
    return tuple(lp.ids[sample_batch(lp, delta, policy, [trial])[0]].tolist())
