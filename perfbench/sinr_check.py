"""Independent feasibility checks for every set the benchmark gets back.

Signal and interference are recomputed here from link coordinates and
transmit powers.  Nothing is read from the library's ``AffectanceContext``
or its power code, so a defect in the cached matrices cannot hide a bad
result.  The SINR check runs whatever the threshold beta is.
"""

from __future__ import annotations

import numpy as np

# Relative slack for float noise between two evaluations of one inequality.
REL_TOL = 1e-9


def transmit_power(spec: str, lengths: np.ndarray, alpha: float) -> np.ndarray:
    """Powers for the benchmark's power specs: uniform, linear or mean."""
    if spec == "uniform":
        return np.ones_like(lengths)
    if spec == "linear":
        return lengths ** alpha
    if spec == "mean":
        return lengths ** (alpha / 2.0)
    raise ValueError(f"unknown power spec {spec!r}")


class Links:
    """Coordinates, powers, thresholds and noise of links that transmit together."""

    def __init__(self, sx, sy, rx, ry, power, beta, noise, alpha):
        self.sx, self.sy = np.asarray(sx, float), np.asarray(sy, float)
        self.rx, self.ry = np.asarray(rx, float), np.asarray(ry, float)
        self.power = np.asarray(power, float)
        self.beta = np.asarray(beta, float)
        self.noise = np.asarray(noise, float)
        self.alpha = float(alpha)

    @classmethod
    def from_instance(cls, instance, ids, power_spec, with_primaries=False):
        """The links ``ids`` of a library instance under ``power_spec``; with
        ``with_primaries`` the instance's primaries transmit too, at their
        own powers and the instance-wide beta and noise."""
        if instance.metric != "euclidean":
            raise ValueError("the benchmark generates Euclidean instances only")
        links = [instance.link(int(i)) for i in sorted(int(i) for i in ids)]
        coords = [(lk.sender.x, lk.sender.y, lk.receiver.x, lk.receiver.y) for lk in links]
        lengths = np.array([np.hypot(sx - rx, sy - ry) for sx, sy, rx, ry in coords])
        power = list(transmit_power(power_spec, lengths, instance.alpha))
        beta = [instance.beta if lk.beta_override is None else lk.beta_override
                for lk in links]
        noise = [instance.noise if lk.noise_override is None else lk.noise_override
                 for lk in links]
        if with_primaries and instance.primaries is not None:
            for lk, p in zip(instance.primaries.links, instance.primaries.powers):
                coords.append((lk.sender.x, lk.sender.y, lk.receiver.x, lk.receiver.y))
                power.append(p)
                beta.append(instance.beta)
                noise.append(instance.noise)
        cols = np.array(coords, dtype=float).reshape(-1, 4).T
        return cls(*cols, power, beta, noise, instance.alpha)

    def _gain(self) -> np.ndarray:
        """gain[w, v] = 1 / d(sender w, receiver v) ** alpha (inf at d = 0)."""
        d = np.hypot(self.sx[:, None] - self.rx[None, :],
                     self.sy[:, None] - self.ry[None, :])
        with np.errstate(divide="ignore"):
            return 1.0 / d ** self.alpha


def sinr_feasible(links: Links) -> bool:
    """Every receiver meets signal >= beta * (noise + interference)."""
    if links.power.size == 0:
        return True
    gain = links._gain()
    signal = links.power * np.diag(gain)
    interf = links.power[:, None] * gain
    np.fill_diagonal(interf, 0.0)
    with np.errstate(invalid="ignore"):
        need = links.beta * (links.noise + interf.sum(axis=0))
    return bool(np.all(signal >= need * (1.0 - REL_TOL)))


def bifeasible(links: Links, gamma: float) -> bool:
    """Affectance, clipped at 1, received and sent by every member is at
    most gamma (the oracle's bi-feasibility for gamma > 1)."""
    if links.power.size == 0:
        return True
    gain = links._gain()
    length_gain = np.diag(gain)
    margin = 1.0 - links.beta * links.noise / (links.power * length_gain)
    if np.any(margin <= 0):
        return False
    c = links.beta / margin
    with np.errstate(invalid="ignore"):
        raw = c[None, :] * links.power[:, None] * gain / (links.power * length_gain)[None, :]
    aff = np.minimum(np.nan_to_num(raw, nan=1.0, posinf=1.0), 1.0)
    np.fill_diagonal(aff, 0.0)
    limit = gamma * (1.0 + REL_TOL)
    return bool(np.all(aff.sum(axis=0) <= limit) and np.all(aff.sum(axis=1) <= limit))


def self_check() -> list:
    """Fail loudly unless the checks accept a feasible set and reject
    infeasible ones: a checker that never fails proves nothing."""
    def links(points):
        sx, sy, rx, ry = np.array(points, dtype=float).T
        ones = np.ones(len(points))
        return Links(sx, sy, rx, ry, ones, ones, 0.0 * ones, 2.5)

    # each sender sits on the other link's receiver: infinite interference
    crossed = links([(0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0)])
    # B's sender is 0.2 from A's receiver: interference 56x A's signal
    near = links([(0.0, 0.0, 1.0, 0.0), (1.2, 0.0, 2.2, 0.0)])
    # four identical links: each receives clipped affectance 3 > 2
    stacked = links([(0.0, 0.0, 1.0, 0.0)] * 4)
    # unit links 1000 apart: interference 1e-7.5 of the signal
    apart = links([(0.0, 0.0, 1.0, 0.0), (1000.0, 0.0, 1001.0, 0.0)])
    checks = {
        "crossed pair rejected": not sinr_feasible(crossed),
        "near pair rejected": not sinr_feasible(near),
        "stacked links not 2-bifeasible": not bifeasible(stacked, 2.0),
        "distant pair accepted": sinr_feasible(apart) and bifeasible(apart, 2.0),
    }
    bad = [name for name, ok in checks.items() if not ok]
    if bad:
        raise SystemExit(f"sinr_check self-check failed: {bad}")
    return list(checks)
