"""Random instance generation, algorithm comparison runs, and CSV output.

Instances are drawn inside an R x R square with link lengths uniform in
[1, delta]; four weight distributions are supported.  ``run_compare``
reproduces the sweep-and-compare methodology: every algorithm is run over
a grid of acceptance/bound constants, each sweep in one call, and its
best result is reported, together with the LP-to-greedy quality ratio.
``sweep_best`` picks each such sweep's best constant, here and in the CLI.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .affectance import AffectanceContext
from .formulations import PROBLEMS
from .greedy import greedy_base, greedy_sweep
from .lp_core import solve_lp
from .model import (Instance, Link, Point, PowerAssignment, PrimarySet, require_integer,
                    require_positive, require_real)
from .oracle import exact_capacity, largest_bifeasible
from .rounding import RoundingPolicy, run_pipeline, run_sweep, schedule_value

WEIGHT_DISTRIBUTIONS = ("ordinary", "reversed", "length_determined", "weight_class")

DEFAULT_SWEEP = tuple(round(0.2 * i, 10) for i in range(1, 16))  # 0.2 .. 3.0


@dataclass(frozen=True)
class GenConfig:
    n: int
    R: float
    delta: float
    weight_dist: str = "ordinary"
    alpha: float = 2.5
    beta: float = 1.0
    noise: float = 0.0
    seed: int = 0
    primaries: int = 0
    primary_power: float = 1.0

    def __post_init__(self):
        for field in ("n", "seed", "primaries"):
            require_integer(field, getattr(self, field))
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n!r}")
        require_positive("R", self.R)
        for field in ("delta", "alpha", "beta", "noise", "primary_power"):
            require_real(field, getattr(self, field))
        if not 1 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and at least 1, got {self.delta!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        if self.primaries < 0:
            raise ValueError(f"primaries must be nonnegative, got {self.primaries!r}")
        if self.weight_dist not in WEIGHT_DISTRIBUTIONS:
            raise ValueError(f"unknown weight distribution {self.weight_dist!r}")

    @property
    def density(self) -> float:
        return self.n / (self.R * self.R)


@dataclass
class ExperimentRecord:
    seed: int
    n: int
    R: float
    delta: float
    density: float
    weight_dist: str
    algo: str
    constant: Optional[float]
    value: float
    feasible: Optional[bool]
    runtime_ms: Optional[float]
    ratio: Optional[float] = None

    def to_row(self) -> list:
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, bool):
                return "true" if x else "false"
            return repr(x) if isinstance(x, float) else str(x)
        return [fmt(getattr(self, c)) for c in CSV_COLUMNS]


CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRecord))


def _draw_links(cfg: GenConfig, rng: np.random.Generator, count: int):
    """Sender and receiver coordinates and the lengths of ``count`` links."""
    sx = rng.uniform(0.0, cfg.R, count)
    sy = rng.uniform(0.0, cfg.R, count)
    lengths = rng.uniform(1.0, cfg.delta, count)
    angles = rng.uniform(0.0, 2.0 * math.pi, count)
    return (sx, sy, sx + lengths * np.cos(angles), sy + lengths * np.sin(angles)), lengths


def _links(coords, id_base: int, weights=None) -> tuple:
    """One ``Link`` per entry of the coordinate arrays, ids from ``id_base``;
    weight 1 unless ``weights`` gives each."""
    sx, sy, rx, ry = (c.tolist() for c in coords)
    weights = [1.0] * len(sx) if weights is None else weights.tolist()
    return tuple(Link(id=id_base + i, sender=Point(*s), receiver=Point(*r), weight=w)
                 for i, (s, r, w) in enumerate(zip(zip(sx, sy), zip(rx, ry), weights)))


def _draw_weights(cfg: GenConfig, rng: np.random.Generator, lengths: np.ndarray):
    if cfg.weight_dist == "ordinary":
        return rng.uniform(1.0, cfg.n, cfg.n)
    if cfg.weight_dist == "reversed":
        return 1.0 / rng.uniform(1.0, cfg.n, cfg.n)
    if cfg.weight_dist == "length_determined":
        return lengths.copy()
    t_max = max(1, math.ceil(math.log2(cfg.n))) if cfg.n > 1 else 1
    t = rng.integers(1, t_max + 1, cfg.n)
    return np.exp2(t).astype(float)


def generate_instance(cfg: GenConfig) -> Instance:
    """Deterministic instance for a config: senders uniform in the square,
    lengths uniform in [1, delta], directions uniform, weights per the
    configured distribution."""
    rng = np.random.default_rng(cfg.seed)
    coords, lengths = _draw_links(cfg, rng, cfg.n)
    links = _links(coords, 0, _draw_weights(cfg, rng, lengths))
    primaries = None
    if cfg.primaries > 0:
        pcoords, _ = _draw_links(cfg, rng, cfg.primaries)
        primaries = PrimarySet(links=_links(pcoords, cfg.n),
                               powers=tuple([cfg.primary_power] * cfg.primaries))
    return Instance(links=links, alpha=cfg.alpha, beta=cfg.beta,
                    noise=cfg.noise, primaries=primaries)


def sweep_best(sweep: Sequence[float], results) -> tuple:
    """(constant, value, result) with the largest value among the
    (value, result) pairs of the sweep's constants; ties, and gains of at
    most 1e-12, keep the earlier constant.  This is deliberately not
    ``rounding.best_part``'s rule: the sweep compares constants, not id
    tuples, and float noise between constants must not pick a later one."""
    best = None
    for c, (value, result) in zip(sweep, results):
        if best is None or value > best[1] + 1e-12:
            best = (c, value, result)
    return best


def run_compare(gen_configs: Sequence[GenConfig], sweep: Sequence[float],
                trials: int, out_path, power: Optional[PowerAssignment] = None,
                timing: bool = False) -> list:
    """Run the LP pipeline and the greedy variants over a constant sweep on
    each instance, keep each algorithm's best, and write one CSV.

    The LP runs its whole sweep in one ``run_sweep`` call, and the three
    greedy rows (``greedy_w``, ``greedy_l`` and the combined ``greedy``)
    come from one ``greedy_sweep`` call, which runs each class scan once.
    Every emitted solution row is re-verified feasible before writing.
    Rows are deterministic for fixed configs; runtimes are recorded only
    when ``timing`` is set (they would break byte-for-byte determinism):
    the LP row's is the wall time of its sweep, and the three greedy rows
    all carry the wall time of their one shared sweep.
    """
    sweep = list(sweep)
    if not sweep:
        raise ValueError("constant sweep must not be empty")
    if power is None:
        power = PowerAssignment.linear()
    records = []
    for cfg in gen_configs:
        inst = generate_instance(cfg)
        ctx = AffectanceContext(inst, power)
        meta = dict(seed=cfg.seed, n=cfg.n, R=cfg.R, delta=cfg.delta,
                    density=cfg.density, weight_dist=cfg.weight_dist)
        t0 = time.perf_counter()
        schedules = {"lp": run_sweep(ctx, [RoundingPolicy(mode="weighted", C=c, trials=trials,
                                                          seed=cfg.seed) for c in sweep])}
        t1 = time.perf_counter()
        schedules.update(greedy_sweep(ctx, ["greedy_w", "greedy_l", "greedy"], sweep))
        lp_ms, greedy_ms = (t1 - t0) * 1e3, (time.perf_counter() - t1) * 1e3
        values = {}
        for algo, runs in schedules.items():  # in row order
            c, values[algo], best = sweep_best(
                sweep, [(schedule_value(ctx, schedule, "weight"), schedule) for schedule in runs])
            if not best.verified:
                raise AssertionError(f"{algo} produced an infeasible solution")
            records.append(ExperimentRecord(
                **meta, algo=algo, constant=c, value=values[algo], feasible=True,
                runtime_ms=(lp_ms if algo == "lp" else greedy_ms) if timing else None))
        ratio = values["lp"] / values["greedy"] if values["greedy"] > 0 else float("inf")
        records.append(ExperimentRecord(**meta, algo="ratio", constant=None,
                                        value=ratio, feasible=None,
                                        runtime_ms=None, ratio=ratio))
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in records:
                writer.writerow(rec.to_row())
    return records


def run_oracle_suite(gen_configs: Sequence[GenConfig], trials: int = 50) -> dict:
    """Small-instance report under uniform power: per instance the
    exhaustive optimum, the LP pipeline and greedy values, the fractional
    optimum under a calibrated bound, and verdicts for the dominance and
    relaxation properties."""
    rows = []
    all_ok = True
    for cfg in gen_configs:
        inst = generate_instance(cfg)
        ctx = AffectanceContext(inst, PowerAssignment.uniform())
        opt = exact_capacity(ctx, "cardinality", "exact_sinr")
        w2 = largest_bifeasible(ctx, 2.0)
        lp_probe = PROBLEMS["capacity"].build(ctx, 1.0)
        indicator = np.zeros(ctx.n)
        if w2.ids:
            indicator[ctx.index_of(w2.ids)] = 1.0
        calibrated = max(float(np.max(lp_probe.row_coeffs @ indicator)), 1e-9) \
            if ctx.n else 1e-9
        lp_star = solve_lp(lp_probe.at(calibrated)).objective
        policy = RoundingPolicy(mode="capacity", C=1.0, trials=trials, seed=cfg.seed)
        alg = run_pipeline(ctx, policy)
        grd = greedy_base(ctx, 1.0)
        verdicts = {
            "alg_le_opt": alg.size <= opt.size and grd.size <= opt.size,
            "lp_ge_w2": lp_star >= len(w2.ids) - 1e-6,
            "w2_ge_half_opt": len(w2.ids) >= math.ceil(opt.size / 2),
            "outputs_feasible": alg.verified and grd.verified,
        }
        all_ok = all_ok and all(verdicts.values())
        rows.append({
            "seed": cfg.seed, "n": cfg.n, "ALG": alg.size, "GREEDY": grd.size,
            "OPT": opt.size, "LP*": lp_star, "W2": len(w2.ids),
            "calibrated_C": calibrated, "verdicts": verdicts,
        })
    return {"rows": rows, "all_ok": all_ok}
