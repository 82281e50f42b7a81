"""Random instance generation, algorithm comparison runs, and CSV output.

Instances are drawn inside an R x R square with link lengths uniform in
[1, delta]; four weight distributions are supported.  ``run_compare``
reproduces the sweep-and-compare methodology: every algorithm is run over
a grid of acceptance/bound constants and its best result is reported,
together with the LP-to-greedy quality ratio.  ``sweep_best`` picks each
such sweep's best constant, here and in the CLI.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .affectance import AffectanceContext, check_feasibility
from .formulations import build_capacity_lp
from .greedy import greedy_base, greedy_sweep, heavier
from .lp_core import LpSession, solve_lp
from .model import Instance, Link, Point, PowerAssignment, PrimarySet
from .oracle import exact_capacity, largest_bifeasible
from .rounding import RoundingPolicy, run_pipeline, run_sweep, schedule_weight

WEIGHT_DISTRIBUTIONS = ("ordinary", "reversed", "length_determined", "weight_class")

CSV_COLUMNS = ("seed", "n", "R", "delta", "density", "weight_dist", "algo",
               "constant", "value", "feasible", "runtime_ms", "ratio")

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
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n!r}")
        if not 0 < self.R < math.inf:
            raise ValueError(f"R must be finite and positive, got {self.R!r}")
        if not 1 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and at least 1, got {self.delta!r}")
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


def _draw_links(cfg: GenConfig, rng: np.random.Generator, count: int, id_base: int):
    sx = rng.uniform(0.0, cfg.R, count)
    sy = rng.uniform(0.0, cfg.R, count)
    lengths = rng.uniform(1.0, cfg.delta, count)
    angles = rng.uniform(0.0, 2.0 * math.pi, count)
    rx = sx + lengths * np.cos(angles)
    ry = sy + lengths * np.sin(angles)
    return [
        Link(id=id_base + i,
             sender=Point(float(sx[i]), float(sy[i])),
             receiver=Point(float(rx[i]), float(ry[i])))
        for i in range(count)
    ], lengths


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
    links, lengths = _draw_links(cfg, rng, cfg.n, 0)
    weights = _draw_weights(cfg, rng, lengths)
    links = [
        Link(id=lk.id, sender=lk.sender, receiver=lk.receiver, weight=float(w))
        for lk, w in zip(links, weights)
    ]
    primaries = None
    if cfg.primaries > 0:
        plinks, _ = _draw_links(cfg, rng, cfg.primaries, cfg.n)
        primaries = PrimarySet(links=tuple(plinks),
                               powers=tuple([cfg.primary_power] * cfg.primaries))
    return Instance(links=tuple(links), alpha=cfg.alpha, beta=cfg.beta,
                    noise=cfg.noise, primaries=primaries)


def verify_output(ctx: AffectanceContext, ids) -> bool:
    """Affectance feasibility at threshold 1 and the exact SINR inequality."""
    return (check_feasibility(ctx, ids, 1.0, "feasible")
            and check_feasibility(ctx, ids, mode="exact_sinr"))


def best_over_sweep(sweep: Sequence[float], run):
    """Call ``run(c, session) -> (value, result)`` for each constant of the
    sweep, all through one ``LpSession`` (it builds a builder's rows once,
    as they do not depend on C), and return ``sweep_best`` of the
    results."""
    session = LpSession()
    return sweep_best(sweep, [run(c, session) for c in sweep])


def lp_sweep(ctx: AffectanceContext, mode: str, sweep: Sequence[float], trials: int,
             seed: int) -> list:
    """The LP pipeline's schedule under ``mode`` at each constant of the
    sweep, in order: one ``run_sweep`` through one fresh ``LpSession``."""
    return run_sweep(ctx, [RoundingPolicy(mode=mode, C=c, trials=trials, seed=seed)
                           for c in sweep], LpSession())


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


def _weight_and_ids(ctx: AffectanceContext, schedule):
    return schedule_weight(ctx, schedule), schedule.ids


def run_compare(gen_configs: Sequence[GenConfig], sweep: Sequence[float],
                trials: int, out_path, power: Optional[PowerAssignment] = None,
                timing: bool = False) -> list:
    """Run the LP pipeline and the greedy variants over a constant sweep on
    each instance, keep each algorithm's best, and write one CSV.

    Each algorithm runs its whole sweep in one call: ``lp_sweep`` for the
    LP and ``greedy_sweep`` for each class greedy, whose schedules the
    combined greedy compares constant by constant.  Every emitted solution
    row is re-verified feasible before writing.  Rows are deterministic for
    fixed configs; runtimes, each the wall time of the row's sweep, are
    recorded only when ``timing`` is set (they would break byte-for-byte
    determinism).
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
        schedules, best, ms = {}, {}, {}
        sweeps = {  # algo -> its schedule per constant, in row order
            "lp": lambda: lp_sweep(ctx, "weighted", sweep, trials, cfg.seed),
            "greedy_w": lambda: greedy_sweep(ctx, "weight_classes", sweep),
            "greedy_l": lambda: greedy_sweep(ctx, "length_classes", sweep),
            "greedy": lambda: [heavier(ctx, w, l) for w, l in zip(schedules["greedy_w"],
                                                                schedules["greedy_l"])],
        }
        for algo, run in sweeps.items():
            t0 = time.perf_counter()
            schedules[algo] = run()
            best[algo] = sweep_best(sweep, [_weight_and_ids(ctx, schedule)
                                            for schedule in schedules[algo]])
            ms[algo] = (time.perf_counter() - t0) * 1e3
        ms["greedy"] += ms["greedy_w"] + ms["greedy_l"]  # it reuses the class runs
        for algo, (c, value, ids) in best.items():
            if not verify_output(ctx, ids):
                raise AssertionError(f"{algo} produced an infeasible solution")
            records.append(ExperimentRecord(**meta, algo=algo, constant=c, value=value,
                                            feasible=True,
                                            runtime_ms=ms[algo] if timing else None))
        lp_value, g_value = best["lp"][1], best["greedy"][1]
        ratio = lp_value / g_value if g_value > 0 else float("inf")
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


def run_oracle_suite(gen_configs: Sequence[GenConfig], trials: int = 50,
                     power: Optional[PowerAssignment] = None) -> dict:
    """Small-instance report: per instance the exhaustive optimum, the LP
    pipeline and greedy values, the fractional optimum under a calibrated
    bound, and verdicts for the dominance and relaxation properties."""
    if power is None:
        power = PowerAssignment.uniform()
    rows = []
    all_ok = True
    for cfg in gen_configs:
        inst = generate_instance(cfg)
        ctx = AffectanceContext(inst, power)
        opt = exact_capacity(ctx, "cardinality", "exact_sinr")
        w2 = largest_bifeasible(ctx, 2.0)
        session = LpSession()  # the probe's rows serve the pipeline's solve too
        lp_probe = session.program(build_capacity_lp, ctx, 1.0)
        indicator = np.zeros(ctx.n)
        if w2.ids:
            indicator[ctx.index_of(w2.ids)] = 1.0
        calibrated = max(float(np.max(lp_probe.row_coeffs @ indicator)), 1e-9) \
            if ctx.n else 1e-9
        lp_star = solve_lp(lp_probe.at(calibrated), session).objective
        policy = RoundingPolicy(mode="capacity", C=1.0, trials=trials, seed=cfg.seed)
        alg = run_pipeline(ctx, policy, session)
        grd = greedy_base(ctx, 1.0)
        verdicts = {
            "alg_le_opt": alg.size <= opt.size and grd.size <= opt.size,
            "lp_ge_w2": lp_star >= len(w2.ids) - 1e-6,
            "w2_ge_half_opt": len(w2.ids) >= math.ceil(opt.size / 2),
            "outputs_feasible": verify_output(ctx, alg.ids) and verify_output(ctx, grd.ids),
        }
        all_ok = all_ok and all(verdicts.values())
        rows.append({
            "seed": cfg.seed, "n": cfg.n, "ALG": alg.size, "GREEDY": grd.size,
            "OPT": opt.size, "LP*": lp_star, "W2": len(w2.ids),
            "calibrated_C": calibrated, "verdicts": verdicts,
        })
    return {"rows": rows, "all_ok": all_ok}
