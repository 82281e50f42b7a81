"""The benchmark's workloads: fixed instances, one timed iteration through
the public API, and an independent check of its outputs.

All instances are planar with alpha 2.5 and beta 1.  Sizes are chosen so
that one iteration takes 1-3 s on a 2-core x86 machine, letting a run
report the median of about a dozen iterations.

Every workload runs on a fixed set of instances.  The cost of one
instance set differs from the next by more than 10 % (LP solve time and
rounding survivors depend on the geometry), and the optimum sizes the
oracle finds differ by as much, so instances drawn from the workload seed
would swamp the changes the benchmark has to detect.  The workload seed
goes to the randomized rounding where the public API takes it apart from
the instance: ``sinrcap solve --seed`` in lp-sweep and the rounding
policy's seed in admission.  run_compare draws an instance and its
rounding from one config seed, and the oracles are deterministic, so
round-compare and oracle give the same outputs for every workload seed.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import math
import os
from dataclasses import dataclass

import sinr_check
import spans
from sinrcap import admission, cli, harness, model, oracle, rounding
from sinrcap.harness import GenConfig

# the package re-exports a function named affectance over the module
affectance = importlib.import_module("sinrcap.affectance")

# Attempts at finding an instance whose random primaries can coexist
PRIMARY_LAYOUT_TRIES = 100


@dataclass
class Outcome:
    failed: int           # top-level calls that returned a set failing the check
    value: float          # objective summed over every returned set
    greedy_value: float   # the part of value from greedy rows
    digest: str           # SHA-256 over returned id tuples (and CSV bytes)


def _side(n: int, density: float) -> float:
    return math.sqrt(n / density)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part).encode())
    return h.hexdigest()


def _weight(instance, ids) -> float:
    return math.fsum(instance.link(int(i)).weight for i in sorted(ids))


def _primaries_feasible(instance) -> bool:
    """The primaries meet their own SINR with no secondary transmitting;
    otherwise admission raises InfeasiblePrimaries by design."""
    return sinr_check.sinr_feasible(
        sinr_check.Links.from_instance(instance, (), "uniform", with_primaries=True))


def _with_feasible_primaries(base_seed: int, make):
    """First instance seed from base_seed on whose primaries can coexist."""
    for j in range(PRIMARY_LAYOUT_TRIES):
        inst = make(base_seed + j)
        if _primaries_feasible(inst):
            return inst
    raise RuntimeError("no feasible primary layout in the seed's range")


class LpSweep:
    """In-process ``sinrcap solve --algo lp --formulation capacity``: the
    user-facing solve path, where the LP solve dominates."""

    name = "lp-sweep"
    why = ("sinrcap solve --algo lp, capacity LP, mean power, 4 trials, sweep 0.6..3.0 "
           "by 0.6, --seed = seed; n=500, density 0.1, delta 8, instance seed 1: "
           "the CLI path, LP-bound")
    N, DENSITY, DELTA, POWER, INSTANCE_SEED = 500, 0.1, 8.0, "mean", 1
    TRIALS, SWEEP = 4, "0.6,1.2,1.8,2.4,3.0"
    reference = "lp"  # see reference.py
    calls = 1

    def setup(self, seed: int, workdir: str):
        cfg = GenConfig(n=self.N, R=_side(self.N, self.DENSITY), delta=self.DELTA,
                        seed=self.INSTANCE_SEED)
        inst = harness.generate_instance(cfg)
        path = os.path.join(workdir, "lp-sweep-instance.json")
        model.write_instance(inst, path)
        out = os.path.join(workdir, "lp-sweep-out.json")
        argv = ["solve", path, "--algo", "lp", "--formulation", "capacity",
                "--power", self.POWER, "--trials", str(self.TRIALS), "--sweep", self.SWEEP,
                "--seed", str(seed), "--out", out]
        return {"instance": inst, "argv": argv, "out": out}

    def run(self, state):
        if os.path.exists(state["out"]):
            os.remove(state["out"])
        return cli.main(state["argv"])

    def check(self, state, status) -> Outcome:
        with open(state["out"]) as fh:
            best = json.load(fh)
        ids = sorted(best["ids"])
        ok = (status == 0 and best["value"] == len(ids)
              and sinr_check.sinr_feasible(
                  sinr_check.Links.from_instance(state["instance"], ids, self.POWER)))
        return Outcome(0 if ok else 1, float(best["value"]), 0.0, _digest([ids]))


class RoundCompare:
    """``harness.run_compare``: the paper's LP-vs-greedy experiment, where
    rounding (sampling, extraction, strengthening) dominates."""

    name = "round-compare"
    why = ("run_compare, weighted LP, linear power, sweep {1,2}, 50 trials, CSV out; "
           "8 instances of n=200, delta {2,8} x density {0.1,0.5} x 2, seeds 1-8: "
           "the LP-vs-greedy experiment, rounding-bound")
    N, DELTAS, DENSITIES, REPEATS = 200, (2.0, 8.0), (0.1, 0.5), 2
    SWEEP, TRIALS = (1.0, 2.0), 50
    reference = "lp"  # see reference.py
    calls = 1

    def setup(self, seed: int, workdir: str):
        grid = [(d, dens) for d in self.DELTAS for dens in self.DENSITIES] * self.REPEATS
        configs = [GenConfig(n=self.N, R=_side(self.N, dens), delta=d,
                             seed=1 + i)
                   for i, (d, dens) in enumerate(grid)]
        instances = [harness.generate_instance(c) for c in configs]
        return {"configs": configs, "instances": instances, "captured": [],
                "csv": os.path.join(workdir, "round-compare.csv")}

    def run(self, state):
        # run_compare returns values, not id sets; keep the id set of every
        # schedule it certifies, so each CSV row can be checked below
        captured = state["captured"]
        captured.clear()
        certify = affectance.certify

        def capture(ctx, S):
            schedule = certify(ctx, S)
            captured.append((ctx.instance, schedule.ids))
            return schedule

        patched = spans.patch({certify: capture})
        try:
            return harness.run_compare(state["configs"], self.SWEEP, self.TRIALS,
                                       state["csv"], power=model.PowerAssignment.linear())
        finally:
            spans.restore(patched)

    def check(self, state, records) -> Outcome:
        with open(state["csv"], "rb") as fh:
            csv_bytes = fh.read()
        rows = [r for r in csv.DictReader(io.StringIO(csv_bytes.decode()))
                if r["algo"] != "ratio"]
        by_seed = {c.seed: inst for c, inst in zip(state["configs"], state["instances"])}
        # the set behind each row: a certified set of that instance whose
        # weight equals the row's value
        sets = {}
        for inst, ids in state["captured"]:
            key = _fingerprint(inst)
            sets.setdefault(key, {}).setdefault(_weight(inst, ids), ids)
        failed, value, greedy, parts = 0, 0.0, 0.0, [csv_bytes]
        for row in rows:
            inst = by_seed[int(row["seed"])]
            v = float(row["value"])
            ids = next((ids for w, ids in sets.get(_fingerprint(inst), {}).items()
                        if math.isclose(w, v, rel_tol=1e-9, abs_tol=1e-12)), None)
            ok = (ids is not None and row["feasible"] == "true"
                  and sinr_check.sinr_feasible(
                      sinr_check.Links.from_instance(inst, ids, "linear")))
            failed += not ok
            value += v
            if row["algo"] != "lp":
                greedy += v
            parts.append(list(ids or ()))
        # four solution rows and one ratio row per instance
        if len(rows) != 4 * len(state["configs"]) or len(records) != 5 * len(state["configs"]):
            failed = max(failed, 1)
        return Outcome(min(failed, self.calls), value, greedy, _digest(parts))


def _fingerprint(instance):
    lk = instance.links[0]
    return (instance.n, lk.sender.x, lk.sender.y, lk.receiver.x, lk.receiver.y)


class Admission:
    """``admit_general`` and ``admit_large_opt`` over three constants: the
    LP and rounding layers under hat affectance, primary-safe grouping and
    the retry loop."""

    name = "admission"
    why = ("admit_general + admit_large_opt, C in {0.6,1.2,1.8}, 30 trials, rounding "
           "seed = seed; n=600, 8 primaries, density 0.1, delta 8, uniform power, "
           "instance seed 3: admission's use of LP and rounding")
    N, PRIMARIES, DENSITY, DELTA, INSTANCE_SEED = 600, 8, 0.1, 8.0, 3
    CONSTANTS, TRIALS = (0.6, 1.2, 1.8), 30
    reference = "lp"  # see reference.py
    calls = 2 * len(CONSTANTS)

    def setup(self, seed: int, workdir: str):
        def make(s):
            return harness.generate_instance(GenConfig(
                n=self.N, R=_side(self.N, self.DENSITY), delta=self.DELTA, seed=s,
                primaries=self.PRIMARIES))
        return {"instance": _with_feasible_primaries(self.INSTANCE_SEED, make), "seed": seed}

    def run(self, state):
        inst = state["instance"]
        ctx = affectance.AffectanceContext(inst, model.PowerAssignment.uniform(),
                                           primaries=inst.primaries)
        results = []
        for c in self.CONSTANTS:
            results.append(admission.admit_general(ctx, rounding.RoundingPolicy(
                mode="admission_general", C=c, trials=self.TRIALS, seed=state["seed"])))
            results.append(admission.admit_large_opt(ctx, rounding.RoundingPolicy(
                mode="admission_large", C=c, trials=self.TRIALS, seed=state["seed"])))
        return results

    def check(self, state, results) -> Outcome:
        failed, value, parts = 0, 0.0, []
        for res in results:
            ids = list(res.admitted.ids)
            ok = res.verified and sinr_check.sinr_feasible(sinr_check.Links.from_instance(
                state["instance"], ids, "uniform", with_primaries=True))
            failed += not ok
            value += len(ids)
            parts.append(ids)
        failed += self.calls - len(results)
        return Outcome(failed, value, 0.0, _digest(parts))


class Oracle:
    """The exhaustive oracles: ``exact_capacity`` and ``largest_bifeasible``
    at n=18, ``exact_admission`` at n=16 with 2 primaries."""

    name = "oracle"
    why = ("exact_capacity + largest_bifeasible on 12 instances of n=18, exact_admission "
           "on 8 of n=16 + 2 primaries, uniform power, density 0.1, delta 8, fixed "
           "seeds: enumeration only")
    N, N_ADMIT, PRIMARIES, DENSITY, DELTA = 18, 16, 2, 0.1, 8.0
    CAPACITY_INSTANCES, ADMISSION_INSTANCES = 12, 8
    reference = "enumeration"  # see reference.py
    calls = 2 * CAPACITY_INSTANCES + ADMISSION_INSTANCES

    def setup(self, seed: int, workdir: str):
        capacity = [harness.generate_instance(GenConfig(
            n=self.N, R=_side(self.N, self.DENSITY), delta=self.DELTA, seed=1 + i))
            for i in range(self.CAPACITY_INSTANCES)]
        admit = []
        for i in range(self.ADMISSION_INSTANCES):
            def make(s):
                return harness.generate_instance(GenConfig(
                    n=self.N_ADMIT, R=_side(self.N, self.DENSITY), delta=self.DELTA,
                    seed=s, primaries=self.PRIMARIES))
            admit.append(_with_feasible_primaries(100 * (i + 1), make))
        return {"capacity": capacity, "admission": admit}

    def run(self, state):
        uniform = model.PowerAssignment.uniform()
        out = []
        for inst in state["capacity"]:
            ctx = affectance.AffectanceContext(inst, uniform)
            out.append(("exact", inst, oracle.exact_capacity(ctx, "cardinality", "exact_sinr")))
            out.append(("bifeasible", inst, oracle.largest_bifeasible(ctx, 2.0)))
        for inst in state["admission"]:
            ctx = affectance.AffectanceContext(inst, uniform, primaries=inst.primaries)
            out.append(("admission", inst, oracle.exact_admission(ctx)))
        return out

    def check(self, state, results) -> Outcome:
        failed, value, parts = 0, 0.0, []
        for kind, inst, schedule in results:
            ids = list(schedule.ids)
            links = sinr_check.Links.from_instance(inst, ids, "uniform",
                                                   with_primaries=kind == "admission")
            # largest_bifeasible promises affectance sums <= 2, not SINR
            ok = sinr_check.bifeasible(links, 2.0) if kind == "bifeasible" \
                else sinr_check.sinr_feasible(links)
            failed += not ok
            value += len(ids)
            parts.append(ids)
        failed += self.calls - len(results)
        return Outcome(failed, value, 0.0, _digest(parts))


WORKLOADS = {w.name: w for w in (LpSweep(), RoundCompare(), Admission(), Oracle())}
