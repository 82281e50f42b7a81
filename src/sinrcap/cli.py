"""Command-line interface: gen, solve, admit, oracle, compare, suite.

Every subcommand exits 0 only if its internal verifications pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import replace

from .admission import admit_sweep
from .affectance import AffectanceContext, InfeasiblePrimaries
from .formulations import PROBLEMS
from .greedy import GREEDY_VARIANTS, greedy_sweep
from .harness import (DEFAULT_SWEEP, WEIGHT_DISTRIBUTIONS, GenConfig, generate_instance,
                      run_compare, run_oracle_suite, sweep_best)
from .model import PowerAssignment, parse_power, read_instance, write_instance
from .oracle import TooLarge, exact_capacity
from .rounding import RoundingPolicy, run_sweep, schedule_value

# by the paper's problem: both admission programs solve "admission"
ORACLE_PROBLEMS = {problem.name: problem for problem in PROBLEMS.values()}


def _add_shared(p, flags=("seed", "trials", "power", "sweep", "out"), default_power="uniform",
                need_out=False):
    """Add the shared flags named in ``flags``: only those the subcommand
    reads; ``need_out``: the subcommand has no output but its ``--out`` file."""
    shared = {
        "seed": dict(type=int, default=0),
        "trials": dict(type=_positive_int, default=100),
        "power": dict(type=parse_power, default=default_power,
                      help="uniform[:P0] | linear | mean | exp:tau"),
        "sweep": dict(type=_positive_floats, default=list(DEFAULT_SWEEP),
                      help="comma-separated constants (default 0.2..3.0 step 0.2)"),
        "out": dict(required=need_out),
    }
    for flag in flags:
        p.add_argument(f"--{flag}", **shared[flag])


@contextlib.contextmanager
def _rejected(command, *errors):
    """Report ``errors``, raised on an input the library refuses, as one line
    on stderr and exit with status 2, as argparse does for a bad flag."""
    try:
        yield
    except errors as exc:
        print(f"sinrcap {command}: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _positive_floats(text):
    """A comma-separated list flag (``--sweep``, ``--deltas``, ``--sides``):
    at least one value, each finite and positive."""
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values or not all(0 < v < math.inf for v in values):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite positive numbers, got {text!r}")
    return values


def _positive_int(text):
    """A count flag (``--n``, ``--trials``, ``--count``): an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _parse_args(argv):
    ap = argparse.ArgumentParser(prog="sinrcap")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance file")
    g.add_argument("--n", type=_positive_int, required=True)
    g.add_argument("--side", type=float, required=True, help="square side R")
    g.add_argument("--delta", type=float, required=True, help="max link length")
    g.add_argument("--weights", default="ordinary", choices=WEIGHT_DISTRIBUTIONS)
    g.add_argument("--alpha", type=float, default=2.5)
    g.add_argument("--beta", type=float, default=1.0)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--primaries", type=int, default=0)
    g.add_argument("--primary-power", type=float, default=1.0)
    _add_shared(g, ("seed", "out"), need_out=True)

    s = sub.add_parser("solve", help="run one algorithm on an instance file")
    s.add_argument("instance")
    s.add_argument("--algo", required=True,
                   choices=["lp", *(v for v in GREEDY_VARIANTS if v != "base")])
    s.add_argument("--formulation", default="capacity",
                   choices=[mode for mode, problem in PROBLEMS.items() if not problem.primaries])
    _add_shared(s)

    a = sub.add_parser("admit", help="admission control on an instance with primaries")
    a.add_argument("instance")
    a.add_argument("--method", default="general", choices=[
        mode.split("_")[1] for mode, problem in PROBLEMS.items() if problem.primaries])
    _add_shared(a)

    o = sub.add_parser("oracle", help="exhaustive optimum on a small instance")
    o.add_argument("instance")
    o.add_argument("--problem", default="capacity", choices=ORACLE_PROBLEMS,
                   help="admission requires primaries")
    _add_shared(o, ("power", "out"))

    c = sub.add_parser("compare", help="sweep-and-compare experiment, CSV output")
    c.add_argument("--n", type=_positive_int, default=100)
    c.add_argument("--deltas", type=_positive_floats, default="2,8,32")
    c.add_argument("--sides", type=_positive_floats, default="8,32,128")
    c.add_argument("--weights", default="ordinary", choices=WEIGHT_DISTRIBUTIONS)
    c.add_argument("--timing", action="store_true",
                   help="record wall times (breaks byte determinism)")
    _add_shared(c, default_power="linear", need_out=True)  # the weighted guarantee's power

    u = sub.add_parser("suite", help="small-instance property checks")
    u.add_argument("--count", type=_positive_int, default=10)
    u.add_argument("--n", type=_positive_int, default=8)
    _add_shared(u, ("seed", "trials"))

    return ap.parse_args(argv)


def _emit(payload, out):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _context(args, primaries=False):
    """The affectance context of the instance file under ``--power``, with
    its primaries when ``primaries``; refused as a bad input when the file
    cannot be read, has no primaries (or an empty list of them) that are
    needed, gives a power that is not finite and positive, or has primaries
    that cannot coexist."""
    with _rejected(args.command, OSError, ValueError, InfeasiblePrimaries):
        inst = read_instance(args.instance)
        if primaries and not inst.primaries:
            raise ValueError(f"{args.instance} has no primaries")
        return AffectanceContext(inst, args.power,
                                 primaries=inst.primaries if primaries else None)


def _cmd_gen(args) -> int:
    with _rejected("gen", OSError, ValueError, InfeasiblePrimaries):
        inst = generate_instance(GenConfig(
            n=args.n, R=args.side, delta=args.delta, weight_dist=args.weights,
            alpha=args.alpha, beta=args.beta, noise=args.noise, seed=args.seed,
            primaries=args.primaries, primary_power=args.primary_power))
        if inst.primaries:  # every admission command refuses primaries that cannot coexist
            AffectanceContext(replace(inst, links=()), PowerAssignment.uniform(),
                              primaries=inst.primaries)
        write_instance(inst, args.out)
    print(f"wrote {args.out} ({inst.n} links"
          + (f", {len(inst.primaries)} primaries" if inst.primaries else "") + ")")
    return 0


def _cmd_solve(args) -> int:
    ctx = _context(args)
    if args.algo == "lp":
        schedules = run_sweep(ctx, [RoundingPolicy(mode=args.formulation, C=c, trials=args.trials,
                                                   seed=args.seed) for c in args.sweep])
    else:
        schedules = greedy_sweep(ctx, [args.algo], args.sweep)[args.algo]
    c, value, sched = sweep_best(args.sweep, [
        (schedule_value(ctx, s, PROBLEMS[args.formulation].objective), s) for s in schedules])
    best = {"constant": c, "value": value, "ids": list(sched.ids),
            "exact_sinr_ok": sched.exact_sinr_ok, "verified": sched.verified}
    _emit(best, args.out)
    return 0 if best["verified"] else 1


def _cmd_admit(args) -> int:
    ctx = _context(args, primaries=True)
    results = admit_sweep(ctx, [RoundingPolicy(mode=f"admission_{args.method}", C=c,
                                               trials=args.trials, seed=args.seed)
                                for c in args.sweep])
    c, value, res = sweep_best(args.sweep, [(res.admitted.size, res) for res in results])
    best = {"constant": c, "value": value, "ids": list(res.admitted.ids),
            "groups": [list(g) for g in res.groups],
            "per_primary_load": list(res.per_primary_load),
            "verified": res.verified, "notes": res.notes}
    _emit(best, args.out)
    return 0 if best["verified"] else 1


def _cmd_oracle(args) -> int:
    problem = ORACLE_PROBLEMS[args.problem]
    ctx = _context(args, primaries=problem.primaries)
    with _rejected("oracle", TooLarge):
        sched = exact_capacity(ctx, problem.objective)
    payload = {"ids": list(sched.ids), "size": sched.size,
               "weight": schedule_value(ctx, sched, "weight"),
               "exact_sinr_ok": sched.exact_sinr_ok, "verified": sched.verified}
    _emit(payload, args.out)
    return 0 if sched.verified else 1


def _cmd_compare(args) -> int:
    with _rejected("compare", ValueError):
        configs = [GenConfig(n=args.n, R=r, delta=d, weight_dist=args.weights,
                             seed=args.seed + i)
                   for i, (d, r) in enumerate((d, r) for d in args.deltas for r in args.sides)]
    records = run_compare(configs, args.sweep, args.trials, args.out,
                          power=args.power, timing=args.timing)
    ratios = [r.ratio for r in records if r.algo == "ratio"]
    print(f"wrote {args.out}: {len(records)} rows, "
          f"LP/greedy ratios {['%.3f' % r for r in ratios]}")
    return 0


def _cmd_suite(args) -> int:
    with _rejected("suite", ValueError):
        configs = [GenConfig(n=args.n, R=4.0 + 2.0 * (i % 3), delta=4.0,
                             seed=args.seed + i) for i in range(args.count)]
    with _rejected("suite", TooLarge):
        report = run_oracle_suite(configs, trials=args.trials)
    for row in report["rows"]:
        flags = "".join("+" if v else "-" for v in row["verdicts"].values())
        print(f"seed={row['seed']} n={row['n']} ALG={row['ALG']} OPT={row['OPT']} "
              f"LP*={row['LP*']:.3f} W2={row['W2']} [{flags}]")
    print("all checks passed" if report["all_ok"] else "CHECK FAILURES")
    return 0 if report["all_ok"] else 1


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    handlers = {"gen": _cmd_gen, "solve": _cmd_solve, "admit": _cmd_admit,
                "oracle": _cmd_oracle, "compare": _cmd_compare, "suite": _cmd_suite}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
