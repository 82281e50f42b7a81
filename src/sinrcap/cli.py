"""Command-line interface: gen, solve, admit, oracle, compare, suite.

Every subcommand exits 0 only if its internal verifications pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from .admission import admit_general, admit_large_opt, verify_admission
from .affectance import AffectanceContext, InfeasiblePrimaries, check_feasibility
from .greedy import greedy_combined_sweep, greedy_sweep
from .harness import (DEFAULT_SWEEP, WEIGHT_DISTRIBUTIONS, GenConfig, best_over_sweep,
                      generate_instance, lp_sweep, run_compare, run_oracle_suite,
                      sweep_best, verify_output)
from .model import parse_power, read_instance, write_instance
from .oracle import TooLarge, exact_admission, exact_capacity
from .rounding import RoundingPolicy, _schedule_objective, schedule_weight

ORACLE_GAMMA = 1.0  # affectance threshold of ``oracle --mode affectance``

GREEDY_SWEEPS = {"greedy": greedy_combined_sweep,
                 "greedy_w": lambda ctx, sweep: greedy_sweep(ctx, "weight_classes", sweep),
                 "greedy_l": lambda ctx, sweep: greedy_sweep(ctx, "length_classes", sweep)}


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
                   choices=("lp", "greedy", "greedy_w", "greedy_l"))
    s.add_argument("--formulation", default="capacity",
                   choices=("capacity", "qos", "weighted"))
    _add_shared(s)

    a = sub.add_parser("admit", help="admission control on an instance with primaries")
    a.add_argument("instance")
    a.add_argument("--method", default="general", choices=("general", "large"))
    _add_shared(a)

    o = sub.add_parser("oracle", help="exhaustive optimum on a small instance")
    o.add_argument("instance")
    o.add_argument("--objective", default="cardinality", choices=("cardinality", "weight"))
    o.add_argument("--mode", default="exact", choices=("exact", "affectance"))
    o.add_argument("--admission", action="store_true",
                   help="admission optimum (requires primaries)")
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
    text = json.dumps(payload, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read(args, primaries=False):
    """The instance file, refused as a bad input when it cannot be read or,
    with ``primaries``, when it has none."""
    with _rejected(args.command, OSError, ValueError):
        inst = read_instance(args.instance)
        if primaries and inst.primaries is None:
            raise ValueError(f"{args.instance} has no primaries")
    return inst


def _context(args, inst, primaries=False):
    """The affectance context of ``inst`` under ``--power`` (with the
    instance's primaries when ``primaries``), refused as a bad input when a
    power is not finite and positive or the primaries cannot coexist."""
    with _rejected(args.command, ValueError, InfeasiblePrimaries):
        return AffectanceContext(inst, args.power,
                                 primaries=inst.primaries if primaries else None)


def _cmd_gen(args) -> int:
    with _rejected("gen", OSError, ValueError):
        inst = generate_instance(GenConfig(
            n=args.n, R=args.side, delta=args.delta, weight_dist=args.weights,
            alpha=args.alpha, beta=args.beta, noise=args.noise, seed=args.seed,
            primaries=args.primaries, primary_power=args.primary_power))
        write_instance(inst, args.out)
    print(f"wrote {args.out} ({inst.n} links"
          + (f", {len(inst.primaries)} primaries" if inst.primaries else "") + ")")
    return 0


def _cmd_solve(args) -> int:
    ctx = _context(args, _read(args))
    if args.algo == "lp":
        schedules = lp_sweep(ctx, args.formulation, args.sweep, args.trials, args.seed)
    else:
        schedules = GREEDY_SWEEPS[args.algo](ctx, args.sweep)
    c, value, sched = sweep_best(args.sweep, [
        (_schedule_objective(ctx, sched.ids, args.formulation), sched) for sched in schedules])
    best = {"constant": c, "value": value, "ids": list(sched.ids),
            "exact_sinr_ok": sched.exact_sinr_ok}
    ok = verify_output(ctx, best["ids"])
    best["verified"] = ok
    _emit(best, args.out)
    return 0 if ok else 1


def _cmd_admit(args) -> int:
    ctx = _context(args, _read(args, primaries=True), primaries=True)
    mode, admit = {"general": ("admission_general", admit_general),
                   "large": ("admission_large", admit_large_opt)}[args.method]

    def run(c, session):
        policy = RoundingPolicy(mode=mode, C=c, trials=args.trials, seed=args.seed)
        res = admit(ctx, policy, session=session)
        return res.admitted.size, res

    c, value, res = best_over_sweep(args.sweep, run)
    best = {"constant": c, "value": value, "ids": list(res.admitted.ids),
            "groups": [list(g) for g in res.groups],
            "per_primary_load": list(res.per_primary_load),
            "verified": res.verified, "notes": res.notes}
    _emit(best, args.out)
    return 0 if best["verified"] else 1


def _cmd_oracle(args) -> int:
    with _rejected("oracle", ValueError):
        if args.admission and (args.objective, args.mode) != ("cardinality", "exact"):
            raise ValueError("--admission finds the cardinality optimum under exact SINR "
                             "and takes neither --objective weight nor --mode affectance")
    ctx = _context(args, _read(args, primaries=args.admission), primaries=args.admission)
    with _rejected("oracle", TooLarge):
        if args.admission:
            sched = exact_admission(ctx)
            ok = verify_admission(ctx, sched.ids)
        elif args.mode == "exact":
            sched = exact_capacity(ctx, args.objective, "exact_sinr")
            ok = verify_output(ctx, sched.ids)
        else:
            sched = exact_capacity(ctx, args.objective, "affectance", ORACLE_GAMMA)
            ok = check_feasibility(ctx, sched.ids, ORACLE_GAMMA, "feasible")
    payload = {"ids": list(sched.ids), "size": sched.size,
               "weight": schedule_weight(ctx, sched),
               "exact_sinr_ok": sched.exact_sinr_ok, "verified": ok}
    _emit(payload, args.out)
    return 0 if ok else 1


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
