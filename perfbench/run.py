"""sinrcap benchmark: four workloads through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload lp-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run first checks that the SINR verifier rejects hand-built infeasible
sets, then makes the workload's inputs from --seed (several times; the
median counts towards setup_s) and repeats the workload until --seconds
have passed, timing a fixed reference computation before each iteration
(see reference.py).  Every iteration's outputs are checked by the
benchmark's own SINR verifier and must hash to the same digest.

--trace 0 reports the end-to-end metrics of untraced iterations.  --trace 1
alternates untraced and traced iterations and reports per-layer metrics,
the medians over the traced ones; the spans are written to
.bench_work/<workload>/trace-seed<seed>.json.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.  The
exit status is 0 only when every output passed its check.  ``--workload
all`` runs each workload in its own process and prints every metric.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("lp-sweep", "round-compare", "admission", "oracle")
SETUP_REPEATS = 3

# (unit, better) of the metrics in the JSON result
END_TO_END = {
    "wall_rel": ("ratio", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "value_total": ("objective", "higher"),
}
# Printed only.  wall_s and raw_setup_s drift with the machine's speed
# (reference.py), by more than any bound could allow; failed_frac is 0 on
# correct code and greedy_value_total is 0 on three workloads, and a zero
# median cannot carry a relative bound.
PRINTED_ONLY = {
    "wall_s": "s",
    "ref_s": "s",
    "raw_setup_s": "s",
    "greedy_value_total": "objective",
    "failed_frac": "ratio",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description="sinrcap benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _fix_malloc():
    """Keep glibc's mmap threshold at its 128 KiB default.  glibc raises the
    threshold after the first large free, after which big numpy buffers may
    come from a heap that is never trimmed; peak RSS of identical runs then
    varies by up to 18 %, and timings shift with the page faults saved."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return  # not glibc
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def _import_library():
    """Import sinrcap from this checkout's src/ and nowhere else."""
    # numpy and scipy each bundle an OpenBLAS that would start its own
    # workers; with one BLAS thread each the process runs in one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    _fix_malloc()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sinrcap
    except ImportError as exc:
        raise SystemExit(f"cannot import sinrcap from {src}: {exc}")
    if not Path(sinrcap.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"sinrcap imported from {sinrcap.__file__}, not {src}")
    import logging
    logging.getLogger("sinrcap").setLevel(logging.ERROR)  # expected dropped-link notices


def _peak_rss_mib() -> float:
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024.0


def _threads() -> str:
    try:
        with open("/proc/self/status") as fh:
            return next(line.split()[1] for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        return "?"


def run_one(args) -> int:
    _import_library()
    import reference
    import sinr_check
    import spans
    import workloads
    import_s = time.perf_counter() - _START

    verifier_checks = sinr_check.self_check()
    wl = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / wl.name
    workdir.mkdir(parents=True, exist_ok=True)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(args.seed, str(workdir))
        setup_times.append(time.perf_counter() - t0)
    raw_setup_s = import_s + statistics.median(setup_times)
    time_reference = reference.Timer(reference.REFERENCES[wl.reference]())

    walls, rels, traced_walls, traced_rels = [], [], [], []
    layer_metrics, traced_spans = [], []
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    refs = [time_reference()]
    while True:
        traced = args.trace == 1 and len(walls) > len(traced_walls)
        tracer = spans.Tracer() if traced else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            raw = wl.run(state)
        except Exception:
            traceback.print_exc()
            raw = None
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        refs.append(time_reference())
        rel = wall / ((refs[-2] + refs[-1]) / 2.0)
        outcome = None
        if raw is not None:
            try:
                outcome = wl.check(state, raw)
            except Exception:
                traceback.print_exc()
        attempted += wl.calls
        if outcome is None:
            failed += wl.calls
            break
        first = first or outcome
        if outcome.digest != first.digest:
            print(f"output digest changed between iterations: {outcome.digest}",
                  file=sys.stderr)
            outcome.failed = wl.calls
        failed += outcome.failed
        if tracer:
            traced_walls.append(wall)
            traced_rels.append(rel)
            layer_metrics.append(tracer.metrics(wall, outcome.greedy_value))
            traced_spans.append(tracer.dump())
        else:
            walls.append(wall)
            rels.append(rel)
        if outcome.failed:
            break
        done = time.perf_counter() - start >= args.seconds
        if done and (args.trace == 0 or traced_walls):
            break

    correct = failed == 0 and first is not None
    n = len(walls)
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: {wl.why}")
    print(f"  {n} untraced and {len(traced_walls)} traced iterations in "
          f"{time.perf_counter() - start:.1f} s; {_threads()} threads; "
          f"output_digest {first.digest if first else '-'}")
    print(f"  verifier self-check passed: {'; '.join(verifier_checks)}")
    if args.trace == 0:
        wall_s = statistics.median(walls) if walls else 0.0
        ref_s = statistics.median(refs)
        # machine speed right after set-up, from the first reference runs
        slowdown = statistics.median(refs[:3]) / time_reference.reference.NOMINAL_S
        metrics = {
            "wall_rel": statistics.median(rels) if rels else 0.0,
            "setup_s": raw_setup_s / slowdown,
            "peak_rss_mib": _peak_rss_mib(),
            "value_total": first.value if first else 0.0,
        }
        extra = {"wall_s": wall_s, "ref_s": ref_s, "raw_setup_s": raw_setup_s,
                 "greedy_value_total": first.greedy_value if first else 0.0,
                 "failed_frac": failed / attempted}
        units = {**{k: u for k, (u, _) in END_TO_END.items()}, **PRINTED_ONLY}
        for name, value in {**metrics, **extra}.items():
            print(f"  {name:<20} {value:>14.6g} {units[name]}")
        if n >= 4:
            q = statistics.quantiles(walls, n=4)
            print(f"  wall_s over {n} iterations: min {min(walls):.4f}, quartiles "
                  f"{q[0]:.4f} / {q[1]:.4f} / {q[2]:.4f}, max {max(walls):.4f}")
        result_metrics = {k: {"value": v, "unit": END_TO_END[k][0]}
                          for k, v in metrics.items()}
    else:
        metrics = spans.median_metrics(layer_metrics) if layer_metrics else {}
        if metrics and rels:
            metrics["trace.overhead_frac"] = (statistics.median(traced_rels)
                                             / statistics.median(rels) - 1.0)
        for name, value in metrics.items():
            print(f"  {name:<32} {value:>14.6g} {spans.PER_LAYER[name][0]}")
        out = workdir / f"trace-seed{args.seed}.json"
        with open(out, "w") as fh:
            json.dump({"workload": wl.name, "seed": args.seed,
                       "untraced_walls": walls, "traced_walls": traced_walls,
                       "per_iteration": layer_metrics,
                       "span_fields": ["name", "start", "end", "parent", "counts"],
                       "spans": traced_spans}, fh)
        print(f"  spans written to {out.relative_to(ROOT)}")
        result_metrics = {k: {"value": metrics.get(k, 0.0), "unit": u}
                          for k, (u, _) in spans.PER_LAYER.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
