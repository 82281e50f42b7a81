"""Basic capacity: LP relaxation + randomized rounding vs greedy vs optimum.

Generates a small random instance, runs the three solvers, and prints the
resulting link sets with their certificates.
"""

import numpy as np

from sinrcap import (AffectanceContext, GenConfig, PowerAssignment,
                     RoundingPolicy, build_capacity_lp, exact_capacity,
                     generate_instance, greedy_base, run_pipeline, solve_lp)

cfg = GenConfig(n=12, R=5.0, delta=3.0, seed=7)
inst = generate_instance(cfg)
ctx = AffectanceContext(inst, PowerAssignment.mean())
print(f"instance: {ctx.n} links in a {cfg.R} x {cfg.R} square, "
      f"lengths {ctx.lengths.min():.2f}..{ctx.lengths.max():.2f}")

frac = solve_lp(build_capacity_lp(ctx, C=1.0))
print(f"fractional optimum LP* = {frac.objective:.3f}")

# the policy's mode and C name the program: the pipeline builds this LP itself
policy = RoundingPolicy(mode="capacity", C=1.0, trials=100, seed=1)
sched = run_pipeline(ctx, policy)
print(f"rounded schedule: {sched.ids} (size {sched.size}, "
      f"exact SINR ok: {sched.exact_sinr_ok})")
print("  received affectance per member:",
      np.round(sched.in_affectance, 3).tolist())

grd = greedy_base(ctx, c_g=1.0)
opt = exact_capacity(ctx)
print(f"greedy baseline:  {grd.ids} (size {grd.size})")
print(f"exhaustive OPT:   {opt.ids} (size {opt.size})")
