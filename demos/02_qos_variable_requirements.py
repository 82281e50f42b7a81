"""Per-link quality requirements: each link carries its own SINR threshold
and ambient noise, which set its SINR budget B_v = signal / beta_v - N_v;
every affectance on the link is interference over that budget, and its
c factor is signal / B_v.
"""

import numpy as np

from sinrcap import (AffectanceContext, GenConfig, Instance, Link,
                     PowerAssignment, RoundingPolicy, c_factor, generate_instance,
                     run_pipeline)

base = generate_instance(GenConfig(n=14, R=5.0, delta=2.0, seed=3))
rng = np.random.default_rng(0)

# video links demand SINR 2, data links 1; noise varies per receiver
links = []
for lk in base.links:
    video = rng.random() < 0.4
    links.append(Link(id=lk.id, sender=lk.sender, receiver=lk.receiver,
                      beta_override=2.0 if video else 1.0,
                      noise_override=float(rng.uniform(0.0, 0.05))))
inst = Instance(links=tuple(links), alpha=base.alpha, beta=1.0, noise=0.0)

ctx = AffectanceContext(inst, PowerAssignment.uniform())
print(f"{ctx.n} links kept, {len(ctx.removed_ids)} dropped as individually infeasible")
for i in list(ctx.ids)[:5]:
    print(f"  link {i}: beta={inst.link(int(i)).beta_override}, "
          f"c factor {c_factor(ctx, int(i)):.3f}")

# mode "qos" rounds the QoS LP, built at C by the pipeline
sched = run_pipeline(ctx, RoundingPolicy(mode="qos", C=1.0, trials=100, seed=4))
print(f"selected {sched.size} links: {sched.ids}")
print(f"exact SINR verification: {sched.exact_sinr_ok}")
