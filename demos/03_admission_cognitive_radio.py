"""Admission control: pack secondary links around untouchable primaries.

The general pipeline groups its candidate set so every group is safe for
each primary; the large-optimum pipeline prefilters aggressive links and
returns a single safe set.  Both results, and the exhaustive optimum,
are re-verified from their ids by ``certify``, whose ``verified`` verdict
requires hat affectance sums within 1 and the raw SINR inequality at
every member and primary with everything transmitting.
"""

from sinrcap import (AffectanceContext, GenConfig, PowerAssignment,
                     RoundingPolicy, admit_general, admit_large_opt, certify,
                     exact_admission, generate_instance, hat_noise)

cfg = GenConfig(n=14, R=8.0, delta=2.0, seed=23, primaries=2, primary_power=1.0)
inst = generate_instance(cfg)
ctx = AffectanceContext(inst, PowerAssignment.uniform(), primaries=inst.primaries)
print(f"{ctx.n} secondaries, {ctx.k} primaries")
for pid in ctx.prim_ids:
    print(f"  primary {pid}: noise with other primaries folded in = "
          f"{hat_noise(ctx, pid):.4f}")

general = admit_general(ctx, RoundingPolicy(mode="admission_general", C=1.0,
                                            trials=100, seed=1))
print(f"general pipeline admitted {general.admitted.size}: {general.admitted.ids}")
print(f"  groups: {general.groups}")
print(f"  per-primary load: {[round(x, 3) for x in general.per_primary_load]}")
print(f"  verified: {general.verified}")

large = admit_large_opt(ctx, RoundingPolicy(mode="admission_large", C=1.0,
                                            trials=100, seed=1))
print(f"large-optimum pipeline admitted {large.admitted.size}: {large.admitted.ids}")
print(f"  prefilter kept {large.notes['filtered_to']} secondaries")

opt = exact_admission(ctx)
print(f"exhaustive admission optimum: {opt.size} ({opt.ids})")
assert certify(ctx, general.admitted.ids).verified
assert certify(ctx, large.admitted.ids).verified
assert certify(ctx, opt.ids).verified
