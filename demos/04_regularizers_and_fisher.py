"""
Anchoring penalties and the Fisher diagonal
===========================================

Move-norm and EWC penalties pull fine-tuned weights back toward the
previous model; EWC weights each coordinate by an online estimate of the
squared gradient (the Fisher diagonal). The analytic gradients agree with
finite differences to near machine precision.
"""

import numpy as np

from treepatch.regularizers import (FisherAccumulator, ParamLayout,
                                    ParamVector, RegConfig, penalty)

layout = ParamLayout((("encoder", 6), ("intent_head", 4), ("tag_head", 8)))
rng = np.random.default_rng(0)
theta = ParamVector(layout, rng.normal(size=layout.size))
prev = ParamVector(layout, rng.normal(size=layout.size))

# Accumulate a Fisher diagonal from a stream of (fake) data gradients.
acc = FisherAccumulator(layout)
for _ in range(200):
    acc.update(rng.normal(size=layout.size) * np.linspace(0.1, 2.0, layout.size))
fisher = acc.fisher()
print(f"fisher diagonal: min {fisher.min():.3f} max {fisher.max():.3f} "
      f"({acc.steps} gradients)")

# Penalty values: EWC is just move-norm with Fisher-weighted coordinates,
# so high-curvature directions cost more to move.
for kind in ("movenorm", "ewc"):
    cfg = RegConfig(kind=kind, strength=1.0, form="squared")
    value, grad = penalty(theta, prev, fisher, cfg)
    print(f"{kind:9s} value {value:8.3f}  |grad| {np.linalg.norm(grad.values):.3f}")

# Spot-check one analytic gradient against central differences.
cfg = RegConfig(kind="ewc", strength=2.5, form="squared")
_, grad = penalty(theta, prev, fisher, cfg)
i, step = 7, 1e-6
hi, lo = theta.copy(), theta.copy()
hi.values[i] += step
lo.values[i] -= step
fd = (penalty(hi, prev, fisher, cfg)[0] - penalty(lo, prev, fisher, cfg)[0]) / (2 * step)
print(f"\ncoordinate {i}: analytic {grad.values[i]:.8f} vs fd {fd:.8f}")

# Freezing is the hard-constraint limit: zero the update for whole groups.
from treepatch.regularizers import apply_freeze

update = apply_freeze(ParamVector(layout, np.ones(layout.size)),
                      frozenset({"intent_head"}))
print("frozen intent_head update:", update.group("intent_head"))
print("tag_head update untouched:", update.group("tag_head")[:4], "...")
