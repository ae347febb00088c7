"""
Replay buffers and supersampling plans
======================================

Two ways to mix old data into patch fine-tuning: a fixed replay buffer
drawn once, or per-epoch supersampling where each epoch sees a different
slice of the old data but long-run inclusion converges to p.
"""

from collections import Counter

import numpy as np

from treepatch.datagen import GenConfig, builtin_grammar, generate
from treepatch.dataset import SplitSpec, make_split
from treepatch.sampling import SamplerConfig, batches, build_replay, epoch_plan

train, _ = generate(builtin_grammar(), GenConfig(seed=3, n_train=1000, n_test=10))
split = make_split(train, SplitSpec("SL:ORGANIZER_EVENT", 95.0, seed=3))
d1, d2 = split.d1, split.d2
print(f"D1 {len(d1)} / D2 {len(d2)}")

# Replay: round(p * |D1|) old examples chosen once, reused every epoch.
cfg = SamplerConfig(mode="replay", p=0.2, seed=3)
plans = [epoch_plan(d1, d2, cfg, e) for e in range(3)]
old_sets = [frozenset(p.ids) - set(d2.ids()) for p in plans]
buf = frozenset(build_replay(d1, cfg.p, cfg.seed))
print(f"\nreplay: {plans[0].n_old} old + {plans[0].n_new} new per epoch, "
      f"old set identical across epochs: {len(set(old_sets)) == 1}, "
      f"and equal to the buffer: {old_sets[0] == buf}")

# Sample: the same per-epoch budget, but rotating through a fixed
# permutation of D1 so every example is visited at close to rate p.
cfg = SamplerConfig(mode="sample", p=0.2, seed=3)
seen = Counter()
epochs = 50
for e in range(epochs):
    for eid in set(epoch_plan(d1, d2, cfg, e).ids) - set(d2.ids()):
        seen[eid] += 1
freqs = np.array([seen[eid] / epochs for eid in d1.ids()])
print(f"sample: inclusion over {epochs} epochs "
      f"min {freqs.min():.3f} / mean {freqs.mean():.3f} / max {freqs.max():.3f} "
      f"(target p=0.2)")

# Plans chunk into shuffled minibatches for the trainer.
plan = epoch_plan(d1, d2, cfg, 0)
chunks = batches(plan, batch_size=16)
print(f"\nepoch 0: {len(plan.ids)} examples -> {len(chunks)} batches of <=16")
