"""
A small catastrophic-forgetting experiment
==========================================

Train a tagger on D1 (the old data), fine-tune on the patch D2 two ways,
and compare against retraining from scratch: naive fine-tuning forgets
old classes, EWC plus 20% supersampling does not, and it reaches the
scratch model's quality in a small fraction of the steps.

Scaled down to run in well under a minute; the full-size run lives in
tests/test_acceptance.py.
"""

from treepatch import harness

config = {
    "seed": 2,
    "data": {"n_train": 2500, "n_test": 600},
    "split": {"target_class": "SL:ORGANIZER_EVENT", "percentage": 95.0},
    "train": {"lr": 0.5, "batch_size": 16, "max_epochs": 8,
              "eval_every": 100, "patience": 10},
}
target = config["split"]["target_class"]

cfg = harness.ExperimentConfig.from_dict(config)
bundle = harness.prepare(cfg)
print(f"D1 {len(bundle.d1)} / D2 {len(bundle.d2)} / test {len(bundle.test)}")

# Reference points: scratch training on everything, and the "previous"
# model that only ever saw D1.
scratch_res, scratch_rep = harness.cmd_train(cfg, bundle, on="all")
prev_res, prev_rep = harness.cmd_train(cfg, bundle, on="d1")
print(f"scratch: em {scratch_rep.final_record['em']:.3f} "
      f"in {scratch_res.total_steps} steps")
print(f"previous (D1 only): em {prev_rep.final_record['em']:.3f}")


def finetune(label, sampler, reg, max_epochs=config["train"]["max_epochs"]):
    # from_dict merges each section given onto the defaults
    c = harness.ExperimentConfig.from_dict(
        {**config, "sampler": sampler, "reg": reg,
         "train": {**config["train"], "max_epochs": max_epochs}})
    _, rep = harness.cmd_finetune(c, bundle, prev_res.best)
    harness.cmd_compare(rep, scratch_rep, target)
    parity = (f"{rep.relative_steps:.1f}% of scratch steps"
              if rep.steps_to_parity is not None else "never")
    print(f"{label}: em {rep.final_record['em']:.3f}, "
          f"{rep.degradation['degraded_count']} degraded classes, "
          f"parity {parity}")
    return rep


# Naive: only the patch, no anchoring. Watch old classes degrade.
finetune("naive     ", {"mode": "sample", "p": 0.0},
         {"kind": "none", "strength": 0.0}, max_epochs=60)

# EWC anchoring plus supersampling 20% of D1 each epoch.
finetune("ewc+sample", {"mode": "sample", "p": 0.2},
         {"kind": "ewc", "strength": 10.0})
