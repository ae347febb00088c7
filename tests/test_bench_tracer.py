"""The benchmark's evaluator timer sees the evaluators of commands that run on
a bundle whose set-up was built before the tracer was installed: each
command asks make_evaluator for a new closure, so eval_queries_per_ref has
evaluator calls to divide by."""

import sys
from pathlib import Path

from treepatch import harness

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

CONFIG = {
    "seed": 3,
    "data": {"n_train": 300, "n_test": 60},
    "train": {"max_epochs": 1, "eval_every": 10},
}


def test_evaluator_calls_recorded_after_an_untraced_set_up():
    cfg = harness.ExperimentConfig.from_dict(CONFIG)
    bundle = harness.prepare(cfg)
    # untraced: the bundle's class sets and scoring state are built here
    prev = harness.cmd_train(cfg, bundle, on="d1")[0].best
    tracer = Tracer([layers.EVALUATOR[:3]])
    tracer.install()
    try:
        with tracer.span("op"):
            _, report = harness.cmd_finetune(cfg, bundle, prev)
    finally:
        tracer.uninstall()
    calls = tracer.durations("harness.evaluator", "op")
    # the pre-patch record and every record of the run
    assert len(calls) == len(report.records) > 1
