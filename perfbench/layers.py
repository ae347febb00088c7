"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Every span below wraps one public treepatch function (see tracer.py). Each
gets `<span>.calls`: calls in one set-up plus calls in one timed operation,
which repeats exactly for the same code and seed. Each also gets its mean
self time per call, as `<span>.us` or the suffix the span names.
"""

# (span, module, attribute, self-time metric suffix, what it should move)
SPANS = (
    ("model.train", "treepatch.model", "train", "self_s",
     "cpu_ref on scratch_train and patch_finetune (SGD update, snapshot copies, "
     "loop glue); no change on evaluate"),
    ("model.loss_and_grad", "treepatch.model", "loss_and_grad", "us",
     "cpu_ref on scratch_train and patch_finetune; no change on evaluate"),
    # the library steps through FisherAccumulator.update; the functional
    # regularizers.fisher_update delegates to it, so one span covers both
    ("regularizers.fisher_update", "treepatch.regularizers",
     "FisherAccumulator.update", "us",
     "cpu_ref on scratch_train and patch_finetune; no change on evaluate"),
    ("regularizers.apply_freeze", "treepatch.regularizers", "apply_freeze", "us",
     "cpu_ref on scratch_train and patch_finetune; no change on evaluate"),
    ("regularizers.penalty", "treepatch.regularizers", "penalty", "us",
     "cpu_ref on patch_finetune (EWC runs); 0 calls on scratch_train and evaluate"),
    ("model.featurize", "treepatch.model", "featurize", "us",
     "eval_queries_per_ref on all workloads; "
     "cpu_ref on evaluate and patch_finetune"),
    ("model.forward", "treepatch.model", "forward", "us",
     "eval_queries_per_ref on all workloads; "
     "cpu_ref on evaluate and patch_finetune"),
    ("model.decode_tree", "treepatch.model", "decode_tree", "us",
     "eval_queries_per_ref on all workloads; "
     "cpu_ref on evaluate and patch_finetune"),
    ("metrics.extract_paths", "treepatch.metrics", "extract_paths", "us",
     "eval_queries_per_ref on all workloads; "
     "cpu_ref on evaluate and patch_finetune"),
    ("treebank.serialize", "treepatch.treebank", "serialize", "us",
     "eval_queries_per_ref on all workloads; "
     "cpu_ref on evaluate and patch_finetune"),
    ("harness.evaluation_record", "treepatch.harness", "evaluation_record", "us",
     "eval_queries_per_ref on all workloads; "
     "cpu_ref on evaluate and patch_finetune"),
    # a closure built by make_evaluator; the tracer wraps each one it returns
    ("harness.evaluator", "treepatch.harness", "make_evaluator", "us",
     "eval_queries_per_ref on all workloads; "
     "cpu_ref on evaluate and patch_finetune"),
    ("treebank.parse_top", "treepatch.treebank", "parse_top", "us",
     "cpu_ref on evaluate"),
    ("dataset.load_tsv", "treepatch.dataset", "load_tsv", "us",
     "cpu_ref on evaluate"),
    ("model.load_checkpoint", "treepatch.model", "load_checkpoint", "us",
     "cpu_ref on evaluate"),
    ("cli.main", "treepatch.cli", "main", "self_ms",
     "cpu_ref on evaluate"),
    ("datagen.generate", "treepatch.datagen", "generate", "us",
     "setup_s on all workloads"),
    ("dataset.make_split", "treepatch.dataset", "make_split", "us",
     "setup_s on all workloads"),
    ("model.encode_targets", "treepatch.model", "encode_targets", "us",
     "setup_s on all workloads; cpu_ref on scratch_train and patch_finetune "
     "(train encodes its examples on every call)"),
    ("sampling.epoch_plan", "treepatch.sampling", "epoch_plan", "us",
     "cpu_ref on patch_finetune"),
    ("metrics.degraded_classes", "treepatch.metrics", "degraded_classes", "us",
     "cpu_ref on patch_finetune"),
)

EVALUATOR = next(s for s in SPANS if s[0] == "harness.evaluator")

# exact counts derived from the spans; same code and seed give the same values
COUNTS = (
    ("model.steps", "count",
     "SGD steps in one set-up plus one operation; cpu_ref on scratch_train and "
     "patch_finetune"),
    ("harness.featurize_per_eval", "calls/eval",
     "featurize calls inside evaluator calls per evaluator call (today the "
     "test-set size); eval_queries_per_ref on all workloads"),
    ("harness.wasted_step_ratio", "ratio",
     "(total steps - best step) / total steps over the train calls of one "
     "set-up plus one operation; cpu_ref on scratch_train and patch_finetune"),
    ("model.theta_params", "count",
     "parameters of the trained or loaded model; cpu_ref and peak_rss_mb on "
     "all workloads"),
)

OVERHEAD = ("trace.overhead_s", "s",
            "median traced operation CPU time minus median untraced "
            "operation CPU time, both measured in the traced run")

# self-time metric suffix -> (unit, scale from seconds)
TIME_UNITS = {"us": ("us", 1e6), "self_s": ("s", 1.0), "self_ms": ("ms", 1e3)}


def per_layer_spec():
    """The per_layer entries of BENCHMARK.json, in report order."""
    out = []
    for name, _, _, time_key, _ in SPANS:
        out.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{name}.{time_key}", "unit": TIME_UNITS[time_key][0],
                    "better": "lower"})
    for name, unit, _ in COUNTS:
        out.append({"name": name, "unit": unit, "better": "lower"})
    out.append({"name": OVERHEAD[0], "unit": OVERHEAD[1], "better": "lower"})
    return out


def moves():
    """Layer metric -> the end-to-end metric and workload it should move."""
    out = {name: text for name, _, _, _, text in SPANS}
    out.update({name: text for name, _, text in COUNTS})
    out[OVERHEAD[0]] = OVERHEAD[2]
    return out
