import copy
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treepatch import harness, metrics, treebank
from treepatch import model as model_module
from treepatch.dataset import Dataset, Example
from treepatch.harness import (ConfigError, ExperimentConfig, RunReport,
                               cmd_compare, parity_step)
from treepatch.model import (Checkpoint, TaggerModel, UnknownLabel,
                             load_checkpoint, predict_trees)
from treepatch.regularizers import FisherAccumulator, MissingFisher
from treepatch.sampling import EpochPlans
from treepatch.treebank import Node, ParseTree, serialize

SMALL = {
    "seed": 7,
    "data": {"n_train": 400, "n_test": 120},
    "split": {"target_class": "SL:ORGANIZER_EVENT", "percentage": 90.0},
    "train": {"lr": 0.5, "batch_size": 16, "max_epochs": 4,
              "eval_every": 50, "patience": 10},
}


@pytest.fixture(scope="module")
def bundle():
    return harness.prepare(ExperimentConfig.from_dict(SMALL))


@pytest.fixture(scope="module")
def scratch(bundle):
    cfg = ExperimentConfig.from_dict(SMALL)
    return harness.cmd_train(cfg, bundle, on="all")


@pytest.fixture(scope="module")
def prev(bundle):
    cfg = ExperimentConfig.from_dict(SMALL)
    return harness.cmd_train(cfg, bundle, on="d1")


def _leaves(config, prefix=""):
    """The dotted key of every leaf of a nested config."""
    out = []
    for key, value in config.items():
        if isinstance(value, dict):
            out += _leaves(value, f"{prefix}{key}.")
        else:
            out.append(prefix + key)
    return out


class TestConfig:
    def test_defaults_merged(self):
        cfg = ExperimentConfig.from_dict({"seed": 3})
        assert cfg["eval"]["k"] == 5
        assert cfg["sampler"]["mode"] == "sample"

    def test_preset_applies(self):
        cfg = ExperimentConfig.from_dict({}, preset="ewc_sample_20")
        assert cfg["reg"]["kind"] == "ewc"
        assert cfg["sampler"]["p"] == 0.2

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({}, preset="nope")

    def test_bad_reg_rejected_eagerly(self):
        with pytest.raises(Exception):
            ExperimentConfig.from_dict({"reg": {"kind": "bogus"}})

    @pytest.mark.parametrize("raw, key", [
        ({"trian": {"lr": 0.1}}, "trian"),
        ({"train": {"lrr": 0.1}}, "train.lrr"),
    ])
    def test_unknown_key_rejected(self, raw, key):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("k", [1, 0, -3, 2.0, "5", True, None])
    def test_eval_k_must_be_integer_at_least_two(self, k):
        with pytest.raises(ConfigError, match="eval.k"):
            ExperimentConfig.from_dict({"eval": {"k": k}})

    @pytest.mark.parametrize("raw, key", [
        ({"model": {"feature_dim": 0}}, "model.feature_dim"),
        ({"model": {"feature_dim": 64.0}}, "model.feature_dim"),
        ({"model": {"hidden_dim": -1}}, "model.hidden_dim"),
        ({"model": {"hidden_dim": True}}, "model.hidden_dim"),
        ({"train": {"batch_size": 0}}, "train.batch_size"),
        ({"freeze": ["encoderr"]}, "freeze"),
        ({"freeze": "encoder"}, "freeze"),
        ({"parity": {"require": "neither"}}, "parity.require"),
        ({"train": {"lr": "fast"}}, "train.lr"),
        ({"train": {"lr": -1}}, "train.lr"),
        ({"train": {"lr": 0.0}}, "train.lr"),
        ({"train": {"lr": True}}, "train.lr"),
        ({"train": {"lr": float("inf")}}, "train.lr"),
        ({"train": {"lr": float("nan")}}, "train.lr"),
        ({"train": {"max_epochs": 0}}, "train.max_epochs"),
        ({"data": {"kind": "tsv", "format": "xml", "train_path": "a.tsv",
                   "test_path": "b.tsv"}}, "data.format"),
        ({"model": 5}, "model"),
        ({"train": [0.5]}, "train"),
        ({"model": {"hidden_dim": 3}}, "model.hidden_dim"),
        ({"model": {"hidden_dim": 0.0}}, "model.hidden_dim"),
        ({"freeze": ["encoder"]}, "freeze"),
        ({"train": {"patience": "x"}}, "train.patience"),
        ({"train": {"patience": 0}}, "train.patience"),
        ({"train": {"eval_every": -3}}, "train.eval_every"),
        ({"train": {"eval_every": 1.5}}, "train.eval_every"),
        ({"data": {"n_train": 0}}, "data.n_train"),
        ({"data": {"n_test": 0}}, "data.n_test"),
        ({"split": {"percentage": 150}}, "split.percentage"),
        ({"split": {"percentage": 0}}, "split.percentage"),
        ({"split": {"coverage_per_class": 0}}, "split.coverage_per_class"),
        ({"sampler": {"p": "x"}}, "sampler.p"),
        ({"reg": {"strength": "x"}}, "reg.strength"),
        ({"reg": {"epsilon": "x"}}, "reg.epsilon"),
        ({"split": {"percentage": "x"}}, "split.percentage"),
        ({"seed": "x"}, "seed"),
        ({"data": {"tail_exponent": "x"}}, "data.tail_exponent"),
        ({"sampler": {"p": True}}, "sampler.p"),
        ({"reg": {"strength": False}}, "reg.strength"),
        ({"reg": {"epsilon": True}}, "reg.epsilon"),
        ({"split": {"percentage": True}}, "split.percentage"),
        ({"seed": True}, "seed"),
        ({"data": {"tail_exponent": None}}, "data.tail_exponent"),
        ({"seed": 1.5}, "seed"),
        ({"sampler": {"p": 2.0}}, "sampler.p"),
        ({"sampler": {"mode": "bogus"}}, "sampler.mode"),
        ({"reg": {"strength": -1}}, "reg.strength"),
        ({"reg": {"epsilon": 0}}, "reg.epsilon"),
        ({"reg": {"kind": "bogus"}}, "reg.kind"),
        ({"reg": {"form": "bogus"}}, "reg.form"),
        ({"data": {"tail_exponent": float("nan")}}, "data.tail_exponent"),
        ({"data": {"tail_exponent": float("inf")}}, "data.tail_exponent"),
        ({"data": {"tail_exponent": 0}}, "data.tail_exponent"),
        ({"data": {"tail_exponent": -1}}, "data.tail_exponent"),
        ({"split": {"coverage_per_class": "x"}}, "split.coverage_per_class"),
        ({"split": {"coverage_per_class": 1.5}}, "split.coverage_per_class"),
        ({"split": {"coverage_per_class": True}}, "split.coverage_per_class"),
        ({"split": {"target_class": 5}}, "split.target_class"),
        ({"split": {"target_class": None}}, "split.target_class"),
        ({"data": {"kind": "bogus"}}, "data.kind"),
        ({"data": {"grammar": 5}}, "data.grammar"),
        ({"data": {"train_path": 5}}, "data.train_path"),
        ({"data": {"test_path": 5}}, "data.test_path"),
        ({"data": {"format": ["top"]}}, "data.format"),
        ({"reg": {"strength": float("nan")}}, "reg.strength"),
        ({"reg": {"strength": float("inf")}}, "reg.strength"),
        ({"reg": {"epsilon": float("nan")}}, "reg.epsilon"),
        ({"reg": {"epsilon": float("inf")}}, "reg.epsilon"),
        ([1], "config"),
    ])
    def test_bad_value_rejected_naming_its_key(self, raw, key):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("dotted", _leaves(harness.DEFAULT_CONFIG))
    def test_wrong_type_rejected_naming_its_leaf(self, dotted):
        raw = [[]]
        for key in reversed(dotted.split(".")):
            raw = {key: raw}
        with pytest.raises(ConfigError, match=re.escape(dotted)):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("kind", ["tsv", "snips"])
    def test_file_kind_needs_both_paths(self, kind):
        with pytest.raises(ConfigError, match="data.train_path and data.test_path"):
            ExperimentConfig.from_dict({"data": {"kind": kind,
                                                 "train_path": "a.tsv"}})

    def test_edge_values_accepted(self):
        cfg = ExperimentConfig.from_dict({
            "model": {"feature_dim": 1, "hidden_dim": 0},
            "train": {"batch_size": 1, "max_epochs": 1, "lr": 1},
            "data": {"format": "canonical"}, "parity": {"require": "either"},
            "freeze": ["intent_head", "tag_head"]})
        assert cfg.train_config().freeze == {"intent_head", "tag_head"}

    def test_explicit_keys_win_over_preset(self):
        cfg = ExperimentConfig.from_dict({"reg": {"strength": 100.0}},
                                         preset="ewc_sample_20")
        assert cfg["reg"] == {"kind": "ewc", "strength": 100.0,
                              "form": "squared", "epsilon": 1e-12}
        assert cfg["sampler"]["p"] == 0.2

    def test_digest_stable_and_sensitive(self):
        a = ExperimentConfig.from_dict(SMALL)
        b = ExperimentConfig.from_dict(copy.deepcopy(SMALL))
        c = ExperimentConfig.from_dict({**SMALL, "seed": 8})
        assert a.digest() == b.digest() != c.digest()


EVAL_AT_END = {"train": {"eval_every": 0}}  # one eval, after the last step


class TestTrain:
    def test_scratch_report_shape(self, scratch):
        _, report = scratch
        assert report.kind == "scratch"
        record = report.final_record
        assert 0.0 <= record["em"] <= 1.0
        assert "SL:ORGANIZER_EVENT" in record["per_class"]
        assert record["em_folds"]["n_folds"] == 5

    def test_deterministic_reports(self, bundle):
        cfg = ExperimentConfig.from_dict(SMALL)
        a = harness.cmd_train(cfg, bundle, on="all")[1]
        b = harness.cmd_train(cfg, bundle, on="all")[1]
        assert json.dumps(a.as_dict(), sort_keys=True) == \
               json.dumps(b.as_dict(), sort_keys=True)

    def test_prev_trains_on_d1_only(self, prev, bundle):
        result, report = prev
        assert report.kind == "prev"
        assert result.best.fisher_steps == result.best.step

    def test_best_is_final_when_no_step_follows_its_eval(self, bundle):
        """With eval_every 0 the one eval is the last: no step follows the
        best EM, so the best checkpoint is the final one."""
        result, report = harness.cmd_train(ExperimentConfig.from_dict(
            harness._deep_merge(SMALL, EVAL_AT_END)), bundle, on="d1")
        assert result.best is result.final
        assert report.best_step == result.total_steps > 0

    def test_a_scratch_plan_is_a_function_of_its_epoch_alone(self):
        """What lets train draw plans up to a compile pass ahead of its
        steps: an epoch's plan is the same asked twice, out of order, or
        first."""
        ids = [f"e{i}" for i in range(50)]
        plan_fn = harness._scratch_plan_fn(ids, 7)
        forward = [plan_fn(epoch) for epoch in range(6)]
        assert [plan_fn(epoch) for epoch in (5, 3, 3, 0, 4, 1, 2)] == [
            forward[epoch] for epoch in (5, 3, 3, 0, 4, 1, 2)]
        assert harness._scratch_plan_fn(ids, 7)(4) == forward[4]
        assert len({tuple(plan) for plan in forward}) == 6
        assert all(sorted(plan) == sorted(ids) for plan in forward)


class TestFinetune:
    def test_naive_runs_and_reports_degradation(self, bundle, prev):
        cfg = ExperimentConfig.from_dict(
            harness._deep_merge(SMALL, {"sampler": {"p": 0.0}}))
        _, report = harness.cmd_finetune(cfg, bundle, prev[0].best)
        assert report.kind == "finetune"
        assert report.records[0]["step"] == 0
        assert "degraded_count" in report.degradation

    def test_forgetting_reads_the_records_as_written(self, bundle, prev):
        """The degradation entries hold the per-class fold scores of the
        first record (the pre-patch model) and of the final one as the
        records hold them, and degraded_classes on the report read back
        from its JSON gives the same dict."""
        cfg = ExperimentConfig.from_dict(harness._deep_merge(
            SMALL, {"sampler": {"p": 0.0}, **EVAL_AT_END}))
        _, report = harness.cmd_finetune(cfg, bundle, prev[0].best)
        before = report.records[0]["per_class"]
        after = report.final_record["per_class"]
        degradation = report.degradation
        assert [e["class"] for e in degradation["entries"]] == sorted(before)
        assert sorted(after) == sorted(before) and degradation["skipped"] == []
        for entry in degradation["entries"]:
            assert entry["before"] == before[entry["class"]]
            assert entry["after"] == after[entry["class"]]
            assert entry["degraded"] is metrics.is_degraded(entry["before"],
                                                            entry["after"])
        assert degradation["degraded_count"] == sum(
            e["degraded"] for e in degradation["entries"])
        back = RunReport.from_dict(json.loads(
            json.dumps(report.as_dict(), sort_keys=True)))
        assert metrics.degraded_classes(
            back.records[0]["per_class"],
            back.final_record["per_class"]) == degradation
        assert back.degradation == degradation

    @pytest.mark.parametrize("reg", [
        {"kind": "none", "strength": 0.0},
        {"kind": "ewc", "strength": 1.0},
        {"kind": "movenorm", "strength": 1.0, "form": "norm"},
        {"kind": "ewc", "strength": 1.0, "form": "norm"}])
    def test_fine_tune_reorders_nothing(self, bundle, prev, monkeypatch,
                                        reg):
        """Checkpoints hold theta and the Fisher sums in memory order, and
        the norm form sums its terms in that order, so a fine-tune of any
        kind and form, from prev's model to its result, walks nothing in
        file order (model._staged); only a file does. Checkpoints in file
        order took 7 reorders, and a norm-form sum in file order one a
        step."""
        cfg = ExperimentConfig.from_dict(
            harness._deep_merge(SMALL, {"reg": reg}))
        calls = []
        staged = model_module._staged
        monkeypatch.setattr(model_module, "_staged", lambda *args, **kw:
                            calls.append(args) or staged(*args, **kw))
        result, _ = harness.cmd_finetune(cfg, bundle, prev[0].best)
        assert result.total_steps > 0
        assert calls == []

    def test_ewc_peaks_below_its_theta_budget(self, bundle, prev):
        """An EWC fine-tune whose one eval is its last, on the default
        feature_dim, holds a copy of prev's theta as its model, the
        continued Fisher sums, their mean until the step is built, and the
        final theta: its traced peak stays below 3.8 theta (measured 3.70
        to 3.74). Its best checkpoint is the final one. Keeping the step's
        support buffers through the final eval and copy peaked at 3.86,
        and checkpoints in file order, with the best state always copied,
        near 9 theta."""
        cfg = ExperimentConfig.from_dict(harness._deep_merge(
            SMALL, {"reg": {"kind": "ewc", "strength": 1.0}, **EVAL_AT_END}))
        prev_ckpt = prev[0].best
        assert prev_ckpt.feature_dim == 4096
        tracemalloc.start()
        try:
            result, _ = harness.cmd_finetune(cfg, bundle, prev_ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.best is result.final
        assert peak < 3.8 * prev_ckpt.theta_values.nbytes

    @pytest.mark.parametrize("command, override, bound", [
        ("finetune", {"sampler": {"p": 0.0},
                      "reg": {"kind": "none", "strength": 0.0}}, 3.15),
        ("finetune", {"reg": {"kind": "movenorm", "strength": 1.0}}, 3.65),
        ("train", {}, 3.2)], ids=["naive", "movenorm", "train-d1"])
    def test_command_peaks_below_its_theta_budget(self, bundle, prev, command,
                                                  override, bound):
        """A command whose one eval is its last, on the default
        feature_dim, stays below its traced budget in theta: a naive
        fine-tune and cmd_train(on="d1") peaked at 3.10 and 3.14, a
        squared move-norm fine-tune, whose step builds a theta-sized
        support buffer, at 3.56-3.60. Each peaks at its end, when the
        final checkpoint copies theta; train drops the step, and with it
        the move-norm buffer, before then (4.26 when it kept them), and a
        move-norm step finds its support (every row) without a mask over
        theta's coordinates."""
        cfg = ExperimentConfig.from_dict(
            harness._deep_merge(SMALL, {**override, **EVAL_AT_END}))
        prev_ckpt = prev[0].best
        tracemalloc.start()
        try:
            if command == "train":
                result, _ = harness.cmd_train(cfg, bundle, on="d1")
            else:
                result, _ = harness.cmd_finetune(cfg, bundle, prev_ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.best is result.final
        assert peak < bound * prev_ckpt.theta_values.nbytes

    @pytest.mark.parametrize("kind, bound", [("movenorm", 5.15), ("ewc", 7.1)])
    def test_norm_form_peaks_below_bound(self, bundle, prev, kind, bound):
        """A norm-form fine-tune whose one eval is its last keeps its
        theta-sized terms w * delta^2 and sums them where they are: its
        traced peak stays below `bound` theta (measured 5.09 for move-norm,
        7.02 for EWC; move-norm's 5.21 fell when train dropped the step
        before the final eval). A checkpoint-order buffer for the sum cost
        one theta more (6.13 and 8.01)."""
        cfg = ExperimentConfig.from_dict(harness._deep_merge(
            SMALL, {"reg": {"kind": kind, "strength": 1.0, "form": "norm"},
                    **EVAL_AT_END}))
        prev_ckpt = prev[0].best
        tracemalloc.start()
        try:
            result, _ = harness.cmd_finetune(cfg, bundle, prev_ckpt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.best is result.final
        assert peak < bound * prev_ckpt.theta_values.nbytes

    def test_ewc_without_fisher_rejected(self, bundle, prev, monkeypatch):
        cfg = ExperimentConfig.from_dict(
            harness._deep_merge(SMALL, {"reg": {"kind": "ewc", "strength": 1.0}}))
        ckpt = copy.deepcopy(prev[0].best)
        ckpt.fisher_steps = 0
        steps = []
        gradient = model_module._gradient
        monkeypatch.setattr(model_module, "_gradient", lambda *args:
                            steps.append(args) or gradient(*args))
        with pytest.raises(MissingFisher):
            harness.cmd_finetune(cfg, bundle, ckpt)
        assert steps == []  # raised before the first step

    @pytest.mark.parametrize("reg, means", [
        ({"kind": "none", "strength": 0.0}, 0),
        ({"kind": "movenorm", "strength": 1.0}, 0),
        ({"kind": "ewc", "strength": 1.0}, 1)])
    def test_fisher_mean_computed_for_ewc_alone(self, bundle, prev,
                                                monkeypatch, reg, means):
        """prev's Fisher mean is θ-sized and only the EWC penalty reads it,
        so a naive or move-norm fine-tune never computes it and an EWC one
        computes it once."""
        cfg = ExperimentConfig.from_dict(
            harness._deep_merge(SMALL, {"reg": reg, **EVAL_AT_END}))
        calls = []
        fisher = FisherAccumulator.fisher
        monkeypatch.setattr(FisherAccumulator, "fisher", lambda acc:
                            calls.append(acc) or fisher(acc))
        result, _ = harness.cmd_finetune(cfg, bundle, prev[0].best)
        assert result.total_steps > 0
        assert len(calls) == means

    def test_labels_unknown_to_prev_rejected_before_training(self, bundle):
        classes = bundle.d1.classes() | bundle.d2.classes()
        intents = sorted(c for c in classes if c.startswith("IN:"))
        slots = sorted(c for c in classes if c.startswith("SL:"))
        missing = [intents[-1], slots[0]]
        net = TaggerModel.init(intents[:-1], slots[1:], feature_dim=64)
        ckpt = Checkpoint(intents=net.intents, slots=net.slots,
                          feature_dim=net.feature_dim,
                          theta_values=net.theta.values,
                          fisher_sum_sq=0 * net.theta.values, fisher_steps=0,
                          step=0)
        with pytest.raises(UnknownLabel) as err:
            harness.cmd_finetune(ExperimentConfig.from_dict(SMALL), bundle, ckpt)
        assert str(err.value).endswith(", ".join(sorted(missing)))

    def test_gold_as_predictions_is_perfect(self, bundle):
        gold = [ex.tree for ex in bundle.test]
        folds = harness.metrics.fold_indices(len(gold), 5, 0)
        record = harness.evaluation_record(gold, gold, folds, ["SL:DATE"])
        assert record["em"] == 1.0
        assert record["tp_f1"]["f1"] == 1.0
        assert record["per_class"]["SL:DATE"]["mean"] == 1.0


def test_evaluator_featurizes_once_and_matches_predict_trees(
        bundle, scratch, monkeypatch):
    calls = []  # every query passed to the encoder
    encode = harness.encode
    monkeypatch.setattr(harness, "encode",
                        lambda queries, dim, targets: calls.extend(queries)
                        or encode(queries, dim, targets))
    net = scratch[0].best.model()
    evaluator = harness.make_evaluator(harness.EvalCases(bundle.test), 5, 0)
    first, second = evaluator(net), evaluator(net)
    # each case's query once, in first-occurrence order
    assert calls == [query for query, _ in dict.fromkeys(
        (ex.query, ex.tree) for ex in bundle.test)]
    folds = harness.metrics.fold_indices(len(bundle.test), 5, 0)
    expected = harness.evaluation_record(
        [ex.tree for ex in bundle.test], predict_trees(net, bundle.test),
        folds, sorted(bundle.test.classes()))
    assert first == second == expected


def test_evaluator_call_encodes_and_compiles_nothing_after_the_first(
        bundle, scratch, monkeypatch):
    """EvalCases encodes and compiles the cases once per model vocabulary,
    so an evaluator call after the first with a vocabulary, of any
    evaluator over the same cases, does only the work that depends on θ; a
    model of another feature_dim encodes and compiles once."""
    calls = []

    def counted(name, fn):
        return lambda *args, **kw: calls.append(name) or fn(*args, **kw)

    for module in (harness, model_module):
        for name in ("encode", "compile_batches"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    cases = harness.EvalCases(bundle.test)
    evaluator = harness.make_evaluator(cases, 5, 0)
    net = scratch[0].best.model()
    first = evaluator(net)
    assert calls == ["encode", "compile_batches"]
    calls.clear()
    assert evaluator(net) == first
    harness.make_evaluator(cases, 3, 1)(net)
    assert calls == []
    wide = TaggerModel.init(net.intents, net.slots,
                            feature_dim=2 * net.feature_dim)
    evaluator(wide)
    evaluator(wide)
    assert calls == ["encode", "compile_batches"]


# 5-fold scores whose sample std loses its last bit when the squares are
# numpy's square instead of Python's x ** 2 (numpy 2.4, glibc libm)
SQUARE_SENSITIVE_FOLDS = (
    [0.449413, 0.872112, 0.639464, 0.152446, 0.988257],
    [0.057379, 0.498223, 0.619756, 0.286536, 0.861876],
    [0.361676, 0.440013, 0.471554, 0.913585, 0.502878])


def _fold_std(xs):
    """The sample std of fold scores, in Python floats."""
    m = sum(xs) / len(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def test_fold_statistic_is_python_float_arithmetic(bundle, scratch,
                                                   monkeypatch):
    """metrics.fold_score and the evaluator's per-class scores give the
    bits of the Python-float oracle: fold rows of F1 scores fed to the
    record through _f1 come out with the oracle's mean and std."""
    for xs in SQUARE_SENSITIVE_FOLDS:
        score = metrics.fold_score(xs)
        assert score["std"].hex() == _fold_std(xs).hex()
        assert score["mean"].hex() == (sum(xs) / len(xs)).hex()
    classes = sorted(bundle.test.classes())
    rows = np.zeros((5, len(classes)))
    rows[:, :len(SQUARE_SENSITIVE_FOLDS)] = np.array(SQUARE_SENSITIVE_FOLDS).T
    monkeypatch.setattr(harness, "_f1", lambda counts: rows.copy())
    record = harness.make_evaluator(harness.EvalCases(bundle.test), 5, 0)(
        scratch[0].best.model())
    for cls, xs in zip(classes, SQUARE_SENSITIVE_FOLDS):
        score = record["per_class"][cls]
        assert score["per_fold"] == xs and score["n_folds"] == 5
        assert score["std"].hex() == _fold_std(xs).hex()
        assert score["mean"].hex() == (sum(xs) / len(xs)).hex()
    em = record["em_folds"]
    assert em["std"].hex() == _fold_std(em["per_fold"]).hex()


def _run_bytes(run, path):
    """A command's report as canonical JSON and its best checkpoint's file
    bytes."""
    result, report = run
    model_module.save_checkpoint(result.best, path)
    return json.dumps(report.as_dict(), sort_keys=True), path.read_bytes()


def _spy_setup(monkeypatch):
    """Record the queries of each encode call and the trees given to
    extract_paths."""
    encoded, gold_trees = [], []
    encode, extract_paths = model_module.encode, metrics.extract_paths
    monkeypatch.setattr(model_module, "encode", lambda queries, *rest:
                        encoded.append(list(queries)) or encode(queries, *rest))
    monkeypatch.setattr(metrics, "extract_paths", lambda tree:
                        gold_trees.append(tree) or extract_paths(tree))
    return encoded, gold_trees


def _distinct_queries(train_set, ids):
    """The queries encode_examples encodes for the train examples `ids`: one
    per distinct example, a query and its tree object, in train-set order."""
    ids = set(ids)
    return [query for query, _ in dict.fromkeys(
        (ex.query, id(ex.tree)) for ex in train_set if ex.id in ids)]


BUNDLE_CONFIGS = [
    ExperimentConfig.from_dict(harness._deep_merge(SMALL, override))
    for override in ({}, {"sampler": {"p": 0.0}},
                     {"reg": {"kind": "ewc", "strength": 1.0}},
                     {"model": {"feature_dim": 256}})]


def test_bundle_sets_up_once_and_commands_share_nothing_else(tmp_path,
                                                             monkeypatch):
    """cmd_train(on="d1"), a naive and an EWC cmd_finetune (p=0.2), then a
    d1 model of another feature_dim, on one bundle: each command encodes the
    distinct train examples its plans can draw, in train-set order, and
    nothing that a corpus kept for its vocabulary holds; each test case's
    gold tree goes to extract_paths once. Each report and best checkpoint
    has the bytes of the same command run alone on a fresh bundle, in
    reverse order, so neither the shared PathVocab nor any other shared
    state carries over."""
    configs = BUNDLE_CONFIGS
    shared = harness.prepare(configs[0])
    encoded, gold_trees = _spy_setup(monkeypatch)

    def command(i, bundle):
        if i in (1, 2):
            return harness.cmd_finetune(configs[i], bundle, prev)
        return harness.cmd_train(configs[i], bundle, on="d1")

    first = command(0, shared)
    prev = first[0].best
    runs = [_run_bytes(first, tmp_path / "0.ckpt")]
    runs += [_run_bytes(command(i, shared), tmp_path / f"{i}.ckpt")
             for i in range(1, 4)]
    ewc = configs[2]
    drawn = set(EpochPlans(shared.d1, shared.d2, ewc.sampler_config())
                .drawn_ids(ewc.train_config().max_epochs))
    assert len(shared.d2) < len(drawn) < len(shared.train)

    def queries(ids):
        return _distinct_queries(shared.train, ids)

    # d1 and d2, the EWC run's draw, then d1 again at feature_dim 256
    assert encoded == [queries(shared.d1.ids()), queries(shared.d2.ids()),
                       queries(drawn), queries(shared.d1.ids())]
    command(1, shared), command(2, shared)
    assert len(encoded) == 4  # the same pools again: nothing encoded
    cases = dict.fromkeys((ex.query, ex.tree) for ex in shared.test)
    assert gold_trees == [tree for _, tree in cases]
    monkeypatch.undo()

    for i in reversed(range(4)):
        alone = _run_bytes(command(i, harness.prepare(configs[i])),
                           tmp_path / f"alone{i}.ckpt")
        assert alone == runs[i]


def test_commands_after_a_whole_set_train_encode_nothing(monkeypatch):
    """After cmd_train(on="all"), the d1 model and both fine-tunes draw
    from parts of its corpus: the train set's distinct examples are encoded
    once."""
    configs = BUNDLE_CONFIGS
    shared = harness.prepare(configs[0])
    encoded, _ = _spy_setup(monkeypatch)
    harness.cmd_train(configs[0], shared, on="all")
    prev = harness.cmd_train(configs[0], shared, on="d1")[0].best
    for cfg in configs[1:3]:
        harness.cmd_finetune(cfg, shared, prev)
    assert encoded == [_distinct_queries(shared.train, shared.train.ids())]


def _record(step, em, em_std, target_mean, target_std):
    score = {"mean": target_mean, "std": target_std, "n_folds": 5,
             "per_fold": [target_mean] * 5}
    return {"step": step, "em": em,
            "em_folds": {"mean": em, "std": em_std, "n_folds": 5,
                         "per_fold": [em] * 5},
            "tp_f1": {}, "per_class": {"SL:T": score}}


def _report(kind, records, total_steps):
    return RunReport(kind=kind, config_digest="x", records=records,
                     total_steps=total_steps, stopped_early=False, best_step=0)


class TestParity:
    def scratch_report(self, em=0.9, em_std=0.01, f1=0.8, f1_std=0.05):
        return _report("scratch", [_record(1000, em, em_std, f1, f1_std)], 1000)

    def test_always_above_hits_first_eval(self):
        ft = _report("finetune", [_record(0, 0.9, 0, 0.8, 0),
                                  _record(100, 0.9, 0.0, 0.8, 0.0),
                                  _record(200, 0.9, 0.0, 0.8, 0.0)], 200)
        assert parity_step(ft, self.scratch_report(), "SL:T") == 100

    def test_step_zero_record_ignored(self):
        ft = _report("finetune", [_record(0, 1.0, 0, 1.0, 0)], 0)
        assert parity_step(ft, self.scratch_report(), "SL:T") is None

    def test_never_reached_is_none(self):
        ft = _report("finetune", [_record(100, 0.1, 0.0, 0.1, 0.0)], 100)
        record = cmd_compare(ft, self.scratch_report(), "SL:T")
        assert record["steps_to_parity"] is None
        assert record["relative_steps"] is None
        assert not record["reached"]

    def test_both_conditions_required(self):
        good_f1_bad_em = _report(
            "finetune", [_record(100, 0.5, 0.0, 0.9, 0.0)], 100)
        assert parity_step(good_f1_bad_em, self.scratch_report(), "SL:T") is None
        assert parity_step(good_f1_bad_em, self.scratch_report(), "SL:T",
                           require="either") == 100

    def test_monotone_in_scratch_sigma(self):
        ft = _report("finetune", [
            _record(100, 0.85, 0.0, 0.70, 0.0),
            _record(200, 0.89, 0.0, 0.78, 0.0),
            _record(300, 0.90, 0.0, 0.80, 0.0)], 300)
        steps = []
        for sigma in (0.0, 0.01, 0.03, 0.08):
            scratch = self.scratch_report(em_std=sigma, f1_std=sigma)
            steps.append(parity_step(ft, scratch, "SL:T") or 10 ** 9)
        assert steps == sorted(steps, reverse=True)

    def test_relative_steps_definition(self):
        ft = _report("finetune", [_record(100, 0.9, 0.0, 0.8, 0.0)], 100)
        record = cmd_compare(ft, self.scratch_report(), "SL:T")
        assert record["relative_steps"] == 100.0 * 100 / 1000


class TestSweep:
    def test_rows_and_cell_reproducibility(self, bundle, prev, scratch):
        cfg = ExperimentConfig.from_dict(SMALL)
        rows = harness.cmd_sweep(cfg, bundle, prev[0].best, scratch[1],
                                 methods=["sample", "ewc+sample"],
                                 p_values=(0.0, 0.2), strengths=(1.0,))
        assert len(rows) == 4
        assert {(r["method"], r["p"]) for r in rows} == {
            ("sample", 0.0), ("sample", 0.2),
            ("ewc+sample", 0.0), ("ewc+sample", 0.2)}
        # a cell rerun in isolation reproduces the sweep row
        cell_cfg = harness.sweep_cell_config(cfg, "ewc+sample", 0.2, 1.0)
        _, rep = harness.cmd_finetune(cell_cfg, bundle, prev[0].best)
        harness.cmd_compare(rep, scratch[1], "SL:ORGANIZER_EVENT")
        row = [r for r in rows if r["method"] == "ewc+sample" and r["p"] == 0.2][0]
        assert row["em"] == rep.final_record["em"]
        assert row["steps_to_parity"] == rep.steps_to_parity

    def test_unknown_method(self, ):
        cfg = ExperimentConfig.from_dict(SMALL)
        with pytest.raises(ConfigError):
            harness.sweep_cell_config(cfg, "bogus", 0.1, 1.0)

    @pytest.mark.parametrize("options, key", [
        ({"methods": ["sample", "bogus"]}, "bogus"),
        ({"methods": ["sample", "ewc+sample"], "p_values": (0.2, 2.0)},
         "sampler.p"),
        ({"methods": ["sample", "ewc+sample"], "strengths": (1.0, -1.0)},
         "reg.strength"),
    ])
    def test_bad_cell_fails_before_any_cell_trains(self, monkeypatch,
                                                   options, key):
        def no_training(*args):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(harness, "cmd_finetune", no_training)
        cfg = ExperimentConfig.from_dict(SMALL)
        with pytest.raises(ConfigError, match=re.escape(key)):
            harness.cmd_sweep(cfg, None, None, None, **options)


def test_snips_kind_loads_snips_json(tmp_path):
    path = tmp_path / "snips.json"
    path.write_text(json.dumps([
        {"intent": "GetWeather",
         "text": [{"text": "weather "}, {"text": "today", "slot": "date"}]},
        {"intent": "PlayMusic", "text": "play something"},
    ]))
    cfg = ExperimentConfig.from_dict({"data": {
        "kind": "snips", "train_path": str(path), "test_path": str(path)}})
    train_set, test_set = harness.load_data(cfg)
    assert [ex.query for ex in train_set] == ["weather today", "play something"]
    assert train_set.classes() == {"IN:GET_WEATHER", "SL:DATE", "IN:PLAY_MUSIC"}
    assert len(test_set) == 2


def test_run_report_round_trip(scratch):
    _, report = scratch
    back = RunReport.from_dict(json.loads(json.dumps(report.as_dict())))
    assert back.total_steps == report.total_steps
    assert back.records == report.records


# Span scorer against the tree oracle. Few tokens, so that a value repeats
# within a query and across queries; "xSL:DATEy" holds a class label as a
# substring, which path_mentions counts. Gold trees nest (a slot holds an
# intent), hold empty slots and use labels some models lack; IN:NEW and
# SL:NEW are labels only a model has.
GOLD_INTENTS = ("IN:A", "IN:GET_EVENT")
GOLD_SLOTS = ("SL:DATE", "SL:DATE_EVENT", "SL:X")
TOKENS = st.sampled_from(("a", "b", "xSL:DATEy"))


def gold_slots(depth):
    child = TOKENS if depth == 0 else st.one_of(TOKENS, gold_intents(depth - 1))
    return st.builds(Node, st.sampled_from(GOLD_SLOTS),
                     st.lists(child, max_size=3).map(tuple))


def gold_intents(depth):
    return st.builds(Node, st.sampled_from(GOLD_INTENTS), st.lists(
        st.one_of(TOKENS, gold_slots(depth)), min_size=1, max_size=4).map(tuple))


@settings(max_examples=300, deadline=None)
@given(gold_intents(3))
def test_tree_walk_matches_its_serialization(root):
    """The one walk, against the tokens of serialize(tree): the leaves are
    its non-bracket tokens and the labels its `[LABEL` tokens, in order."""
    tree = ParseTree(root)
    tokens = serialize(tree).split()
    assert tree.leaves == tuple(t for t in tokens if t[0] != "[" and t != "]")
    assert tree.labels == tuple(t[1:] for t in tokens if t[0] == "[")
    assert tree.classes == frozenset(tree.labels)
    if tree.leaves:
        example = Example("e", " ".join(tree.leaves), tree)
        assert example.classes is example.tree.classes


# a query has at least one token
GOLD_ROOTS = gold_intents(2).filter(lambda root: ParseTree(root).leaves)
TEST_SETS = st.lists(GOLD_ROOTS, min_size=5, max_size=12).map(
    lambda roots: Dataset(tuple(
        Example(f"t{i}", " ".join(ParseTree(root).leaves), ParseTree(root))
        for i, root in enumerate(roots))))


@st.composite
def random_models(draw):
    """A tagger with random theta over a label set drawn from the gold
    labels and two the gold trees lack; a large O bias gives queries with
    no predicted span."""
    intents = draw(st.lists(st.sampled_from(GOLD_INTENTS + ("IN:NEW",)),
                            min_size=1, unique=True))
    slots = draw(st.lists(st.sampled_from(GOLD_SLOTS + ("SL:NEW",)), unique=True))
    net = TaggerModel.init(intents, slots,
                           feature_dim=draw(st.sampled_from((8, 32))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    net.theta.values[:] = rng.normal(0.0, draw(st.sampled_from((0.3, 3.0))),
                                     net.theta.values.size)
    net._views()["b_tag"][0] += draw(st.sampled_from((0.0, 2.0, 50.0)))
    return net


@settings(max_examples=150, deadline=None)
@given(TEST_SETS, st.lists(random_models(), min_size=1, max_size=2),
       st.integers(2, 5), st.integers(0, 3))
def test_span_scorer_equals_tree_oracle(test_set, nets, k, seed):
    classes = sorted(test_set.classes() | {"SL:DATE", "SL:NOWHERE"})
    evaluator = harness.make_evaluator(harness.EvalCases(test_set, classes),
                                       k, seed)
    gold = [ex.tree for ex in test_set]
    folds = metrics.fold_indices(len(test_set), k, seed)
    for net in nets:  # later calls reuse the evaluator's path ids
        got = evaluator(net)
        expected = harness.evaluation_record(
            gold, predict_trees(net, test_set), folds, classes)
        assert got == expected
        assert (json.dumps(got, sort_keys=True)
                == json.dumps(expected, sort_keys=True))


@st.composite
def repeating_test_sets(draw):
    """A test set whose drawn examples repeat under new ids, in a drawn
    order, with one query under two gold trees: a drawn tree and the same
    tokens under the other root intent."""
    roots = draw(st.lists(GOLD_ROOTS, min_size=3, max_size=6))
    other = GOLD_INTENTS[1 - GOLD_INTENTS.index(roots[0].name)]
    roots.append(Node(other, roots[0].children))
    repeats = draw(st.lists(st.integers(0, len(roots) - 1), min_size=1,
                            max_size=3 * len(roots)))
    order = draw(st.permutations(list(range(len(roots))) + repeats))
    return Dataset(tuple(
        Example(f"t{i}", " ".join(ParseTree(roots[r]).leaves), ParseTree(roots[r]))
        for i, r in enumerate(order)))


@settings(max_examples=150, deadline=None)
@given(repeating_test_sets(), random_models(), st.integers(2, 5),
       st.integers(0, 3))
def test_repeated_cases_score_as_the_tree_oracle(test_set, net, k, seed):
    classes = sorted(test_set.classes())
    got = harness.make_evaluator(harness.EvalCases(test_set, classes), k,
                                 seed)(net)
    expected = harness.evaluation_record(
        [ex.tree for ex in test_set], predict_trees(net, test_set),
        metrics.fold_indices(len(test_set), k, seed), classes)
    assert got == expected
    assert (json.dumps(got, sort_keys=True)
            == json.dumps(expected, sort_keys=True))


@st.composite
def count_triples(draw):
    """(n_correct, n_predicted, n_expected), small or above 10**6."""
    size = st.one_of(st.integers(0, 20), st.integers(10**6, 2**53 - 1))
    predicted, expected = draw(size), draw(size)
    return draw(st.integers(0, min(predicted, expected))), predicted, expected


@settings(max_examples=200, deadline=None)
@given(st.lists(count_triples(), min_size=1, max_size=30))
@example([(0, 0, 0), (0, 0, 7), (0, 7, 0), (0, 3, 4), (3, 3, 3), (2, 3, 5),
          (10**6 + 1, 10**7 + 3, 2**53 - 1)])
def test_fold_f1_kernel_is_report_from_counts_bit_for_bit(triples):
    got = harness._f1(np.array(triples, dtype=np.int64)).tolist()
    assert ([x.hex() for x in got]
            == [metrics.report_from_counts(*t).f1.hex() for t in triples])


def test_evaluator_builds_no_tree(bundle, scratch, monkeypatch):
    gold_trees = []
    extract_paths = metrics.extract_paths
    monkeypatch.setattr(metrics, "extract_paths",
                        lambda tree: gold_trees.append(tree) or extract_paths(tree))
    evaluator = harness.make_evaluator(harness.EvalCases(bundle.test), 5, 0)
    # once per distinct (query, tree), in first-occurrence order
    cases = list(dict.fromkeys((ex.query, ex.tree) for ex in bundle.test))
    assert len(cases) < len(bundle.test)
    assert gold_trees == [tree for _, tree in cases]

    def forbidden(*args, **kwargs):
        raise AssertionError("an evaluator call built or scored a tree")

    monkeypatch.setattr(model_module, "decode_tree", forbidden)
    for module in (treebank, metrics, harness):
        if hasattr(module, "serialize"):
            monkeypatch.setattr(module, "serialize", forbidden)
    monkeypatch.setattr(harness, "evaluation_record", forbidden)
    monkeypatch.setattr(Node, "__post_init__", forbidden)
    monkeypatch.setattr(ParseTree, "__post_init__", forbidden)
    trained = scratch[0].best.model()
    for net in (trained, TaggerModel(trained.intents, trained.slots,
                                     trained.feature_dim)):
        record = evaluator(net)
        assert 0.0 <= record["em"] <= 1.0
    assert len(gold_trees) == len(cases)
