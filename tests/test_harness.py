import copy
import json

import pytest

from treepatch import harness
from treepatch.harness import (ConfigError, ExperimentConfig, RunReport,
                               cmd_compare, parity_step)
from treepatch.model import (Checkpoint, TaggerModel, UnknownLabel,
                             load_checkpoint, predict_trees)
from treepatch.regularizers import MissingFisher

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
    ])
    def test_bad_value_rejected_naming_its_key(self, raw, key):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(raw)

    def test_edge_values_accepted(self):
        cfg = ExperimentConfig.from_dict({
            "model": {"feature_dim": 1, "hidden_dim": 0},
            "train": {"batch_size": 1, "max_epochs": 1, "lr": 1},
            "data": {"format": "canonical"}, "parity": {"require": "either"},
            "freeze": ["intent_head", "tag_head"]})
        assert cfg.train_config().freeze.frozen == {"intent_head", "tag_head"}

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


class TestFinetune:
    def test_naive_runs_and_reports_degradation(self, bundle, prev):
        cfg = ExperimentConfig.from_dict(
            harness._deep_merge(SMALL, {"sampler": {"p": 0.0}}))
        _, report = harness.cmd_finetune(cfg, bundle, prev[0].best)
        assert report.kind == "finetune"
        assert report.records[0]["step"] == 0
        assert "degraded_count" in report.degradation

    def test_ewc_without_fisher_rejected(self, bundle, prev):
        cfg = ExperimentConfig.from_dict(
            harness._deep_merge(SMALL, {"reg": {"kind": "ewc", "strength": 1.0}}))
        ckpt = copy.deepcopy(prev[0].best)
        ckpt.fisher_steps = 0
        with pytest.raises(MissingFisher):
            harness.cmd_finetune(cfg, bundle, ckpt)

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
                        lambda queries, dim: calls.extend(queries) or encode(queries, dim))
    net = scratch[0].best.model()
    evaluator = harness.make_evaluator(bundle.test, 5, 0)
    first, second = evaluator(net), evaluator(net)
    assert len(calls) == len(bundle.test)
    folds = harness.metrics.fold_indices(len(bundle.test), 5, 0)
    expected = harness.evaluation_record(
        [ex.tree for ex in bundle.test], predict_trees(net, bundle.test),
        folds, sorted(bundle.test.classes()))
    assert first == second == expected


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
