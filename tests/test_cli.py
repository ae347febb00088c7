import json
import tracemalloc

import numpy as np
import pytest

from treepatch import cli, harness
from treepatch import dataset as ds
from treepatch.cli import main
from treepatch.datagen import GenConfig, builtin_grammar, generate
from treepatch.model import (Checkpoint, TaggerModel, load_checkpoint,
                             save_checkpoint)

CONFIG = {
    "seed": 5,
    "data": {"n_train": 300, "n_test": 100},
    "split": {"target_class": "SL:ORGANIZER_EVENT", "percentage": 90.0},
    "train": {"lr": 0.5, "batch_size": 16, "max_epochs": 3,
              "eval_every": 50, "patience": 10},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    (path / "config.json").write_text(json.dumps(CONFIG))
    (path / "list.json").write_text("[1]")
    return path


def run(argv):
    return main([str(a) for a in argv])


def test_gen_writes_tsv(workdir, capsys):
    assert run(["gen", "--config", workdir / "config.json",
                "--out-dir", workdir]) == 0
    lines = (workdir / "train.tsv").read_text().splitlines()
    assert len(lines) == 300
    assert lines[0].count("\t") == 2


def test_split_reports_stats(workdir):
    out = workdir / "split.json"
    assert run(["split", "--config", workdir / "config.json",
                "--out-dir", workdir, "--report", out]) == 0
    stats = json.loads(out.read_text())
    assert stats["d1_size"] + stats["d2_size"] == 300
    assert any(row["class"] == "SL:ORGANIZER_EVENT" for row in stats["per_class"])


def test_train_finetune_evaluate_compare(workdir):
    cfgp = workdir / "config.json"
    assert run(["train", "--config", cfgp, "--on", "all",
                "--ckpt", workdir / "scratch.ckpt",
                "--report", workdir / "scratch.json"]) == 0
    assert run(["train", "--config", cfgp, "--on", "d1",
                "--ckpt", workdir / "prev.ckpt",
                "--report", workdir / "prev.json"]) == 0
    assert run(["finetune", "--config", cfgp, "--preset", "ewc_sample_20",
                "--prev", workdir / "prev.ckpt",
                "--ckpt", workdir / "ft.ckpt",
                "--report", workdir / "ft.json"]) == 0
    ft = json.loads((workdir / "ft.json").read_text())
    assert ft["kind"] == "finetune"
    assert "degraded_count" in ft["degradation"]

    assert run(["evaluate", "--ckpt", workdir / "ft.ckpt",
                "--test", workdir / "test.tsv", "--k", "5",
                "--report", workdir / "eval.json"]) == 0
    record = json.loads((workdir / "eval.json").read_text())
    assert 0.0 <= record["em"] <= 1.0

    assert run(["compare", "--finetune", workdir / "ft.json",
                "--scratch", workdir / "scratch.json",
                "--target-class", "SL:ORGANIZER_EVENT",
                "--report", workdir / "cmp.json"]) == 0
    cmp_record = json.loads((workdir / "cmp.json").read_text())
    assert set(cmp_record) >= {"steps_to_parity", "relative_steps", "reached"}


def test_evaluate_peaks_below_its_theta_budget(tmp_path):
    """`treepatch evaluate` on the default shape streams the checkpoint
    into its two arrays, scores the loaded theta in place and frees the
    Fisher sums before it evaluates, so its traced peak, load included,
    stays below 2.4 theta (measured 2.20); its report is the evaluator's
    record of a copy of that theta. Keeping the Fisher sums through the
    evaluation peaked at 2.59, and a load that read the whole file, with
    a model over a copy of theta, at 4.01."""
    train_set, test_set = generate(builtin_grammar(),
                                   GenConfig(seed=1, n_train=500, n_test=500))
    classes = train_set.classes()
    net = TaggerModel.init([c for c in classes if c.startswith("IN:")],
                           [c for c in classes if c.startswith("SL:")])
    assert net.theta.values.size == 282_693
    net.theta.values[:] = np.random.default_rng(0).normal(
        size=net.theta.values.size)
    ckpt, test, report = (tmp_path / "m.ckpt", tmp_path / "t.tsv",
                          tmp_path / "eval.json")
    save_checkpoint(Checkpoint(intents=net.intents, slots=net.slots,
                               feature_dim=net.feature_dim,
                               theta_values=net.theta.values,
                               fisher_sum_sq=net.theta.values ** 2,
                               fisher_steps=1, step=1), ckpt)
    ds.save_tsv(test_set, test)
    tracemalloc.start()
    try:
        assert run(["evaluate", "--ckpt", ckpt, "--test", test,
                    "--report", report]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * net.theta.values.nbytes
    evaluator = harness.make_evaluator(harness.EvalCases(ds.load_tsv(test)),
                                       5, 0)
    assert json.loads(report.read_text()) == json.loads(json.dumps(
        evaluator(load_checkpoint(ckpt).model())))


def test_one_parser_serves_every_call(workdir, monkeypatch):
    """main parses with one parser per process: a parse keeps nothing of the
    one before it, and an evaluate call and then a compare call write what
    each writes with a fresh parser."""
    one = cli.build_parser()
    assert cli.build_parser() is one
    fresh_parser = cli.build_parser.__wrapped__
    for argv in (["split", "--config", "c.json", "--set", "a.b=1",
                  "--out-dir", "d"],
                 ["split", "--config", "c.json", "--out-dir", "d"],
                 ["evaluate", "--ckpt", "m.ckpt", "--test", "t.tsv"],
                 ["train", "--on", "d1"],
                 ["train"]):
        assert (vars(one.parse_args(argv))
                == vars(fresh_parser().parse_args(argv)))

    def calls(label):
        return [["evaluate", "--ckpt", workdir / "ft.ckpt",
                 "--test", workdir / "test.tsv",
                 "--report", workdir / f"{label}-eval.json"],
                ["compare", "--finetune", workdir / "ft.json",
                 "--scratch", workdir / "scratch.json",
                 "--target-class", "SL:ORGANIZER_EVENT",
                 "--report", workdir / f"{label}-cmp.json"]]

    written = {}
    for label in ("one", "fresh"):
        if label == "fresh":
            monkeypatch.setattr(cli, "build_parser", fresh_parser)
        for argv in calls(label):
            assert run(argv) == 0
        written[label] = [argv[-1].read_bytes() for argv in calls(label)]
    assert written["one"] == written["fresh"]


def test_sweep_csv(workdir):
    out = workdir / "sweep.csv"
    assert run(["sweep", "--config", workdir / "config.json",
                "--prev", workdir / "prev.ckpt",
                "--scratch-report", workdir / "scratch.json",
                "--methods", "sample", "--p", "0,0.2",
                "--strengths", "1.0", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + 2 cells
    assert lines[0].startswith("method,p,strength,em")


def test_sweep_unknown_method_rejected(workdir, capsys, monkeypatch):
    def no_training(*args):
        raise AssertionError("a cell trained")

    monkeypatch.setattr(harness, "cmd_finetune", no_training)
    assert run(["sweep", "--config", workdir / "config.json",
                "--prev", workdir / "prev.ckpt",
                "--scratch-report", workdir / "scratch.json",
                "--methods", "sample,bogus", "--out",
                workdir / "bogus.csv"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "'bogus'" in err["message"]
    assert not (workdir / "bogus.csv").exists()


@pytest.mark.parametrize("flag, value, item", [
    ("--p", "0,x", "'x'"),
    ("--p", "0,,1", "''"),
    ("--strengths", "1e", "'1e'"),
])
def test_sweep_bad_number_rejected_before_any_work(workdir, capsys, monkeypatch,
                                                   flag, value, item):
    def no_work(*args):
        raise AssertionError("data prepared or a checkpoint loaded")

    monkeypatch.setattr(harness, "prepare", no_work)
    monkeypatch.setattr(cli, "load_checkpoint", no_work)
    assert run(["sweep", "--config", workdir / "config.json",
                "--prev", workdir / "missing.ckpt",
                "--scratch-report", workdir / "missing.json",
                flag, value, "--out", workdir / "bad.csv"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert flag in err["message"] and item in err["message"]
    assert not (workdir / "bad.csv").exists()


def test_set_override(workdir, capsys):
    out = workdir / "s2.json"
    assert run(["split", "--config", workdir / "config.json",
                "--set", "split.percentage=50",
                "--out-dir", workdir, "--report", out]) == 0
    moved_50 = json.loads(out.read_text())["moved_count"]
    assert run(["split", "--config", workdir / "config.json",
                "--out-dir", workdir, "--report", out]) == 0
    moved_90 = json.loads(out.read_text())["moved_count"]
    assert moved_50 < moved_90


def test_error_is_json_on_stderr(workdir, capsys):
    assert run(["train", "--config", workdir / "missing.json"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"

    assert run(["finetune", "--config", workdir / "config.json",
                "--set", "reg.kind=ewc", "--set", "reg.strength=1",
                "--prev", workdir / "nope.ckpt"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "message" in err


def test_unknown_set_key_rejected(workdir, capsys):
    assert run(["split", "--config", workdir / "config.json",
                "--set", "train.lrr=0.1", "--out-dir", workdir]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "train.lrr" in err["message"]


def test_eval_k_below_two_rejected(workdir, capsys):
    assert run(["split", "--config", workdir / "config.json",
                "--set", "eval.k=1", "--out-dir", workdir]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "eval.k" in err["message"]


# (--set assignment, the dotted key its ConfigError names)
BAD_SETS = [
    ("model.feature_dim=0", "model.feature_dim"),
    ("model.hidden_dim=-1", "model.hidden_dim"),
    ("model.hidden_dim=8", "model.hidden_dim"),
    ("train.batch_size=0", "train.batch_size"),
    ('freeze=["encoderr"]', "freeze"),
    ("freeze=encoder", "freeze"),
    ("parity.require=neither", "parity.require"),
    ("train.lr=fast", "train.lr"),
    ("train.lr=-1", "train.lr"),
    ("train.max_epochs=0", "train.max_epochs"),
    ("data.format=xml", "data.format"),
    ("model=5", "model"),
    ("sampler.p=x", "sampler.p"),
    ("reg.strength=x", "reg.strength"),
    ("reg.epsilon=x", "reg.epsilon"),
    ("split.percentage=x", "split.percentage"),
    ("seed=x", "seed"),
    ("data.tail_exponent=x", "data.tail_exponent"),
    ("sampler.p=true", "sampler.p"),
    ("seed=false", "seed"),
    ("sampler.p=2.0", "sampler.p"),
    ("sampler.mode=bogus", "sampler.mode"),
    ("reg.strength=-1", "reg.strength"),
    ("reg.epsilon=0", "reg.epsilon"),
    ("reg.kind=bogus", "reg.kind"),
    ("reg.form=bogus", "reg.form"),
    ("data.tail_exponent=NaN", "data.tail_exponent"),
    ("data.tail_exponent=Infinity", "data.tail_exponent"),
    ("data.tail_exponent=0", "data.tail_exponent"),
    ("data.tail_exponent=-1", "data.tail_exponent"),
    ("split.coverage_per_class=x", "split.coverage_per_class"),
    ("split.coverage_per_class=1.5", "split.coverage_per_class"),
    ("split.coverage_per_class=true", "split.coverage_per_class"),
    ("split.target_class=5", "split.target_class"),
    ("split.target_class=null", "split.target_class"),
    ("data.kind=bogus", "data.kind"),
    ("data.grammar=5", "data.grammar"),
    ("data.train_path=5", "data.train_path"),
    ("data.test_path=5", "data.test_path"),
    ('data.format=["top"]', "data.format"),
    ("reg.strength=NaN", "reg.strength"),
    ("reg.strength=Infinity", "reg.strength"),
    ("reg.epsilon=NaN", "reg.epsilon"),
    ("reg.epsilon=Infinity", "reg.epsilon"),
    ("train.lr.x=1", "train.lr"),
    ("seed.x=1", "seed"),
    ("foo", "foo"),
]


@pytest.mark.parametrize("config, assignment, key", [
    *(pytest.param("config.json", assignment, key, id=f"{assignment}-{key}")
      for assignment, key in BAD_SETS),
    # the config file itself is not an object: the same error as without --set
    pytest.param("list.json", "seed=1", "a config must be an object, got [1]",
                 id="seed=1-list-config"),
])
def test_bad_set_value_rejected(workdir, capsys, config, assignment, key):
    assert run(["split", "--config", workdir / config,
                "--set", assignment, "--out-dir", workdir]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert key in err["message"]


def test_set_wins_over_preset(workdir):
    out = workdir / "preset.json"
    assert run(["train", "--config", workdir / "config.json", "--on", "d1",
                "--set", "train.max_epochs=1", "--set", "reg.strength=100",
                "--preset", "ewc_sample_20", "--report", out]) == 0
    # the preset's values, spelled out, with --set's strength
    expected = harness.ExperimentConfig.from_dict(harness._deep_merge(CONFIG, {
        "train": {"max_epochs": 1}, "sampler": {"mode": "sample", "p": 0.2},
        "reg": {"kind": "ewc", "strength": 100, "form": "squared"}}))
    assert json.loads(out.read_text())["config_digest"] == expected.digest()


def test_finetune_names_labels_unknown_to_prev(workdir, capsys):
    bundle = harness.prepare(harness.ExperimentConfig.from_dict(CONFIG))
    classes = bundle.train.classes()
    slots = sorted(c for c in classes if c.startswith("SL:"))
    intents = sorted(c for c in classes if c.startswith("IN:"))
    net = TaggerModel.init(intents, slots[:-1], feature_dim=64)
    save_checkpoint(Checkpoint(intents=net.intents, slots=net.slots,
                               feature_dim=net.feature_dim,
                               theta_values=net.theta.values,
                               fisher_sum_sq=0 * net.theta.values,
                               fisher_steps=0, step=0),
                    workdir / "small.ckpt")
    assert run(["finetune", "--config", workdir / "config.json",
                "--prev", workdir / "small.ckpt"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "UnknownLabel"
    assert slots[-1] in err["message"]
