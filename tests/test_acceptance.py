"""Acceptance gate: one test per criterion, each printing a PASS line
(run with `pytest -s tests/test_acceptance.py` to see them)."""

import hashlib
import json
import os
import time

import numpy as np
import pytest

from treepatch import harness
from treepatch.cli import main as cli_main
from treepatch.datagen import GenConfig, builtin_grammar, generate
from treepatch.dataset import Dataset, Example, SplitSpec, load_top_tsv, make_split
from treepatch.metrics import per_class_tp_f1, tp_f1
from treepatch.model import load_checkpoint
from treepatch.regularizers import (FisherAccumulator, ParamLayout,
                                    ParamVector, RegConfig, penalty)
from treepatch.sampling import SamplerConfig, build_replay, epoch_plan
from treepatch.treebank import parse_top, serialize


def _ok(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


def test_criterion_1_tp_f1_worked_example():
    start = time.time()
    gold = parse_top(
        "[IN:GET_DEPARTURE when should i leave for my "
        "[SL:DESTINATION [IN:GET_EVENT [SL:NAME_EVENT dentist ] "
        "[SL:CATEGORY_EVENT appointment ] ] ] at [SL:TIME_ARRIVAL 4 pm ] ]")
    pred = parse_top(
        "[IN:GET_DEPARTURE when should i leave for my "
        "[SL:DESTINATION [IN:GET_EVENT [SL:NAME_EVENT doctor ] "
        "[SL:CATEGORY_EVENT appointment ] ] ] at [SL:TIME_ARRIVAL 4 pm ] ]")
    report = tp_f1([gold], [pred])
    assert report.n_correct == 2
    assert report.n_predicted == 4
    assert report.n_expected == 4
    assert report.f1 == 0.5
    assert per_class_tp_f1([gold], [pred], "SL:NAME_EVENT").f1 == 0.0
    assert time.time() - start < 1.0
    _ok(1, "tp-f1 worked example")


def test_criterion_2_regularizer_gradient_suite():
    start = time.time()
    layout = ParamLayout((("encoder", 4), ("intent_head", 3), ("tag_head", 5)))
    rng = np.random.default_rng(2024)
    step = 1e-5
    for kind in ("movenorm", "ewc"):
        for form in ("squared", "norm"):
            for _ in range(100):
                theta = ParamVector(layout, rng.normal(size=layout.size))
                prev = ParamVector(layout, rng.normal(size=layout.size))
                fisher = rng.random(layout.size) + 0.05
                cfg = RegConfig(kind=kind, form=form,
                                strength=float(rng.random() * 10 + 0.01))
                _, grad = penalty(theta, prev, fisher, cfg)
                for i in range(layout.size):
                    hi, lo = theta.copy(), theta.copy()
                    hi.values[i] += step
                    lo.values[i] -= step
                    fd = (penalty(hi, prev, fisher, cfg)[0]
                          - penalty(lo, prev, fisher, cfg)[0]) / (2 * step)
                    scale = max(abs(fd), abs(grad.values[i]), 1e-8)
                    assert abs(grad.values[i] - fd) / scale <= 1e-4
    assert time.time() - start < 10.0
    _ok(2, "regularizer gradients vs finite differences")


def test_criterion_3_fisher_oracle():
    layout = ParamLayout((("g", 16),))
    rng = np.random.default_rng(5)
    stream = rng.normal(size=(257, 16)) * rng.random(16) * 3
    acc = FisherAccumulator(layout)
    for g in stream:
        acc.update(g)
    brute = np.zeros(16)
    for g in stream:  # independent brute-force mean of squares
        brute += g * g
    brute /= len(stream)
    assert np.abs(acc.fisher() - brute).max() <= 1e-12
    _ok(3, "fisher accumulator vs brute-force mean of squared gradients")


def _id_dataset(prefix, n):
    exs = tuple(
        Example(id=f"{prefix}:{i}", query=f"tok{i}",
                tree=parse_top(f"[IN:A tok{i} ]"))
        for i in range(n))
    return Dataset(exs)


def test_criterion_4_sampler_proportions():
    d1 = _id_dataset("old", 1000)
    d2 = _id_dataset("new", 50)
    for p, expected in [(0.0, 0), (0.1, 100), (0.5, 500), (1.0, 1000)]:
        for mode in ("replay", "sample"):
            plan = epoch_plan(d1, d2, SamplerConfig(mode=mode, p=p, seed=3), 0)
            assert plan.n_old == expected

    # sample mode: per-example inclusion over 50 epochs within p +/- 0.05
    p, epochs = 0.1, 50
    cfg = SamplerConfig(mode="sample", p=p, seed=11)
    new_ids = set(d2.ids())
    counts = {eid: 0 for eid in d1.ids()}
    for epoch in range(epochs):
        for eid in set(epoch_plan(d1, d2, cfg, epoch).ids) - new_ids:
            counts[eid] += 1
    freqs = np.array(list(counts.values())) / epochs
    assert np.all(np.abs(freqs - p) <= 0.05)

    # replay mode: the old-id set never changes across epochs
    cfg = SamplerConfig(mode="replay", p=0.2, seed=11)
    olds = {frozenset(epoch_plan(d1, d2, cfg, e).ids) - new_ids
            for e in range(10)}
    assert olds == {frozenset(build_replay(d1, 0.2, cfg.seed))}
    _ok(4, "sampler proportions, inclusion frequency, replay invariance")


def test_criterion_5_round_trip_10000_trees():
    grammar = builtin_grammar()
    train, test = generate(grammar, GenConfig(seed=99, n_train=9000, n_test=1000))
    failures = 0
    for ex in list(train) + list(test):
        if parse_top(serialize(ex.tree)) != ex.tree:
            failures += 1
    assert failures == 0
    _ok(5, "10000-tree parse/serialize round trip")


EXP_BASE = {
    "seed": 1,
    "data": {"n_train": 5000, "n_test": 1000},
    "split": {"target_class": "SL:ORGANIZER_EVENT", "percentage": 95.0},
    "train": {"lr": 0.5, "batch_size": 16, "max_epochs": 12,
              "eval_every": 200, "patience": 10},
}
TARGET = "SL:ORGANIZER_EVENT"


@pytest.fixture(scope="module")
def experiment():
    start = time.time()
    cfg = harness.ExperimentConfig.from_dict(EXP_BASE)
    bundle = harness.prepare(cfg)
    scratch_res, scratch_rep = harness.cmd_train(cfg, bundle, on="all")
    prev_res, _ = harness.cmd_train(cfg, bundle, on="d1")

    def finetune(over):
        c = harness.ExperimentConfig.from_dict(harness._deep_merge(EXP_BASE, over))
        _, rep = harness.cmd_finetune(c, bundle, prev_res.best)
        harness.cmd_compare(rep, scratch_rep, TARGET)
        return rep

    naive = finetune({"sampler": {"mode": "sample", "p": 0.0},
                      "reg": {"kind": "none", "strength": 0.0},
                      "train": {"max_epochs": 60, "eval_every": 100}})
    ewc_runs = {
        lam: finetune({"sampler": {"mode": "sample", "p": 0.2},
                       "reg": {"kind": "ewc", "strength": lam},
                       "train": {"max_epochs": 8, "eval_every": 100}})
        for lam in (1.0, 10.0, 100.0)
    }
    return {"scratch": scratch_rep, "naive": naive, "ewc": ewc_runs,
            "elapsed": time.time() - start}


def test_criterion_6a_naive_finetuning_forgets(experiment):
    degraded = experiment["naive"].degradation["degraded_count"]
    assert degraded >= 1, "naive fine-tuning must degrade at least one class"
    _ok(6, f"(a) naive fine-tuning degrades {degraded} classes by > 2 sigma")


def _within_two_sigma(report, scratch_rep):
    scratch_score = scratch_rep.final_record["per_class"][TARGET]
    floor = scratch_score["mean"] - 2 * scratch_score["std"]
    return report.final_record["per_class"][TARGET]["mean"] >= floor


def _tuned_lambda(experiment):
    for lam, rep in sorted(experiment["ewc"].items()):
        if (rep.degradation["degraded_count"] == 0
                and _within_two_sigma(rep, experiment["scratch"])):
            return lam
    return None


def test_criterion_6b_ewc_sample_preserves(experiment):
    lam = _tuned_lambda(experiment)
    assert lam is not None, "no lambda in {1,10,100} eliminates forgetting"
    _ok(6, f"(b) ewc(lambda={lam})+sample(0.2): 0 degraded classes, "
           f"target within 2 sigma of scratch")


def test_criterion_6c_parity_within_20_percent(experiment):
    lam = _tuned_lambda(experiment)
    assert lam is not None
    rep = experiment["ewc"][lam]
    assert rep.steps_to_parity is not None
    assert rep.relative_steps <= 20.0
    _ok(6, f"(c) parity at {rep.relative_steps:.1f}% of scratch steps")


def test_criterion_6_runtime(experiment):
    assert experiment["elapsed"] <= 600.0
    _ok(6, f"runtime {experiment['elapsed']:.0f}s <= 600s")


def test_criterion_7_byte_identical_reports(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "seed": 13,
        "data": {"n_train": 400, "n_test": 120},
        "split": {"target_class": "SL:ORGANIZER_EVENT", "percentage": 90.0},
        "train": {"lr": 0.5, "batch_size": 16, "max_epochs": 3,
                  "eval_every": 50, "patience": 10},
    }))
    blobs = []
    for name in ("a", "b"):
        report = tmp_path / f"{name}.json"
        ckpt = tmp_path / f"{name}.ckpt"
        assert cli_main(["train", "--config", str(cfg_path), "--on", "all",
                         "--ckpt", str(ckpt), "--report", str(report)]) == 0
        blobs.append((report.read_bytes(), ckpt.read_bytes()))
    assert blobs[0][0] == blobs[1][0], "reports differ between invocations"
    assert blobs[0][1] == blobs[1][1], "checkpoints differ between invocations"
    _ok(7, "byte-identical reports and checkpoints across invocations")


# sha256 of the criterion-7 config's outputs. A change that alters reports
# or checkpoints on purpose (ROADMAP items 3 and 5) re-pins these values and
# lists the old and new ones in CHANGES.md.
PINNED_SHA256 = {
    "all.json":
        "a06737126bc297103d0f9b9993f777fdc7940c193fbbe9bc6a5abfd7fb727f1d",
    "all.ckpt":
        "d838609a450c6e9c2fba2b1f47cd4478fbd7d7479ec322aad4eb83c9f715a2a4",
    "eval.json":
        "aadf5965d5af554dff549a64ebc002b833084437deca08c64befb3e263337493",
    "d1.ckpt":
        "ef45a09ec0eff345d455728a077cc27a9521462c6e7226370d1923e4f441ad09",
    "ft.json":
        "473ab451b289a6e3ea3784a438493c85bcbaa73fc83c5e7b47253a74aa0bf745",
    "ft.ckpt":
        "451d9370d76c00136faf78fd91e2fead7284f36d4283a61add62635ed1a8c412",
    # naive fine-tune: kind "none" takes the sparse step from a prev
    "naive.json":
        "d6f8fe862d0f0486628a509e29e32d30e6e059eb22f6d33e540065b489aac2ff",
    "naive.ckpt":
        "e4ab2f7de4d1e079b377d537954cdd31f4d35df2b1c2291ce74207cafab88eb5",
    # replay-mode move-norm with a frozen head: the fused step, freezing and
    # the replay buffer
    "replay_mn.json":
        "f01deccb2b9f83e1e45cc45a94a27e1b8ba4aa8a9cc606f490ef9137aca8294d",
    "replay_mn.ckpt":
        "848b03292080b8eaff7d46fb24a917c02353fc9e3a21818e7b5ba34aea2e303e",
}


def test_criterion_7_outputs_match_pinned_digests(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "seed": 13,
        "data": {"n_train": 400, "n_test": 120},
        "split": {"target_class": "SL:ORGANIZER_EVENT", "percentage": 90.0},
        "train": {"lr": 0.5, "batch_size": 16, "max_epochs": 3,
                  "eval_every": 50, "patience": 10},
    }))
    config, out = ["--config", str(cfg_path)], str(tmp_path)
    for argv in (
            ["gen", *config, "--out-dir", out],
            ["train", *config, "--on", "all", "--ckpt", f"{out}/all.ckpt",
             "--report", f"{out}/all.json"],
            ["evaluate", "--ckpt", f"{out}/all.ckpt", "--test",
             f"{out}/test.tsv", "--k", "5", "--report", f"{out}/eval.json"],
            ["train", *config, "--on", "d1", "--ckpt", f"{out}/d1.ckpt",
             "--report", f"{out}/d1.json"],
            ["finetune", *config, "--preset", "ewc_sample_20",
             "--prev", f"{out}/d1.ckpt", "--ckpt", f"{out}/ft.ckpt",
             "--report", f"{out}/ft.json"],
            ["finetune", *config, "--set", "sampler.p=0",
             "--set", "reg.kind=none", "--prev", f"{out}/d1.ckpt",
             "--ckpt", f"{out}/naive.ckpt", "--report", f"{out}/naive.json"],
            ["finetune", *config, "--set", "sampler.mode=replay",
             "--set", "reg.kind=movenorm", "--set", "reg.strength=1.0",
             "--set", 'freeze=["intent_head"]', "--prev", f"{out}/d1.ckpt",
             "--ckpt", f"{out}/replay_mn.ckpt",
             "--report", f"{out}/replay_mn.json"]):
        assert cli_main(argv) == 0, argv
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED_SHA256}
    assert got == PINNED_SHA256
    _ok(7, "reports and checkpoints match the pinned sha256 values")


TOP_TRAIN = os.environ.get("TOP_TRAIN_TSV", "data/top/train.tsv")


@pytest.mark.skipif(not os.path.exists(TOP_TRAIN),
                    reason="public TOP dataset not present "
                           "(set TOP_TRAIN_TSV to its train file)")
def test_criterion_8_top_organizer_event_split():
    data = load_top_tsv(TOP_TRAIN, lenient=True)
    result = make_split(data, SplitSpec("SL:ORGANIZER_EVENT", 95, seed=0))
    old = sum("SL:ORGANIZER_EVENT" in ex.classes for ex in result.d1)
    new = sum("SL:ORGANIZER_EVENT" in ex.classes for ex in result.d2)
    assert abs(old - 15) <= 2
    assert abs(new - 301) <= 16
    _ok(8, f"TOP organizer_event 95 split: {old} old / {new} new")
