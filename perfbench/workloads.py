"""The three workloads: what each sets up, runs, digests and checks.

Each workload builds its inputs from the seed with harness.prepare: a
synthetic corpus from treepatch.datagen and the D1/D2 split (95% of
SL:ORGANIZER_EVENT moved into the patch D2). The sizes are scaled down
from the acceptance experiment so that six set-ups and a 25 s timed body
fit in one run; the shape of each experiment is kept.

A workload object has (`tmp` is the run's scratch directory):
  n_test                      test queries scored per evaluator call
  latency                     what evaluate_p50_ms times: "op" when one
                              operation is one evaluate call, else
                              "evaluator" (the evaluator calls inside it)
  setup(seed, tmp)            -> state; what setup_s times
  setup_digest(state, tmp)    sha256 of the set-up's outputs
  op(state)                   -> outputs of one timed operation
  op_digest(state, out, tmp)  sha256 of the operation's reports and checkpoints
  steps(out)                  SGD steps the operation took
  check(state, out, tmp)      problems found by an independent reference
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from treepatch import cli, harness, metrics, model
from treepatch import dataset as ds
from treepatch.treebank import serialize

TARGET = "SL:ORGANIZER_EVENT"
BATCH = 16


def _config(seed, n_train, n_test, train, sampler=None, reg=None):
    raw = {
        "seed": seed,
        "data": {"kind": "synthetic", "n_train": n_train, "n_test": n_test},
        "split": {"target_class": TARGET, "percentage": 95.0},
        "model": {"feature_dim": 4096, "hidden_dim": 0},
        "train": dict({"lr": 0.5, "batch_size": BATCH, "patience": 10}, **train),
        "eval": {"k": 5},
    }
    if sampler is not None:
        raw["sampler"] = sampler
    if reg is not None:
        raw["reg"] = reg
    return harness.ExperimentConfig.from_dict(raw)


def _sha(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "big"))
        h.update(chunk)
    return h.hexdigest()


def _report_bytes(report):
    return json.dumps(report.as_dict(), sort_keys=True).encode("utf-8")


def _file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _ckpt_bytes(ckpt, tmp):
    path = os.path.join(tmp, "digest.ckpt")
    model.save_checkpoint(ckpt, path)
    return _file_bytes(path)


def _reference_problems(label, record, mdl, test_set):
    """Score `mdl` with metrics.exact_match / metrics.tp_f1 (the Counter-based
    reference, not the harness's evaluation path) and compare with `record`."""
    gold = [ex.tree for ex in test_set]
    pred = model.predict_trees(mdl, test_set)
    em = metrics.exact_match(gold, pred)
    tp = metrics.tp_f1(gold, pred).as_dict()
    problems = []
    if record["em"] != em:
        problems.append(f"{label}: em {record['em']} != reference {em}")
    if record["tp_f1"] != tp:
        problems.append(f"{label}: tp_f1 {record['tp_f1']} != reference {tp}")
    return problems


def _best_record(report, ckpt):
    return next(r for r in report.records if r["step"] == ckpt.step)


def _epochs_for(budget, examples_per_epoch):
    """Epochs that come closest to `budget` SGD steps."""
    return max(1, round(budget / math.ceil(examples_per_epoch / BATCH)))


class ScratchTrain:
    """cmd_train(on="all") on 5000 examples, linear model, one epoch.

    Evaluations (every 50 steps on 100 test queries) are about a tenth of the
    operation, so it is almost all SGD steps."""

    n_train, n_test, epochs = 5000, 100, 1
    latency = "evaluator"

    def setup(self, seed, tmp):
        cfg = _config(seed, self.n_train, self.n_test,
                      {"max_epochs": self.epochs, "eval_every": 50})
        return {"cfg": cfg, "bundle": harness.prepare(cfg)}

    def setup_digest(self, state, tmp):
        b = state["bundle"]
        lines = [f"{ex.id}\t{ex.query}\t{serialize(ex.tree)}"
                 for ex in (*b.train, *b.test)]
        return _sha("\n".join(lines).encode("utf-8"),
                    "\n".join(b.d2.ids()).encode("utf-8"))

    def op(self, state):
        return harness.cmd_train(state["cfg"], state["bundle"], on="all")

    def op_digest(self, state, out, tmp):
        result, report = out
        return _sha(_report_bytes(report), _ckpt_bytes(result.best, tmp))

    def steps(self, out):
        return out[1].total_steps

    def check(self, state, out, tmp):
        result, report = out
        expected = self.epochs * math.ceil(self.n_train / BATCH)
        problems = []
        if report.total_steps != expected:
            problems.append(f"total_steps {report.total_steps} != {expected}")
        path = os.path.join(tmp, "check.ckpt")
        model.save_checkpoint(result.best, path)
        loaded = model.load_checkpoint(path)
        if loaded.theta_values.tobytes() != result.best.theta_values.tobytes():
            problems.append("checkpoint round trip changed theta")
        problems += _reference_problems(
            "scratch best", _best_record(report, result.best),
            loaded.model(), state["bundle"].test)
        return problems


class PatchFinetune:
    """The acceptance forgetting experiment at 2000/500 examples.

    Set-up trains the scratch baseline (on D1+D2) and the prev model (on D1)
    for one epoch each. The operation fine-tunes prev naively (p=0, about 150
    steps) and with EWC + 20% supersampling for lambda 1, 10 and 100 (about
    56 steps each), evaluating every 100 steps and before and after each
    run, then attaches steps-to-parity with cmd_compare. Epoch counts are
    set from the split sizes so that the step count, and with it the work,
    hardly depends on how many target examples the seed put into D2."""

    n_train, n_test = 2000, 500
    latency = "evaluator"
    naive_steps, ewc_steps = 150, 56
    lambdas = (1.0, 10.0, 100.0)

    def _cfg(self, seed, **kw):
        return _config(seed, self.n_train, self.n_test, **kw)

    def setup(self, seed, tmp):
        cfg = self._cfg(seed, train={"max_epochs": 1, "eval_every": 0})
        bundle = harness.prepare(cfg)
        _, scratch = harness.cmd_train(cfg, bundle, on="all")
        prev, _ = harness.cmd_train(cfg, bundle, on="d1")
        n_d1, n_d2 = len(bundle.d1), len(bundle.d2)
        naive_epochs = _epochs_for(self.naive_steps, n_d2)
        ewc_epochs = _epochs_for(self.ewc_steps, n_d2 + round(0.2 * n_d1))
        runs = [("naive", self._cfg(
            seed, train={"max_epochs": naive_epochs, "eval_every": 100},
            sampler={"mode": "sample", "p": 0.0},
            reg={"kind": "none", "strength": 0.0}))]
        runs += [(f"ewc{lam:g}", self._cfg(
            seed, train={"max_epochs": ewc_epochs, "eval_every": 100},
            sampler={"mode": "sample", "p": 0.2},
            reg={"kind": "ewc", "strength": lam, "form": "squared"}))
            for lam in self.lambdas]
        return {"bundle": bundle, "scratch": scratch, "prev": prev.best,
                "runs": runs}

    def setup_digest(self, state, tmp):
        return _sha(_report_bytes(state["scratch"]),
                    _ckpt_bytes(state["prev"], tmp))

    def op(self, state):
        out = []
        for label, cfg in state["runs"]:
            result, report = harness.cmd_finetune(cfg, state["bundle"],
                                                  state["prev"])
            compare = harness.cmd_compare(report, state["scratch"], TARGET)
            out.append((label, result, report, compare))
        return out

    def op_digest(self, state, out, tmp):
        chunks = []
        for label, result, report, compare in out:
            chunks += [label.encode("utf-8"), _report_bytes(report),
                       json.dumps(compare, sort_keys=True).encode("utf-8"),
                       _ckpt_bytes(result.best, tmp)]
        return _sha(*chunks)

    def steps(self, out):
        return sum(report.total_steps for _, _, report, _ in out)

    def check(self, state, out, tmp):
        problems = []
        bundle = state["bundle"]
        for (label, cfg), (_, result, report, _) in zip(state["runs"], out):
            p = cfg["sampler"]["p"]
            per_epoch = len(bundle.d2) + round(p * len(bundle.d1))
            expected = cfg["train"]["max_epochs"] * math.ceil(per_epoch / BATCH)
            if report.total_steps != expected:
                problems.append(f"{label}: total_steps {report.total_steps} "
                                f"!= {expected}")
            if report.degradation is None or report.records[0]["step"] != 0:
                problems.append(f"{label}: report lacks the pre-patch record")
            problems += _reference_problems(
                f"{label} best", _best_record(report, result.best),
                result.best.model(), bundle.test)
        return problems


class Evaluate:
    """`treepatch evaluate` through cli.main on a 1000-query test TSV.

    Set-up trains a checkpoint for one epoch and writes it and the test set
    to the run's temporary directory. The operation is read-only: TSV parse,
    checkpoint load and checksum, one evaluator call, report write. No SGD
    step runs in it."""

    n_train, n_test = 2000, 1000
    latency = "op"

    def setup(self, seed, tmp):
        cfg = _config(seed, self.n_train, self.n_test,
                      {"max_epochs": 1, "eval_every": 0})
        bundle = harness.prepare(cfg)
        result, _ = harness.cmd_train(cfg, bundle, on="all")
        state = {"ckpt": os.path.join(tmp, "model.ckpt"),
                 "test": os.path.join(tmp, "test.tsv"),
                 "report": os.path.join(tmp, "evaluate.json")}
        model.save_checkpoint(result.best, state["ckpt"])
        ds.save_tsv(bundle.test, state["test"])
        return state

    def setup_digest(self, state, tmp):
        return _sha(_file_bytes(state["ckpt"]), _file_bytes(state["test"]))

    def op(self, state):
        code = cli.main(["evaluate", "--ckpt", state["ckpt"], "--test",
                         state["test"], "--k", "5", "--report", state["report"]])
        if code != 0:
            raise RuntimeError(f"treepatch evaluate exited with {code}")
        return state["report"]

    def op_digest(self, state, out, tmp):
        return _sha(_file_bytes(out))

    def steps(self, out):
        return 0

    def check(self, state, out, tmp):
        with open(out, encoding="utf-8") as fh:
            record = json.load(fh)
        mdl = model.load_checkpoint(state["ckpt"]).model()
        return _reference_problems("evaluate", record, mdl,
                                   ds.load_tsv(state["test"]))


WORKLOADS = {
    "scratch_train": ScratchTrain,
    "patch_finetune": PatchFinetune,
    "evaluate": Evaluate,
}
