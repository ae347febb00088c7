"""Experiment orchestration: scratch training, fine-tuning on a data patch
with any sampler/regularizer combination, evaluation with fold-based
uncertainty, forgetting counts, and steps-to-parity against full retraining.

Every random component derives its seed from the run seed through
utils.derive_seed, so any run (or sweep cell) reproduces byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import dataset as ds
from . import datagen, metrics, sampling
from .model import (GROUPS, TaggerModel, TrainConfig, UnknownLabel, encode,
                    predict_encoded, train)
from .regularizers import FreezeMask, RegConfig
from .treebank import serialize
from .utils import derive_seed


class ConfigError(ValueError):
    pass


# the combination the experiments point to: EWC anchoring plus supersampling
# 20% of the old data each epoch
PRESETS = {
    "ewc_sample_20": {"sampler": {"mode": "sample", "p": 0.2},
                      "reg": {"kind": "ewc", "strength": 10.0, "form": "squared"}},
}

DEFAULT_CONFIG = {
    "seed": 1,
    "data": {
        "kind": "synthetic",
        "n_train": 5000,
        "n_test": 1000,
        "tail_exponent": 1.0,
        "grammar": None,       # path to a grammar JSON; None = builtin
        "train_path": None,    # for kind=tsv / snips
        "test_path": None,
        "format": "top",       # top | canonical | snips
    },
    "split": {"target_class": "SL:ORGANIZER_EVENT", "percentage": 95.0,
              "coverage_per_class": 1},
    "sampler": {"mode": "sample", "p": 0.2},
    "reg": {"kind": "none", "strength": 0.0, "form": "squared", "epsilon": 1e-12},
    "freeze": [],
    # hidden_dim accepts only 0, the linear tagger; the key stays so that
    # config digests keep their bytes
    "model": {"feature_dim": 4096, "hidden_dim": 0},
    "train": {"lr": 0.5, "batch_size": 16, "max_epochs": 20,
              "eval_every": 200, "patience": 10},
    "eval": {"k": 5},
    "parity": {"require": "both"},  # both | either
}

PARITY_REQUIRE = ("both", "either")

# data.format -> the loader of a train or test file
LOADERS = {"top": ds.load_top_tsv, "canonical": ds.load_tsv,
           "snips": ds.load_snips}


def _reject_unknown_keys(d, defaults, prefix=""):
    for key, value in d.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {prefix + str(key)!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {prefix + str(key)!r} must "
                                  f"be an object, got {value!r}")
            _reject_unknown_keys(value, defaults[key], f"{prefix}{key}.")


def _check_int(raw, dotted, minimum):
    section, key = dotted.split(".")
    value = raw[section][key]
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{dotted} must be an integer >= {minimum}, got {value!r}")


def _deep_merge(base, override):
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict

    @classmethod
    def from_dict(cls, d, preset=None):
        """Defaults, then the preset, then `d`: keys set in `d` win."""
        _reject_unknown_keys(d or {}, DEFAULT_CONFIG)
        base = DEFAULT_CONFIG
        if preset is not None:
            if preset not in PRESETS:
                raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
            base = _deep_merge(base, PRESETS[preset])
        merged = _deep_merge(base, d or {})
        for dotted, minimum in (("eval.k", 2), ("model.feature_dim", 1),
                                ("train.batch_size", 1), ("train.max_epochs", 1),
                                ("train.eval_every", 0), ("train.patience", 1),
                                ("data.n_train", 1), ("data.n_test", 1)):
            _check_int(merged, dotted, minimum)
        hidden_dim = merged["model"]["hidden_dim"]
        if type(hidden_dim) is not int or hidden_dim != 0:
            raise ConfigError(f"model.hidden_dim must be 0 (the tagger is "
                              f"linear), got {hidden_dim!r}")
        lr = merged["train"]["lr"]
        if (not isinstance(lr, (int, float)) or isinstance(lr, bool)
                or not math.isfinite(lr) or lr <= 0):
            raise ConfigError(f"train.lr must be a positive finite number, got {lr!r}")
        if merged["data"]["format"] not in LOADERS:
            raise ConfigError(f"data.format must be one of {tuple(LOADERS)}, "
                              f"got {merged['data']['format']!r}")
        freeze = merged["freeze"]
        if not isinstance(freeze, list) or not all(g in GROUPS for g in freeze):
            raise ConfigError(f"freeze must be a list of parameter groups "
                              f"from {GROUPS}, got {freeze!r}")
        if merged["parity"]["require"] not in PARITY_REQUIRE:
            raise ConfigError(f"parity.require must be one of {PARITY_REQUIRE}, "
                              f"got {merged['parity']['require']!r}")
        cfg = cls(raw=merged)
        cfg.reg_config()  # validate eagerly
        cfg.sampler_config()
        try:
            cfg.split_spec()
        except ds.DatasetError as err:  # its message starts with the field
            raise ConfigError(f"split.{err}") from err
        return cfg

    @classmethod
    def load(cls, path, preset=None):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh), preset=preset)

    def __getitem__(self, key):
        return self.raw[key]

    @property
    def seed(self):
        return int(self.raw["seed"])

    def digest(self):
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode("utf-8")).hexdigest()[:16]

    def sampler_config(self):
        s = self.raw["sampler"]
        return sampling.SamplerConfig(
            mode=s["mode"], p=float(s["p"]),
            seed=derive_seed(self.seed, "sampler"))

    def reg_config(self):
        r = self.raw["reg"]
        return RegConfig(kind=r["kind"], strength=float(r["strength"]),
                         form=r["form"], epsilon=float(r["epsilon"]))

    def train_config(self, reg=None):
        t = self.raw["train"]
        return TrainConfig(
            lr=float(t["lr"]), batch_size=int(t["batch_size"]),
            max_epochs=int(t["max_epochs"]), eval_every=int(t["eval_every"]),
            patience=int(t["patience"]),
            reg=reg if reg is not None else RegConfig(),
            freeze=FreezeMask(frozenset(self.raw["freeze"])))

    def split_spec(self):
        s = self.raw["split"]
        return ds.SplitSpec(target_class=s["target_class"],
                            percentage=float(s["percentage"]),
                            seed=derive_seed(self.seed, "split"),
                            coverage_per_class=int(s["coverage_per_class"]))


@dataclass
class DataBundle:
    train: ds.Dataset
    test: ds.Dataset
    split: ds.SplitResult

    @property
    def d1(self):
        return self.split.d1

    @property
    def d2(self):
        return self.split.d2

    def classes(self):
        """Every label of the training and test sets."""
        return self.train.classes() | self.test.classes()


def load_data(cfg):
    d = cfg["data"]
    if d["kind"] == "synthetic":
        grammar = (datagen.load_grammar(d["grammar"]) if d["grammar"]
                   else datagen.builtin_grammar())
        gen_cfg = datagen.GenConfig(seed=cfg.seed, n_train=int(d["n_train"]),
                                    n_test=int(d["n_test"]),
                                    tail_exponent=float(d["tail_exponent"]))
        return datagen.generate(grammar, gen_cfg)
    if d["kind"] in ("tsv", "snips"):
        if not d["train_path"] or not d["test_path"]:
            raise ConfigError("data.train_path and data.test_path are required")
        load = LOADERS["snips" if d["kind"] == "snips" else d["format"]]
        return load(d["train_path"]), load(d["test_path"])
    raise ConfigError(f"unknown data.kind {d['kind']!r}")


def prepare(cfg):
    train_set, test_set = load_data(cfg)
    split = ds.make_split(train_set, cfg.split_spec())
    return DataBundle(train=train_set, test=test_set, split=split)


def make_evaluator(test_set, k, seed, classes=None):
    """Closure computing one evaluation record. Gold paths and fold
    assignment are computed once up front; the test set is encoded once per
    feature_dim, on the first evaluation that needs it, and each evaluation
    predicts it with batched forwards."""
    gold = [ex.tree for ex in test_set]
    gold_paths = [metrics.extract_paths(t) for t in gold]
    folds = metrics.fold_indices(len(gold), k, seed)
    classes = sorted(test_set.classes() if classes is None else classes)
    queries = [ex.query for ex in test_set]
    encoded_by_dim = {}

    def evaluator(model):
        dim = model.feature_dim
        if dim not in encoded_by_dim:
            encoded_by_dim[dim] = encode(queries, dim)
        pred = predict_encoded(model, queries, encoded_by_dim[dim])
        return evaluation_record(gold, pred, folds, classes,
                                 gold_paths=gold_paths)

    return evaluator


def evaluation_record(gold, pred, folds, classes, gold_paths=None):
    """One JSON-able record: EM (point + folds), global TP-F1, and fold-based
    per-class TP-F1 scores."""
    if gold_paths is None:
        gold_paths = [metrics.extract_paths(t) for t in gold]
    pred_paths = [metrics.extract_paths(t) for t in pred]
    em_hits = np.array([serialize(g) == serialize(p) for g, p in zip(gold, pred)],
                       dtype=float)

    em_folds = metrics.UncertainScore.from_folds(
        [em_hits[idx].mean() for idx in folds])
    counts = metrics.path_counts(gold_paths, pred_paths, classes)
    global_report = metrics.report_from_counts(*counts[:, 0].sum(axis=0))
    fold_counts = [counts[idx].sum(axis=0) for idx in folds]
    per_class = {
        cls: metrics.UncertainScore.from_folds(
            [metrics.report_from_counts(*fold[j]).f1 for fold in fold_counts])
        for j, cls in enumerate(classes, 1)}

    return {
        "em": float(em_hits.mean()),
        "em_folds": em_folds.as_dict(),
        "tp_f1": global_report.as_dict(),
        "per_class": {cls: score.as_dict() for cls, score in per_class.items()},
    }


@dataclass
class RunReport:
    kind: str  # scratch | prev | finetune
    config_digest: str
    records: list
    total_steps: int
    stopped_early: bool
    best_step: int
    degradation: dict = None
    steps_to_parity: int = None
    relative_steps: float = None

    def as_dict(self):
        return dataclasses.asdict(self)

    @property
    def final_record(self):
        return self.records[-1]

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


def _scratch_plan_fn(train_ids, seed):
    ids = list(train_ids)

    def plan_fn(epoch):
        rng = np.random.default_rng(derive_seed(seed, "scratch-epoch", epoch))
        return [ids[i] for i in rng.permutation(len(ids))]

    return plan_fn


def cmd_train(cfg, bundle, on="all"):
    """Train a fresh model: on="all" gives the full-retraining baseline
    (d1 union d2); on="d1" gives the pre-patch model whose checkpoint carries
    the Fisher estimate. Returns (TrainResult, RunReport)."""
    if on == "all":
        by_id = bundle.train.by_id
    elif on == "d1":
        by_id = bundle.d1.by_id
    else:
        raise ConfigError(f"train target must be all|d1, got {on!r}")
    classes = sorted(bundle.classes())
    intents = sorted(c for c in classes if c.startswith("IN:"))
    slots = sorted(c for c in classes if c.startswith("SL:"))
    model = TaggerModel.init(intents, slots,
                             feature_dim=int(cfg["model"]["feature_dim"]))
    evaluator = make_evaluator(bundle.test, int(cfg["eval"]["k"]),
                               derive_seed(cfg.seed, "folds"), classes)
    result = train(model, by_id,
                   _scratch_plan_fn(sorted(by_id), derive_seed(cfg.seed, on)),
                   cfg.train_config(), evaluator, config_digest=cfg.digest())
    report = RunReport(kind="scratch" if on == "all" else "prev",
                       config_digest=cfg.digest(), records=result.history,
                       total_steps=result.total_steps,
                       stopped_early=result.stopped_early,
                       best_step=result.best.step)
    return result, report


def cmd_finetune(cfg, bundle, prev_ckpt):
    """Fine-tune a previous checkpoint on the data patch.

    The method matrix is spanned by sampler.mode x sampler.p x reg.kind:
    naive fine-tuning is p=0 with reg kind "none". EWC reads the Fisher
    estimate recorded in the previous checkpoint. The report additionally
    carries the forgetting count versus the pre-patch model."""
    # training encodes an example only when a plan draws it, so check every
    # label up front rather than whenever a later epoch reaches it
    unknown = sorted(bundle.train.classes()
                     - set(prev_ckpt.intents) - set(prev_ckpt.slots))
    if unknown:
        raise UnknownLabel("labels missing from the previous checkpoint: "
                           + ", ".join(unknown))
    model = prev_ckpt.model()
    sampler = cfg.sampler_config()

    def plan_fn(epoch):
        return sampling.epoch_plan(bundle.d1, bundle.d2, sampler, epoch).ids

    classes = sorted(bundle.classes())
    evaluator = make_evaluator(bundle.test, int(cfg["eval"]["k"]),
                               derive_seed(cfg.seed, "folds"), classes)
    before = evaluator(model)

    result = train(model, bundle.train.by_id, plan_fn,
                   cfg.train_config(cfg.reg_config()), evaluator,
                   prev=prev_ckpt, config_digest=cfg.digest())

    after = result.history[-1]
    degradation = degradation_from_records(before, after)
    report = RunReport(kind="finetune", config_digest=cfg.digest(),
                       records=[dict(before, step=0)] + result.history,
                       total_steps=result.total_steps,
                       stopped_early=result.stopped_early,
                       best_step=result.best.step,
                       degradation=degradation)
    return result, report


def degradation_from_records(before_record, after_record):
    before = {c: metrics.UncertainScore(**{**v, "per_fold": tuple(v["per_fold"])})
              for c, v in before_record["per_class"].items()}
    after = {c: metrics.UncertainScore(**{**v, "per_fold": tuple(v["per_fold"])})
             for c, v in after_record["per_class"].items()}
    return metrics.degraded_classes(before, after).as_dict()


def cmd_evaluate(ckpt, test_set, k, seed=0):
    """Metrics record for a stored checkpoint on a test set."""
    return make_evaluator(test_set, k, seed)(ckpt.model())


def parity_step(finetune_report, scratch_report, target_class, require="both"):
    """First fine-tuning eval step matching full retraining within 2 sigma.

    Thresholds come from the scratch run's final record: target-class TP-F1
    mean - 2 std, and EM mean - 2 std. `require` conjoins or disjoins the two
    conditions. None when parity is never reached (reported as N/A)."""
    if require not in PARITY_REQUIRE:
        raise ConfigError("parity.require must be both|either")
    final = scratch_report.final_record
    cls_score = final["per_class"].get(target_class)
    if cls_score is None:
        raise ConfigError(f"scratch report lacks per-class score for {target_class}")
    f1_floor = cls_score["mean"] - 2 * cls_score["std"]
    em_floor = final["em_folds"]["mean"] - 2 * final["em_folds"]["std"]
    for record in finetune_report.records:
        if record["step"] == 0:
            continue  # the un-finetuned starting point
        got = record["per_class"].get(target_class)
        if got is None:
            continue
        f1_ok = got["mean"] >= f1_floor
        em_ok = record["em_folds"]["mean"] >= em_floor
        hit = (f1_ok and em_ok) if require == "both" else (f1_ok or em_ok)
        if hit:
            return record["step"]
    return None


def cmd_compare(finetune_report, scratch_report, target_class, require="both"):
    """Attach steps-to-parity and relative steps to the fine-tune report."""
    step = parity_step(finetune_report, scratch_report, target_class, require)
    finetune_report.steps_to_parity = step
    finetune_report.relative_steps = (
        None if step is None
        else 100.0 * step / scratch_report.total_steps)
    return {
        "steps_to_parity": step,
        "scratch_total_steps": scratch_report.total_steps,
        "relative_steps": finetune_report.relative_steps,
        "reached": step is not None,
    }


METHODS = {
    "replay": {"sampler": {"mode": "replay"}, "reg": {"kind": "none", "strength": 0.0}},
    "sample": {"sampler": {"mode": "sample"}, "reg": {"kind": "none", "strength": 0.0}},
    "movenorm+replay": {"sampler": {"mode": "replay"}, "reg": {"kind": "movenorm"}},
    "ewc+replay": {"sampler": {"mode": "replay"}, "reg": {"kind": "ewc"}},
    "ewc+sample": {"sampler": {"mode": "sample"}, "reg": {"kind": "ewc"}},
}

SWEEP_P_DEFAULT = (0.0, 0.1, 0.2, 0.5, 1.0)


def sweep_cell_config(cfg, method, p, strength):
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; have {sorted(METHODS)}")
    override = _deep_merge(METHODS[method], {"sampler": {"p": p}})
    if override["reg"]["kind"] != "none":
        override = _deep_merge(override, {"reg": {"strength": strength}})
    return ExperimentConfig.from_dict(_deep_merge(cfg.raw, override))


def cmd_sweep(cfg, bundle, prev_ckpt, scratch_report, methods=None,
              p_values=SWEEP_P_DEFAULT, strengths=(10.0,)):
    """One row per (method, p, lambda) cell, plot-ready.

    Each cell derives its own config (hence its own seeds) and is therefore
    reproducible in isolation via cmd_finetune with the same overrides."""
    methods = list(methods or METHODS)
    target = cfg["split"]["target_class"]
    require = cfg["parity"]["require"]
    rows = []
    for method in methods:
        regged = METHODS[method]["reg"]["kind"] != "none"
        for strength in (strengths if regged else (0.0,)):
            for p in p_values:
                cell_cfg = sweep_cell_config(cfg, method, p, strength)
                _, report = cmd_finetune(cell_cfg, bundle, prev_ckpt)
                cmd_compare(report, scratch_report, target, require)
                final = report.final_record
                rows.append({
                    "method": method,
                    "p": p,
                    "strength": strength if regged else "",
                    "em": final["em"],
                    "em_std": final["em_folds"]["std"],
                    "target_tp_f1": final["per_class"][target]["mean"],
                    "target_tp_f1_std": final["per_class"][target]["std"],
                    "degraded_classes": report.degradation["degraded_count"],
                    "steps": report.total_steps,
                    "steps_to_parity": report.steps_to_parity,
                    "relative_steps": report.relative_steps,
                })
    return rows


def sweep_rows_to_csv(rows, path):
    import csv

    fields = ["method", "p", "strength", "em", "em_std", "target_tp_f1",
              "target_tp_f1_std", "degraded_classes", "steps",
              "steps_to_parity", "relative_steps"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
