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
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import dataset as ds
from . import datagen, metrics, sampling
from .model import (CHUNK, GROUPS, Encoded, ModelError, TaggerModel,
                    TrainConfig, UnknownLabel, bio_spans, compile_batches,
                    encode, encode_examples, gold_targets, predict_ids, train)
from .regularizers import RegConfig, RegError
from .treebank import INTENT_PREFIX, SLOT_PREFIX, serialize
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


# what a leaf must meet beyond its default's type, as (bound, argument);
# the ranges of sampler, reg, split and train.batch_size come from the
# objects they build
LIMITS = {
    "data.kind": ("in", ("synthetic", "tsv", "snips")),
    "data.n_train": (">=", 1),
    "data.n_test": (">=", 1),
    "data.tail_exponent": (">", 0),
    "data.format": ("in", tuple(LOADERS)),
    "freeze": ("all in", GROUPS),
    "model.feature_dim": (">=", 1),
    "model.hidden_dim": ("in", (0,)),  # the tagger is linear
    "train.lr": (">", 0),
    "train.max_epochs": (">=", 1),
    "train.eval_every": (">=", 0),
    "train.patience": (">=", 1),
    "eval.k": (">=", 2),
    "parity.require": ("in", PARITY_REQUIRE),
}

_BOUNDS = {">=": operator.ge, ">": operator.gt,
           "in": lambda value, allowed: value in allowed,
           "all in": lambda values, allowed: all(v in allowed for v in values)}

# the types a leaf takes, by its default's type: a float default takes any
# finite int or float, a None default a string; bools are never numbers
_LEAF_TYPES = {int: (int, "an integer"),
               float: ((int, float), "a finite number"),
               str: (str, "a string"),
               type(None): ((str, type(None)), "a string or null"),
               list: (list, "a list")}


def _check(section, defaults, prefix=""):
    """Raise ConfigError naming the dotted key of the first unknown key,
    section that is not an object, or leaf without its default's type or
    outside its LIMITS."""
    for key, value in section.items():
        dotted = prefix + str(key)
        if key not in defaults:
            raise ConfigError(f"unknown config key {dotted!r}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {dotted!r} must be an "
                                  f"object, got {value!r}")
            _check(value, default, dotted + ".")
            continue
        types, name = _LEAF_TYPES[type(default)]
        if (not isinstance(value, types) or isinstance(value, bool)
                or (isinstance(value, float) and not math.isfinite(value))):
            raise ConfigError(f"{dotted} must be {name}, got {value!r}")
        if dotted in LIMITS:
            bound, arg = LIMITS[dotted]
            if not _BOUNDS[bound](value, arg):
                raise ConfigError(f"{dotted} must be {bound} {arg}, got {value!r}")


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
        if not isinstance(d or {}, dict):
            raise ConfigError(f"a config must be an object, got {d!r}")
        base = DEFAULT_CONFIG
        if preset is not None:
            if preset not in PRESETS:
                raise ConfigError(f"unknown preset {preset!r}; have {sorted(PRESETS)}")
            base = _deep_merge(base, PRESETS[preset])
        merged = _deep_merge(base, d or {})
        _check(merged, DEFAULT_CONFIG)
        data = merged["data"]
        if data["kind"] != "synthetic" and not (data["train_path"]
                                                and data["test_path"]):
            raise ConfigError(f"data.kind {data['kind']!r} needs "
                              f"data.train_path and data.test_path")
        cfg = cls(raw=merged)
        # validate eagerly; each error's message starts with its field
        for section, build, error in (
                ("reg", cfg.reg_config, RegError),
                ("sampler", cfg.sampler_config, sampling.SamplerError),
                ("split", cfg.split_spec, ds.DatasetError),
                ("train", cfg.train_config, ModelError)):
            try:
                build()
            except error as err:
                raise ConfigError(f"{section}.{err}") from err
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
            freeze=frozenset(self.raw["freeze"]))

    def split_spec(self):
        s = self.raw["split"]
        return ds.SplitSpec(target_class=s["target_class"],
                            percentage=float(s["percentage"]),
                            seed=derive_seed(self.seed, "split"),
                            coverage_per_class=int(s["coverage_per_class"]))


@dataclass
class DataBundle:
    """The train and test sets and the D1/D2 split of a run, and the set-up
    the commands on them share, each built at its first use and kept: the
    class sets, the encoded train examples each command's plans can draw,
    per model vocabulary (corpus), and the one scoring state of the test
    set under those classes (eval_cases). A sweep or an experiment that
    runs many commands on one bundle pays for each once, and a single
    command encodes no example it cannot draw. The sets must not change
    after a command has run on the bundle."""

    train: ds.Dataset
    test: ds.Dataset
    split: ds.SplitResult
    _corpora: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def d1(self):
        return self.split.d1

    @property
    def d2(self):
        return self.split.d2

    @cached_property
    def train_classes(self):
        """Every label of the training set."""
        return frozenset(self.train.classes())

    @cached_property
    def classes(self):
        """Every label of the training and test sets, sorted."""
        return tuple(sorted(self.train_classes | self.test.classes()))

    def corpus(self, model, ids):
        """(corpus, row_of) holding at least the train examples `ids` under
        the model's vocabulary (feature_dim, intents, slots), as train reads
        them (model.encode_examples). A corpus kept from an earlier call with
        that vocabulary is returned when it holds every id; else the examples
        of `ids` alone are encoded, in train-set order, and kept. So a command
        encodes only what its plans can draw (a naive fine-tune: d2), and
        commands drawing from one pool, or from a part of a kept one, encode
        nothing. A label the model lacks raises UnknownLabel."""
        ids = set(ids)
        kept = self._corpora.setdefault(
            (model.feature_dim, model.intents, model.slots), [])
        for corpus, row_of in kept:
            if row_of.keys() >= ids:
                return corpus, row_of
        kept.append(encode_examples(
            model, [ex for ex in self.train if ex.id in ids]))
        return kept[-1]

    @cached_property
    def eval_cases(self):
        """The EvalCases of the test set under classes."""
        return EvalCases(self.test, self.classes)


def load_data(cfg):
    d = cfg["data"]
    if d["kind"] == "synthetic":
        grammar = (datagen.load_grammar(d["grammar"]) if d["grammar"]
                   else datagen.builtin_grammar())
        gen_cfg = datagen.GenConfig(seed=cfg.seed, n_train=int(d["n_train"]),
                                    n_test=int(d["n_test"]),
                                    tail_exponent=float(d["tail_exponent"]))
        return datagen.generate(grammar, gen_cfg)
    load = LOADERS["snips" if d["kind"] == "snips" else d["format"]]
    return load(d["train_path"]), load(d["test_path"])


def prepare(cfg):
    train_set, test_set = load_data(cfg)
    split = ds.make_split(train_set, cfg.split_spec())
    return DataBundle(train=train_set, test=test_set, split=split)


class EvalCases:
    """The scoring state of a test set under a list of classes, which every
    evaluator make_evaluator builds from it shares: the cases, distinct
    (query, gold tree) pairs in first-occurrence order, and the case of each
    example; the gold paths of each case (extract_paths) as entries of a
    PathVocab; and, once per model vocabulary and feature_dim, the cases'
    queries encoded with their gold targets and compiled into prediction
    batches (encoded), so that an evaluation does only the work that
    depends on θ.

    Evaluators intern their predicted paths into the same PathVocab, so it
    grows only with the distinct paths predicted so far, never per call. A
    path's id depends on the order paths were first seen, but
    metrics.counts_from_entries adds integer counts per path and class, so
    no record depends on which evaluator or command saw a path first.
    """

    def __init__(self, test_set, classes=None):
        self.classes = sorted(test_set.classes() if classes is None
                              else classes)
        # looked up by query first: a gold tree is compared only with the
        # earlier trees of its query, and never hashed
        cases_of_query = {}  # query -> [(gold tree, case)]
        cases, case_of = [], []
        for ex in test_set:
            known = cases_of_query.setdefault(ex.query, [])
            for tree, case in known:
                if tree == ex.tree:
                    break
            else:
                case = len(cases)
                known.append((ex.tree, case))
                cases.append(ex)
            case_of.append(case)
        self.cases = cases
        self.case_of = np.array(case_of, dtype=np.int64)
        self.tokens = [tok for ex in cases for tok in ex.query.split()]
        self.paths = metrics.PathVocab(self.classes)
        self.gold = self.paths.entries(
            [metrics.extract_paths(ex.tree) for ex in cases])
        self._encoded = {}

    def encoded(self, model):
        """(the Encoded cases with their gold targets, their Compiled
        prediction batches, the path id of each intent's slotless tree)
        under the model's vocabulary, built at the first call with it. The
        batches are the cases' queries compiled without targets in batches
        of CHUNK examples, as predict_trees compiles its queries. A label
        the model lacks gets -1, and so does every token of a tree that is
        not flat, as no prediction (an intent over flat slot spans of the
        query) matches such a tree."""
        vocab = (model.feature_dim, model.intents, model.tags)
        if vocab not in self._encoded:
            targets = [gold_targets(model, ex.tree) for ex in self.cases]
            batch = encode([ex.query for ex in self.cases], model.feature_dim,
                           [(intent, tags if flat else [-1] * len(tags))
                            for intent, tags, flat in targets])
            self._encoded[vocab] = (
                batch,
                compile_batches(Encoded(batch.feats, batch.offsets),
                                range(0, len(batch), CHUNK),
                                model.feature_dim),
                np.array([self.paths.id((x,), "") for x in model.intents]))
        return self._encoded[vocab]


def make_evaluator(cases, k, seed):
    """A new closure computing one evaluation record of a model by scoring
    spans, not trees, once per case of an EvalCases (DataBundle.eval_cases
    keeps a bundle's, so its commands share one).

    Up front: the fold assignment of the test set's examples, kept as a
    (k, cases) matrix of how many examples of each fold belong to each
    case. Each evaluation takes the argmax intents and tags of the cases'
    compiled batches (EvalCases.encoded, compiled at the first call with a
    model vocabulary), reads their slot spans as decode_tree would
    (model.bio_spans) and interns each span's path (its labels, and its
    tokens joined by spaces) into the cases' PathVocab; a case without
    spans has its intent's slotless path. Exact match is the same intent
    and the same repaired tags as the gold targets. A prediction depends on
    its query's tokens alone, so each example's EM hit and path counts are
    its case's, and a fold's sums are the matrix times the per-case hits
    and counts; the record equals evaluation_record of the trees
    predict_trees decodes. No tree is built, and nothing is computed per
    example.
    """
    folds = metrics.fold_indices(len(cases.case_of), k, seed)
    fold_cases = np.stack([np.bincount(cases.case_of[idx],
                                       minlength=len(cases.cases))
                           for idx in folds])
    paths, tokens = cases.paths, cases.tokens

    def evaluator(model):
        batch, batches, slotless_path = cases.encoded(model)
        intent, tag = predict_ids(model, batches)
        start, end, slot, repaired = bio_spans(tag, batch.offsets)
        case_of_span = np.searchsorted(batch.offsets, start, side="right") - 1
        span_ids = [
            paths.id((model.intents[i], model.slots[s]), " ".join(tokens[a:b]))
            for i, s, a, b in zip(intent[case_of_span].tolist(), slot.tolist(),
                                  start.tolist(), end.tolist())]
        spanless = np.flatnonzero(
            np.bincount(case_of_span, minlength=len(intent)) == 0)
        pred_case = np.concatenate([case_of_span, spanless])
        pred = (pred_case, np.concatenate([np.array(span_ids, dtype=np.int64),
                                           slotless_path[intent[spanless]]]),
                np.ones(len(pred_case), dtype=np.int64))
        counts = metrics.counts_from_entries(len(intent), paths.mentions,
                                             cases.gold, pred)
        tags_differ = np.logical_or.reduceat(repaired != batch.tags,
                                             batch.offsets[:-1])
        em_hits = (intent == batch.intents) & ~tags_differ
        return _record(em_hits.astype(np.int64), counts, fold_cases,
                       cases.classes)

    return evaluator


def evaluation_record(gold, pred, folds, classes):
    """One JSON-able record from gold and predicted trees: EM (point and
    folds), global TP-F1, and fold-based per-class TP-F1 scores, aggregated
    per example. This is the tree-based oracle of make_evaluator's span
    scorer, which sums per case; no evaluation calls it."""
    counts = metrics.path_counts([metrics.extract_paths(t) for t in gold],
                                 [metrics.extract_paths(t) for t in pred],
                                 classes)
    em_hits = np.array([serialize(g) == serialize(p) for g, p in zip(gold, pred)],
                       dtype=float)
    fold_f1 = _f1(np.stack([counts[idx, 1:].sum(axis=0) for idx in folds]))
    return {
        "em": float(em_hits.mean()),
        "em_folds": metrics.fold_score([em_hits[idx].mean() for idx in folds]),
        "tp_f1": metrics.report_from_counts(
            *counts[:, 0].sum(axis=0)).as_dict(),
        "per_class": {cls: metrics.fold_score(fold_f1[:, j].tolist())
                      for j, cls in enumerate(classes)},
    }


def _record(hits, counts, fold_cases, classes):
    """evaluation_record's record from per-case EM hits (int64, 0 or 1) and
    counts_from_entries counts, given fold_cases, the (k, cases) number of
    examples of each fold in each case. Each fold's hits and counts are
    integer sums (exact), so a fold's EM, its hits over its size, has the
    bits of the mean of its examples' 0.0/1.0 hits."""
    k, n_cases = fold_cases.shape
    sizes = fold_cases.sum(axis=1)
    fold_hits = fold_cases @ hits
    fold_counts = (fold_cases @ counts.reshape(n_cases, -1)).reshape(
        k, *counts.shape[1:])
    fold_f1 = _f1(fold_counts[:, 1:])
    return {
        "em": int(fold_hits.sum()) / int(sizes.sum()),
        "em_folds": metrics.fold_score((fold_hits / sizes).tolist()),
        "tp_f1": metrics.report_from_counts(
            *fold_counts[:, 0].sum(axis=0)).as_dict(),
        "per_class": {cls: metrics.fold_score(f1) for cls, f1 in
                      zip(classes, fold_f1.T.tolist())},
    }


def _f1(counts):
    """report_from_counts(*c).f1 of each (n_correct, n_predicted,
    n_expected) row c of an int64 array (..., 3), in one numpy pass: the
    same float operations in the same order, with 0.0 where a denominator
    is 0. Counts below 2**53 become floats exactly."""
    correct, predicted, expected = np.moveaxis(counts.astype(float), -1, 0)
    p = np.divide(correct, predicted, out=np.zeros_like(correct),
                  where=predicted != 0)
    r = np.divide(correct, expected, out=np.zeros_like(correct),
                  where=expected != 0)
    return np.divide(2 * p * r, p + r, out=np.zeros_like(correct),
                     where=p + r != 0)


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


def _evaluator(cfg, bundle):
    """A new evaluator of a command, over the bundle's shared EvalCases."""
    return make_evaluator(bundle.eval_cases, int(cfg["eval"]["k"]),
                          derive_seed(cfg.seed, "folds"))


def cmd_train(cfg, bundle, on="all"):
    """Train a fresh model: on="all" gives the full-retraining baseline
    (d1 union d2); on="d1" gives the pre-patch model whose checkpoint carries
    the Fisher estimate. Returns (TrainResult, RunReport)."""
    if on == "all":
        ids = bundle.train.ids()
    elif on == "d1":
        ids = bundle.d1.ids()
    else:
        raise ConfigError(f"train target must be all|d1, got {on!r}")
    classes = bundle.classes
    intents = [c for c in classes if c.startswith(INTENT_PREFIX)]
    slots = [c for c in classes if c.startswith(SLOT_PREFIX)]
    model = TaggerModel.init(intents, slots,
                             feature_dim=int(cfg["model"]["feature_dim"]))
    evaluator = _evaluator(cfg, bundle)
    result = train(model, *bundle.corpus(model, ids),
                   _scratch_plan_fn(sorted(ids), derive_seed(cfg.seed, on)),
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
    carries the forgetting count versus the pre-patch model: degraded_classes
    of the per-class fold scores of the first record (the pre-patch model)
    and of the last, as the records hold them."""
    # only the examples the plans can draw are encoded, so name every label
    # the checkpoint lacks up front, whichever examples the seed draws
    unknown = sorted(bundle.train_classes
                     - set(prev_ckpt.intents) - set(prev_ckpt.slots))
    if unknown:
        raise UnknownLabel("labels missing from the previous checkpoint: "
                           + ", ".join(unknown))
    model = prev_ckpt.model()
    plans = sampling.EpochPlans(bundle.d1, bundle.d2, cfg.sampler_config())
    train_cfg = cfg.train_config(cfg.reg_config())
    evaluator = _evaluator(cfg, bundle)
    before = evaluator(model)

    result = train(model,
                   *bundle.corpus(model, plans.drawn_ids(train_cfg.max_epochs)),
                   lambda epoch: plans(epoch).ids, train_cfg, evaluator,
                   prev=prev_ckpt, config_digest=cfg.digest())

    report = RunReport(kind="finetune", config_digest=cfg.digest(),
                       records=[dict(before, step=0)] + result.history,
                       total_steps=result.total_steps,
                       stopped_early=result.stopped_early,
                       best_step=result.best.step,
                       degradation=metrics.degraded_classes(
                           before["per_class"],
                           result.history[-1]["per_class"]))
    return result, report


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


def _method(name):
    """The config override of a sweep method."""
    if name not in METHODS:
        raise ConfigError(f"unknown method {name!r}; have {sorted(METHODS)}")
    return METHODS[name]


def sweep_cell_config(cfg, method, p, strength):
    override = _deep_merge(_method(method), {"sampler": {"p": p}})
    if override["reg"]["kind"] != "none":
        override = _deep_merge(override, {"reg": {"strength": strength}})
    return ExperimentConfig.from_dict(_deep_merge(cfg.raw, override))


def cmd_sweep(cfg, bundle, prev_ckpt, scratch_report, methods=None,
              p_values=SWEEP_P_DEFAULT, strengths=(10.0,)):
    """One row per (method, p, lambda) cell, plot-ready.

    Each cell derives its own config (hence its own seeds) and is therefore
    reproducible in isolation via cmd_finetune with the same overrides.
    Every cell's config is built, and so checked, before the first cell
    trains."""
    target = cfg["split"]["target_class"]
    require = cfg["parity"]["require"]
    cells = []  # (method, p, strength column, cell config)
    for method in list(methods or METHODS):
        regged = _method(method)["reg"]["kind"] != "none"
        for strength in (strengths if regged else (0.0,)):
            for p in p_values:
                cells.append((method, p, strength if regged else "",
                              sweep_cell_config(cfg, method, p, strength)))
    rows = []
    for method, p, strength, cell_cfg in cells:
        _, report = cmd_finetune(cell_cfg, bundle, prev_ckpt)
        cmd_compare(report, scratch_report, target, require)
        final = report.final_record
        rows.append({
            "method": method,
            "p": p,
            "strength": strength,
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
