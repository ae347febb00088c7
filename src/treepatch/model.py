"""Desk-scale intent+slot tagger trained with hand-written gradients.

One shared hashed feature projection ("encoder", identity when hidden_dim
is 0) feeds two heads: an intent classifier over pooled token features and
a per-token BIO slot tagger. Tag sequences decode to depth-2 bracket trees.
The flat parameter vector keeps encoder / intent_head / tag_head as named
groups so freeze masks and per-group bookkeeping line up with the usual
encoder/decoder/output-head granularity.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .regularizers import (FisherAccumulator, FreezeMask, ParamLayout,
                           ParamVector, RegConfig, apply_freeze, penalty)
from .sampling import batches
from .treebank import Node, ParseTree


class ModelError(ValueError):
    pass


class EmptyQuery(ModelError):
    pass


class DimMismatch(ModelError):
    pass


class ChecksumError(ModelError):
    pass


class UnknownLabel(ModelError):
    pass


def _hash_feature(text, dim):
    return zlib.crc32(text.encode("utf-8")) % dim


def featurize(query, feature_dim):
    """Per-token hashed feature indices: word, prev, next, and bigram."""
    tokens = query.split()
    if not tokens:
        raise EmptyQuery("query has no tokens")
    feats = []
    for t, tok in enumerate(tokens):
        prev = tokens[t - 1] if t > 0 else "<s>"
        nxt = tokens[t + 1] if t + 1 < len(tokens) else "</s>"
        raw = (f"w={tok}", f"prev={prev}", f"next={nxt}", f"bi={prev}_{tok}")
        feats.append(np.array(sorted({_hash_feature(r, feature_dim) for r in raw}),
                              dtype=np.int64))
    return feats


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def tag_vocab(slots):
    """BIO tag vocabulary: O, then B-/I- for each slot in order."""
    return ("O",) + tuple(f"{bio}-{slot}" for slot in slots for bio in "BI")


def make_layout(feature_dim, hidden_dim, n_intents, n_tags):
    width = hidden_dim if hidden_dim > 0 else feature_dim
    enc = hidden_dim * feature_dim + hidden_dim  # zero when linear
    return ParamLayout((
        ("encoder", enc),
        ("intent_head", n_intents * width + n_intents),
        ("tag_head", n_tags * width + n_tags),
    ))


@dataclass
class TaggerModel:
    intents: tuple  # intent label vocab, fixed order
    slots: tuple  # slot label vocab, fixed order
    feature_dim: int = 4096
    hidden_dim: int = 0  # 0 = linear model
    theta: ParamVector = None

    def __post_init__(self):
        self.intents = tuple(self.intents)
        self.slots = tuple(self.slots)
        if self.theta is None:
            self.theta = ParamVector.zeros(self.layout)
        if self.theta.layout.groups != self.layout.groups:
            raise DimMismatch("theta layout does not match vocab/dims")

    @cached_property
    def tags(self):
        return tag_vocab(self.slots)

    @property
    def layout(self):
        return make_layout(self.feature_dim, self.hidden_dim,
                           len(self.intents), len(self.tags))

    @property
    def width(self):
        return self.hidden_dim if self.hidden_dim > 0 else self.feature_dim

    @classmethod
    def init(cls, intents, slots, feature_dim=4096, hidden_dim=0, seed=0):
        model = cls(tuple(sorted(intents)), tuple(sorted(slots)),
                    feature_dim, hidden_dim)
        if hidden_dim > 0:
            rng = np.random.default_rng(seed)
            enc = model.theta.group("encoder")
            enc[:] = rng.normal(0.0, 0.1, enc.size)
        return model

    def _views(self, theta=None):
        theta = theta if theta is not None else self.theta
        n_int, n_tag, w = len(self.intents), len(self.tags), self.width
        ih = theta.group("intent_head")
        th = theta.group("tag_head")
        views = {
            "W_int": ih[: n_int * w].reshape(n_int, w),
            "b_int": ih[n_int * w:],
            "W_tag": th[: n_tag * w].reshape(n_tag, w),
            "b_tag": th[n_tag * w:],
        }
        if self.hidden_dim > 0:
            enc = theta.group("encoder")
            views["W_enc"] = enc[: self.hidden_dim * self.feature_dim].reshape(
                self.hidden_dim, self.feature_dim)
            views["b_enc"] = enc[self.hidden_dim * self.feature_dim:]
        return views

    def copy(self):
        return replace(self, theta=self.theta.copy())


def _encode(model, feats, v):
    """Per-token representations h_t, pre-activations a_t (hidden only)."""
    if model.hidden_dim == 0:
        return None, feats
    a = np.stack([v["W_enc"][:, idx].sum(axis=1) + v["b_enc"] for idx in feats])
    return a, np.tanh(a)


def _head_logits(feats, h, v, model):
    if model.hidden_dim == 0:
        tag_logits = np.stack([v["W_tag"][:, idx].sum(axis=1) + v["b_tag"]
                               for idx in feats])
        int_logits = (np.stack([v["W_int"][:, idx].sum(axis=1) for idx in feats])
                      .mean(axis=0) + v["b_int"])
    else:
        tag_logits = h @ v["W_tag"].T + v["b_tag"]
        int_logits = v["W_int"] @ h.mean(axis=0) + v["b_int"]
    return int_logits, tag_logits


def forward(model, feats):
    """(intent distribution, per-token tag distributions) for one example."""
    if not len(feats):
        raise EmptyQuery("no token features")
    for idx in feats:
        if len(idx) and (idx.min() < 0 or idx.max() >= model.feature_dim):
            raise DimMismatch("feature index out of range")
    v = model._views()
    _, h = _encode(model, feats, v)
    int_logits, tag_logits = _head_logits(feats, h, v, model)
    return _softmax(int_logits), _softmax(tag_logits)


def encode_targets(model, example):
    """(intent id, per-token tag ids) for a gold tree; tokens inside a
    top-level slot get B-/I- tags, everything else O."""
    intent = example.tree.root.name
    if intent not in model.intents:
        raise UnknownLabel(intent)
    intent_id = model.intents.index(intent)
    tag_ids = []
    tags = model.tags
    for child in example.tree.root.children:
        if isinstance(child, str):
            tag_ids.append(0)
        else:
            if child.name not in model.slots:
                raise UnknownLabel(child.name)
            n_leaves = _count_leaves(child)
            tag_ids.append(tags.index("B-" + child.name))
            tag_ids.extend([tags.index("I-" + child.name)] * (n_leaves - 1))
    return intent_id, np.array(tag_ids, dtype=np.int64)


def _count_leaves(node):
    n = 0
    for child in node.children:
        n += 1 if isinstance(child, str) else _count_leaves(child)
    return n


def loss_and_grad(model, batch, reg=None, theta_prev=None, fisher=None):
    """Mean cross-entropy (intent + per-token tags) plus anchoring penalty.

    batch: list of (feats, intent_id, tag_ids). Returns
    (loss, total gradient, data-only gradient); the data gradient is what a
    Fisher accumulator should consume.
    """
    if not batch:
        raise ModelError("empty batch")
    v = model._views()
    grad = ParamVector.zeros(model.layout)
    gv = model._views(grad)
    loss = 0.0
    B = len(batch)
    for feats, intent_id, tag_ids in batch:
        T = len(feats)
        if len(tag_ids) != T:
            raise DimMismatch("tag targets do not align with tokens")
        a, h = _encode(model, feats, v)
        int_logits, tag_logits = _head_logits(feats, h, v, model)
        p_int = _softmax(int_logits)
        p_tag = _softmax(tag_logits)
        loss -= np.log(max(p_int[intent_id], 1e-300)) / B
        loss -= np.log(np.maximum(p_tag[np.arange(T), tag_ids], 1e-300)).sum() / (T * B)

        g_int = p_int / B
        g_int[intent_id] -= 1.0 / B
        g_tag = p_tag / (T * B)
        g_tag[np.arange(T), tag_ids] -= 1.0 / (T * B)

        if model.hidden_dim == 0:
            gv["b_int"] += g_int
            gv["b_tag"] += g_tag.sum(axis=0)
            for t, idx in enumerate(feats):
                gv["W_int"][:, idx] += g_int[:, None] / T
                gv["W_tag"][:, idx] += g_tag[t][:, None]
        else:
            h_pool = h.mean(axis=0)
            gv["W_int"] += np.outer(g_int, h_pool)
            gv["b_int"] += g_int
            gv["W_tag"] += g_tag.T @ h
            gv["b_tag"] += g_tag.sum(axis=0)
            dh = g_tag @ v["W_tag"] + (v["W_int"].T @ g_int) / T
            da = dh * (1.0 - h * h)
            gv["b_enc"] += da.sum(axis=0)
            for t, idx in enumerate(feats):
                gv["W_enc"][:, idx] += da[t][:, None]

    data_grad = grad.copy()
    if reg is not None and reg.kind != "none":
        pen_value, pen_grad = penalty(model.theta, theta_prev, fisher, reg)
        loss += pen_value
        grad.values += pen_grad.values
    return float(loss), grad, data_grad


def decode_tree(query, intent, tags):
    """Depth-2 tree from BIO tags; an orphan I-X acts as B-X."""
    tokens = query.split()
    if not tokens:
        raise EmptyQuery("query has no tokens")
    children = []
    run_slot, run_tokens = None, []

    def flush():
        nonlocal run_slot, run_tokens
        if run_slot is not None:
            children.append(Node(run_slot, tuple(run_tokens)))
        run_slot, run_tokens = None, []

    for tok, tag in zip(tokens, tags):
        if tag == "O":
            flush()
            children.append(tok)
        else:
            kind, slot = tag.split("-", 1)
            if kind == "I" and run_slot == slot:
                run_tokens.append(tok)
            else:  # B-X, or orphan/mismatched I-X repaired to B-X
                flush()
                run_slot, run_tokens = slot, [tok]
    flush()
    return ParseTree(Node(intent, tuple(children)))


def predict_featurized(model, query, feats):
    """Most likely tree for `query`, given its features from featurize."""
    p_int, p_tag = forward(model, feats)
    intent = model.intents[int(p_int.argmax())]
    tags = [model.tags[int(i)] for i in p_tag.argmax(axis=1)]
    return decode_tree(query, intent, tags)


def predict(model, query):
    return predict_featurized(model, query, featurize(query, model.feature_dim))


def predict_trees(model, examples):
    return [predict(model, ex.query) for ex in examples]


@dataclass
class Checkpoint:
    intents: tuple
    slots: tuple
    feature_dim: int
    hidden_dim: int
    theta_values: np.ndarray
    fisher_sum_sq: np.ndarray
    fisher_steps: int
    step: int
    config_digest: str = ""
    history: tuple = ()

    def model(self):
        m = TaggerModel(self.intents, self.slots, self.feature_dim, self.hidden_dim)
        m.theta.values[:] = self.theta_values
        return m

    @property
    def layout(self):
        return make_layout(self.feature_dim, self.hidden_dim,
                           len(self.intents), len(tag_vocab(self.slots)))

    def fisher_accumulator(self):
        return FisherAccumulator(self.layout, self.fisher_sum_sq.copy(),
                                 self.fisher_steps)

    def fisher(self):
        return self.fisher_accumulator().fisher()


_MAGIC = b"TPCK0001"


def save_checkpoint(ckpt, path):
    """Single-file container: magic, sha256 of the payload, npz payload."""
    meta = {
        "intents": list(ckpt.intents),
        "slots": list(ckpt.slots),
        "feature_dim": ckpt.feature_dim,
        "hidden_dim": ckpt.hidden_dim,
        "fisher_steps": ckpt.fisher_steps,
        "step": ckpt.step,
        "config_digest": ckpt.config_digest,
        "history": list(ckpt.history),
    }
    theta = np.ascontiguousarray(ckpt.theta_values, dtype=np.float64)
    fisher = np.ascontiguousarray(ckpt.fisher_sum_sq, dtype=np.float64)
    meta["n_theta"] = int(theta.size)
    meta["n_fisher"] = int(fisher.size)
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload = (len(header).to_bytes(8, "big") + header
               + theta.tobytes() + fisher.tobytes())
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(hashlib.sha256(payload).digest())
        fh.write(payload)


def load_checkpoint(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(_MAGIC) + 32 or blob[: len(_MAGIC)] != _MAGIC:
        raise ChecksumError(f"{path}: not a checkpoint file")
    digest = blob[len(_MAGIC): len(_MAGIC) + 32]
    payload = blob[len(_MAGIC) + 32:]
    if hashlib.sha256(payload).digest() != digest:
        raise ChecksumError(f"{path}: payload checksum mismatch")
    header_len = int.from_bytes(payload[:8], "big")
    meta = json.loads(payload[8: 8 + header_len].decode("utf-8"))
    body = payload[8 + header_len:]
    n_theta, n_fisher = meta["n_theta"], meta["n_fisher"]
    theta = np.frombuffer(body[: 8 * n_theta], dtype=np.float64).copy()
    fisher = np.frombuffer(body[8 * n_theta: 8 * (n_theta + n_fisher)],
                           dtype=np.float64).copy()
    ckpt = Checkpoint(
        intents=tuple(meta["intents"]),
        slots=tuple(meta["slots"]),
        feature_dim=int(meta["feature_dim"]),
        hidden_dim=int(meta["hidden_dim"]),
        theta_values=theta,
        fisher_sum_sq=fisher,
        fisher_steps=int(meta["fisher_steps"]),
        step=int(meta["step"]),
        config_digest=meta["config_digest"],
        history=tuple(meta["history"]),
    )
    size = ckpt.layout.size
    if n_theta != size or n_fisher != size:
        raise DimMismatch(f"{path}: n_theta {n_theta} and n_fisher {n_fisher} "
                          f"do not match the header's layout size {size}")
    return ckpt


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.1
    batch_size: int = 16
    max_epochs: int = 20
    eval_every: int = 200
    patience: int = 10
    reg: RegConfig = field(default_factory=RegConfig)
    freeze: FreezeMask = field(default_factory=FreezeMask)


@dataclass
class TrainResult:
    best: Checkpoint
    final: Checkpoint
    history: list  # eval records, each with at least {"step", "em"}
    total_steps: int
    stopped_early: bool


def train(model, examples_by_id, plan_fn, cfg, evaluator,
          theta_prev=None, fisher_prev=None, fisher_acc=None,
          start_step=0, config_digest=""):
    """Seeded mini-batch SGD over epoch plans.

    plan_fn(epoch_index) -> ordered id list for that epoch (already shuffled).
    evaluator(model) -> record dict with an "em" float; called every
    cfg.eval_every steps and once at the end. Early stopping after
    cfg.patience evaluations without an EM improvement; the checkpoint with
    the best EM is returned. Squared-gradient importance is accumulated from
    the very first step, into fisher_acc if given.
    """
    if fisher_acc is None:
        fisher_acc = FisherAccumulator(model.layout)
    encoded = {}
    for eid, ex in examples_by_id.items():
        feats = featurize(ex.query, model.feature_dim)
        intent_id, tag_ids = encode_targets(model, ex)
        encoded[eid] = (feats, intent_id, tag_ids)

    history = []
    best_em = -1.0
    best_ckpt = None
    bad_evals = 0
    step = start_step
    stopped = False

    def snapshot():
        return Checkpoint(
            intents=model.intents, slots=model.slots,
            feature_dim=model.feature_dim, hidden_dim=model.hidden_dim,
            theta_values=model.theta.values.copy(),
            fisher_sum_sq=fisher_acc.sum_sq.copy(),
            fisher_steps=fisher_acc.steps,
            step=step, config_digest=config_digest, history=tuple(history))

    def run_eval():
        nonlocal best_em, best_ckpt, bad_evals
        record = dict(evaluator(model))
        record["step"] = step
        history.append(record)
        if record["em"] > best_em:
            best_em = record["em"]
            best_ckpt = snapshot()
            bad_evals = 0
        else:
            bad_evals += 1
        return bad_evals >= cfg.patience

    for epoch in range(cfg.max_epochs):
        plan = plan_fn(epoch)
        for batch_ids in batches(plan, cfg.batch_size):
            batch = [encoded[eid] for eid in batch_ids]
            _, grad, data_grad = loss_and_grad(
                model, batch, cfg.reg, theta_prev,
                fisher_prev if cfg.reg.kind == "ewc" else None)
            fisher_acc.update(data_grad)
            grad = apply_freeze(grad, cfg.freeze)
            model.theta.values -= cfg.lr * grad.values
            step += 1
            if cfg.eval_every and step % cfg.eval_every == 0:
                if run_eval():
                    stopped = True
                    break
        if stopped:
            break

    if not history or history[-1]["step"] != step:
        run_eval()
    final = snapshot()
    if best_ckpt is None:
        best_ckpt = final
    return TrainResult(best=best_ckpt, final=final, history=history,
                       total_steps=step, stopped_early=stopped)
