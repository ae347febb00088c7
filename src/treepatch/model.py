"""Desk-scale intent+slot tagger trained with hand-written gradients.

Two linear heads read the hashed features of each token directly, with
no encoder between them: an intent classifier over the mean of a query's
token features and a per-token BIO slot tagger. Tag sequences decode to
depth-2 bracket trees. The flat parameter vector keeps intent_head /
tag_head as named groups so freeze masks and per-group bookkeeping line up
with the two heads.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .regularizers import (FisherAccumulator, FreezeMask, LayoutMismatch,
                           ParamLayout, ParamVector, RegConfig, SparseGrad,
                           anchored_step)
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


def featurize(query, feature_dim):
    """Per-token hashed feature indices of one query: the sorted distinct
    ids of its word, prev, next and bigram features (see encode)."""
    return [row[row >= 0] for row in encode([query], feature_dim).feats]


def _softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def tag_vocab(slots):
    """BIO tag vocabulary: O, then B-/I- for each slot in order."""
    return ("O",) + tuple(f"{bio}-{slot}" for slot in slots for bio in "BI")


GROUPS = ("intent_head", "tag_head")  # parameter groups, in order


def make_layout(feature_dim, n_intents, n_tags):
    return ParamLayout(tuple(zip(GROUPS, (
        n_intents * feature_dim + n_intents, n_tags * feature_dim + n_tags))))


@dataclass
class TaggerModel:
    intents: tuple  # intent label vocab, fixed order
    slots: tuple  # slot label vocab, fixed order
    feature_dim: int = 4096
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

    @cached_property
    def intent_ids(self):
        return {label: i for i, label in enumerate(self.intents)}

    @cached_property
    def tag_ids(self):
        return {label: i for i, label in enumerate(self.tags)}

    @property
    def layout(self):
        return make_layout(self.feature_dim, len(self.intents), len(self.tags))

    @classmethod
    def init(cls, intents, slots, feature_dim=4096):
        return cls(tuple(sorted(intents)), tuple(sorted(slots)), feature_dim)

    def _views(self, theta=None):
        theta = theta if theta is not None else self.theta
        n_int, n_tag, w = len(self.intents), len(self.tags), self.feature_dim
        ih = theta.group("intent_head")
        th = theta.group("tag_head")
        return {
            "W_int": ih[: n_int * w].reshape(n_int, w),
            "b_int": ih[n_int * w:],
            "W_tag": th[: n_tag * w].reshape(n_tag, w),
            "b_tag": th[n_tag * w:],
        }


MAX_FEATS = 4  # word, prev, next and bigram: at most four ids per token


@dataclass(frozen=True)
class Encoded:
    """Queries as flat arrays, the input of the batched kernel.

    feats: (tokens, MAX_FEATS) hashed feature ids of each token, unused
    slots -1; offsets: (examples + 1,) where each example's tokens start and
    end. intents (examples,) and tags (tokens,) are target ids, None when
    the queries are only to be predicted.
    """

    feats: np.ndarray
    offsets: np.ndarray
    intents: np.ndarray = None
    tags: np.ndarray = None

    def __len__(self):
        return len(self.offsets) - 1

    @cached_property
    def lengths(self):
        return np.diff(self.offsets)

    @cached_property
    def positions(self):
        """(examples, longest length) token index of each example's t-th
        token; len(feats), one past the last token, where it has none."""
        t = np.arange(self.lengths.max())
        return np.where(t < self.lengths[:, None], self.offsets[:-1, None] + t,
                        len(self.feats))

    def take(self, rows):
        """The examples at `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        lengths = self.lengths[rows]
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        tokens = (np.repeat(self.offsets[rows] - offsets[:-1], lengths)
                  + np.arange(offsets[-1]))
        if self.intents is None:
            return Encoded(self.feats[tokens], offsets)
        return Encoded(self.feats[tokens], offsets, self.intents[rows],
                       self.tags[tokens])

    @classmethod
    def concat(cls, parts):
        lengths = np.concatenate([p.lengths for p in parts])
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(np.concatenate([p.feats for p in parts]), offsets,
                   np.concatenate([p.intents for p in parts]),
                   np.concatenate([p.tags for p in parts]))


def _hashes(prefix, words, dim):
    return np.array([zlib.crc32(f"{prefix}{w}".encode("utf-8")) for w in words],
                    dtype=np.int64) % dim


def encode(queries, feature_dim, targets=None):
    """Encoded batch of whitespace-tokenized queries and, for training, one
    (intent id, tag ids) pair per query (from encode_targets).

    Each token's features are the crc32 hashes, modulo feature_dim, of
    "w=tok", "prev=p", "next=n" and "bi=p_tok", where p and n are its
    neighbours or "<s>"/"</s>" at the query's ends; its row of feats holds
    their distinct ids in ascending order, then -1. Every distinct word and
    every distinct (prev, word) pair of the call is hashed once."""
    token_lists = [q.split() for q in queries]
    lengths = np.array([len(toks) for toks in token_lists], dtype=np.int64)
    if (lengths == 0).any():
        raise EmptyQuery("query has no tokens")
    offsets = np.zeros(len(queries) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    # vocabulary ids of this call; the sentinels are ids 0 and 1, and a
    # literal "<s>" token is the same string, hence the same features
    vocab = {"<s>": 0, "</s>": 1}
    word = np.array([vocab.setdefault(tok, len(vocab))
                     for toks in token_lists for tok in toks], dtype=np.int64)
    words = list(vocab)
    prev, nxt = np.empty_like(word), np.empty_like(word)
    prev[1:], nxt[:-1] = word[:-1], word[1:]
    prev[offsets[:-1]], nxt[offsets[1:] - 1] = 0, 1
    pairs, pair_of_token = np.unique(prev * len(words) + word,
                                     return_inverse=True)
    pair_prev, pair_word = np.divmod(pairs, len(words))
    bigram = _hashes("bi=", [f"{words[p]}_{words[w]}" for p, w in
                             zip(pair_prev.tolist(), pair_word.tolist())],
                     feature_dim)
    feats = np.sort(np.stack([
        _hashes("w=", words, feature_dim)[word],
        _hashes("prev=", words, feature_dim)[prev],
        _hashes("next=", words, feature_dim)[nxt],
        bigram[pair_of_token]], axis=1), axis=1)
    # a repeated id becomes feature_dim, above every id, so that a second
    # sort moves it behind the distinct ones
    feats[:, 1:][feats[:, 1:] == feats[:, :-1]] = feature_dim
    feats.sort(axis=1)
    feats[feats == feature_dim] = -1
    if targets is None:
        return Encoded(feats, offsets)
    if any(len(tags) != n for n, (_, tags) in zip(lengths.tolist(), targets)):
        raise DimMismatch("tag targets do not align with tokens")
    tags = [np.asarray(tags, dtype=np.int64) for _, tags in targets]
    return Encoded(feats, offsets,
                   np.array([intent for intent, _ in targets], dtype=np.int64),
                   np.concatenate([np.empty(0, dtype=np.int64), *tags]))


def _column_sums(W, feats):
    """(tokens, rows of W): per token, the columns of W at its feature ids,
    added slot by slot in order, as W[:, idx].sum(axis=1) adds them."""
    out = np.zeros((len(feats), W.shape[0]))
    for j in range(MAX_FEATS):
        live = feats[:, j] >= 0
        if live.all():
            out += W.T[feats[:, j]]
        else:
            out[live] += W.T[feats[live, j]]
    return out


def _ordered_sums(blocks):
    """Sum over axis 1 of (n, length, width) blocks, one position after the
    other: the order in which np.stack(rows).sum(axis=0) adds rows.
    np.add.reduceat would sum each segment pairwise, which differs in the
    last bits."""
    out = blocks[:, 0].copy()
    for t in range(1, blocks.shape[1]):
        out += blocks[:, t]
    return out


def _segment_sums(X, batch):
    """(examples, width): per example, the sum of its tokens' rows of X."""
    padded = np.concatenate([X, np.zeros((1, X.shape[1]))])
    return _ordered_sums(padded[batch.positions])


def _total(X, batch):
    """Sum of X's token rows: per example, then over examples, in the order
    the per-example loop added them."""
    return _ordered_sums(_segment_sums(X, batch)[None])[0]


def forward(model, batch):
    """(intent distributions (examples, intents), tag distributions
    (tokens, tags)) for an Encoded batch."""
    v = model._views()
    int_logits = (_segment_sums(_column_sums(v["W_int"], batch.feats), batch)
                  / batch.lengths[:, None] + v["b_int"])
    tag_logits = _column_sums(v["W_tag"], batch.feats) + v["b_tag"]
    return _softmax(int_logits), _softmax(tag_logits)


def encode_targets(model, example):
    """(intent id, per-token tag ids) for a gold tree; tokens inside a
    top-level slot get B-/I- tags, everything else O."""
    intent = example.tree.root.name
    if intent not in model.intent_ids:
        raise UnknownLabel(intent)
    tag_ids = []
    ids = model.tag_ids
    for child in example.tree.root.children:
        if isinstance(child, str):
            tag_ids.append(0)
        else:
            if "B-" + child.name not in ids:
                raise UnknownLabel(child.name)
            n_leaves = _count_leaves(child)
            tag_ids.append(ids["B-" + child.name])
            tag_ids.extend([ids["I-" + child.name]] * (n_leaves - 1))
    return model.intent_ids[intent], np.array(tag_ids, dtype=np.int64)


def _count_leaves(node):
    n = 0
    for child in node.children:
        n += 1 if isinstance(child, str) else _count_leaves(child)
    return n


def _column_index(start, n_rows, row_width, cols):
    """Flat positions of columns `cols` of an (n_rows, row_width) matrix
    stored row-major from `start`, row by row."""
    return (start + np.arange(n_rows)[:, None] * row_width + cols).ravel()


def loss_and_grad(model, batch):
    """Mean cross-entropy (intent + per-token tags) of an Encoded batch
    with targets, and its gradient: a SparseGrad over the coordinates the
    batch touches. train steps on it and feeds it to the Fisher
    accumulator; an anchoring penalty is added by
    regularizers.anchored_step, not here."""
    B = len(batch)
    if not B:
        raise ModelError("empty batch")
    if batch.intents is None:
        raise ModelError("batch has no targets")
    p_int, p_tag = forward(model, batch)
    T, offsets = batch.lengths, batch.offsets
    example_of_token = np.repeat(np.arange(B), T)
    token_denom = np.repeat(T, T) * B
    tokens = np.arange(len(batch.feats))

    log_int = np.log(np.maximum(p_int[np.arange(B), batch.intents], 1e-300))
    log_tag = np.log(np.maximum(p_tag[tokens, batch.tags], 1e-300))
    loss = 0.0
    for b in range(B):
        loss -= log_int[b] / B
        loss -= log_tag[offsets[b]:offsets[b + 1]].sum() / (T[b] * B)

    g_int = p_int / B
    g_int[np.arange(B), batch.intents] -= 1.0 / B
    g_tag = p_tag / token_denom[:, None]
    g_tag[tokens, batch.tags] -= 1.0 / token_denom

    # gradient rows of [W_int; W_tag] per token, for its feature columns
    token_grad = np.concatenate(
        [(g_int / T[:, None])[example_of_token], g_tag], axis=1)
    # per coordinate, add the entries in (example, token, slot) order, the
    # order of the per-example loop this replaces: bincount adds in input
    # order. block is (width of token_grad, touched columns).
    token_of_entry, slot_of_entry = np.nonzero(batch.feats >= 0)
    cols, col_of_entry = np.unique(batch.feats[token_of_entry, slot_of_entry],
                                   return_inverse=True)
    width = token_grad.shape[1]
    block = np.bincount(
        (np.arange(width) * len(cols) + col_of_entry[:, None]).ravel(),
        weights=token_grad[token_of_entry].ravel(),
        minlength=width * len(cols)).reshape(width, len(cols))

    layout = model.layout
    ih, th = layout.slice_of("intent_head"), layout.slice_of("tag_head")
    n_int, n_tag, w = len(model.intents), len(model.tags), model.feature_dim
    index = [_column_index(ih.start, n_int, w, cols),
             np.arange(ih.start + n_int * w, ih.stop),
             _column_index(th.start, n_tag, w, cols),
             np.arange(th.start + n_tag * w, th.stop)]
    data = [block[:n_int].ravel(), _ordered_sums(g_int[None])[0],
            block[n_int:].ravel(), _total(g_tag, batch)]
    return float(loss), SparseGrad(layout, np.concatenate(index),
                                   np.concatenate(data))


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


PREDICT_CHUNK = 256  # examples per batched forward: bounds its temporaries


def predict_encoded(model, queries, batch):
    """Most likely trees for `queries`, given their Encoded batch."""
    trees = []
    for rows in batches(range(len(batch)), PREDICT_CHUNK):
        chunk = batch.take(rows)
        p_int, p_tag = forward(model, chunk)
        intents = p_int.argmax(axis=1).tolist()
        tags = p_tag.argmax(axis=1).tolist()
        offsets = chunk.offsets.tolist()
        for i, row in enumerate(rows):
            tag_names = [model.tags[t] for t in tags[offsets[i]:offsets[i + 1]]]
            trees.append(decode_tree(queries[row], model.intents[intents[i]],
                                     tag_names))
    return trees


def predict_trees(model, examples):
    queries = [ex.query for ex in examples]
    return predict_encoded(model, queries, encode(queries, model.feature_dim))


@dataclass
class Checkpoint:
    intents: tuple
    slots: tuple
    feature_dim: int
    theta_values: np.ndarray
    fisher_sum_sq: np.ndarray
    fisher_steps: int
    step: int
    config_digest: str = ""
    history: tuple = ()

    def model(self):
        m = TaggerModel(self.intents, self.slots, self.feature_dim)
        m.theta.values[:] = self.theta_values
        return m

    @property
    def layout(self):
        return make_layout(self.feature_dim, len(self.intents),
                           len(tag_vocab(self.slots)))

    def fisher_accumulator(self):
        return FisherAccumulator(self.layout, self.fisher_sum_sq.copy(),
                                 self.fisher_steps)


_MAGIC = b"TPCK0001"


def save_checkpoint(ckpt, path):
    """Single-file container: magic, sha256 of the payload, npz payload."""
    meta = {
        "intents": list(ckpt.intents),
        "slots": list(ckpt.slots),
        "feature_dim": ckpt.feature_dim,
        "hidden_dim": 0,  # kept so that checkpoints keep their bytes
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
    if meta["hidden_dim"] != 0:
        raise DimMismatch(f"{path}: hidden_dim {meta['hidden_dim']!r}; only "
                          f"the linear model (hidden_dim 0) is supported")
    body = payload[8 + header_len:]
    n_theta, n_fisher = meta["n_theta"], meta["n_fisher"]
    theta = np.frombuffer(body[: 8 * n_theta], dtype=np.float64).copy()
    fisher = np.frombuffer(body[8 * n_theta: 8 * (n_theta + n_fisher)],
                           dtype=np.float64).copy()
    ckpt = Checkpoint(
        intents=tuple(meta["intents"]),
        slots=tuple(meta["slots"]),
        feature_dim=int(meta["feature_dim"]),
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


def train(model, examples_by_id, plan_fn, cfg, evaluator, prev=None,
          config_digest=""):
    """Seeded mini-batch SGD over epoch plans.

    plan_fn(epoch_index) -> ordered id list for that epoch (already shuffled).
    evaluator(model) -> record dict with an "em" float; called every
    cfg.eval_every steps and once at the end. Early stopping after
    cfg.patience evaluations without an EM improvement; the checkpoint with
    the best EM is returned. An example is encoded when an epoch plan first
    draws it; examples no plan draws are never looked at.

    prev, the previous Checkpoint of a fine-tune, is its anchor: its theta
    is theta_prev, its Fisher mean the EWC weights (None when it recorded no
    step, so that EWC raises MissingFisher) and its Fisher sums the start of
    this run's squared-gradient accumulation, which otherwise starts empty
    at the first step. A prev of another layout, or a penalty without its
    anchor, raises before any example is encoded. Every batch takes the one
    step regularizers.anchored_step returns.
    """
    if prev is None:
        theta_prev = fisher_prev = None
        fisher_acc = FisherAccumulator(model.layout)
    else:
        if prev.layout != model.layout:
            raise LayoutMismatch("the previous checkpoint's layout differs "
                                 "from the model's")
        theta_prev = prev.model().theta
        fisher_acc = prev.fisher_accumulator()
        fisher_prev = fisher_acc.fisher() if fisher_acc.steps else None
    sgd_step = anchored_step(model.theta, theta_prev, fisher_prev, cfg.reg,
                             cfg.lr, cfg.freeze)
    corpus = encode([], model.feature_dim, [])  # the examples drawn so far
    row_of = {}  # example id -> its row in corpus

    history = []
    best_em = -1.0
    best_ckpt = None
    bad_evals = 0
    step = 0
    stopped = False

    def snapshot():
        return Checkpoint(
            intents=model.intents, slots=model.slots,
            feature_dim=model.feature_dim,
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
        epoch_batches = batches(plan_fn(epoch), cfg.batch_size)
        new = list(dict.fromkeys(eid for ids in epoch_batches for eid in ids
                                 if eid not in row_of))
        if new:
            examples = [examples_by_id[eid] for eid in new]
            corpus = Encoded.concat([corpus, encode(
                [ex.query for ex in examples], model.feature_dim,
                [encode_targets(model, ex) for ex in examples])])
            row_of.update(zip(new, range(len(row_of), len(corpus))))
        for batch_ids in epoch_batches:
            batch = corpus.take([row_of[eid] for eid in batch_ids])
            _, data_grad = loss_and_grad(model, batch)
            fisher_acc.update(data_grad)
            sgd_step(data_grad)
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
