"""Desk-scale intent+slot tagger trained with hand-written gradients.

Two linear heads read the hashed features of each token directly, with
no encoder between them: an intent classifier over the mean of a query's
token features and a per-token BIO slot tagger. Tag sequences decode to
depth-2 bracket trees. The flat parameter vector keeps intent_head /
tag_head as named groups so frozen groups and per-group bookkeeping line up
with the two heads.

Each group is its head's weights, then its biases. In memory the weights
are feature-major, a (feature_dim, rows) matrix: the rows of one hashed
feature (one per intent or tag) lie side by side, so a batch's gradient
is a few hundred whole feature rows of each head (a SparseGrad of rows),
and the Fisher update and the SGD step index those rows instead of
columns at stride feature_dim. A Checkpoint holds θ and the Fisher sums
in this memory order too; only its file stores them row-major, (rows,
feature_dim), as files always have, each head's biases last. The
checkpoint code alone knows that order: save_checkpoint and
load_checkpoint share one walk of θ in it (_staged), a few file rows at
a time, so that they need no θ-sized buffer and loading makes no array
but the two it returns.

Queries are encoded once (Encoded; a training set with its targets by
encode_examples); compile_batches, the one pass that cuts them into batches
for prediction and training, makes the one batch form forward reads
(Compiled).
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, pairwise

import numpy as np

from .regularizers import (FisherAccumulator, LayoutMismatch, ParamLayout,
                           ParamVector, RegConfig, SparseGrad, anchored_step)
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
    """Softmax over the last axis of the logits z, computed in z: it
    overwrites its argument and returns it."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def tag_vocab(slots):
    """BIO tag vocabulary: O, then B-/I- for each slot in order."""
    return ("O",) + tuple(f"{bio}-{slot}" for slot in slots for bio in "BI")


GROUPS = ("intent_head", "tag_head")  # parameter groups, in order


def make_layout(feature_dim, n_intents, n_tags):
    """Each head one row per hashed feature, then one row of biases."""
    return ParamLayout(tuple(zip(GROUPS, (
        n_intents * feature_dim + n_intents, n_tags * feature_dim + n_tags))),
        (n_intents, n_tags))


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
        if self.theta.layout != self.layout:
            raise DimMismatch("theta layout does not match vocab/dims")
        self._views_of = None  # (theta's values, their views): see _views
        self._tiles = {}  # row width -> its bincount key tile: see _row_sums

    @cached_property
    def tags(self):
        return tag_vocab(self.slots)

    @cached_property
    def intent_ids(self):
        return {label: i for i, label in enumerate(self.intents)}

    @cached_property
    def bio_ids(self):  # slot s -> its B- and I- ids in tag_vocab: 2s+1, 2s+2
        return {slot: (2 * s + 1, 2 * s + 2) for s, slot in enumerate(self.slots)}

    @cached_property
    def layout(self):
        return make_layout(self.feature_dim, len(self.intents), len(self.tags))

    @classmethod
    def init(cls, intents, slots, feature_dim=4096):
        return cls(tuple(sorted(intents)), tuple(sorted(slots)), feature_dim)

    def _views(self):
        """Views of theta's heads in memory order: W_int (feature_dim,
        intents) and W_tag (feature_dim, tags), feature-major, and the
        biases b_int and b_tag, each head's last row. Made once per theta
        array: a model whose theta is replaced reads the new one."""
        values = self.theta.values
        if self._views_of is None or self._views_of[0] is not values:
            ih, th = self.layout.rows(values)
            self._views_of = values, {"W_int": ih[:-1], "b_int": ih[-1],
                                      "W_tag": th[:-1], "b_tag": th[-1]}
        return self._views_of[1]


MAX_FEATS = 4  # word, prev, next and bigram: at most four ids per token
CHUNK = 256  # examples per batched pass: bounds its temporaries


@dataclass(frozen=True)
class Encoded:
    """Queries as flat arrays, the input of the batched kernel.

    feats: (tokens, MAX_FEATS) hashed feature ids of each token, unused
    slots -1; offsets: (examples + 1,) where each example's tokens start and
    end. intents (examples,) and tags (tokens,) are gold target ids (see
    gold_targets), None when the queries are only to be predicted.
    compile_batches cuts it into the Compiled batches forward reads.
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


def _hashes(prefix, words, dim):
    return np.array([zlib.crc32(f"{prefix}{w}".encode("utf-8")) for w in words],
                    dtype=np.int64) % dim


def encode(queries, feature_dim, targets=None):
    """Encoded batch of whitespace-tokenized queries and, for training or
    scoring, one (intent id, tag ids) pair per query (see gold_targets).

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
    return Encoded(feats, offsets,
                   np.array([intent for intent, _ in targets], dtype=np.int64),
                   np.fromiter(chain.from_iterable(tags for _, tags in targets),
                               dtype=np.int64, count=len(feats)))


def _column_sums(W, slots, n_tokens):
    """(n_tokens, columns of W): per token, the rows of the feature-major W
    at its feature ids, added slot by slot in order, as W[idx].sum(axis=0)
    adds them. slots: a Compiled batch's. The sum starts from the first
    slot's rows, not from zeros: it differs from a zeros start only where a
    token's sum is a zero, whose sign it may keep (-0.0 where +0.0 + -0.0
    gives +0.0), which the softmax cannot show (exp(-0) = exp(+0) = 1).
    The first slot is live for every token (every token has a word
    feature); a first slot that is not starts from zeros at the others."""
    (tokens, ids), *rest = slots
    if tokens is None:
        out = W.take(ids, axis=0)
    else:
        out = np.zeros((n_tokens, W.shape[1]))
        out[tokens] = W.take(ids, axis=0)
    for tokens, ids in rest:
        if tokens is None:
            out += W.take(ids, axis=0)
        else:
            out[tokens] += W.take(ids, axis=0)
    return out


def _row_sums(row_of, X, n_rows, tiles):
    """(n_rows, width of X): row r adds up the rows of X whose row_of is r,
    one after the other. bincount adds in input order, from +0.0, which
    gives the bits of a sum from the first term but for the sign of a zero
    sum: no gradient entry is -0.0, and the softmax cannot show the sign of
    a zero logit (see _column_sums).
    (ndarray.sum(axis=0) would sum a width-1 column pairwise, and
    np.add.reduceat each segment.)

    The bincount keys, row_of[:, None] * width + arange(width), are
    gathered from a key tile, arange(rows * width).reshape(rows, width):
    the one in `tiles` (a model's, TaggerModel._tiles) under X's width,
    made the first time a width is summed and made again, larger, only
    when n_rows exceeds its rows."""
    width = X.shape[1]
    tile = tiles.get(width)
    if tile is None or len(tile) < n_rows:
        tile = tiles[width] = np.arange(n_rows * width).reshape(n_rows, width)
    return np.bincount(tile.take(row_of, axis=0).ravel(), weights=X.ravel(),
                       minlength=n_rows * width).reshape(n_rows, width)


def forward(model, batch):
    """(intent distributions (examples, intents), tag distributions
    (tokens, tags)) of a Compiled batch."""
    v, n = model._views(), len(batch.example_of_token)
    int_logits = (_row_sums(batch.example_of_token,
                            _column_sums(v["W_int"], batch.slots, n),
                            len(batch.lengths), model._tiles)
                  / batch.lengths[:, None] + v["b_int"])
    tag_logits = _column_sums(v["W_tag"], batch.slots, n) + v["b_tag"]
    # the logits are made here, so the softmax may overwrite them
    return _softmax(int_logits), _softmax(tag_logits)


def gold_targets(model, tree):
    """(intent id, per-leaf tag ids, flat) of a gold tree, the one reading
    of its BIO targets: a top-level slot's leaves get its B- id, then I- ids
    (TaggerModel.bio_ids), other top-level tokens O (0). An empty slot gets
    no tag, a label the model lacks -1. flat: each top-level slot holds one
    or more tokens and nothing else, as predicted trees do."""
    bio_ids = model.bio_ids
    tags, flat = [], True
    for child in tree.root.children:
        if isinstance(child, str):
            tags.append(0)
            continue
        n_leaves = 0
        for c in child.children:
            if isinstance(c, str):
                n_leaves += 1
            else:
                n_leaves += _count_leaves(c)
                flat = False
        if n_leaves:
            b, i = bio_ids.get(child.name, (-1, -1))
            tags.append(b)
            tags += [i] * (n_leaves - 1)
        else:
            flat = False
    return model.intent_ids.get(tree.root.name, -1), tags, flat


def encode_targets(model, example):
    """(intent id, per-token tag ids) of a training example, its
    gold_targets. A target label the model lacks (-1) raises UnknownLabel
    naming every label of the example the model lacks."""
    intent, tags, _ = gold_targets(model, example.tree)
    if intent < 0 or -1 in tags:
        raise UnknownLabel(", ".join(sorted(
            example.classes - model.intent_ids.keys() - model.bio_ids.keys())))
    return intent, tags


def encode_examples(model, examples):
    """(corpus, row_of) of training examples, what train reads: the Encoded
    queries with their targets (encode_targets) under the model's
    vocabulary, in the given order, and each example's id -> its row. A
    token's features are hashes of its own and its neighbours' strings, so
    a row's bytes do not depend on the other examples encoded with it:
    each distinct example, a query and one tree object (datagen and
    load_tsv share a tree between equal examples), is encoded once and its
    row repeated (Encoded.take). A label the model lacks raises
    UnknownLabel naming the example's."""
    examples = list(examples)
    distinct = {}  # (query, id of the tree) -> its first example
    for ex in examples:
        distinct.setdefault((ex.query, id(ex.tree)), ex)
    corpus = encode([ex.query for ex in distinct.values()], model.feature_dim,
                    [encode_targets(model, ex) for ex in distinct.values()])
    if len(distinct) < len(examples):
        row = {key: r for r, key in enumerate(distinct)}
        corpus = corpus.take([row[ex.query, id(ex.tree)] for ex in examples])
    return corpus, {ex.id: row for row, ex in enumerate(examples)}


def _count_leaves(node):
    n = 0
    for child in node.children:
        n += 1 if isinstance(child, str) else _count_leaves(child)
    return n


@dataclass(frozen=True)
class Compiled:
    """One batch's θ-independent arrays, the one batch form forward reads
    (see compile_batches). lengths, slots and example_of_token are what
    forward reads; the rest, what the gradient kernel reads besides θ, are
    None in a batch compiled without targets. Each entry (a live feature
    slot of a token) carries its token, its example and its place in rows,
    so the kernel computes no per-entry index: its bincount keys come from
    the model's key tiles (_row_sums). Every place is within the batch, so
    a batch has the same bytes whichever batches, of whatever sizes and
    epochs, were compiled in its pass."""

    lengths: np.ndarray  # (examples,)
    slots: tuple  # per feature slot: (its live tokens or None, their ids)
    example_of_token: np.ndarray  # (tokens,) the example's place in its batch
    intents: np.ndarray = None  # (examples,)
    tags: np.ndarray = None  # (tokens,)
    token_denom: np.ndarray = None  # (tokens,) its example's length x batch size
    token_of_entry: np.ndarray = None  # (entries,) token of each live feature slot
    example_of_entry: np.ndarray = None  # (entries,) its token's example_of_token
    rows: np.ndarray = None  # (touched features + 1,) ascending: the bias row last
    row_of_entry: np.ndarray = None  # (entries,) each entry's place in rows


def compile_batches(batch, starts, feature_dim):
    """The Compiled batches of an Encoded `batch`, cut at `starts`: batch b
    holds the examples from starts[b] (starts[0] is 0, ascending) up to the
    next start or the end, for prediction and for training. Prediction
    cuts uniform batches, range(0, len(batch), CHUNK); a chunk of training
    batches may hold batches of several sizes (compile_epochs). One
    vectorized pass computes every batch's arrays; each batch's are slices
    of them. Only a batch with targets gets the gradient's: an entry is a
    live feature slot of a token, in (token, slot) order, with its token's
    and its example's place in the batch; one np.unique over batch *
    feature_dim + feature gives each batch's touched features and each
    entry's place among them, as np.unique over the batch's features alone
    would. A batch's rows are its touched features, then the heads' bias
    row, feature_dim."""
    n, lengths, offsets = len(batch), batch.lengths, batch.offsets
    starts = np.asarray(starts, dtype=np.int64)  # each batch's first example
    sizes = np.diff(starts, append=n)
    token_bounds = offsets[np.append(starts, n)]
    batch_of_example = np.repeat(np.arange(len(starts)), sizes)
    batch_of_token = np.repeat(batch_of_example, lengths)
    example_of_token = np.repeat(np.arange(n) - starts[batch_of_example],
                                 lengths)
    examples = [slice(*bounds) for bounds in pairwise(starts.tolist() + [n])]
    toks = [slice(*bounds) for bounds in pairwise(token_bounds.tolist())]
    # per feature slot, per batch: its live tokens (each's place in the
    # batch), None when every token's slot is live, and their ids
    slots = []
    for column in batch.feats.T:
        live = np.flatnonzero(column >= 0)
        tokens, ids = live - token_bounds[batch_of_token[live]], column[live]
        bounds = pairwise(np.searchsorted(live, token_bounds).tolist())
        slots.append([(None if hi - lo == tok.stop - tok.start
                       else tokens[lo:hi], ids[lo:hi])
                      for (lo, hi), tok in zip(bounds, toks)])
    grads = [()] * len(starts)
    if batch.intents is not None:
        token_denom = np.repeat(lengths * sizes[batch_of_example], lengths)
        token_of_entry, slot_of_entry = np.nonzero(batch.feats >= 0)
        batch_of_entry = batch_of_token[token_of_entry]
        example_of_entry = example_of_token[token_of_entry]
        keys, key_of_entry = np.unique(
            batch_of_entry * feature_dim
            + batch.feats[token_of_entry, slot_of_entry], return_inverse=True)
        edges = np.arange(len(starts) + 1)  # batch b: keys from b * feature_dim
        key_bounds = np.searchsorted(keys, edges * feature_dim)
        entry_bounds = np.searchsorted(batch_of_entry, edges)
        token_of_entry -= token_bounds[batch_of_entry]
        key_of_entry -= key_bounds[batch_of_entry]
        keys %= feature_dim
        # each batch's touched features, then its bias row
        rows = np.insert(keys, key_bounds[1:], feature_dim)
        grads = [(batch.intents[ex], batch.tags[tok], token_denom[tok],
                  token_of_entry[e0:e1], example_of_entry[e0:e1], rows[r0:r1],
                  key_of_entry[e0:e1])
                 for ex, tok, (e0, e1), (r0, r1) in zip(
                     examples, toks, pairwise(entry_bounds.tolist()),
                     pairwise((key_bounds + edges).tolist()))]
    return [Compiled(lengths[ex], slots_of, example_of_token[tok], *grad) for
            ex, tok, slots_of, grad in zip(examples, toks, zip(*slots), grads)]


def compile_epochs(corpus, plans, batch_size, feature_dim):
    """The Compiled batches of consecutive epochs, in order, as one stream.
    Each of `plans`, an epoch's rows of the Encoded corpus in plan order,
    is cut into batches of batch_size, its last maybe short. Whole batches,
    of one epoch or of several (a patch's epochs are a few batches each),
    are taken from corpus ceil(CHUNK / batch_size) at a time in one
    Encoded.take and compiled in one compile_batches pass, each batch cut
    at its own start. The next epoch's rows are read only when the chunk
    being filled reaches them, so the stream reads `plans` at most one
    chunk ahead of the batches it has yielded. A chunk's arrays stay far
    smaller than θ; the bincount keys of a batch's gradient are not among
    them, but gathered by the step from the model's key tiles (_row_sums),
    a batch's rows of each row width."""
    per_chunk = -(-CHUNK // batch_size)
    rows, starts = [], []
    for plan in plans:
        for first in range(0, len(plan), batch_size):
            starts.append(len(rows))
            rows += plan[first:first + batch_size]
            if len(starts) == per_chunk:
                yield from compile_batches(corpus.take(rows), starts,
                                           feature_dim)
                rows, starts = [], []
    if starts:
        yield from compile_batches(corpus.take(rows), starts, feature_dim)


def _gradient(model, batch):
    """(intent distributions, tag distributions, data gradient) of a
    Compiled batch: the θ-dependent work of a training step, the one
    gradient kernel. The gradient is a SparseGrad of each head's rows the
    batch touches (batch.rows: its feature rows, then the bias row), each
    head's block made by one weighted bincount (_row_sums) keyed from the
    model's key tiles. It builds no index array of the batch's entries:
    compile_batches made them."""
    p_int, p_tag = forward(model, batch)
    T, B = batch.lengths, len(batch.lengths)
    g_int = p_int / B
    g_int[np.arange(B), batch.intents] -= 1.0 / B
    g_tag = p_tag / batch.token_denom[:, None]
    g_tag[np.arange(len(g_tag)), batch.tags] -= 1.0 / batch.token_denom

    # each head's block: per touched row, its entries' gradient rows added
    # in (example, token, slot) order, the order of the per-example loop
    # this replaces. The last row, the biases: b_int adds the example rows
    # in order, b_tag the per-example sums (each its tokens in order) in
    # example order.
    rows, row_of_entry, n_rows = batch.rows, batch.row_of_entry, len(batch.rows)
    tiles = model._tiles
    blocks = (_row_sums(row_of_entry, (g_int / T[:, None])[
                  batch.example_of_entry], n_rows, tiles),
              _row_sums(row_of_entry, g_tag[batch.token_of_entry], n_rows,
                        tiles))
    per_example = np.concatenate(
        [g_int, _row_sums(batch.example_of_token, g_tag, B, tiles)], axis=1)
    bias = _row_sums(np.zeros(B, dtype=np.intp), per_example, 1, tiles)[0]
    n_int = g_int.shape[1]
    blocks[0][-1], blocks[1][-1] = bias[:n_int], bias[n_int:]
    return p_int, p_tag, SparseGrad(model.layout, (rows, rows), blocks)


def loss_and_grad(model, batch):
    """Mean cross-entropy (intent + per-token tags) of an Encoded batch
    with targets, and its gradient: a SparseGrad of the rows the batch
    touches. It compiles the batch (compile_batches) and runs the
    gradient kernel train steps on, then adds up the loss, which train does
    not compute; an anchoring penalty is added by regularizers.anchored_step,
    not here."""
    B = len(batch)
    if not B:
        raise ModelError("empty batch")
    if batch.intents is None:
        raise ModelError("batch has no targets")
    p_int, p_tag, grad = _gradient(
        model, compile_batches(batch, [0], model.feature_dim)[0])
    T, offsets = batch.lengths, batch.offsets
    tokens = np.arange(len(batch.feats))
    log_int = np.log(np.maximum(p_int[np.arange(B), batch.intents], 1e-300))
    log_tag = np.log(np.maximum(p_tag[tokens, batch.tags], 1e-300))
    loss = 0.0
    for b in range(B):
        loss -= log_int[b] / B
        loss -= log_tag[offsets[b]:offsets[b + 1]].sum() / (T[b] * B)
    return float(loss), grad


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


def bio_spans(tags, offsets):
    """The slot spans decode_tree reads from BIO tag ids, in numpy.

    `tags` are tag ids in tag_vocab's layout (0 is O, and slot s has B- id
    2s + 1 and I- id 2s + 2, TaggerModel.bio_ids) of consecutive queries,
    which start and end at `offsets` (as Encoded.offsets). A span starts at
    every non-O token that is B-X, starts its query or follows a token of
    another slot (or O), so an orphan I-X acts as B-X. Returns the (start,
    end, slot) arrays of the spans, end exclusive, and the tags with each
    span's first tag B- and the rest I-.
    """
    slot = (tags - 1) // 2  # -1 for O
    prev_slot = np.empty_like(slot)
    prev_slot[1:] = slot[:-1]
    prev_slot[offsets[:-1]] = -1  # a query's first token follows nothing
    inside = tags > 0
    starts = inside & ((tags % 2 == 1) | (prev_slot != slot))
    start = np.flatnonzero(starts)
    lengths = np.bincount(np.cumsum(starts)[inside] - 1, minlength=len(start))
    repaired = np.where(inside, 2 * slot + 2 - starts, 0)
    return start, start + lengths, slot[start], repaired


def predict_ids(model, batches):
    """Most likely intent ids (examples,) and tag ids (tokens,) of Compiled
    batches, in order: the argmax of forward's distributions. Prediction
    compiles its queries without targets, in batches of CHUNK examples."""
    intents, tags = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for chunk in batches:
        p_int, p_tag = forward(model, chunk)
        intents.append(p_int.argmax(axis=1))
        tags.append(p_tag.argmax(axis=1))
    return np.concatenate(intents), np.concatenate(tags)


def predict_trees(model, examples):
    """Most likely tree of each example's query."""
    queries = [ex.query for ex in examples]
    batch = encode(queries, model.feature_dim)
    intents, tags = predict_ids(
        model, compile_batches(batch, range(0, len(batch), CHUNK),
                               model.feature_dim))
    tags, offsets = tags.tolist(), batch.offsets.tolist()
    return [decode_tree(query, model.intents[intent],
                        [model.tags[t] for t in tags[offsets[i]:offsets[i + 1]]])
            for i, (query, intent) in enumerate(zip(queries, intents.tolist()))]


@dataclass
class Checkpoint:
    """A model's θ and Fisher sums at one step, both in memory order
    (feature-major, as TaggerModel.theta); the file stores them row-major
    (see save_checkpoint). train's best and final checkpoints may share
    their arrays: the best is the final one when no step followed it."""

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
        """The model of a copy of theta_values."""
        return TaggerModel(self.intents, self.slots, self.feature_dim,
                           ParamVector(self.layout, self.theta_values.copy()))

    @cached_property
    def layout(self):
        return make_layout(self.feature_dim, len(self.intents),
                           len(tag_vocab(self.slots)))


_MAGIC = b"TPCK0001"
FILE_BLOCK_ROWS = 8  # file rows per view of _staged


def _staged(layout, arrays):
    """The layout-sized arrays, in memory order, walked in the order a
    checkpoint file stores them: per array and head, (features, k) column
    blocks of its weights, each the transpose of at most FILE_BLOCK_ROWS
    of the file's row-major rows, then its (1, width) bias row (on a group
    of width 1 the file order is the memory order). Each view comes with
    its part of one buffer made for the largest view: the part has the
    shape of the view's file rows (its transpose), and each part
    overwrites the one before it."""
    views = []
    for values in arrays:
        for rows in layout.rows(values):
            views += [rows[:-1, first:first + FILE_BLOCK_ROWS]
                      for first in range(0, rows.shape[1], FILE_BLOCK_ROWS)]
            views.append(rows[-1:])
    buf = np.empty(max(view.size for view in views))
    return [(view, buf[:view.size].reshape(view.shape[::-1]))
            for view in views]


def save_checkpoint(ckpt, path):
    """Single-file container: magic, sha256 of the payload, then the payload
    (8-byte header length, JSON header, θ and the Fisher sums as float64,
    each row-major). The payload is hashed and written part by part: each
    view of _staged is transposed into its part of one buffer of at most
    FILE_BLOCK_ROWS file rows, then hashed and written from it, and the
    digest goes last into its slot after the magic."""
    layout = ckpt.layout
    arrays = (ckpt.theta_values, ckpt.fisher_sum_sq)
    if any(np.shape(values) != (layout.size,) for values in arrays):
        raise DimMismatch("theta_values and fisher_sum_sq must hold the "
                          f"layout's {layout.size} values")
    meta = {
        "intents": list(ckpt.intents),
        "slots": list(ckpt.slots),
        "feature_dim": ckpt.feature_dim,
        "hidden_dim": 0,  # kept so that checkpoints keep their bytes
        "fisher_steps": ckpt.fisher_steps,
        "step": ckpt.step,
        "config_digest": ckpt.config_digest,
        "history": list(ckpt.history),
        "n_theta": layout.size,
        "n_fisher": layout.size,
    }
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    header = len(header).to_bytes(8, "big") + header
    digest = hashlib.sha256(header)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(bytes(digest.digest_size))  # the digest's slot
        fh.write(header)
        for view, part in _staged(layout, arrays):
            part[...] = view.T
            digest.update(part)
            fh.write(part)
        fh.seek(len(_MAGIC))
        fh.write(digest.digest())


_HEADER_KEYS = ("intents", "slots", "feature_dim", "hidden_dim",
                "fisher_steps", "step", "config_digest", "history", "n_theta",
                "n_fisher")


def _header_problem(meta):
    """Why the fields of a checkpoint header are malformed, or None: the
    labels are lists of strings, with at least one intent; the counts are
    integers, not bools, feature_dim at least 1 and the others at least 0;
    config_digest is a string and history a list. hidden_dim is compared
    with 0 later."""
    for key in ("intents", "slots"):
        labels = meta[key]
        if (not isinstance(labels, list)
                or not all(isinstance(label, str) for label in labels)):
            return f"{key} must be a list of strings, got {labels!r}"
    if not meta["intents"]:
        return "intents is empty"
    for key in ("feature_dim", "fisher_steps", "step", "n_theta", "n_fisher"):
        least = 1 if key == "feature_dim" else 0
        if type(meta[key]) is not int or meta[key] < least:
            return f"{key} must be an integer >= {least}, got {meta[key]!r}"
    if not isinstance(meta["config_digest"], str):
        return f"config_digest must be a string, got {meta['config_digest']!r}"
    if not isinstance(meta["history"], list):
        return f"history must be a list, got {meta['history']!r}"
    return None


def _checked_header(path, header, body_bytes):
    """The Checkpoint a checkpoint's JSON header describes, its arrays
    None, once every field and the body's length (body_bytes, the bytes
    after the header) are checked; allocates nothing θ-sized. A header
    that is not JSON, lacks a field or holds a malformed one raises
    ChecksumError, a hidden_dim other than 0, sizes other than the layout's
    or a body of another length DimMismatch, each naming the path."""
    try:
        meta = json.loads(str(header, "utf-8"))
    except ValueError as err:  # not UTF-8, not JSON
        raise ChecksumError(f"{path}: malformed header: {err}") from None
    if not isinstance(meta, dict):
        raise ChecksumError(f"{path}: malformed header: not a JSON object")
    missing = next((key for key in _HEADER_KEYS if key not in meta), None)
    if missing is not None:
        raise ChecksumError(f"{path}: the header lacks {missing!r}")
    problem = _header_problem(meta)
    if problem is not None:
        raise ChecksumError(f"{path}: malformed header: {problem}")
    hidden_dim = meta["hidden_dim"]
    n_theta, n_fisher = meta["n_theta"], meta["n_fisher"]
    ckpt = Checkpoint(
        intents=tuple(meta["intents"]),
        slots=tuple(meta["slots"]),
        feature_dim=meta["feature_dim"],
        theta_values=None,  # read from the body once its length is checked
        fisher_sum_sq=None,
        fisher_steps=meta["fisher_steps"],
        step=meta["step"],
        config_digest=meta["config_digest"],
        history=tuple(meta["history"]),
    )
    if hidden_dim != 0:
        raise DimMismatch(f"{path}: hidden_dim {hidden_dim!r}; only the "
                          f"linear model (hidden_dim 0) is supported")
    size = ckpt.layout.size
    if n_theta != size or n_fisher != size:
        raise DimMismatch(f"{path}: n_theta {n_theta} and n_fisher {n_fisher} "
                          f"do not match the header's layout size {size}")
    if body_bytes != 8 * (n_theta + n_fisher):
        raise DimMismatch(f"{path}: the body holds {body_bytes} bytes, "
                          f"not the {8 * (n_theta + n_fisher)} of n_theta "
                          f"{n_theta} and n_fisher {n_fisher} float64 values")
    return ckpt


_HASH_CHUNK = 1 << 16  # bytes read at a time to hash a rejected file's rest


def load_checkpoint(path):
    """The Checkpoint saved at `path`, its θ and Fisher sums in memory
    order. The file is streamed: the magic, the digest and the header are
    read and every header field and the body's length checked before
    anything θ-sized is made; then the body is read in the order of
    _staged, each view's file rows into its part of one buffer of at most
    FILE_BLOCK_ROWS rows, hashed and transposed into the two arrays it
    returns. A file that is not a checkpoint, fails its checksum or has
    a malformed header raises ChecksumError, and one whose sizes disagree
    DimMismatch, naming the path; the checksum is checked before a header
    or size error is raised, so a file whose bytes are damaged, or cut
    short, fails its checksum first."""
    with open(path, "rb") as fh:
        file_bytes = os.fstat(fh.fileno()).st_size
        start = len(_MAGIC) + 32
        head = fh.read(start)
        if len(head) < start or head[:len(_MAGIC)] != _MAGIC:
            raise ChecksumError(f"{path}: not a checkpoint file")
        digest, expected = hashlib.sha256(), head[len(_MAGIC):]
        mismatch = ChecksumError(f"{path}: payload checksum mismatch")
        header_len = fh.read(8)
        # a header length past the file's end reads to its end
        header = fh.read(min(int.from_bytes(header_len, "big"),
                             max(file_bytes - fh.tell(), 0)))
        digest.update(header_len)
        digest.update(header)
        try:
            ckpt = _checked_header(path, header, file_bytes - fh.tell())
        except ModelError:  # unless the checksum fails first
            for chunk in iter(lambda: fh.read(_HASH_CHUNK), b""):
                digest.update(chunk)
            if digest.digest() != expected:
                raise mismatch from None
            raise
        arrays = np.empty(ckpt.layout.size), np.empty(ckpt.layout.size)
        for view, part in _staged(ckpt.layout, arrays):
            raw = memoryview(part).cast("B")
            # a file cut short while it is read hashes fewer bytes
            digest.update(raw[:fh.readinto(raw)])
            view[...] = part.T
    if digest.digest() != expected:
        raise mismatch
    ckpt.theta_values, ckpt.fisher_sum_sq = arrays
    return ckpt


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.1
    batch_size: int = 16
    max_epochs: int = 20
    eval_every: int = 200
    patience: int = 10
    reg: RegConfig = field(default_factory=RegConfig)
    freeze: frozenset = frozenset()  # names of the groups not trained

    def __post_init__(self):
        if self.batch_size < 1:
            raise ModelError(f"batch_size must be >= 1, got {self.batch_size!r}")


@dataclass
class TrainResult:
    best: Checkpoint
    final: Checkpoint
    history: list  # eval records, each with at least {"step", "em"}
    total_steps: int
    stopped_early: bool


def train(model, corpus, row_of, plan_fn, cfg, evaluator, prev=None,
          config_digest=""):
    """Seeded mini-batch SGD over epoch plans.

    corpus, row_of: encoded training examples with their targets under the
    model's vocabulary, and each id's row in corpus (encode_examples;
    DataBundle.corpus keeps one per vocabulary). train encodes nothing.
    plan_fn(epoch_index) -> ordered id list for that epoch (already
    shuffled). evaluator(model) -> record dict with an "em" float; called
    every cfg.eval_every steps and once at the end. Early stopping after
    cfg.patience evaluations without an EM improvement; the checkpoint with
    the best EM is returned.

    prev, the previous Checkpoint of a fine-tune, is its anchor: its
    theta_values, read in place (no step writes them), are theta_prev, its
    Fisher mean the EWC weights (computed for EWC alone; None when prev
    recorded no step, so that EWC raises MissingFisher) and a copy of its
    Fisher sums the start of this run's squared-gradient accumulation,
    which otherwise starts empty at the first step. A prev of another
    layout, or a penalty without its anchor, raises before the first step.

    An epoch runs in two stages. Compile: the plan is mapped to corpus
    rows once, and compile_epochs cuts them into batches of batch_size
    and compiles ceil(CHUNK / batch_size) whole batches per
    compile_batches pass, from this epoch and the next ones when an epoch
    is shorter than that: the epochs are one stream of batches. A plan is
    a function of its epoch index alone, so plan_fn may be called up to
    one chunk ahead of the steps; an early stop drops the batches compiled
    past it. Step: each batch runs the gradient kernel that loss_and_grad
    also runs, but computes no loss, then one Fisher update and the one
    step regularizers.anchored_step returned.

    Both checkpoints take their arrays, in memory order, as they are. The
    final one holds a copy of the model's θ (the caller keeps the model)
    and this run's Fisher sums. The best EM's θ and sums are copied into
    two buffers only when a step is about to change them; when no step
    followed its eval, the best checkpoint is the final one.
    """
    if prev is None:
        theta_prev = fisher_prev = None
        fisher_acc = FisherAccumulator(model.layout)
    else:
        if prev.layout != model.layout:
            raise LayoutMismatch("the previous checkpoint's layout differs "
                                 "from the model's")
        theta_prev = ParamVector(prev.layout, prev.theta_values)
        # on the model's layout, the very object its gradients carry, so
        # that no step compares two layouts
        fisher_acc = FisherAccumulator(model.layout, prev.fisher_sum_sq.copy(),
                                       prev.fisher_steps)
        fisher_prev = (fisher_acc.fisher()
                       if cfg.reg.kind == "ewc" and fisher_acc.steps else None)
    sgd_step = anchored_step(model.theta, theta_prev, fisher_prev, cfg.reg,
                             cfg.lr, cfg.freeze)
    del fisher_prev  # the step keeps what it reads of the Fisher mean

    history = []
    best_em = -1.0
    # the best EM's (Fisher steps, step, history length), and buffers made
    # once for its theta and Fisher sums; pending: they are not copied yet
    best = best_theta = best_sum_sq = None
    pending = False
    bad_evals = 0
    step = 0
    stopped = False

    def checkpoint(theta, sum_sq, fisher_steps, at_step, n_history):
        return Checkpoint(
            intents=model.intents, slots=model.slots,
            feature_dim=model.feature_dim, theta_values=theta,
            fisher_sum_sq=sum_sq, fisher_steps=fisher_steps, step=at_step,
            config_digest=config_digest, history=tuple(history[:n_history]))

    def run_eval():
        nonlocal best_em, best, pending, bad_evals
        record = dict(evaluator(model))
        record["step"] = step
        history.append(record)
        if record["em"] > best_em:
            best_em = record["em"]
            best, pending = (fisher_acc.steps, step, len(history)), True
            bad_evals = 0
        else:
            bad_evals += 1
        return bad_evals >= cfg.patience

    plans = ([row_of[eid] for eid in plan_fn(epoch)]
             for epoch in range(cfg.max_epochs))
    for batch in compile_epochs(corpus, plans, cfg.batch_size,
                                model.feature_dim):
        if pending:  # this step changes the best eval's state
            if best_theta is None:
                best_theta = np.empty_like(model.theta.values)
                best_sum_sq = np.empty_like(fisher_acc.sum_sq)
            np.copyto(best_theta, model.theta.values)
            np.copyto(best_sum_sq, fisher_acc.sum_sq)
            pending = False
        data_grad = _gradient(model, batch)[2]
        fisher_acc.update(data_grad)
        sgd_step(data_grad)
        step += 1
        if cfg.eval_every and step % cfg.eval_every == 0 and run_eval():
            stopped = True
            break

    # no step follows: drop the step's support buffers before the final
    # eval and the final copy of θ, where a command peaks
    del sgd_step
    if not history or history[-1]["step"] != step:
        run_eval()
    final = checkpoint(model.theta.values.copy(), fisher_acc.sum_sq,
                       fisher_acc.steps, step, len(history))
    best_ckpt = (final if best is None or pending
                 else checkpoint(best_theta, best_sum_sq, *best))
    return TrainResult(best=best_ckpt, final=final, history=history,
                       total_steps=step, stopped_early=stopped)
