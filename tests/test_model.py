import dataclasses
import hashlib
import json
import re
import tracemalloc
import zlib
from collections import Counter
from itertools import chain

import hypothesis
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepatch import model as m
from treepatch import regularizers
from treepatch.datagen import GenConfig, builtin_grammar, generate
from treepatch.dataset import Dataset, Example
from treepatch.metrics import exact_match
from treepatch.model import (Checkpoint, ChecksumError, DimMismatch,
                             EmptyQuery, Encoded, TaggerModel, TrainConfig,
                             UnknownLabel, decode_tree, encode,
                             encode_examples, encode_targets,
                             featurize, forward, load_checkpoint,
                             loss_and_grad, predict_trees, save_checkpoint,
                             train)
from treepatch.regularizers import (FisherAccumulator, LayoutMismatch,
                                    MissingAnchor, MissingFisher, ParamLayout,
                                    ParamVector, RegConfig, anchored_step,
                                    apply_freeze, penalty)
from treepatch.treebank import parse_top, serialize

INTENTS = ("IN:A", "IN:B")
SLOTS = ("SL:X", "SL:Y")


def tiny_model(feature_dim=64):
    return TaggerModel.init(INTENTS, SLOTS, feature_dim=feature_dim)


# the kernel tests' (intents, slots): heads of 2 and 5 columns, and heads
# one column wide (the tag head's one tag O), alone or beside a wide head.
# A one-class softmax is 1 everywhere, so a one-column head's gradient is
# +0.0.
SHAPES = {"tiny": (INTENTS, SLOTS), "width-1": (INTENTS[:1], ()),
          "one-intent": (INTENTS[:1], SLOTS), "no-slot": (INTENTS, ())}


def example(eid, text):
    tree = parse_top(text)
    return Example(id=eid, query=" ".join(tree.leaves), tree=tree)


def encoded(net, *queries):
    return encode(list(queries), net.feature_dim)


def compiled(net, batch):
    """The one Compiled batch of all of an Encoded batch's examples."""
    (out,) = m.compile_batches(batch, [0], net.feature_dim)
    return out


def reference_featurize(query, feature_dim):
    """The per-token loop that the batched encoder replaced, kept as its
    oracle: per token, the sorted distinct hashed ids of its word, prev,
    next and bigram features."""
    tokens = query.split()
    feats = []
    for t, tok in enumerate(tokens):
        prev = tokens[t - 1] if t > 0 else "<s>"
        nxt = tokens[t + 1] if t + 1 < len(tokens) else "</s>"
        raw = (f"w={tok}", f"prev={prev}", f"next={nxt}", f"bi={prev}_{tok}")
        feats.append(np.array(sorted({zlib.crc32(r.encode("utf-8")) % feature_dim
                                      for r in raw}), dtype=np.int64))
    return feats


def pack(feats_per_query, targets=None):
    """Encoded batch from per-token feature id arrays (at most MAX_FEATS
    each) and, optionally, (intent id, tag ids) per query."""
    token_feats = [idx for feats in feats_per_query for idx in feats]
    n_feats = np.array([len(idx) for idx in token_feats], dtype=np.int64)
    feats = np.full((len(token_feats), m.MAX_FEATS), -1, dtype=np.int64)
    feats[np.arange(m.MAX_FEATS) < n_feats[:, None]] = np.concatenate(
        [np.empty(0, dtype=np.int64), *token_feats])
    offsets = np.zeros(len(feats_per_query) + 1, dtype=np.int64)
    np.cumsum([len(q) for q in feats_per_query], out=offsets[1:])
    if targets is None:
        return Encoded(feats, offsets)
    return Encoded(feats, offsets,
                   np.array([intent for intent, _ in targets], dtype=np.int64),
                   np.concatenate([np.empty(0, dtype=np.int64),
                                   *(np.asarray(t, dtype=np.int64)
                                     for _, t in targets)]))


def dense(grad):
    out = np.zeros(grad.layout.size)
    for out_rows, rows, block in zip(grad.layout.rows(out), grad.rows,
                                     grad.blocks):
        out_rows[rows] = block
    return out


def row_major_views(net, theta=None):
    """The heads of theta (default net's) as the oracles read them: W_int
    (intents, feature_dim) and W_tag (tags, feature_dim), row-major views of
    the feature-major weights in memory, each followed by its biases, in
    checkpoint order. The library's _views is not used, so that the oracles
    keep their own reading of the layout."""
    theta = net.theta if theta is None else theta
    views = {}
    for group, head, rows in (("intent_head", "int", len(net.intents)),
                              ("tag_head", "tag", len(net.tags))):
        values = theta.group(group)
        n_weights = rows * net.feature_dim
        views[f"W_{head}"] = values[:n_weights].reshape(net.feature_dim,
                                                        rows).T
        views[f"b_{head}"] = values[n_weights:]
    return views


def checkpoint_order(net, values):
    """Theta-sized values of net, in memory order, as a checkpoint file
    stores them: each head's weights row-major, then its biases."""
    return np.concatenate([view.ravel() for view in row_major_views(
        net, ParamVector(net.layout, values)).values()])


def memory_order(net, values):
    """The inverse of checkpoint_order."""
    out = np.empty_like(values)
    start = 0
    for view in row_major_views(net, ParamVector(net.layout, out)).values():
        view[...] = values[start:start + view.size].reshape(view.shape)
        start += view.size
    return out


def default_shape_model():
    """A zero model of the default config's shape: 12 intents, 28 slots
    (57 tags) and feature_dim 4096, so theta holds 282,693 values."""
    net = TaggerModel.init([f"IN:{i}" for i in range(12)],
                           [f"SL:{i}" for i in range(28)])
    assert net.theta.values.size == 282_693
    return net


def traced_peak(call):
    """The traced peak of call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def in_order(rows):
    """The sum of rows, added one after the other. ndarray.sum(axis=0)
    adds so only on rows wider than one: on a width-1 column of 8 or more
    rows numpy drops the unit axis and sums pairwise."""
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


def batches(ids, batch_size):
    """Contiguous batches of a sequence of ids, the last maybe short: the
    dense reference's batching, which compile_epochs' must match."""
    ids = list(ids)
    return [ids[i:i + batch_size] for i in range(0, len(ids), batch_size)]


def reference_loss_and_grad(model, batch, reg=None, theta_prev=None,
                            fisher=None):
    """The per-example loop that the batched kernel replaced, kept as its
    oracle. batch: list of (feats, intent_id, tag_ids); dense gradients.
    A token sum adds the tokens in order (in_order), on heads of every
    width. The penalty is penalty's on theta as it is, in memory
    order."""
    v = row_major_views(model)
    grad = ParamVector.zeros(model.layout)
    gv = row_major_views(model, grad)
    loss = 0.0
    B = len(batch)
    for feats, intent_id, tag_ids in batch:
        T = len(feats)
        tag_logits = np.stack([v["W_tag"][:, idx].sum(axis=1) + v["b_tag"]
                               for idx in feats])
        int_logits = (in_order([v["W_int"][:, idx].sum(axis=1)
                                for idx in feats]) / T + v["b_int"])
        p_int = m._softmax(int_logits)
        p_tag = m._softmax(tag_logits)
        loss -= np.log(max(p_int[intent_id], 1e-300)) / B
        loss -= np.log(np.maximum(p_tag[np.arange(T), tag_ids], 1e-300)).sum() / (T * B)

        g_int = p_int / B
        g_int[intent_id] -= 1.0 / B
        g_tag = p_tag / (T * B)
        g_tag[np.arange(T), tag_ids] -= 1.0 / (T * B)

        gv["b_int"] += g_int
        gv["b_tag"] += in_order(g_tag)
        for t, idx in enumerate(feats):
            gv["W_int"][:, idx] += g_int[:, None] / T
            gv["W_tag"][:, idx] += g_tag[t][:, None]

    data_grad = grad.copy()
    if reg is not None and reg.kind != "none":
        pen_value, pen_grad = penalty(model.theta, theta_prev, fisher, reg)
        loss += pen_value
        grad.values += pen_grad.values
    return float(loss), grad, data_grad


class TestFeaturize:
    def test_deterministic(self):
        a = featurize("what is the weather", 128)
        b = featurize("what is the weather", 128)
        assert all((x == y).all() for x, y in zip(a, b))

    def test_empty_query(self):
        with pytest.raises(EmptyQuery):
            featurize("   ", 128)

    def test_feature_count_bounded(self):
        # at most 4 hashed features per token
        for query in ("a", "a b", "one two three four five"):
            feats = featurize(query, 1 << 20)
            assert len(feats) == len(query.split())
            assert all(1 <= len(f) <= 4 for f in feats)


# tokens that stress the encoder: sentinel look-alikes, "_" (the bigram
# separator), repeats, non-ASCII, and arbitrary text, joined by runs of spaces
# and tabs (arbitrary text may hold whitespace of its own)
TOKENS = st.one_of(
    st.sampled_from(["<s>", "</s>", "a", "b", "a_b", "_", "b_", "_a", "é",
                     "日本", "naïve"]),
    st.text(min_size=1, max_size=3))
QUERIES = st.tuples(
    st.lists(st.tuples(st.sampled_from([" ", "  ", "\t", " \t\t "]), TOKENS),
             min_size=1, max_size=6),
    st.sampled_from(["", " ", "\t"])).map(
        lambda parts: "".join(sep + tok for sep, tok in parts[0]) + parts[1]
    ).filter(str.split)


class TestEncode:
    """The batched encoder against the per-query loop it replaced. At
    feature_dim 7 a token's four ids often collide, so the in-row dedup
    matters; 4096 is the default dimension."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(QUERIES, min_size=1, max_size=8), st.sampled_from([7, 4096]),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_oracle(self, queries, dim, seed):
        feats = [reference_featurize(q, dim) for q in queries]
        rng = np.random.default_rng(seed)
        targets = [(int(rng.integers(0, 2)), rng.integers(0, 5, len(f)))
                   for f in feats]
        for got, want in ((encode(queries, dim), pack(feats)),
                          (encode(queries, dim, targets), pack(feats, targets))):
            for name in ("feats", "offsets", "intents", "tags"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))
        got = featurize(queries[0], dim)
        assert len(got) == len(feats[0])
        for a, b in zip(got, feats[0]):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_whitespace_only_query_rejected(self):
        for queries in (["   "], ["a b", "\t \n"], [""]):
            with pytest.raises(EmptyQuery):
                encode(queries, 64)
        assert len(encode([], 64)) == 0


class TestForward:
    def test_distributions_sum_to_one(self):
        net = tiny_model()
        p_int, p_tag = forward(net, compiled(net, encoded(net, "a b c", "d")))
        assert p_int.shape == (2, len(net.intents))
        assert p_tag.shape == (4, len(net.tags))
        np.testing.assert_allclose(p_int.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(p_tag.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_weights_give_uniform(self):
        net = tiny_model()
        p_int, p_tag = forward(net, compiled(net, encoded(net, "a b")))
        np.testing.assert_allclose(p_int, 1 / len(net.intents), atol=1e-12)
        np.testing.assert_allclose(p_tag, 1 / len(net.tags), atol=1e-12)

    def test_gradient_step_raises_true_class_probability(self):
        net = tiny_model()
        ex = example("e", "[IN:A hello [SL:X there ] ]")
        batch = encode([ex.query], net.feature_dim, [encode_targets(net, ex)])
        before = forward(net, compiled(net, batch))[0][0, 0]
        _, grad = loss_and_grad(net, batch)
        net.theta.values -= 0.1 * dense(grad)
        after = forward(net, compiled(net, batch))[0][0, 0]
        assert after > before

    def test_writes_neither_theta_nor_its_batch(self):
        """forward's softmax overwrites the logits forward made, nothing
        that it reads: theta and every array of the batch keep their bytes,
        and a second call returns the same distributions."""
        net = tiny_model()
        net.theta.values[:] = np.random.default_rng(1).normal(
            size=net.layout.size)
        exs = [example("a", "[IN:A hello [SL:X there ] ]"),
               example("b", "[IN:B go [SL:Y far away ] now ]")]
        batch = compiled(net, encode([ex.query for ex in exs],
                                     net.feature_dim,
                                     [encode_targets(net, ex) for ex in exs]))

        def arrays():
            out = [net.theta.values]
            for f in dataclasses.fields(batch):
                value = getattr(batch, f.name)
                out.extend(chain.from_iterable(value) if f.name == "slots"
                           else [value])
            return [a.tobytes() for a in out if a is not None]

        before = arrays()
        first = forward(net, batch)
        second = forward(net, batch)
        assert arrays() == before
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes() and a is not b

    def test_replaced_theta_is_read(self):
        """A model reads the theta it holds now: views made for an earlier
        theta are not reused."""
        net = tiny_model()
        batches = m.compile_batches(encoded(net, "hello there", "go far"),
                                    [0], net.feature_dim)
        old = m.predict_ids(net, batches)
        assert np.shares_memory(net._views()["W_tag"], net.theta.values)
        values = np.random.default_rng(2).normal(size=net.layout.size)
        net.theta = ParamVector(net.layout, values)
        assert all(np.shares_memory(view, values)
                   for view in net._views().values())
        assert (net._views()["b_tag"].tolist()
                == values[-len(net.tags):].tolist())
        fresh = TaggerModel(net.intents, net.slots, net.feature_dim,
                            ParamVector(net.layout, values.copy()))
        new = m.predict_ids(net, batches)
        for ids, expected in zip(new, m.predict_ids(fresh, batches)):
            np.testing.assert_array_equal(ids, expected)
        assert any(not np.array_equal(ids, stale)
                   for ids, stale in zip(new, old))


class TestPrediction:
    def test_chunked_prediction_equals_each_query_alone(self):
        """More than two chunks of queries, some repeated and some of one
        token, predicted at once and one query at a time."""
        rng = np.random.default_rng(0)
        net = tiny_model()
        net.theta.values[:] = rng.normal(0, 1.0, net.theta.values.size)
        words = [f"w{i}" for i in range(40)]
        queries = [" ".join(rng.choice(words, rng.integers(1, 6)))
                   for _ in range(2 * m.CHUNK + 57)]
        queries[300:320] = queries[:20]
        queries[320:330] = words[:10]

        def predict(qs):
            return m.predict_ids(net, m.compile_batches(
                encode(qs, net.feature_dim), range(0, len(qs), m.CHUNK),
                net.feature_dim))

        intents, tags = predict(queries)
        alone = [predict([q]) for q in queries]
        np.testing.assert_array_equal(intents,
                                      np.concatenate([i for i, _ in alone]))
        np.testing.assert_array_equal(tags,
                                      np.concatenate([t for _, t in alone]))
        assert len(set(intents.tolist())) > 1 and len(set(tags.tolist())) > 1

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_compiled_without_targets_forwards_as_with(self, batch_size):
        """A batch compiled without targets carries no gradient arrays, and
        forward gives it the bits it gives the batch compiled with them."""
        rng = np.random.default_rng(batch_size)
        net = tiny_model(feature_dim=13)
        net.theta.values[:] = rng.normal(0, 1.0, net.theta.values.size)
        lengths = rng.integers(1, 6, 40)
        batch = pack(
            [[np.sort(rng.choice(13, rng.integers(1, m.MAX_FEATS + 1),
                                 replace=False)) for _ in range(length)]
             for length in lengths],
            [(int(rng.integers(len(net.intents))),
              rng.integers(len(net.tags), size=length)) for length in lengths])
        starts = range(0, len(batch), batch_size)
        with_targets = m.compile_batches(batch, starts, net.feature_dim)
        without = m.compile_batches(Encoded(batch.feats, batch.offsets),
                                    starts, net.feature_dim)
        assert len(with_targets) == len(without) == -(-40 // batch_size)
        gradient_fields = ("intents", "tags", "token_denom", "token_of_entry",
                           "rows", "row_of_entry")
        for want, got in zip(with_targets, without):
            assert all(getattr(got, name) is None for name in gradient_fields)
            for got_p, want_p in zip(forward(net, got), forward(net, want)):
                assert got_p.tobytes() == want_p.tobytes()

    def test_no_examples_predict_no_trees(self):
        assert predict_trees(tiny_model(), []) == []


class TestLossAndGrad:
    def _batch(self, net):
        exs = [example("e0", "[IN:A hello [SL:X there world ] ]"),
               example("e1", "[IN:B go [SL:Y now ] fast ]")]
        return encode([e.query for e in exs], net.feature_dim,
                      [encode_targets(net, e) for e in exs])

    def test_loss_is_pure_cross_entropy(self):
        net = tiny_model()
        batch = self._batch(net)
        loss, _ = loss_and_grad(net, batch)
        # zero weights: uniform predictions, CE = log n_int + log n_tags
        expected = np.log(len(net.intents)) + np.log(len(net.tags))
        assert abs(loss - expected) < 1e-9

    def test_gradient_matches_finite_differences(self):
        net = tiny_model(feature_dim=13)
        rng = np.random.default_rng(0)
        net.theta.values[:] = rng.normal(0, 0.3, net.theta.values.size)
        batch = self._batch(net)
        grad = dense(loss_and_grad(net, batch)[1])
        step = 1e-5
        for i in range(net.theta.values.size):
            saved = net.theta.values[i]
            net.theta.values[i] = saved + step
            hi = loss_and_grad(net, batch)[0]
            net.theta.values[i] = saved - step
            lo = loss_and_grad(net, batch)[0]
            net.theta.values[i] = saved
            fd = (hi - lo) / (2 * step)
            scale = max(abs(fd), abs(grad[i]), 1e-6)
            assert abs(grad[i] - fd) / scale <= 1e-4, i

    def test_huge_penalty_pins_weights(self):
        net = tiny_model()
        batch = self._batch(net)
        prev = net.theta.copy()
        step = anchored_step(net.theta, prev, None,
                             RegConfig(kind="movenorm", strength=1e9), 1e-10,
                             frozenset())
        for _ in range(20):
            step(loss_and_grad(net, batch)[1])
        assert np.linalg.norm(net.theta.values - prev.values) < 1e-6

    def test_misaligned_tag_targets_rejected(self):
        net = tiny_model()
        with pytest.raises(DimMismatch):
            encode(["a b"], net.feature_dim, [(0, np.array([0]))])


N_TAGS = len(tiny_model().tags)
TOKEN_FEATS = st.lists(st.integers(0, 12), min_size=1, max_size=4,
                       unique=True).map(lambda ids: np.array(sorted(ids)))
EXAMPLES = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(TOKEN_FEATS, min_size=n, max_size=n),
    st.integers(0, len(INTENTS) - 1),
    st.lists(st.integers(0, N_TAGS - 1), min_size=n, max_size=n).map(np.array)))


class TestBatchedKernelMatchesOracle:
    """The batched kernel against the per-example loop it replaced, bit for
    bit, on feature_dim 13 so that feature columns repeat across tokens and
    examples, and on heads one column wide, where a numpy reduction would
    change the summation order."""

    @pytest.mark.parametrize("shape", SHAPES)
    @settings(max_examples=150, deadline=None)
    @given(st.lists(EXAMPLES, min_size=1, max_size=8),
           st.integers(0, 2 ** 32 - 1))
    def test_loss_and_gradients(self, shape, items, seed):
        net = TaggerModel.init(*SHAPES[shape], feature_dim=13)
        items = [(feats, intent % len(net.intents), tags % len(net.tags))
                 for feats, intent, tags in items]
        rng = np.random.default_rng(seed)
        net.theta.values[:] = rng.normal(0, rng.uniform(0.01, 3.0),
                                         net.theta.values.size)
        batch = pack([feats for feats, _, _ in items],
                     [(intent, tags) for _, intent, tags in items])
        loss, grad = loss_and_grad(net, batch)
        want_loss, _, want_grad = reference_loss_and_grad(net, items)
        assert loss == want_loss
        np.testing.assert_array_equal(dense(grad), want_grad.values)


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=25, deadline=None)
@given(st.integers(1, 7), st.integers(1, 2 * m.CHUNK),
       st.integers(0, 2 ** 32 - 1))
def test_compiled_epoch_matches_loss_and_grad(shape, batch_size, extra, seed):
    """Every batch compile_epochs yields for one epoch, bit for bit,
    against loss_and_grad on the batch's own rows: an epoch of more than
    one chunk, in a random plan order, whose last batch may be short.
    feature_dim 13, so that the batches of a chunk share feature columns;
    heads of several columns and of one."""
    rng = np.random.default_rng(seed)
    net = TaggerModel.init(*SHAPES[shape], feature_dim=13)
    net.theta.values[:] = rng.normal(0, 1.0, net.theta.values.size)
    n = -(-m.CHUNK // batch_size) * batch_size + extra  # past one chunk
    corpus = random_corpus(net, rng, n)
    plan = rng.permutation(n).tolist()
    epoch = list(m.compile_epochs(corpus, [plan], batch_size,
                                  net.feature_dim))
    assert_batches_match_loss_and_grad(net, corpus, batches(plan, batch_size),
                                       epoch)


def random_corpus(net, rng, n):
    """n random examples with targets at the net's feature_dim, of 1 to 5
    tokens of 1 to MAX_FEATS distinct feature ids each."""
    lengths = rng.integers(1, 6, n)
    return pack(
        [[np.sort(rng.choice(net.feature_dim, rng.integers(1, m.MAX_FEATS + 1),
                             replace=False)) for _ in range(length)]
         for length in lengths],
        [(int(rng.integers(len(net.intents))),
          rng.integers(len(net.tags), size=length)) for length in lengths])


def assert_batches_match_loss_and_grad(net, corpus, row_batches, compiled):
    """Each Compiled batch holds its rows of corpus, and its gradient has
    the bits of loss_and_grad's on those rows alone."""
    assert len(compiled) == len(row_batches)
    for rows, batch in zip(row_batches, compiled):
        np.testing.assert_array_equal(batch.lengths, corpus.lengths[rows])
        np.testing.assert_array_equal(batch.intents, corpus.intents[rows])
        got = m._gradient(net, batch)[2]
        want = loss_and_grad(net, corpus.take(rows))[1]
        for got_rows, want_rows, got_block, want_block in zip(
                got.rows, want.rows, got.blocks, want.blocks):
            np.testing.assert_array_equal(got_rows, want_rows)
            assert got_block.tobytes() == want_block.tobytes()


def count_compile_passes(patch):
    """The number of batches of each compile_batches pass from now on, a
    list that grows as passes run; `patch` is a pytest MonkeyPatch."""
    passes, compile_batches = [], m.compile_batches
    patch.setattr(m, "compile_batches", lambda batch, starts, dim:
                  passes.append(len(starts))
                  or compile_batches(batch, starts, dim))
    return passes


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 7), st.lists(st.integers(1, m.CHUNK // 3), min_size=1,
                                   max_size=4),
       st.integers(m.CHUNK + 1, 2 * m.CHUNK), st.integers(0, 2 ** 32 - 1))
def test_packed_epochs_match_loss_and_grad(batch_size, small, large, seed):
    """Epochs smaller and larger than a chunk, each ending in a short
    batch, compiled as one stream (compile_epochs): the batches are each
    epoch's own cut, in order, each with the bits loss_and_grad gives its
    rows. Every pass but the last compiles a whole chunk of batches, which
    may span epochs; none compiles more."""
    rng = np.random.default_rng(seed)
    net = TaggerModel.init(INTENTS, SLOTS, feature_dim=13)
    net.theta.values[:] = rng.normal(0, 1.0, net.theta.values.size)
    sizes = small + [large]
    rng.shuffle(sizes)
    sizes = [size + (size % batch_size == 0) for size in sizes]  # short ends
    corpus = random_corpus(net, rng, 50)
    plans = [rng.integers(len(corpus), size=size).tolist() for size in sizes]
    with pytest.MonkeyPatch.context() as patch:
        passes = count_compile_passes(patch)
        stream = list(m.compile_epochs(corpus, plans, batch_size,
                                       net.feature_dim))
    assert_batches_match_loss_and_grad(
        net, corpus, [rows for plan in plans for rows in
                      batches(plan, batch_size)], stream)
    per_chunk = -(-m.CHUNK // batch_size)
    assert passes[:-1] == [per_chunk] * (len(passes) - 1)
    assert 0 < passes[-1] <= per_chunk


def test_row_sums_add_in_input_order():
    """The gradient kernel's sums add a row's members one after the other,
    also on a width-1 column, where ndarray.sum(axis=0) sums 8 or more
    pairwise and gets other last bits."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 1)) * 10.0 ** rng.uniform(-8, 8, size=(40, 1))
    row_of = rng.integers(0, 3, 40)
    want = np.zeros((3, 1))
    for r, x in zip(row_of, X):
        want[r] += x
    got = m._row_sums(row_of, X, 3, {})
    assert got.tobytes() == want.tobytes()
    assert any(got[r] != X[row_of == r].sum(axis=0) for r in range(3))


def broadcast_row_sums(row_of, X, n_rows):
    """_row_sums with its bincount keys broadcast for the call: the oracle
    of the keys gathered from key tiles."""
    width = X.shape[1]
    return np.bincount((row_of[:, None] * width + np.arange(width)).ravel(),
                       weights=X.ravel(),
                       minlength=n_rows * width).reshape(n_rows, width)


def test_row_sums_gather_their_keys_from_the_tiles_given():
    """_row_sums keeps the bits of broadcast keys when it gathers them from
    a model's key tiles: one tile per width, made again larger only for a
    call with more rows than it holds, and read as it is by a later call
    with fewer."""
    rng = np.random.default_rng(3)
    tiles = tiny_model()._tiles
    for width in (1, 12, 57):
        made = []
        for n_rows in (5, 40, 7):  # the first tile, a larger one, fewer rows
            row_of = rng.integers(0, n_rows, 3 * n_rows)
            X = rng.normal(size=(len(row_of), width))
            got = m._row_sums(row_of, X, n_rows, tiles)
            assert got.tobytes() == broadcast_row_sums(row_of, X,
                                                       n_rows).tobytes()
            made.append(tiles[width])
        assert made[0] is not made[1] and made[2] is made[1]
        assert made[1].tolist() == np.arange(40 * width).reshape(
            40, width).tolist()
    assert sorted(tiles) == [1, 12, 57]


def zeros_start_column_sums(W, slots, n_tokens):
    """_column_sums from zeros, every slot added: the oracle of the sum
    that starts from the first slot's rows."""
    out = np.zeros((n_tokens, W.shape[1]))
    for tokens, ids in slots:
        if tokens is None:
            out += W.take(ids, axis=0)
        else:
            out[tokens] += W.take(ids, axis=0)
    return out


@pytest.mark.parametrize("first_live", [True, False],
                         ids=["first-slot-live", "first-slot-partly-live"])
def test_column_sums_start_from_the_first_slot(first_live):
    """Starting from the first slot's rows adds as a start from zeros
    does, also when the first slot is live for only some tokens."""
    rng = np.random.default_rng(4)
    W, n = rng.normal(size=(30, 5)), 6
    first = ((None, rng.integers(0, 30, n)) if first_live
             else (np.array([0, 2, 5]), rng.integers(0, 30, 3)))
    slots = (first, (None, rng.integers(0, 30, n)),
             (np.array([1, 2]), rng.integers(0, 30, 2)))
    got = m._column_sums(W, slots, n)
    assert got.tobytes() == zeros_start_column_sums(W, slots, n).tobytes()


def test_forward_keeps_its_bytes_where_theta_holds_negative_zeros(
        monkeypatch):
    """A column of -0.0 weights sums to -0.0 from the first slot's rows and
    to +0.0 from zeros; the softmax cannot tell them apart (exp(-0) =
    exp(+0) = 1), so forward's distributions keep the zeros-start bytes."""
    net = tiny_model()
    net.theta.values[:] = np.random.default_rng(5).normal(size=net.layout.size)
    v = net._views()
    v["W_int"][:, 1] = v["W_tag"][:, 0] = v["b_tag"][0] = -0.0
    batch = compiled(net, encoded(net, "hello there", "go far away now"))
    n = len(batch.example_of_token)
    assert np.signbit(m._column_sums(v["W_tag"], batch.slots, n)[:, 0]).all()
    assert not np.signbit(zeros_start_column_sums(v["W_tag"], batch.slots,
                                                  n)[:, 0]).any()
    got = forward(net, batch)
    monkeypatch.setattr(m, "_column_sums", zeros_start_column_sums)
    want = forward(net, batch)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


class TestDecode:
    def test_all_o_gives_slotless_tree(self):
        tree = decode_tree("never mind", "IN:A", ["O", "O"])
        assert serialize(tree) == "[IN:A never mind ]"

    def test_bio_run_becomes_slot(self):
        tree = decode_tree("x today now", "IN:A", ["O", "B-SL:X", "I-SL:X"])
        assert serialize(tree) == "[IN:A x [SL:X today now ] ]"

    def test_orphan_i_tag_repaired_to_b(self):
        tree = decode_tree("a b", "IN:A", ["O", "I-SL:X"])
        assert serialize(tree) == "[IN:A a [SL:X b ] ]"

    def test_leaves_always_match_query(self):
        rng = np.random.default_rng(5)
        net = tiny_model()
        tags = net.tags
        for _ in range(100):
            query = " ".join(f"t{rng.integers(0, 9)}"
                             for _ in range(rng.integers(1, 8)))
            tag_seq = [tags[rng.integers(0, len(tags))] for _ in query.split()]
            tree = decode_tree(query, "IN:A", tag_seq)
            assert list(tree.leaves) == query.split()


def toy_corpus(n_pairs=30):
    # linearly separable: intent and slots are determined by the tokens
    texts = []
    for i in range(n_pairs):
        texts.append(f"[IN:A alpha w{i % 3} [SL:X xval{i % 2} ] ]")
        texts.append(f"[IN:B beta q{i % 3} [SL:Y yval{i % 2} ] ]")
    return Dataset(tuple(example(f"e{j}", t) for j, t in enumerate(texts)))


def simple_plan(ids, seed):
    ids = sorted(ids)

    def plan_fn(epoch):
        rng = np.random.default_rng(seed + epoch)
        return [ids[i] for i in rng.permutation(len(ids))]

    return plan_fn


def em_evaluator(examples):
    gold = [e.tree for e in examples]

    def evaluator(net):
        return {"em": exact_match(gold, predict_trees(net, examples))}

    return evaluator


@pytest.mark.parametrize("batch_size", [0, -1])
def test_train_config_rejects_batch_size_below_one(batch_size):
    with pytest.raises(m.ModelError, match="^batch_size"):
        TrainConfig(batch_size=batch_size)


class TestTrain:
    def test_learns_separable_data(self):
        corpus = toy_corpus()
        net = tiny_model(feature_dim=512)
        result = train(net, *encode_examples(net, corpus),
                       simple_plan(corpus.ids(), 0),
                       TrainConfig(lr=0.5, batch_size=8, max_epochs=30,
                                   eval_every=50, patience=10),
                       em_evaluator(list(corpus)))
        assert result.history[-1]["em"] >= 0.95

    def test_zero_lr_keeps_weights_but_accumulates_fisher(self):
        corpus = toy_corpus()
        net = tiny_model(feature_dim=256)
        before = net.theta.values.copy()
        result = train(net, *encode_examples(net, corpus),
                       simple_plan(corpus.ids(), 0),
                       TrainConfig(lr=0.0, batch_size=16, max_epochs=1,
                                   eval_every=0, patience=10),
                       em_evaluator(list(corpus)))
        np.testing.assert_array_equal(net.theta.values, before)
        assert result.final.fisher_steps == result.total_steps > 0
        assert result.final.fisher_sum_sq.sum() > 0

    def test_deterministic(self):
        corpus = toy_corpus()
        outs = []
        for _ in range(2):
            net = tiny_model(feature_dim=256)
            result = train(net, *encode_examples(net, corpus),
                           simple_plan(corpus.ids(), 1),
                           TrainConfig(lr=0.3, batch_size=8, max_epochs=3,
                                       eval_every=10, patience=10),
                           em_evaluator(list(corpus)))
            outs.append((result.best.theta_values.copy(), tuple(
                r["em"] for r in result.history)))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]

    def test_empty_plan_runs_no_step_and_evaluates_once(self):
        net = tiny_model()
        before = net.theta.values.copy()
        result = train(net, *encode_examples(net, []), lambda epoch: [],
                       TrainConfig(max_epochs=3, eval_every=1),
                       lambda net: {"em": 0.5})
        assert result.total_steps == 0
        assert result.history == [{"em": 0.5, "step": 0}]
        assert result.best.step == result.final.step == 0
        assert result.final.fisher_steps == 0
        np.testing.assert_array_equal(net.theta.values, before)

    def test_best_checkpoint_is_the_state_at_its_eval(self):
        """The best EM's theta, Fisher steps, step and history, kept in
        memory order through later improvements and non-improvements."""
        corpus = toy_corpus()
        net = tiny_model(feature_dim=64)
        ems = iter([0.1, 0.5, 0.7, 0.3, 0.2])
        seen = []  # theta at each eval

        def evaluator(net):
            seen.append(net.theta.values.copy())
            return {"em": next(ems)}

        result = train(net, *encode_examples(net, corpus),
                       simple_plan(corpus.ids(), 0),
                       TrainConfig(lr=0.5, batch_size=8, max_epochs=3,
                                   eval_every=5, patience=10), evaluator)
        assert [r["step"] for r in result.history] == [5, 10, 15, 20, 24]
        best = result.best
        assert (best.step, best.fisher_steps) == (15, 15)
        assert best.history == tuple(result.history[:3])
        assert best.theta_values.tobytes() == seen[2].tobytes()
        assert result.final.theta_values.tobytes() == seen[4].tobytes()
        assert result.final.history == tuple(result.history)

    def test_best_is_final_when_no_step_follows_its_eval(self):
        """A best EM at the last eval makes the best checkpoint the final
        one, arrays and all. The final theta is a copy: the caller's model
        may change after the run."""
        corpus = toy_corpus()
        net = tiny_model(feature_dim=64)
        ems = iter([0.1, 0.7])
        result = train(net, *encode_examples(net, corpus),
                       simple_plan(corpus.ids(), 0),
                       TrainConfig(lr=0.5, batch_size=8, max_epochs=1,
                                   eval_every=5),
                       lambda net: {"em": next(ems)})
        assert [r["step"] for r in result.history] == [5, 8]
        assert result.best is result.final
        assert result.final.history == tuple(result.history)
        theta = net.theta.values.copy()
        net.theta.values[:] = 0.0
        np.testing.assert_array_equal(result.final.theta_values, theta)

    def test_full_freeze_keeps_theta_bit_identical(self):
        corpus = toy_corpus()
        net = tiny_model(feature_dim=256)
        before = net.theta.values.copy()
        train(net, *encode_examples(net, corpus), simple_plan(corpus.ids(), 0),
              TrainConfig(lr=0.5, batch_size=8, max_epochs=1, eval_every=0,
                          patience=10,
                          freeze=frozenset({"intent_head", "tag_head"})),
              em_evaluator(list(corpus)))
        np.testing.assert_array_equal(net.theta.values, before)


def reference_train(net, by_id, plan_fn, cfg, theta_prev, fisher_prev,
                    fisher_acc):
    """Dense SGD over the oracle gradient: what train's step did before it
    stepped only the touched coordinates."""
    for epoch in range(cfg.max_epochs):
        for ids in batches(plan_fn(epoch), cfg.batch_size):
            items = [(reference_featurize(by_id[i].query, net.feature_dim),
                      *encode_targets(net, by_id[i])) for i in ids]
            _, grad, data_grad = reference_loss_and_grad(
                net, items, cfg.reg, theta_prev,
                fisher_prev if cfg.reg.kind == "ewc" else None)
            fisher_acc.update(data_grad)
            grad = apply_freeze(grad, cfg.freeze)
            net.theta.values -= cfg.lr * grad.values
    return net.theta.values, fisher_acc


def fisher_support(net, fisher_sum_sq):
    """The hashed features with a positive Fisher sum in some head row,
    reading memory-order (feature-major) sums."""
    views = row_major_views(net, ParamVector(net.layout, fisher_sum_sq))
    found = (views["W_int"] > 0).any(axis=0) | (views["W_tag"] > 0).any(axis=0)
    return set(np.flatnonzero(found).tolist())


def fine_tune(kind, form, strength, prev_intent, frozen=(), batch_size=7,
              n_pairs=30):
    """(by_id, prev, cfg, result) of a two-epoch anchored fine-tune on the
    toy corpus of n_pairs pairs from prev, one epoch on it (only on its
    prev_intent examples, at feature_dim 512, unless prev_intent is None:
    all, at 32)."""
    by_id = {e.id: e for e in toy_corpus(n_pairs)}
    prev_ids = {eid: ex for eid, ex in by_id.items()
                if prev_intent in (None, ex.tree.root.name)}
    net = tiny_model(feature_dim=32 if prev_intent is None else 512)
    corpus, row_of = encode_examples(net, by_id.values())
    prev = train(net, corpus, row_of, simple_plan(prev_ids, 0),
                 TrainConfig(lr=0.5, batch_size=8, max_epochs=1, eval_every=0),
                 lambda net: {"em": 0.0}).final
    cfg = TrainConfig(lr=0.3, batch_size=batch_size, max_epochs=2,
                      eval_every=0,
                      reg=RegConfig(kind=kind, strength=strength, form=form),
                      freeze=frozenset(frozen))
    result = train(prev.model(), corpus, row_of, simple_plan(by_id, 5), cfg,
                   lambda net: {"em": 0.0}, prev=prev)
    return by_id, prev, cfg, result


@pytest.mark.parametrize("frozen", [(), ("intent_head",), ("tag_head",),
                                    ("intent_head", "tag_head")])
@pytest.mark.parametrize("kind, form, strength, prev_intent", [
    *(pytest.param(kind, "squared", 0.5, None, id=kind)
      for kind in ("none", "movenorm", "ewc")),
    *(pytest.param(kind, "norm", 0.5, None, id=f"{kind}-norm")
      for kind in ("movenorm", "ewc")),
    # reachable through config; train takes the sparse step, the reference
    # adds penalty's dense zeros
    pytest.param("movenorm", "squared", 0.0, None, id="movenorm-strength0"),
    # prev saw only IN:A examples, at a feature_dim where the IN:B features
    # are rows of zero Fisher: the EWC step's support is a strict subset of
    # the rows, and the fine-tune touches rows outside it
    pytest.param("ewc", "squared", 0.5, "IN:A", id="ewc-unseen-rows"),
    pytest.param("ewc", "norm", 0.5, "IN:A", id="ewc-norm-unseen-rows"),
])
def test_train_checkpoint_equals_dense_reference(tmp_path, kind, form,
                                                 strength, prev_intent, frozen):
    by_id, prev, cfg, result = fine_tune(kind, form, strength, prev_intent,
                                         frozen)
    net = prev.model()
    if prev_intent is not None:
        support = fisher_support(net, prev.fisher_sum_sq)
        touched = set(encode([ex.query for ex in by_id.values()],
                             net.feature_dim).feats.ravel().tolist()) - {-1}
        assert support < set(range(net.feature_dim))
        assert touched - support and touched & support
    assert_equals_dense_reference(tmp_path, by_id, prev, cfg, result)


@pytest.mark.parametrize("frozen", [(), ("intent_head",)])
@pytest.mark.parametrize("kind", ["none", "ewc"])
@pytest.mark.parametrize("batch_size", [1, 7])
def test_train_across_chunks_equals_dense_reference(tmp_path, kind, frozen,
                                                    batch_size):
    """Epochs of 300 examples span two compiles of ceil(CHUNK / batch_size)
    batches; at batch_size 7 the second compile ends in a short batch."""
    n_pairs = 150
    assert 2 * n_pairs > -(-m.CHUNK // batch_size) * batch_size
    by_id, prev, cfg, result = fine_tune(kind, "squared", 0.5, None, frozen,
                                         batch_size, n_pairs)
    assert_equals_dense_reference(tmp_path, by_id, prev, cfg, result)


def assert_equals_dense_reference(tmp_path, by_id, prev, cfg, result):
    """train's final checkpoint, saved, has the bytes of reference_train's
    from the same prev."""
    def accumulator():  # one that continues a copy of prev's Fisher sums
        return FisherAccumulator(prev.layout, prev.fisher_sum_sq.copy(),
                                 prev.fisher_steps)

    theta, acc = reference_train(prev.model(), by_id, simple_plan(by_id, 5),
                                 cfg, prev.model().theta,
                                 accumulator().fisher(), accumulator())
    reference = dataclasses.replace(result.final, theta_values=theta,
                                    fisher_sum_sq=acc.sum_sq,
                                    fisher_steps=acc.steps)
    save_checkpoint(result.final, tmp_path / "train.ckpt")
    save_checkpoint(reference, tmp_path / "reference.ckpt")
    assert ((tmp_path / "train.ckpt").read_bytes()
            == (tmp_path / "reference.ckpt").read_bytes())


# sha256 of the final checkpoint of fine_tune(kind, form, 0.5, prev_intent),
# as the row-major parameter layout wrote it: the on-disk bytes must not
# depend on the order of theta in memory, and no other pin covers the norm
# form, whose sum adds in memory order, as penalty's does
FINE_TUNE_SHA256 = {
    ("movenorm", "norm", None):
        "4445d98afffb1d869d8011d5138d78904639721825e0b5f241c570531348778f",
    ("ewc", "norm", None):
        "4b4425828714744dd3cae4e536f205fa6414ab3f09c9e6301d8a6135a8486b27",
    ("ewc", "squared", "IN:A"):
        "010431bbdfa5070e68eef2494a9f8e9085a84bc8bb57b1d63f2cbae80d37da3d",
    ("ewc", "norm", "IN:A"):
        "f25d419a95c87706714260c57f93184dcb203a52ef107ea02d1f109f1dee55a8",
}

# the state of the same checkpoints, in memory and as loaded
# (conftest.checkpoint_state_sha256), which a change of file format keeps
FINE_TUNE_STATE_SHA256 = {
    ("movenorm", "norm", None):
        "bca30c2c26ef33888f1a9246f88507f8ec66ab38080b16593a65c5a6d895aa07",
    ("ewc", "norm", None):
        "57edc8f25c7765fe39f057d410f6e7ed3beb52000c82c2974b7c1bedf5076ab5",
    ("ewc", "squared", "IN:A"):
        "c966abc68979c6ecacd1330540d8ce5640f76883a1fe32ba5fcc0a9ce93a0799",
    ("ewc", "norm", "IN:A"):
        "2d740fd585a7d2e527db721e0b934fcaa85fa2d896dffb6ba4514089b8acdf3e",
}


@pytest.mark.parametrize("kind, form, prev_intent", FINE_TUNE_SHA256)
def test_fine_tune_checkpoint_keeps_its_bytes(tmp_path, state_sha256, kind,
                                              form, prev_intent):
    result = fine_tune(kind, form, 0.5, prev_intent)[3]
    save_checkpoint(result.final, tmp_path / "f.ckpt")
    state = FINE_TUNE_STATE_SHA256[kind, form, prev_intent]
    assert state_sha256(result.final) == state
    assert state_sha256(load_checkpoint(tmp_path / "f.ckpt")) == state
    digest = hashlib.sha256((tmp_path / "f.ckpt").read_bytes()).hexdigest()
    assert digest == FINE_TUNE_SHA256[kind, form, prev_intent]


def test_short_epochs_share_a_compile_pass(monkeypatch):
    """A naive fine-tune on a patch of 56 examples, 38 epochs of four
    batches of 16 (the last one short), compiles ceil(CHUNK / 16) = 16
    whole batches per pass, from as many epochs as they span: at most
    ceil(examples / CHUNK) + 1 passes over all its examples, not one per
    epoch."""
    by_id = {e.id: e for e in toy_corpus(28)}
    net = tiny_model()
    corpus, row_of = encode_examples(net, by_id.values())
    prev = train(net, corpus, row_of, simple_plan(by_id, 0),
                 TrainConfig(lr=0.5, batch_size=16, max_epochs=1,
                             eval_every=0), lambda net: {"em": 0.0}).final
    passes = count_compile_passes(monkeypatch)
    result = train(prev.model(), corpus, row_of, simple_plan(by_id, 5),
                   TrainConfig(lr=0.3, batch_size=16, max_epochs=38,
                               eval_every=0), lambda net: {"em": 0.0},
                   prev=prev)
    assert result.total_steps == sum(passes) == 38 * 4
    assert len(passes) <= -(-38 * len(by_id) // m.CHUNK) + 1
    assert max(passes) == -(-m.CHUNK // 16)


@pytest.mark.parametrize("kind, form, prev_intent", FINE_TUNE_SHA256)
def test_early_stop_inside_a_packed_chunk_keeps_the_bytes(
        tmp_path, state_sha256, kind, form, prev_intent):
    """A fine-tune of four epochs of nine batches, all compiled in one
    pass, that stops early after the second (patience 0 stops at the first
    eval, at step 18) drops the batches compiled past the stop: its final
    checkpoint has the bytes of the two-epoch fine-tune's, which the dense
    reference and FINE_TUNE_SHA256 pin."""
    by_id, prev, cfg, _ = fine_tune(kind, form, 0.5, prev_intent)
    epochs, plan_fn = [], simple_plan(by_id, 5)
    with pytest.MonkeyPatch.context() as patch:
        passes = count_compile_passes(patch)
        result = train(prev.model(), *encode_examples(prev.model(),
                                                      by_id.values()),
                       lambda epoch: epochs.append(epoch) or plan_fn(epoch),
                       dataclasses.replace(cfg, max_epochs=4, eval_every=18,
                                           patience=0),
                       lambda net: {"em": 0.0}, prev=prev)
    assert passes == [36] and epochs == [0, 1, 2, 3]
    assert result.stopped_early and result.total_steps == 18
    assert_equals_dense_reference(tmp_path, by_id, prev, cfg, result)
    save_checkpoint(result.final, tmp_path / "f.ckpt")
    assert state_sha256(result.final) == FINE_TUNE_STATE_SHA256[
        kind, form, prev_intent]
    digest = hashlib.sha256((tmp_path / "f.ckpt").read_bytes()).hexdigest()
    assert digest == FINE_TUNE_SHA256[kind, form, prev_intent]


@pytest.mark.parametrize("reg, frozen", [
    pytest.param(None, (), id="scratch"),
    pytest.param(RegConfig(kind="ewc", strength=0.5), (), id="ewc"),
    pytest.param(RegConfig(kind="movenorm", strength=0.5, form="norm"),
                 ("tag_head",), id="movenorm-norm-frozen"),
])
def test_a_step_walks_no_layout(monkeypatch, reg, frozen):
    """Where theta's groups start, its and the Fisher sums' row views, and
    whether two layouts agree are found once per run: runs of 1 and of 3
    epochs over the same plans look up as many group slices, make as many
    row views and compare as many layouts."""
    by_id = {e.id: e for e in toy_corpus()}
    net = tiny_model()
    corpus, row_of = encode_examples(net, by_id.values())
    prev = None
    if reg is not None:
        prev = train(net, corpus, row_of, simple_plan(by_id, 0),
                     TrainConfig(lr=0.5, batch_size=8, max_epochs=1,
                                 eval_every=0),
                     lambda net: {"em": 0.0}).final
    calls = Counter()
    slice_of, rows = ParamLayout.slice_of, ParamLayout.rows
    check = regularizers._check_layouts

    def counted_slice_of(layout, name):
        calls["slice_of"] += 1
        return slice_of(layout, name)

    def counted_rows(layout, values):
        calls["rows"] += 1
        return rows(layout, values)

    def counted_check(*vectors):
        calls["check"] += 1
        return check(*vectors)

    monkeypatch.setattr(ParamLayout, "slice_of", counted_slice_of)
    monkeypatch.setattr(ParamLayout, "rows", counted_rows)
    monkeypatch.setattr(regularizers, "_check_layouts", counted_check)
    counts, steps = [], []
    for epochs in (1, 3):
        calls.clear()
        cfg = TrainConfig(lr=0.3, batch_size=7, max_epochs=epochs,
                          eval_every=0, reg=reg or RegConfig(),
                          freeze=frozenset(frozen))
        start = tiny_model() if prev is None else prev.model()
        result = train(start, corpus, row_of, simple_plan(by_id, 5), cfg,
                       em_evaluator(list(by_id.values())), prev=prev)
        counts.append(dict(calls))
        steps.append(result.total_steps)
    assert steps[1] == 3 * steps[0] > 0
    assert counts[0]["rows"] > 0
    assert counts[0] == counts[1]


def test_a_second_epoch_makes_no_key_tile():
    """The step gathers its bincount keys from the model's key tiles
    (_row_sums): over an epoch with the same batches as the first, it
    gathers from the tiles the first epoch made and makes none. The tiles
    are read at each epoch's end, by an evaluator that runs there: the
    plans of both epochs are drawn before the first step (one compile
    pass holds both)."""
    by_id = {e.id: e for e in toy_corpus()}
    net = tiny_model()
    corpus, row_of = encode_examples(net, by_id.values())
    plan, tiles = simple_plan(by_id, 5), [dict(net._tiles)]

    def evaluator(net):
        tiles.append(dict(net._tiles))
        return {"em": 0.0}

    per_epoch = len(batches(by_id, 7))
    result = train(net, corpus, row_of, lambda epoch: plan(0),
                   TrainConfig(lr=0.3, batch_size=7, max_epochs=2,
                               eval_every=per_epoch), evaluator)
    assert result.total_steps == 2 * per_epoch
    assert [r["step"] for r in result.history] == [per_epoch, 2 * per_epoch]
    n_int, n_tag = len(net.intents), len(net.tags)
    assert not tiles[0]
    assert sorted(tiles[1]) == sorted({n_int, n_tag, n_int + n_tag})
    assert tiles[2].keys() == tiles[1].keys()
    assert all(tiles[2][width] is tile for width, tile in tiles[1].items())


@pytest.mark.parametrize("inside", [True, False],
                         ids=["all-rows-in-support", "a-row-outside"])
def test_squared_ewc_step_equals_the_dense_oracle_in_and_out_of_support(
        inside):
    """The squared EWC step splits a group's data gradient at the Fisher's
    support: rows inside it are added in the support buffer, rows outside
    it take the sparse step. prev saw only IN:A examples at a feature_dim
    where IN:B's words are rows of zero Fisher: an IN:A batch touches only
    support rows in both heads, an IN:B batch rows outside it too. Each
    stepped theta has the bytes of the oracle gradient's dense step."""
    by_id, prev, cfg, _ = fine_tune("ewc", "squared", 0.5, "IN:A")
    net, dense_net = prev.model(), prev.model()
    theta_prev = ParamVector(prev.layout, prev.theta_values)
    fisher = prev.fisher_sum_sq / prev.fisher_steps
    step = anchored_step(net.theta, theta_prev, fisher, cfg.reg, cfg.lr,
                         frozenset())
    corpus, row_of = encode_examples(net, by_id.values())
    support = [np.flatnonzero((rows > 0).any(axis=1))
               for rows in net.layout.rows(fisher)]
    for n in range(3):
        exs = [ex for ex in by_id.values()
               if (ex.tree.root.name == "IN:A") == inside][n:n + 4]
        batch = compiled(net, corpus.take([row_of[ex.id] for ex in exs]))
        grad = m._gradient(net, batch)[2]
        in_support = [np.isin(rows, s).all()
                      for rows, s in zip(grad.rows, support)]
        assert in_support == [inside, inside]
        step(grad)
        items = [(reference_featurize(ex.query, net.feature_dim),
                  *encode_targets(net, ex)) for ex in exs]
        total = reference_loss_and_grad(dense_net, items, cfg.reg,
                                        theta_prev, fisher)[1]
        dense_net.theta.values -= cfg.lr * total.values
        assert net.theta.values.tobytes() == dense_net.theta.values.tobytes()


def test_train_encodes_nothing(monkeypatch):
    """train reads the rows its plans draw from a corpus encoded before it;
    a row's bytes do not depend on the other examples encoded with it, and
    a label the model lacks fails when the corpus is built, named."""
    corpus = toy_corpus()
    drawn = sorted(corpus.ids())[:10]
    config = TrainConfig(lr=0.5, batch_size=4, max_epochs=3, eval_every=0)
    finals = []
    for examples in (corpus, [ex for ex in corpus if ex.id in drawn]):
        net = tiny_model(feature_dim=64)
        encoded, row_of = encode_examples(net, examples)
        calls = []
        with monkeypatch.context() as patch:
            for name in ("encode", "encode_targets"):
                patch.setattr(m, name, lambda *args: calls.append(args))
            result = train(net, encoded, row_of,
                           lambda epoch: drawn[epoch:] + drawn[:epoch], config,
                           lambda net: {"em": 0.0})
        assert calls == []
        assert result.total_steps == 9
        finals.append(result.final.theta_values.tobytes())
    assert finals[0] == finals[1]
    unseen = example("unseen", "[IN:Z never [SL:Z drawn ] ]")
    with pytest.raises(UnknownLabel, match="^IN:Z, SL:Z$"):
        encode_examples(tiny_model(feature_dim=64), (*corpus, unseen))


def test_encode_examples_encodes_each_distinct_example_once(monkeypatch):
    """A generated corpus repeats its trees, one object each. Its corpus
    equals the per-example encoding in value and dtype, while encode sees
    each (query, tree object) once: an equal tree of another object, or
    the shared tree under another spacing of its query, is one more."""
    train_set, _ = generate(builtin_grammar(),
                            GenConfig(seed=3, n_train=300, n_test=1))
    first = train_set[0]
    examples = [*train_set,
                Example("copy", first.query, parse_top(serialize(first.tree))),
                Example("spaced", first.query.replace(" ", "  "), first.tree)]
    classes = sorted(train_set.classes())
    net = TaggerModel.init([c for c in classes if c.startswith("IN:")],
                           [c for c in classes if c.startswith("SL:")],
                           feature_dim=512)
    want = encode([ex.query for ex in examples], net.feature_dim,
                  [encode_targets(net, ex) for ex in examples])
    encoded_queries = []
    real_encode = m.encode
    monkeypatch.setattr(m, "encode", lambda queries, *args: encoded_queries
                        .extend(queries) or real_encode(queries, *args))
    corpus, row_of = encode_examples(net, examples)
    distinct = {(ex.query, id(ex.tree)) for ex in examples}
    assert len(encoded_queries) == len(distinct) < len(train_set)
    assert len({serialize(ex.tree) for ex in train_set}) + 2 == len(distinct)
    for name in ("feats", "offsets", "intents", "tags"):
        got, expected = getattr(corpus, name), getattr(want, name)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected), name
    assert row_of == {ex.id: row for row, ex in enumerate(examples)}


# prev: no checkpoint (False), one of the model (True) or one of another
# layout; fisher: none recorded (False, fisher_steps 0), one (True) or one
# of the wrong shape
@pytest.mark.parametrize("kind, prev, fisher, error", [
    ("movenorm", False, False, MissingAnchor),
    ("ewc", False, True, MissingAnchor),
    ("ewc", True, False, MissingFisher),
    ("movenorm", "other_layout", False, LayoutMismatch),
    ("ewc", True, "wrong_shape", LayoutMismatch),
    ("none", "other_layout", True, LayoutMismatch),
])
def test_penalty_without_its_anchor_fails_before_any_step(
        monkeypatch, kind, prev, fisher, error):
    corpus = toy_corpus()
    net = tiny_model()
    encoded, row_of = encode_examples(net, corpus)
    source = {True: net, "other_layout": tiny_model(feature_dim=32)}.get(prev)
    ckpt = None if source is None else Checkpoint(
        intents=source.intents, slots=source.slots,
        feature_dim=source.feature_dim,
        theta_values=source.theta.values.copy(),
        fisher_sum_sq=np.ones(source.layout.size - (fisher == "wrong_shape")),
        fisher_steps=int(bool(fisher)), step=0)
    calls = []
    monkeypatch.setattr(m, "_gradient", lambda *args: calls.append(args))
    with pytest.raises(error):
        train(net, encoded, row_of, simple_plan(row_of, 0),
              TrainConfig(max_epochs=1, eval_every=0,
                          reg=RegConfig(kind=kind, strength=1.0)),
              lambda net: {"em": 0.0}, prev=ckpt)
    assert calls == []


def test_encode_targets_ids():
    net = tiny_model()  # tags O, B-SL:X, I-SL:X, B-SL:Y, I-SL:Y
    intent, tags = encode_targets(
        net, example("e", "[IN:B go [SL:Y now then ] [SL:X x ] fast ]"))
    assert intent == 1
    assert tags == [0, 3, 4, 1, 0]
    # a nested slot tags all its leaves; an empty slot tags none
    intent, tags = encode_targets(
        net, example("e", "[IN:A go [SL:X [IN:B a [SL:Y b ] ] c ] ]"))
    assert (intent, tags) == (0, [0, 1, 2, 2])
    intent, tags = encode_targets(net, example("e", "[IN:A x [SL:X ] y ]"))
    assert (intent, tags) == (0, [0, 0])
    for text, label in (("[IN:Z a ]", "IN:Z"), ("[IN:A a [SL:Z b ] ]", "SL:Z")):
        with pytest.raises(UnknownLabel, match=f"^{label}$"):
            encode_targets(net, example("e", text))


@pytest.mark.parametrize("text, expected", [
    ("[IN:B go [SL:Y now then ] fast ]", (1, [0, 3, 4, 0], True)),
    ("[IN:A hi ]", (0, [0], True)),
    ("[IN:A go [SL:X [IN:B a ] c ] ]", (0, [0, 1, 2], False)),
    ("[IN:A x [SL:X ] y ]", (0, [0, 0], False)),
    ("[IN:Z a [SL:Z b c ] [SL:Y d ] ]", (-1, [0, -1, -1, 3], True)),
])
def test_gold_targets(text, expected):
    assert m.gold_targets(tiny_model(), parse_top(text)) == expected


class TestCheckpoint:
    def _trained(self):
        corpus = toy_corpus()
        net = tiny_model(feature_dim=256)
        result = train(net, *encode_examples(net, corpus),
                       simple_plan(corpus.ids(), 0),
                       TrainConfig(lr=0.5, batch_size=8, max_epochs=3,
                                   eval_every=20, patience=10),
                       em_evaluator(list(corpus)))
        return result, corpus

    def test_round_trip_bit_exact(self, tmp_path):
        result, _ = self._trained()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(result.best, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(loaded.theta_values, result.best.theta_values)
        np.testing.assert_array_equal(loaded.fisher_sum_sq, result.best.fisher_sum_sq)
        assert loaded.fisher_steps == result.best.fisher_steps == result.best.step

    def test_corrupt_file_rejected(self, tmp_path):
        result, _ = self._trained()
        path = tmp_path / "c.ckpt"
        save_checkpoint(result.best, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumError):
            load_checkpoint(path)
        (tmp_path / "junk").write_bytes(b"not a checkpoint")
        with pytest.raises(ChecksumError):
            load_checkpoint(tmp_path / "junk")

    @staticmethod
    def _write_header(path, header):
        """Replace a checkpoint's header with the bytes `header`,
        re-checksummed."""
        payload = path.read_bytes()[len(m._MAGIC) + 32:]
        header_len = int.from_bytes(payload[:8], "big")
        payload = len(header).to_bytes(8, "big") + header + payload[8 + header_len:]
        path.write_bytes(m._MAGIC + hashlib.sha256(payload).digest() + payload)

    @classmethod
    def _edit_header(cls, path, *dropped, **changes):
        """Rewrite a checkpoint's header without the keys `dropped` and with
        `changes`, re-checksummed; returns the header it read."""
        payload = path.read_bytes()[len(m._MAGIC) + 32:]
        header_len = int.from_bytes(payload[:8], "big")
        read = json.loads(payload[8:8 + header_len])
        meta = {k: v for k, v in read.items() if k not in dropped}
        meta.update(changes)
        cls._write_header(path, json.dumps(meta, sort_keys=True).encode("utf-8"))
        return read

    @pytest.mark.parametrize("header", [
        pytest.param(b'{"step": "\xff"}', id="not-utf-8"),
        pytest.param(b"{'step': 1}", id="not-json"),
        pytest.param(b"[1, 2]", id="json-list"),
        pytest.param({"intents": 5}, id="intents-number"),
        pytest.param({"feature_dim": "x"}, id="feature-dim-text"),
        # these passed the field reads: an empty intent list failed in the
        # layout, naming no file, and the others loaded
        pytest.param({"intents": []}, id="intents-empty"),
        pytest.param({"intents": [[1]]}, id="intents-not-strings"),
        pytest.param({"config_digest": 5}, id="config-digest-number"),
        pytest.param({"fisher_steps": 1.5}, id="fisher-steps-fraction"),
        pytest.param({"step": True}, id="step-bool"),
        pytest.param({"feature_dim": 0}, id="feature-dim-zero"),
        pytest.param({"history": {}}, id="history-object"),
    ])
    def test_malformed_header_rejected_naming_the_file(self, tmp_path, header):
        net = TaggerModel.init(("IN:A",), ("SL:X",), feature_dim=16)
        path = tmp_path / "m.ckpt"
        save_checkpoint(Checkpoint(intents=net.intents, slots=net.slots,
                                   feature_dim=16,
                                   theta_values=net.theta.values,
                                   fisher_sum_sq=net.theta.values,
                                   fisher_steps=0, step=0), path)
        if isinstance(header, dict):
            self._edit_header(path, **header)
        else:
            self._write_header(path, header)
        with pytest.raises(ChecksumError,
                           match=f"^{re.escape(str(path))}: malformed header"):
            load_checkpoint(path)

    def test_header_without_a_key_rejected_naming_it(self, tmp_path):
        result, _ = self._trained()
        path = tmp_path / "k.ckpt"
        save_checkpoint(result.best, path)
        saved = path.read_bytes()
        for key in self._edit_header(path):
            path.write_bytes(saved)
            self._edit_header(path, key)
            with pytest.raises(ChecksumError,
                               match=f"^{re.escape(str(path))}: the header "
                                     f"lacks '{key}'$"):
                load_checkpoint(path)

    def test_header_layout_mismatch_names_both_sizes(self, tmp_path):
        result, _ = self._trained()
        path = tmp_path / "e.ckpt"
        save_checkpoint(result.best, path)
        # one slot fewer: two tag rows fewer
        self._edit_header(path, slots=list(result.best.slots[:1]))
        n_theta = result.best.theta_values.size
        size = m.make_layout(256, len(INTENTS), 3).size
        with pytest.raises(DimMismatch, match=f"n_theta {n_theta} .* size {size}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("hidden_dim", [8, None])
    def test_header_hidden_dim_other_than_zero_rejected(self, tmp_path, hidden_dim):
        result, _ = self._trained()
        path = tmp_path / "h.ckpt"
        save_checkpoint(result.best, path)
        self._edit_header(path, hidden_dim=hidden_dim)
        with pytest.raises(DimMismatch, match=f": hidden_dim {hidden_dim!r};"):
            load_checkpoint(path)

    def test_loaded_arrays_own_aligned_writable_memory(self, tmp_path):
        result, _ = self._trained()
        path = tmp_path / "o.ckpt"
        save_checkpoint(result.best, path)
        loaded = load_checkpoint(path)
        for values in (loaded.theta_values, loaded.fisher_sum_sq):
            assert values.dtype == np.float64
            assert values.flags.writeable and values.flags.aligned
            assert values.flags.c_contiguous and values.flags.owndata
            assert values.base is None
        assert not np.shares_memory(loaded.theta_values, loaded.fisher_sum_sq)

    @pytest.mark.parametrize("old, new", [
        (b'"hidden_dim": 0', b'"hidden_dim": 8'),
        (b'"n_theta": ', b'"n_theta": 1'),
        (b'{"config_digest"', b'["config_digest"'),
    ], ids=["hidden-dim", "n-theta", "not-json"])
    def test_header_edited_without_checksum_fails_it_first(self, tmp_path,
                                                           old, new):
        """The header is read and checked before the body, but its errors
        wait for the checksum: header bytes edited and not re-checksummed
        raise the checksum mismatch, not the header's error."""
        result, _ = self._trained()
        path = tmp_path / "u.ckpt"
        save_checkpoint(result.best, path)
        blob = path.read_bytes()
        assert blob.count(old) == 1
        path.write_bytes(blob.replace(old, new))
        with pytest.raises(ChecksumError, match="payload checksum mismatch$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit", ["feature_dim", "n_theta"])
    def test_header_of_a_larger_body_rejected_before_any_theta(self, tmp_path,
                                                               edit):
        """A re-checksummed header whose feature_dim (with sizes to match)
        or n_theta implies a body larger than the file raises DimMismatch
        before anything theta-sized is made: the traced peak stays far
        below theta. Reading the whole file first peaked above 2 theta."""
        net = default_shape_model()
        path = tmp_path / "l.ckpt"
        save_checkpoint(Checkpoint(intents=net.intents, slots=net.slots,
                                   feature_dim=net.feature_dim,
                                   theta_values=net.theta.values,
                                   fisher_sum_sq=net.theta.values,
                                   fisher_steps=0, step=0), path)
        if edit == "feature_dim":
            size = m.make_layout(2 * net.feature_dim, len(net.intents),
                                 len(net.tags)).size
            self._edit_header(path, feature_dim=2 * net.feature_dim,
                              n_theta=size, n_fisher=size)
            match = f"bytes, not the {16 * size} of n_theta {size} "
        else:
            self._edit_header(path, n_theta=10 * net.theta.values.size)
            match = "n_theta .* do not match"
        tracemalloc.start()
        try:
            with pytest.raises(DimMismatch, match=match):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * net.theta.values.nbytes

    @pytest.mark.parametrize("where", ["header-length", "header", "body"])
    def test_cut_file_fails_its_checksum(self, tmp_path, where):
        """A file cut short, inside the header or inside the body, fails
        its checksum."""
        result, _ = self._trained()
        path = tmp_path / "t.ckpt"
        save_checkpoint(result.best, path)
        blob = path.read_bytes()
        start = len(m._MAGIC) + 32
        header_len = int.from_bytes(blob[start:start + 8], "big")
        cut = {"header-length": start + 4,
               "header": start + 8 + header_len // 2,
               "body": (start + 8 + header_len + len(blob)) // 2}[where]
        path.write_bytes(blob[:cut])
        with pytest.raises(ChecksumError, match="payload checksum mismatch$"):
            load_checkpoint(path)

    def test_short_body_rejected_naming_both_lengths(self, tmp_path):
        net = TaggerModel.init(("IN:A",), ("SL:X",), feature_dim=16)
        assert net.layout.size == 68
        path = tmp_path / "s.ckpt"
        save_checkpoint(Checkpoint(intents=net.intents, slots=net.slots,
                                   feature_dim=16,
                                   theta_values=net.theta.values,
                                   fisher_sum_sq=net.theta.values ** 2,
                                   fisher_steps=1, step=1), path)
        payload = path.read_bytes()[len(m._MAGIC) + 32:][:-8 * 5]
        path.write_bytes(m._MAGIC + hashlib.sha256(payload).digest() + payload)
        with pytest.raises(DimMismatch, match=r"holds 1048 bytes, not the 1088"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [1, -1])
    def test_save_rejects_arrays_of_another_size(self, tmp_path, extra):
        """save_checkpoint transposes into a layout-sized buffer: an array
        of another size raises, and is not cut to the layout's."""
        net = TaggerModel.init(("IN:A",), ("SL:X",), feature_dim=16)
        ckpt = Checkpoint(intents=net.intents, slots=net.slots, feature_dim=16,
                          theta_values=net.theta.values,
                          fisher_sum_sq=np.zeros(net.layout.size + extra),
                          fisher_steps=0, step=0)
        with pytest.raises(DimMismatch, match="layout's 68 values"):
            save_checkpoint(ckpt, tmp_path / "z.ckpt")

    def test_loaded_model_reproduces_metrics(self, tmp_path):
        result, corpus = self._trained()
        path = tmp_path / "d.ckpt"
        save_checkpoint(result.best, path)
        net = load_checkpoint(path).model()
        em = em_evaluator(list(corpus))(net)["em"]
        best_record = [r for r in result.history
                       if r["step"] == result.best.step]
        assert best_record and best_record[-1]["em"] == em


def test_checkpoint_stores_heads_row_major(tmp_path):
    """A distinct value at every coordinate: a checkpoint holds theta and
    the Fisher sums in memory order, and its file holds each head's weights
    row-major, then its biases (checkpoint_order's reading, not _views'),
    for theta and the Fisher sums alike; loading it gives back the arrays
    it had in memory."""
    net = tiny_model(feature_dim=16)
    size = net.layout.size
    net.theta.values[:] = np.arange(1.0, size + 1)
    fisher = np.arange(size + 1.0, 2 * size + 1)  # in checkpoint order
    prev = Checkpoint(intents=net.intents, slots=net.slots, feature_dim=16,
                      theta_values=net.theta.values.copy(),
                      fisher_sum_sq=memory_order(net, fisher), fisher_steps=3,
                      step=0)
    # no epoch: the run snapshots the theta and the Fisher sums it starts from
    ckpt = train(net, *encode_examples(net, []), lambda epoch: [],
                 TrainConfig(max_epochs=0, eval_every=0),
                 lambda net: {"em": 0.0}, prev=prev).final
    path = tmp_path / "o.ckpt"
    save_checkpoint(ckpt, path)
    payload = path.read_bytes()[len(m._MAGIC) + 32:]
    header_len = int.from_bytes(payload[:8], "big")
    body = np.frombuffer(payload[8 + header_len:], dtype=np.float64)
    np.testing.assert_array_equal(body[:size],
                                  checkpoint_order(net, net.theta.values))
    np.testing.assert_array_equal(body[size:], fisher)
    # the first row of W_int: intent 0's weight of each feature
    np.testing.assert_array_equal(body[:16],
                                  net.theta.values[:16 * 2:2])
    loaded = load_checkpoint(path)
    np.testing.assert_array_equal(loaded.theta_values, net.theta.values)
    np.testing.assert_array_equal(loaded.fisher_sum_sq,
                                  memory_order(net, fisher))


def model_case(feature_dim, n_intents, n_slots):
    """A model's layout, distinct values in memory order and the same
    values in checkpoint order."""
    net = TaggerModel([f"IN:{i}" for i in range(n_intents)],
                      [f"SL:{i}" for i in range(n_slots)], feature_dim)
    values = np.arange(1.0, net.layout.size + 1)
    return net.layout, values, checkpoint_order(net, values)


# encoder: width 3, so its one row is its biases and its column blocks are
# empty; intent_head: width 1; tag_head: width 2, two feature rows, then
# its biases
MIXED_CASE = (ParamLayout((("encoder", 3), ("intent_head", 2),
                           ("tag_head", 6)), (3, 1, 2)),
              np.arange(11.0),
              np.array([0.0, 1, 2, 3, 4, 5, 7, 6, 8, 9, 10]))


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.builds(model_case, st.integers(1, 40),
                           st.integers(1, 6), st.integers(0, 6)),
                 st.just(MIXED_CASE)),
       st.integers(1, 9))
@hypothesis.example(MIXED_CASE, 1)
def test_staged_walks_the_oracles_order(case, block_rows):
    """_staged's views of two arrays of distinct values are views, per
    array and group blocks of at most FILE_BLOCK_ROWS file rows, then the
    bias row, whose transposes in turn are the file's order (for a model,
    checkpoint_order's), each with its part, of its transpose's shape, of
    one buffer sized for the largest view; writing a file's values into
    the parts and each part back into its view, in turn, undoes that; and
    on a layout of width-1 groups they walk memory order."""
    layout, values, saved_order = case
    arrays = (values, values + layout.size)
    outs = (np.empty_like(values), np.empty_like(values))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(m, "FILE_BLOCK_ROWS", block_rows)
        staged = m._staged(layout, arrays)
        written = m._staged(layout, outs)
        flat = m._staged(ParamLayout(layout.groups), (values,))
    views = [view for view, _ in staged]
    assert all(np.shares_memory(view, values) or np.shares_memory(
        view, arrays[1]) for view in views if view.size)
    # per group: (features, k) blocks of at most block_rows file rows, then
    # its (1, width) bias row
    assert [view.shape for view in views] == 2 * [
        shape for rows in layout.rows(values) for shape in
        [(len(rows) - 1, min(block_rows, rows.shape[1] - first))
         for first in range(0, rows.shape[1], block_rows)]
        + [(1, rows.shape[1])]]
    buf = staged[0][1].base
    assert buf.size == max(view.size for view in views)
    assert all(part.base is buf and part.shape == view.shape[::-1]
               for view, part in staged)
    saved = np.concatenate([view.T.ravel() for view in views])
    np.testing.assert_array_equal(
        saved, np.concatenate([saved_order, saved_order + layout.size]))
    start = 0
    for view, part in written:
        part[...] = saved[start:start + part.size].reshape(part.shape)
        view[...] = part.T
        start += part.size
    np.testing.assert_array_equal(np.concatenate(outs),
                                  np.concatenate(arrays))
    np.testing.assert_array_equal(
        np.concatenate([view.T.ravel() for view, _ in flat]), values)


def special_values(values, specials):
    """values with -0.0, the least subnormal and a NaN with a payload at
    the indices `specials`."""
    values = values.copy()
    bits = values.view(np.uint64)
    values[specials[0]] = -0.0
    values[specials[1]] = 5e-324
    bits[specials[2]] = 0x7FF8_0000_DEAD_BEEF
    return values


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.integers(1, 6), st.integers(0, 6),
       st.integers(1, 9))
def test_save_and_load_keep_every_bit(tmp_path_factory, feature_dim,
                                      n_intents, n_slots, block_rows):
    """Bit for bit, on any shape and block size: a checkpoint's body is
    checkpoint_order of theta, then of the Fisher sums; a load returns
    arrays of the saved bytes; and saving the loaded checkpoint again
    writes the same file. theta and the Fisher sums hold distinct values
    and -0.0, a subnormal and a NaN with a payload, whose bits
    assert_array_equal would not compare."""
    net = TaggerModel([f"IN:{i}" for i in range(n_intents)],
                      [f"SL:{i}" for i in range(n_slots)], feature_dim)
    size = net.layout.size
    ends = (0, size // 2, size - 1)
    theta = special_values(np.arange(1.0, size + 1), ends)
    fisher = special_values(np.arange(size + 1.0, 2 * size + 1), ends[::-1])
    ckpt = Checkpoint(intents=net.intents, slots=net.slots,
                      feature_dim=feature_dim, theta_values=theta,
                      fisher_sum_sq=fisher, fisher_steps=2, step=5)
    path = tmp_path_factory.mktemp("bits") / "c.ckpt"
    again = path.with_name("again.ckpt")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(m, "FILE_BLOCK_ROWS", block_rows)
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        save_checkpoint(loaded, again)
    payload = path.read_bytes()[len(m._MAGIC) + 32:]
    header_len = int.from_bytes(payload[:8], "big")
    assert payload[8 + header_len:] == (checkpoint_order(net, theta).tobytes()
                                        + checkpoint_order(net, fisher)
                                        .tobytes())
    assert loaded.theta_values.tobytes() == theta.tobytes()
    assert loaded.fisher_sum_sq.tobytes() == fisher.tobytes()
    assert again.read_bytes() == path.read_bytes()


def test_theta_of_other_row_widths_rejected():
    """A theta of the model's groups but width-1 rows would sum the norm
    form in memory order; the model rejects it. Its layout is built once."""
    net = tiny_model()
    assert net.layout is net.layout
    assert net.layout.widths == (len(net.intents), len(net.tags))
    flat = ParamVector.zeros(ParamLayout(net.layout.groups))
    with pytest.raises(DimMismatch):
        TaggerModel(net.intents, net.slots, net.feature_dim, flat)


def test_save_checkpoint_copies_neither_array(tmp_path):
    """On the default shape, each array's _staged views are transposed
    into one buffer of at most FILE_BLOCK_ROWS file rows, then hashed and
    written from it, so the traced peak of a save stays below a quarter of
    theta. A theta-sized transpose buffer peaked at 1 theta, and joining
    the header and both arrays' bytes into one payload near 2."""
    net = default_shape_model()
    net.theta.values[:] = np.arange(net.theta.values.size)
    ckpt = Checkpoint(intents=net.intents, slots=net.slots, feature_dim=4096,
                      theta_values=net.theta.values,
                      fisher_sum_sq=net.theta.values + 1.0,
                      fisher_steps=1, step=1)
    peak = traced_peak(lambda: save_checkpoint(ckpt, tmp_path / "big.ckpt"))
    assert peak < 0.25 * net.theta.values.nbytes
    loaded = load_checkpoint(tmp_path / "big.ckpt")
    np.testing.assert_array_equal(loaded.theta_values, ckpt.theta_values)
    np.testing.assert_array_equal(loaded.fisher_sum_sq, ckpt.fisher_sum_sq)


def test_load_checkpoint_peaks_near_its_two_arrays(tmp_path):
    """On the default shape, a load streams the body through one buffer of
    at most FILE_BLOCK_ROWS file rows into the two arrays it returns, and
    makes nothing else theta-sized: its traced peak stays below 2.25
    theta. Reading the whole file, then transposing it, peaked at 4."""
    net = default_shape_model()
    net.theta.values[:] = np.arange(net.theta.values.size)
    ckpt = Checkpoint(intents=net.intents, slots=net.slots, feature_dim=4096,
                      theta_values=net.theta.values,
                      fisher_sum_sq=-net.theta.values, fisher_steps=1, step=1)
    path = tmp_path / "big.ckpt"
    save_checkpoint(ckpt, path)
    loaded = []
    peak = traced_peak(lambda: loaded.append(load_checkpoint(path)))
    assert peak < 2.25 * net.theta.values.nbytes
    np.testing.assert_array_equal(loaded[0].theta_values, ckpt.theta_values)
    np.testing.assert_array_equal(loaded[0].fisher_sum_sq, ckpt.fisher_sum_sq)


def test_training_epoch_allocates_less_than_theta():
    """Compiling CHUNK examples at a time keeps an epoch's temporaries
    small: on the default shape, the traced peak of a second epoch over
    3000 examples (θ, the Fisher sums and the corpus are made before it)
    stays under θ's bytes. Compiling the whole epoch at once peaked above."""
    train_set, _ = generate(builtin_grammar(), GenConfig(seed=3, n_train=3000,
                                                         n_test=1))
    classes = train_set.classes()
    net = TaggerModel.init([c for c in classes if c.startswith("IN:")],
                           [c for c in classes if c.startswith("SL:")])
    assert net.feature_dim == 4096 and len(train_set) >= 2000
    peaks = []

    def plan_fn(epoch):
        if epoch == 1:
            tracemalloc.start()
        return train_set.ids()

    def evaluator(net):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        return {"em": 0.0}

    try:
        train(net, *encode_examples(net, train_set), plan_fn,
              TrainConfig(lr=0.5, max_epochs=2, eval_every=0), evaluator)
    finally:
        tracemalloc.stop()
    assert peaks and peaks[0] < net.theta.values.nbytes


def test_tag_vocabulary_built_once():
    net = tiny_model()
    assert net.tags == ("O", "B-SL:X", "I-SL:X", "B-SL:Y", "I-SL:Y")
    assert net.tags is net.tags


def test_predict_emits_valid_trees():
    net = tiny_model()
    tree = predict_trees(net, [example("q", "[IN:A hello out there ]")])[0]
    assert serialize(tree)
    assert list(tree.leaves) == "hello out there".split()
