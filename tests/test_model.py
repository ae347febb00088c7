import dataclasses
import hashlib
import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepatch import model as m
from treepatch.dataset import Dataset, Example
from treepatch.metrics import exact_match
from treepatch.model import (Checkpoint, ChecksumError, DimMismatch,
                             EmptyQuery, Encoded, TaggerModel, TrainConfig,
                             UnknownLabel, decode_tree, encode, encode_targets,
                             featurize, forward, load_checkpoint,
                             loss_and_grad, predict_encoded, predict_trees,
                             save_checkpoint, train)
from treepatch.regularizers import (FreezeMask, LayoutMismatch, MissingAnchor,
                                    MissingFisher, ParamVector, RegConfig,
                                    anchored_step, apply_freeze, penalty)
from treepatch.sampling import batches
from treepatch.treebank import parse_top, serialize, token_leaves

INTENTS = ("IN:A", "IN:B")
SLOTS = ("SL:X", "SL:Y")


def tiny_model(feature_dim=64):
    return TaggerModel.init(INTENTS, SLOTS, feature_dim=feature_dim)


def example(eid, text):
    tree = parse_top(text)
    return Example(id=eid, query=" ".join(token_leaves(tree)), tree=tree)


def encoded(net, *queries):
    return encode(list(queries), net.feature_dim)


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
    out[grad.index] = grad.data
    return out


def reference_loss_and_grad(model, batch, reg=None, theta_prev=None,
                            fisher=None):
    """The per-example loop that the batched kernel replaced, kept as its
    oracle. batch: list of (feats, intent_id, tag_ids); dense gradients."""
    v = model._views()
    grad = ParamVector.zeros(model.layout)
    gv = model._views(grad)
    loss = 0.0
    B = len(batch)
    for feats, intent_id, tag_ids in batch:
        T = len(feats)
        tag_logits = np.stack([v["W_tag"][:, idx].sum(axis=1) + v["b_tag"]
                               for idx in feats])
        int_logits = (np.stack([v["W_int"][:, idx].sum(axis=1)
                                for idx in feats]).mean(axis=0) + v["b_int"])
        p_int = m._softmax(int_logits)
        p_tag = m._softmax(tag_logits)
        loss -= np.log(max(p_int[intent_id], 1e-300)) / B
        loss -= np.log(np.maximum(p_tag[np.arange(T), tag_ids], 1e-300)).sum() / (T * B)

        g_int = p_int / B
        g_int[intent_id] -= 1.0 / B
        g_tag = p_tag / (T * B)
        g_tag[np.arange(T), tag_ids] -= 1.0 / (T * B)

        gv["b_int"] += g_int
        gv["b_tag"] += g_tag.sum(axis=0)
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
        p_int, p_tag = forward(net, encoded(net, "a b c", "d"))
        assert p_int.shape == (2, len(net.intents))
        assert p_tag.shape == (4, len(net.tags))
        np.testing.assert_allclose(p_int.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(p_tag.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_weights_give_uniform(self):
        net = tiny_model()
        p_int, p_tag = forward(net, encoded(net, "a b"))
        np.testing.assert_allclose(p_int, 1 / len(net.intents), atol=1e-12)
        np.testing.assert_allclose(p_tag, 1 / len(net.tags), atol=1e-12)

    def test_gradient_step_raises_true_class_probability(self):
        net = tiny_model()
        ex = example("e", "[IN:A hello [SL:X there ] ]")
        batch = encode([ex.query], net.feature_dim, [encode_targets(net, ex)])
        before = forward(net, batch)[0][0, 0]
        _, grad = loss_and_grad(net, batch)
        net.theta.values -= 0.1 * dense(grad)
        after = forward(net, batch)[0][0, 0]
        assert after > before



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
                             FreezeMask())
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
    examples."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(EXAMPLES, min_size=1, max_size=8),
           st.integers(0, 2 ** 32 - 1))
    def test_loss_and_gradients(self, items, seed):
        net = tiny_model(feature_dim=13)
        rng = np.random.default_rng(seed)
        net.theta.values[:] = rng.normal(0, rng.uniform(0.01, 3.0),
                                         net.theta.values.size)
        batch = pack([feats for feats, _, _ in items],
                     [(intent, tags) for _, intent, tags in items])
        loss, grad = loss_and_grad(net, batch)
        want_loss, _, want_grad = reference_loss_and_grad(net, items)
        assert loss == want_loss
        np.testing.assert_array_equal(dense(grad), want_grad.values)


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
            assert list(token_leaves(tree)) == query.split()


def toy_corpus():
    # linearly separable: intent and slots are determined by the tokens
    texts = []
    for i in range(30):
        texts.append(f"[IN:A alpha w{i % 3} [SL:X xval{i % 2} ] ]")
        texts.append(f"[IN:B beta q{i % 3} [SL:Y yval{i % 2} ] ]")
    return Dataset(tuple(example(f"e{j}", t) for j, t in enumerate(texts)))


def simple_plan(by_id, seed):
    ids = sorted(by_id)

    def plan_fn(epoch):
        rng = np.random.default_rng(seed + epoch)
        return [ids[i] for i in rng.permutation(len(ids))]

    return plan_fn


def em_evaluator(examples):
    gold = [e.tree for e in examples]

    def evaluator(net):
        return {"em": exact_match(gold, predict_trees(net, examples))}

    return evaluator


class TestTrain:
    def test_learns_separable_data(self):
        corpus = toy_corpus()
        net = tiny_model(feature_dim=512)
        by_id = {e.id: e for e in corpus}
        result = train(net, by_id, simple_plan(by_id, 0),
                       TrainConfig(lr=0.5, batch_size=8, max_epochs=30,
                                   eval_every=50, patience=10),
                       em_evaluator(list(corpus)))
        assert result.history[-1]["em"] >= 0.95

    def test_zero_lr_keeps_weights_but_accumulates_fisher(self):
        corpus = toy_corpus()
        net = tiny_model(feature_dim=256)
        before = net.theta.values.copy()
        by_id = {e.id: e for e in corpus}
        result = train(net, by_id, simple_plan(by_id, 0),
                       TrainConfig(lr=0.0, batch_size=16, max_epochs=1,
                                   eval_every=0, patience=10),
                       em_evaluator(list(corpus)))
        np.testing.assert_array_equal(net.theta.values, before)
        acc = result.final.fisher_accumulator()
        assert acc.steps == result.total_steps > 0
        assert acc.fisher().sum() > 0

    def test_deterministic(self):
        corpus = toy_corpus()
        by_id = {e.id: e for e in corpus}
        outs = []
        for _ in range(2):
            net = tiny_model(feature_dim=256)
            result = train(net, by_id, simple_plan(by_id, 1),
                           TrainConfig(lr=0.3, batch_size=8, max_epochs=3,
                                       eval_every=10, patience=10),
                           em_evaluator(list(corpus)))
            outs.append((result.best.theta_values.copy(), tuple(
                r["em"] for r in result.history)))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        assert outs[0][1] == outs[1][1]

    def test_full_freeze_keeps_theta_bit_identical(self):
        corpus = toy_corpus()
        net = tiny_model(feature_dim=256)
        before = net.theta.values.copy()
        by_id = {e.id: e for e in corpus}
        train(net, by_id, simple_plan(by_id, 0),
              TrainConfig(lr=0.5, batch_size=8, max_epochs=1, eval_every=0,
                          patience=10,
                          freeze=FreezeMask.of("intent_head", "tag_head")),
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


@pytest.mark.parametrize("frozen", [(), ("intent_head",), ("tag_head",),
                                    ("intent_head", "tag_head")])
@pytest.mark.parametrize("kind, form, strength", [
    *(pytest.param(kind, "squared", 0.5, id=kind)
      for kind in ("none", "movenorm", "ewc")),
    *(pytest.param(kind, "norm", 0.5, id=f"{kind}-norm")
      for kind in ("movenorm", "ewc")),
    # reachable through config; train takes the sparse step, the reference
    # adds penalty's dense zeros
    pytest.param("movenorm", "squared", 0.0, id="movenorm-strength0"),
])
def test_train_checkpoint_equals_dense_reference(tmp_path, kind, form,
                                                 strength, frozen):
    corpus = toy_corpus()
    by_id = {e.id: e for e in corpus}
    prev = train(tiny_model(feature_dim=32), by_id, simple_plan(by_id, 0),
                 TrainConfig(lr=0.5, batch_size=8, max_epochs=1, eval_every=0),
                 lambda net: {"em": 0.0}).final
    cfg = TrainConfig(lr=0.3, batch_size=7, max_epochs=2, eval_every=0,
                      reg=RegConfig(kind=kind, strength=strength, form=form),
                      freeze=FreezeMask.of(*frozen))
    result = train(prev.model(), by_id, simple_plan(by_id, 5), cfg,
                   lambda net: {"em": 0.0}, prev=prev)
    theta, acc = reference_train(prev.model(), by_id, simple_plan(by_id, 5),
                                 cfg, prev.model().theta,
                                 prev.fisher_accumulator().fisher(),
                                 prev.fisher_accumulator())
    reference = dataclasses.replace(result.final, theta_values=theta,
                                    fisher_sum_sq=acc.sum_sq,
                                    fisher_steps=acc.steps)
    save_checkpoint(result.final, tmp_path / "train.ckpt")
    save_checkpoint(reference, tmp_path / "reference.ckpt")
    assert ((tmp_path / "train.ckpt").read_bytes()
            == (tmp_path / "reference.ckpt").read_bytes())


def test_train_encodes_only_drawn_examples(monkeypatch):
    corpus = toy_corpus()
    by_id = {e.id: e for e in corpus}
    # a label the model has never seen: harmless while no plan draws it
    by_id["unseen"] = example("unseen", "[IN:Z never drawn ]")
    drawn = sorted(by_id)[:10]
    calls = []  # every query passed to the encoder
    monkeypatch.setattr(m, "encode", lambda queries, dim, targets=None:
                        calls.extend(queries) or encode(queries, dim, targets))
    result = train(tiny_model(feature_dim=64), by_id,
                   lambda epoch: drawn[epoch:] + drawn[:epoch],
                   TrainConfig(lr=0.5, batch_size=4, max_epochs=3, eval_every=0),
                   lambda net: {"em": 0.0})
    assert result.total_steps == 9
    assert sorted(calls) == sorted(by_id[i].query for i in drawn)
    with pytest.raises(UnknownLabel):
        train(tiny_model(feature_dim=64), by_id, lambda epoch: ["unseen"],
              TrainConfig(max_epochs=1, eval_every=0), lambda net: {"em": 0.0})


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
def test_penalty_without_its_anchor_fails_before_encoding(
        monkeypatch, kind, prev, fisher, error):
    corpus = toy_corpus()
    by_id = {e.id: e for e in corpus}
    net = tiny_model()
    source = {True: net, "other_layout": tiny_model(feature_dim=32)}.get(prev)
    ckpt = None if source is None else Checkpoint(
        intents=source.intents, slots=source.slots,
        feature_dim=source.feature_dim,
        theta_values=source.theta.values.copy(),
        fisher_sum_sq=np.ones(source.layout.size - (fisher == "wrong_shape")),
        fisher_steps=int(bool(fisher)), step=0)
    calls = []
    monkeypatch.setattr(m, "encode", lambda *args: calls.append(args))
    with pytest.raises(error):
        train(net, by_id, simple_plan(by_id, 0),
              TrainConfig(max_epochs=1, eval_every=0,
                          reg=RegConfig(kind=kind, strength=1.0)),
              lambda net: {"em": 0.0}, prev=ckpt)
    assert calls == []


def test_encode_targets_ids():
    net = tiny_model()  # tags O, B-SL:X, I-SL:X, B-SL:Y, I-SL:Y
    intent, tags = encode_targets(
        net, example("e", "[IN:B go [SL:Y now then ] [SL:X x ] fast ]"))
    assert intent == 1
    assert tags.tolist() == [0, 3, 4, 1, 0]
    for text in ("[IN:Z a ]", "[IN:A a [SL:Z b ] ]"):
        with pytest.raises(UnknownLabel):
            encode_targets(net, example("e", text))


class TestCheckpoint:
    def _trained(self):
        corpus = toy_corpus()
        net = tiny_model(feature_dim=256)
        by_id = {e.id: e for e in corpus}
        result = train(net, by_id, simple_plan(by_id, 0),
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
    def _edit_header(path, **changes):
        """Rewrite a checkpoint's header with `changes`, re-checksummed."""
        payload = path.read_bytes()[len(m._MAGIC) + 32:]
        header_len = int.from_bytes(payload[:8], "big")
        meta = json.loads(payload[8:8 + header_len])
        meta.update(changes)
        header = json.dumps(meta, sort_keys=True).encode("utf-8")
        payload = len(header).to_bytes(8, "big") + header + payload[8 + header_len:]
        path.write_bytes(m._MAGIC + hashlib.sha256(payload).digest() + payload)

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

    def test_loaded_model_reproduces_metrics(self, tmp_path):
        result, corpus = self._trained()
        path = tmp_path / "d.ckpt"
        save_checkpoint(result.best, path)
        net = load_checkpoint(path).model()
        em = em_evaluator(list(corpus))(net)["em"]
        best_record = [r for r in result.history
                       if r["step"] == result.best.step]
        assert best_record and best_record[-1]["em"] == em


def test_tag_vocabulary_built_once():
    net = tiny_model()
    assert net.tags == ("O", "B-SL:X", "I-SL:X", "B-SL:Y", "I-SL:Y")
    assert net.tags is net.tags


def test_predict_emits_valid_trees():
    net = tiny_model()
    tree = predict_encoded(net, ["hello out there"],
                           encoded(net, "hello out there"))[0]
    assert serialize(tree)
    assert list(token_leaves(tree)) == "hello out there".split()
