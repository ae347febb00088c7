import bisect
import re
import tracemalloc

import numpy as np
import pytest

from treepatch import datagen
from treepatch.datagen import (GenConfig, Grammar, GrammarError,
                               builtin_grammar, generate, load_grammar,
                               zipf_weights)
from treepatch.dataset import Dataset, Example
from treepatch.treebank import (SLOT_PREFIX, Node, ParseTree, parse_top,
                                serialize)
from treepatch.utils import derive_seed


def declared_classes(grammar):
    """Every label a grammar declares: its intents, the slots its templates
    name, its filled slots and the intents its fillers nest. The reference
    the generated corpus is checked against."""
    out = set()
    for label, templates in grammar.intents:
        out.add(label)
        for tpl in templates:
            out.update(item for item in tpl if item.startswith("SL:"))
    for slot, alts in grammar.fillers.items():
        out.add(slot)
        for alt in alts:
            if isinstance(alt, str):
                out.add(alt)
    return out


def trivial_grammar():
    return Grammar(
        intents=(("IN:ONLY", (("fixed", "words", "SL:ONLY"),)),),
        fillers={"SL:ONLY": (("value",),)},
    )


def test_single_choice_grammar_is_constant():
    train, test = generate(trivial_grammar(), GenConfig(seed=0, n_train=5, n_test=2))
    texts = {serialize(ex.tree) for ex in train}
    assert texts == {"[IN:ONLY fixed words [SL:ONLY value ] ]"}
    assert {ex.id for ex in train}.isdisjoint({ex.id for ex in test})


def test_generation_deterministic():
    grammar = builtin_grammar()
    cfg = GenConfig(seed=11, n_train=200, n_test=50)
    a_train, a_test = generate(grammar, cfg)
    b_train, b_test = generate(grammar, cfg)
    assert [serialize(x.tree) for x in a_train] == [serialize(x.tree) for x in b_train]
    assert [serialize(x.tree) for x in a_test] == [serialize(x.tree) for x in b_test]


def test_zipf_intent_frequencies():
    # closed-form oracle: intent k has probability (1/k) / H_10
    intents = tuple((f"IN:I{k}", (("w", str(k)),)) for k in range(10))
    grammar = Grammar(intents=intents, fillers={})
    n = 5000
    train, _ = generate(grammar, GenConfig(seed=3, n_train=n, n_test=1))
    h10 = sum(1.0 / k for k in range(1, 11))
    counts = {label: 0 for label, _ in intents}
    for ex in train:
        counts[ex.tree.root.name] += 1
    for k, (label, _) in enumerate(intents, start=1):
        expect = (1.0 / k) / h10
        sigma = np.sqrt(n * expect * (1 - expect))
        assert abs(counts[label] - n * expect) <= 3 * sigma, (label, counts[label])


def test_compositional_values_appear():
    grammar = builtin_grammar()
    train, _ = generate(grammar, GenConfig(seed=5, n_train=1000, n_test=1))
    nested = [ex for ex in train if "SL:DESTINATION=[IN:" in _paths_str(ex.tree)]
    assert nested, "no compositional slot value in 1000 samples"


def _paths_str(tree):
    from treepatch.metrics import extract_paths
    return " | ".join(str(p) for p in extract_paths(tree))


def test_all_trees_satisfy_invariants():
    grammar = builtin_grammar()
    train, test = generate(grammar, GenConfig(seed=9, n_train=500, n_test=100))
    for ex in list(train) + list(test):
        assert parse_top(serialize(ex.tree)) == ex.tree
        assert ex.query.split() == [t for t in _leaves(ex.tree.root)]


def _leaves(node):
    for c in node.children:
        if isinstance(c, str):
            yield c
        else:
            yield from _leaves(c)


class TestBuiltinGrammar:
    def test_scale(self):
        grammar = builtin_grammar()
        intents = {c for c in declared_classes(grammar) if c.startswith("IN:")}
        slots = {c for c in declared_classes(grammar) if c.startswith("SL:")}
        assert len(intents) >= 10
        assert len(slots) >= 25

    def test_deterministic_construction(self):
        assert builtin_grammar() == builtin_grammar()

    def test_every_class_reachable(self):
        # census oracle: all declared classes appear in a 10k sample
        grammar = builtin_grammar()
        train, _ = generate(grammar, GenConfig(seed=1, n_train=10000, n_test=1))
        seen = set()
        for ex in train:
            seen |= ex.classes
        assert seen == declared_classes(grammar)


def test_grammar_json_round_trip(tmp_path):
    import json
    path = tmp_path / "g.json"
    path.write_text(json.dumps({
        "max_depth": 4,
        "intents": {
            "IN:A": [["go", "to", "SL:X"]],
            "IN:B": [["see", "SL:Y"]],
        },
        "fillers": {
            "SL:X": [["home"], {"intent": "IN:B"}],
            "SL:Y": [["that"]],
        },
    }))
    grammar = load_grammar(path)
    train, _ = generate(grammar, GenConfig(seed=2, n_train=200, n_test=1))
    trees = {serialize(ex.tree) for ex in train}
    assert "[IN:A go to [SL:X home ] ]" in trees
    assert "[IN:A go to [SL:X [IN:B see [SL:Y that ] ] ] ]" in trees


@pytest.mark.parametrize("data, key", [
    ({"fillers": {"SL:X": [["home"]]}}, "'intents'"),
    ({"intents": {"IN:A": [["go", "SL:X"]]},
      "fillers": {"SL:X": [{"nested": "IN:A"}]}}, "'intent'"),
])
def test_grammar_without_a_key_rejected_naming_it(tmp_path, data, key):
    import json
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    with pytest.raises(GrammarError, match=f"g.json: missing key {key}$"):
        load_grammar(path)


@pytest.mark.parametrize("data, error", [
    ([], "the file is not an object"),
    ({"intents": [["IN:A"]]}, "intents is not an object"),
    ({"intents": {"IN:A": [["a"]]}, "fillers": [1]}, "fillers is not an object"),
    ({"intents": {"IN:A": [["a"]]}, "max_depth": "x"},
     "max_depth is not an integer"),
    ({"intents": {"IN:A": "a b"}}, "IN:A is not a list"),
    ({"intents": {"IN:A": ["a b"]}}, "IN:A is not a list of token strings"),
    ({"intents": {"IN:A": [["a", 1]]}}, "IN:A is not a list of token strings"),
    ({"intents": {"IN:A": [[]]}}, "IN:A has an empty template"),
    ({"intents": {}}, "the grammar has no intents"),
    ({"intents": {"IN:A": [["a", "SL:X"]]}, "fillers": {"SL:X": ["boston"]}},
     "SL:X is not a list of token strings"),
    ({"intents": {"IN:A": [["a", "SL:X"]]},
      "fillers": {"SL:X": [{"intent": "IN:B"}]}},
     "SL:X filler 'IN:B' is not an intent"),
    ({"intents": {"IN:A": [["a b", "c"]]}},
     "IN:A: token 'a b' contains brackets or whitespace"),
    ({"intents": {"IN:A": [["a", "SL:X"]]}, "fillers": {"SL:X": [["[b"]]}},
     "SL:X: token '[b' contains brackets or whitespace"),
    ({"intents": {"in:a": [["a"]]}}, "intent 'in:a' lacks the IN: prefix"),
    ({"intents": {"IN:a": [["a"]]}},
     "IN:a: node label 'IN:a' lacks IN:/SL: prefix or has bad characters"),
    ({"intents": {"IN:A": [["a"]]}, "fillers": {"X": [["b"]]}},
     "filler slot 'X' lacks the SL: prefix"),
])
def test_grammar_of_the_wrong_shape_rejected_naming_it(tmp_path, data, error):
    import json
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    with pytest.raises(GrammarError, match=f"g.json: {re.escape(error)}$"):
        load_grammar(path)


def test_depth_budget_excludes_unreachable_nesting():
    grammar = depth_limited_grammar()
    train, _ = generate(grammar, GenConfig(seed=0, n_train=100, n_test=1))
    in_a = [serialize(ex.tree) for ex in train if ex.tree.root.name == "IN:A"]
    assert in_a and set(in_a) == {"[IN:A x [SL:X flat ] ]"}


def test_no_token_fallback_raises():
    grammar = Grammar(
        intents=(("IN:A", (("x", "SL:X"),)), ("IN:B", (("y",),))),
        fillers={"SL:X": ("IN:B",)},
        max_depth=2,
    )
    with pytest.raises(datagen.DepthExceeded):
        generate(grammar, GenConfig(seed=0, n_train=10, n_test=1))


def reference_intent(grammar, label, rng, s, depth, fillers):
    """A new tree of intent `label`, built node by node from the draws
    generate makes: the oracle that interning changes no tree."""
    if depth > grammar.max_depth:
        raise datagen.DepthExceeded(label)
    templates = grammar.intent_templates(label)
    tpl = templates[rng.integers(len(templates))]
    children = []
    for item in tpl:
        if not item.startswith(SLOT_PREFIX):
            children.append(item)
            continue
        key = (item, depth + 2 <= grammar.max_depth)
        if key not in fillers:
            alts = grammar.fillers[item]
            usable = [a for a in alts if not isinstance(a, str) or key[1]]
            if not usable:
                raise datagen.DepthExceeded(item)
            weights = zipf_weights(len(alts), s)[[alts.index(a)
                                                  for a in usable]]
            fillers[key] = usable, datagen._cdf(weights / weights.sum())
        usable, cdf = fillers[key]
        alt = usable[cdf.searchsorted(rng.random(), side="right")]
        if isinstance(alt, str):
            slot_children = (reference_intent(grammar, alt, rng, s, depth + 2,
                                              fillers),)
        else:
            slot_children = tuple(alt)
        children.append(Node(item, slot_children))
    return Node(label, tuple(children))


def reference_generate(grammar, config):
    """generate with a new Node, ParseTree and query for every example."""
    out = []
    for part, n in (("train", config.n_train), ("test", config.n_test)):
        rng = np.random.default_rng(derive_seed(config.seed, "datagen", part))
        cdf = datagen._cdf(zipf_weights(len(grammar.intents),
                                        config.tail_exponent))
        fillers, examples = {}, []
        for i in range(n):
            label = grammar.intents[cdf.searchsorted(rng.random(),
                                                     side="right")][0]
            tree = ParseTree(reference_intent(grammar, label, rng,
                                              config.tail_exponent, 1, fillers))
            examples.append(Example(f"{part}:{i}", " ".join(tree.leaves), tree))
        out.append(Dataset(tuple(examples)))
    return tuple(out)


def nested_grammar():
    """Two levels of nesting, and equal alternatives: a repeated template
    and a repeated filler, each drawn under its own index."""
    return Grammar(
        intents=(("IN:A", (("go", "to", "SL:X"), ("go", "to", "SL:X"),
                           ("a", "SL:Y"))),
                 ("IN:B", (("see", "SL:Y"), ("b", "SL:Z"))),
                 ("IN:C", (("c", "SL:Y"),))),
        fillers={"SL:X": (("home",), "IN:B", ("home",), "IN:B"),
                 "SL:Y": (("that",), ("this", "one")),
                 "SL:Z": ("IN:C", ("zed",))},
        max_depth=6,
    )


def depth_limited_grammar():
    """The grammar of test_depth_budget_excludes_unreachable_nesting."""
    return Grammar(
        intents=(("IN:A", (("x", "SL:X"),)), ("IN:B", (("y",),))),
        fillers={"SL:X": (("flat",), "IN:B")},
        max_depth=2,
    )


ORACLE_CASES = [
    pytest.param(builtin_grammar(), seed, id=f"builtin-seed{seed}")
    for seed in (1, 2, 11)] + [
    pytest.param(nested_grammar(), 3, id="nested"),
    pytest.param(depth_limited_grammar(), 0, id="depth-limited")]


@pytest.mark.parametrize("grammar, seed", ORACLE_CASES)
def test_generate_equals_a_tree_per_example_reference(grammar, seed):
    config = GenConfig(seed=seed, n_train=2000, n_test=400)
    for got, want in zip(generate(grammar, config),
                         reference_generate(grammar, config)):
        assert ([(ex.id, ex.query, serialize(ex.tree)) for ex in got]
                == [(ex.id, ex.query, serialize(ex.tree)) for ex in want])


@pytest.mark.parametrize("grammar, seed", ORACLE_CASES)
def test_equal_trees_share_one_tree_built_once(grammar, seed, monkeypatch):
    """A corpus builds one ParseTree per distinct tree, and every example
    with that tree holds it; Example still checks each example."""
    built = {"ParseTree": 0, "Example": 0}

    def counted(cls):
        def make(*args, **kw):
            built[cls.__name__] += 1
            return cls(*args, **kw)
        return make

    monkeypatch.setattr(datagen, "ParseTree", counted(ParseTree))
    monkeypatch.setattr(datagen, "Example", counted(Example))
    train, test = generate(grammar, GenConfig(seed=seed, n_train=2000,
                                              n_test=400))
    distinct = 0
    for corpus in (train, test):
        trees = {}
        for ex in corpus:
            trees.setdefault(serialize(ex.tree), set()).add(id(ex.tree))
        assert all(len(ids) == 1 for ids in trees.values())
        assert len(trees) < len(corpus)
        distinct += len(trees)
    assert built == {"ParseTree": distinct, "Example": 2400}


@pytest.mark.parametrize("grammar, seed", ORACLE_CASES)
def test_bisect_draws_as_searchsorted_at_every_cdf_value(grammar, seed,
                                                         monkeypatch):
    """Every cdf generate caches draws, bisected as a list, the index
    searchsorted(side="right") draws from the array, at each of its values
    and at their neighbouring floats: where the two could part."""
    cdfs = []
    cdf = datagen._cdf
    monkeypatch.setattr(datagen, "_cdf", lambda p: cdfs.append(cdf(p))
                        or cdfs[-1])
    generate(grammar, GenConfig(seed=seed, n_train=200, n_test=40))
    assert cdfs
    for cdf in cdfs:
        probes = np.concatenate([cdf, np.nextafter(cdf, 0.0),
                                 np.nextafter(cdf, 2.0), [0.0]])
        probes = probes[probes < 1.0]  # rng.random() is in [0, 1)
        as_list = cdf.tolist()
        assert ([bisect.bisect_right(as_list, x) for x in probes.tolist()]
                == cdf.searchsorted(probes, side="right").tolist())


def test_generate_retains_one_tree_per_distinct_tree():
    """A 5000/100 builtin corpus holds its 5100 examples and the few
    hundred distinct trees they share: it retained about 1.1 MB under
    tracemalloc, where a tree per example retained 4.3-5.1 MB."""
    grammar = builtin_grammar()
    generate(grammar, GenConfig(seed=1, n_train=50, n_test=10))  # warm
    tracemalloc.start()
    try:
        corpora = generate(grammar, GenConfig(seed=1, n_train=5000, n_test=100))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(corpora[0]) == 5000
    assert retained < 2.5e6


def test_zipf_weights_normalized():
    w = zipf_weights(10, 1.0)
    assert np.isclose(w.sum(), 1.0)
    assert np.isclose(w[0] / w[9], 10.0)
