import numpy as np
import pytest

from treepatch import treebank
from treepatch.treebank import (BadLabel, EmptyNode, Node, ParseTree,
                                RootNotIntent, UnbalancedBrackets, parse_top,
                                serialize, serialize_children)

FIG1 = ("[IN:GET_DEPARTURE when should i leave for my "
        "[SL:DESTINATION [IN:GET_EVENT [SL:NAME_EVENT dentist ] "
        "[SL:CATEGORY_EVENT appointment ] ] ] at [SL:TIME_ARRIVAL 4 pm ] ]")


def test_parse_minimal_intent():
    tree = parse_top("[IN:CANCEL never mind ]")
    assert tree.root.name == "IN:CANCEL"
    assert tree.root.children == ("never", "mind")


def test_parse_intent_with_slot():
    tree = parse_top("[IN:GET_WEATHER what is the weather [SL:DATE today ] ]")
    root = tree.root
    assert root.children[:4] == ("what", "is", "the", "weather")
    slot = root.children[4]
    assert slot.name == "SL:DATE" and slot.children == ("today",)


def test_root_must_be_intent():
    with pytest.raises(RootNotIntent):
        parse_top("[SL:DATE today ]")


def test_unbalanced_brackets_report_position():
    with pytest.raises(UnbalancedBrackets):
        parse_top("[IN:CANCEL never mind")
    with pytest.raises(UnbalancedBrackets):
        parse_top("[IN:CANCEL hi ] ]")
    with pytest.raises(UnbalancedBrackets):
        parse_top("hi [IN:CANCEL ]")


def test_bad_label():
    with pytest.raises(BadLabel):
        parse_top("[FOO:BAR hi ]")
    with pytest.raises(BadLabel):
        parse_top("[IN: hi ]")


def test_empty_node():
    with pytest.raises(EmptyNode):
        parse_top("[ ]")
    with pytest.raises(EmptyNode):
        parse_top("   ")


def test_serialize_is_inverse_of_parse():
    tree = ParseTree(Node("IN:CANCEL", ("never", "mind")))
    assert serialize(tree) == "[IN:CANCEL never mind ]"
    assert parse_top(serialize(tree)) == tree


def test_serialize_children_of_empty_and_nested_nodes():
    root = parse_top("[IN:A x [SL:X ] [SL:Y [IN:B y ] ] ]").root
    assert serialize_children(root) == "x [SL:X ] [SL:Y [IN:B y ] ]"
    assert serialize_children(root.children[1]) == ""
    assert serialize_children(root.children[2]) == "[IN:B y ]"


def test_whitespace_collapses_to_canonical():
    messy = "[IN:CANCEL  never \t mind  ]"
    assert serialize(parse_top(messy)) == "[IN:CANCEL never mind ]"
    assert parse_top(messy) == parse_top("[IN:CANCEL never mind ]")


def test_labels_case_normalized():
    assert serialize(parse_top("[in:cancel hi ]")) == "[IN:CANCEL hi ]"


def test_slotless_intents_allowed():
    tree = parse_top("[IN:CANCEL ]")
    assert tree.root.children == ()


def test_classes_of_simple():
    assert parse_top("[IN:CANCEL hi ]").classes == {"IN:CANCEL"}


def test_classes_of_fig1():
    assert parse_top(FIG1).classes == {
        "IN:GET_DEPARTURE", "SL:TIME_ARRIVAL", "SL:DESTINATION",
        "IN:GET_EVENT", "SL:NAME_EVENT", "SL:CATEGORY_EVENT",
    }


def test_classes_counted_once():
    tree = parse_top("[IN:A [SL:X a ] [SL:X b ] ]")
    assert tree.classes == {"IN:A", "SL:X"}
    assert tree.labels == ("IN:A", "SL:X", "SL:X")


def test_classes_invariant_under_round_trip():
    tree = parse_top(FIG1)
    assert parse_top(serialize(tree)).classes == tree.classes


def test_token_leaves_in_order():
    assert parse_top(FIG1).leaves == tuple(
        "when should i leave for my dentist appointment at 4 pm".split())


def test_labels_in_pre_order():
    assert parse_top(FIG1).labels == (
        "IN:GET_DEPARTURE", "SL:DESTINATION", "IN:GET_EVENT", "SL:NAME_EVENT",
        "SL:CATEGORY_EVENT", "SL:TIME_ARRIVAL")


def test_leaves_walked_once_per_tree():
    tree = parse_top(FIG1)
    assert tree.leaves is tree.leaves and tree.labels is tree.labels
    assert tree.classes is tree.classes
    assert tree == parse_top(FIG1) and "leaves" not in repr(tree)


def test_nesting_rule_enforced():
    with pytest.raises(treebank.BadNesting):
        Node("IN:A", (Node("IN:B", ("x",)),))
    with pytest.raises(treebank.BadNesting):
        Node("SL:A", (Node("SL:B", ("x",)),))


def test_bad_tokens_rejected():
    with pytest.raises(treebank.BadToken):
        Node("IN:A", ("has]bracket",))
    with pytest.raises(treebank.TreeError):
        parse_top("[IN:A we[ird ]")


@pytest.mark.parametrize("token", [
    "", " ", "\x1c", "\x1f", "\x85", "a\u3000b", "a\xa0b", "a ", "\ta",
    "a\u2028", "\u200b", "x", "when", "4", "xSL:DATEy", "\xe9t\xe9"])
def test_token_check_is_the_whitespace_scan(token):
    """Node rejects a token by split(); the character scan it replaced
    rejects exactly the same tokens."""
    scan_rejects = not token or any(c.isspace() for c in token)
    try:
        Node("IN:A", (token,))
    except treebank.BadToken:
        rejected = True
    else:
        rejected = False
    assert rejected == scan_rejects == (token.split() != [token])


def _random_tree(rng, depth=1):
    name = f"IN:N{rng.integers(0, 5)}"
    children = []
    for _ in range(rng.integers(0, 4)):
        roll = rng.random()
        if roll < 0.5:
            children.append(f"tok{rng.integers(0, 20)}")
        else:
            slot_children = [f"v{rng.integers(0, 9)}" for _ in range(rng.integers(1, 3))]
            if depth < 3 and rng.random() < 0.3:
                slot_children.append(_random_tree(rng, depth + 2).root)
            children.append(Node(f"SL:S{rng.integers(0, 7)}", tuple(slot_children)))
    return ParseTree(Node(name, tuple(children)))


def test_round_trip_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(500):
        tree = _random_tree(rng)
        assert parse_top(serialize(tree)) == tree


def test_mismatched_bracket_count_always_rejected():
    rng = np.random.default_rng(8)
    for _ in range(200):
        text = serialize(_random_tree(rng))
        tokens = text.split()
        # drop one bracket token: the count no longer balances
        drop = [i for i, t in enumerate(tokens) if t == "]" or t.startswith("[")]
        i = drop[rng.integers(0, len(drop))]
        broken = " ".join(tokens[:i] + tokens[i + 1:])
        with pytest.raises(treebank.TreeError):
            parse_top(broken)
