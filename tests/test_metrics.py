import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treepatch import metrics
from treepatch.metrics import (LengthMismatch, TooFewExamples, TreePath,
                               degraded_classes, exact_match, extract_paths,
                               fold_score, path_counts, path_mentions,
                               per_class_tp_f1, report_from_counts, tp_f1)
from treepatch.treebank import Node, ParseTree, parse_top, serialize

FIG1_GOLD = parse_top(
    "[IN:GET_DEPARTURE when should i leave for my "
    "[SL:DESTINATION [IN:GET_EVENT [SL:NAME_EVENT dentist ] "
    "[SL:CATEGORY_EVENT appointment ] ] ] at [SL:TIME_ARRIVAL 4 pm ] ]")

# same tree with a wrong NAME_EVENT value
FIG1_PRED = parse_top(
    "[IN:GET_DEPARTURE when should i leave for my "
    "[SL:DESTINATION [IN:GET_EVENT [SL:NAME_EVENT doctor ] "
    "[SL:CATEGORY_EVENT appointment ] ] ] at [SL:TIME_ARRIVAL 4 pm ] ]")


def paths_as_strings(tree):
    return Counter(str(p) for p in extract_paths(tree).elements())


class TestExtractPaths:
    def test_fig1_has_exactly_four_paths(self):
        got = paths_as_strings(FIG1_GOLD)
        assert got == Counter({
            "IN:GET_DEPARTURE>SL:TIME_ARRIVAL=4 pm": 1,
            "IN:GET_DEPARTURE>SL:DESTINATION="
            "[IN:GET_EVENT [SL:NAME_EVENT dentist ] [SL:CATEGORY_EVENT appointment ] ]": 1,
            "IN:GET_DEPARTURE>SL:DESTINATION>IN:GET_EVENT>SL:NAME_EVENT=dentist": 1,
            "IN:GET_DEPARTURE>SL:DESTINATION>IN:GET_EVENT>SL:CATEGORY_EVENT=appointment": 1,
        })

    def test_slotless_intent_gives_one_empty_path(self):
        got = paths_as_strings(parse_top("[IN:CANCEL never mind ]"))
        assert got == Counter({"IN:CANCEL=": 1})

    def test_bare_tokens_contribute_nothing(self):
        # oracle: hand enumeration over the tree; the 4 unattached tokens
        # are under the root which dominates a slot, so only 1 path exists
        got = paths_as_strings(
            parse_top("[IN:GET_WEATHER what is the weather [SL:DATE today ] ]"))
        assert got == Counter({"IN:GET_WEATHER>SL:DATE=today": 1})

    def test_duplicate_paths_kept_as_multiset(self):
        tree = parse_top("[IN:A [SL:X v ] [SL:X v ] ]")
        assert paths_as_strings(tree) == Counter({"IN:A>SL:X=v": 2})

    def test_nested_slotless_intent_emits_path(self):
        tree = parse_top("[IN:A [SL:B [IN:C foo ] ] ]")
        got = paths_as_strings(tree)
        assert got == Counter({"IN:A>SL:B=[IN:C foo ]": 1,
                               "IN:A>SL:B>IN:C=": 1})

    def test_empty_slot_has_empty_value(self):
        tree = parse_top("[IN:A [SL:X ] ]")
        assert serialize(tree) == "[IN:A [SL:X ] ]"
        assert paths_as_strings(tree) == Counter({"IN:A>SL:X=": 1})

    def test_empty_slot_inside_nested_intent(self):
        tree = parse_top("[IN:A x [SL:X [IN:B [SL:Y ] y ] ] ]")
        assert serialize(tree) == "[IN:A x [SL:X [IN:B [SL:Y ] y ] ] ]"
        assert paths_as_strings(tree) == Counter({
            "IN:A>SL:X=[IN:B [SL:Y ] y ]": 1, "IN:A>SL:X>IN:B>SL:Y=": 1})


class TestTpF1:
    def test_identity_gives_perfect_scores(self):
        report = tp_f1([FIG1_GOLD, FIG1_GOLD], [FIG1_GOLD, FIG1_GOLD])
        assert report.precision == report.recall == report.f1 == 1.0

    def test_paper_worked_example_is_one_half(self):
        report = tp_f1([FIG1_GOLD], [FIG1_PRED])
        assert report.n_correct == 2
        assert report.n_predicted == 4
        assert report.n_expected == 4
        assert report.f1 == 0.5

    def test_single_wrong_slot_value_gives_zero(self):
        # oracle: 0 of 1 paths match
        gold = parse_top("[IN:GET_WEATHER [SL:DATE today ] ]")
        pred = parse_top("[IN:GET_WEATHER [SL:DATE tomorrow ] ]")
        assert tp_f1([gold], [pred]).f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            tp_f1([FIG1_GOLD], [])

    def test_swapping_gold_and_pred_swaps_precision_recall(self):
        gold = [FIG1_GOLD, parse_top("[IN:CANCEL hi ]")]
        pred = [FIG1_PRED, parse_top("[IN:CANCEL [SL:S hi ] ]")]
        a = tp_f1(gold, pred)
        b = tp_f1(pred, gold)
        assert a.precision == b.recall and a.recall == b.precision
        assert a.n_correct == b.n_correct

    def test_correct_counts_bounded(self):
        report = tp_f1([FIG1_GOLD], [FIG1_PRED])
        assert report.n_correct <= min(report.n_predicted, report.n_expected)

    def test_em_one_implies_tp_f1_one(self):
        corpus = [FIG1_GOLD, parse_top("[IN:CANCEL hi ]")]
        assert exact_match(corpus, corpus) == 1.0
        assert tp_f1(corpus, corpus).f1 == 1.0


class TestPerClassTpF1:
    def test_name_event_is_zero_in_worked_example(self):
        report = per_class_tp_f1([FIG1_GOLD], [FIG1_PRED], "SL:NAME_EVENT")
        # both containing paths (NAME_EVENT itself and the compositional
        # DESTINATION value) are wrong
        assert report.n_expected == 2 and report.n_predicted == 2
        assert report.f1 == 0.0

    def test_time_arrival_is_one(self):
        report = per_class_tp_f1([FIG1_GOLD], [FIG1_PRED], "SL:TIME_ARRIVAL")
        assert report.n_correct == report.n_expected == 1
        assert report.f1 == 1.0

    def test_absent_class_gives_all_zero_counts(self):
        report = per_class_tp_f1([FIG1_GOLD], [FIG1_PRED], "SL:NOWHERE")
        assert (report.n_correct, report.n_predicted, report.n_expected) == (0, 0, 0)
        assert report.precision == report.recall == report.f1 == 0.0

    def test_per_class_counts_never_exceed_global(self):
        g = tp_f1([FIG1_GOLD], [FIG1_PRED])
        for cls in ("SL:NAME_EVENT", "SL:DESTINATION", "IN:GET_DEPARTURE"):
            c = per_class_tp_f1([FIG1_GOLD], [FIG1_PRED], cls)
            assert c.n_correct <= g.n_correct
            assert c.n_predicted <= g.n_predicted
            assert c.n_expected <= g.n_expected


def micro_counts(gold, pred, keep=None):
    """Reference oracle: Counter-intersection path counts over tree lists,
    restricted to the paths `keep` accepts."""
    n_correct = n_predicted = n_expected = 0
    for g, p in zip(gold, pred):
        gp = extract_paths(g)
        pp = extract_paths(p)
        if keep is not None:
            gp = Counter({k: v for k, v in gp.items() if keep(k)})
            pp = Counter({k: v for k, v in pp.items() if keep(k)})
        n_expected += sum(gp.values())
        n_predicted += sum(pp.values())
        n_correct += sum((gp & pp).values())
    return n_correct, n_predicted, n_expected


# few labels and tokens, so that gold and predicted paths often coincide;
# SL:DATE / SL:DATE_EVENT exercise the substring rule of path_mentions
INTENT_LABELS = ("IN:A", "IN:GET_EVENT")
SLOT_LABELS = ("SL:DATE", "SL:DATE_EVENT", "SL:X")
CLASSES = INTENT_LABELS + SLOT_LABELS + ("SL:NOWHERE",)
TOKENS = st.sampled_from(("a", "b", "c"))


def intent_nodes(depth):
    child = TOKENS if depth == 0 else st.one_of(TOKENS, slot_nodes(depth - 1))
    return st.builds(Node, st.sampled_from(INTENT_LABELS),
                     st.lists(child, min_size=1, max_size=3).map(tuple))


def slot_nodes(depth):
    child = TOKENS if depth == 0 else st.one_of(TOKENS, intent_nodes(depth))
    return st.builds(Node, st.sampled_from(SLOT_LABELS),
                     st.lists(child, min_size=1, max_size=3).map(tuple))


TREES = st.builds(ParseTree, intent_nodes(2))
PAIRS = TREES.flatmap(lambda g: st.tuples(st.just(g), st.one_of(st.just(g), TREES)))


class TestPathCounts:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(PAIRS, min_size=1, max_size=6))
    def test_matches_counter_oracle(self, pairs):
        gold = [g for g, _ in pairs]
        pred = [p for _, p in pairs]
        counts = path_counts([extract_paths(t) for t in gold],
                             [extract_paths(t) for t in pred], CLASSES)
        assert counts.shape == (len(pairs), 1 + len(CLASSES), 3)
        for i, (g, p) in enumerate(pairs):
            assert tuple(counts[i, 0]) == micro_counts([g], [p])
            for j, cls in enumerate(CLASSES, 1):
                assert tuple(counts[i, j]) == micro_counts(
                    [g], [p], lambda path: path_mentions(path, cls))
        assert tp_f1(gold, pred) == report_from_counts(*micro_counts(gold, pred))
        for cls in CLASSES:
            oracle = micro_counts(gold, pred, lambda path: path_mentions(path, cls))
            assert per_class_tp_f1(gold, pred, cls) == report_from_counts(*oracle)

    def test_counts_are_python_ints_in_reports(self):
        report = tp_f1([FIG1_GOLD], [FIG1_PRED])
        assert type(report.n_correct) is int and type(report.n_expected) is int


@pytest.mark.xfail(strict=True, reason="path_mentions tests the slot value by "
                   "substring, so SL:DATE matches inside [SL:DATE_EVENT")
def test_nested_label_prefix_is_not_a_mention():
    tree = parse_top("[IN:GET_DEPARTURE [SL:DESTINATION "
                     "[IN:GET_EVENT [SL:DATE_EVENT tomorrow ] ] ] ]")
    assert per_class_tp_f1([tree], [tree], "SL:DATE").n_expected == 0


class TestExactMatch:
    def test_identical(self):
        assert exact_match([FIG1_GOLD], [FIG1_GOLD]) == 1.0

    def test_half(self):
        gold = [FIG1_GOLD, parse_top("[IN:CANCEL hi ]")]
        pred = [FIG1_GOLD, parse_top("[IN:CANCEL bye ]")]
        assert exact_match(gold, pred) == 0.5

    def test_canonicalization_counts_as_match(self):
        a = parse_top("[IN:CANCEL  never   mind ]")
        b = parse_top("[in:cancel never mind ]")
        assert exact_match([a], [b]) == 1.0


class TestFoldScores:
    def test_constant_metric_has_zero_std(self):
        gold = [FIG1_GOLD] * 20
        score = fold_score(
            [exact_match([gold[i] for i in idx], [gold[i] for i in idx])
             for idx in metrics.fold_indices(len(gold), 5, seed=1)])
        assert score["mean"] == 1.0 and score["std"] == 0.0

    def test_fold_sizes_near_equal(self):
        folds = metrics.fold_indices(1000, 5, seed=0)
        assert [len(f) for f in folds] == [200] * 5
        assert sorted(i for f in folds for i in f) == list(range(1000))

    def test_mean_and_sample_std(self):
        score = fold_score([0.8, 0.8, 0.7, 0.9, 0.8])
        assert math.isclose(score["mean"], 0.8)
        assert math.isclose(score["std"], 0.07071067811865475, rel_tol=1e-12)
        assert score["n_folds"] == 5
        assert score["per_fold"] == [0.8, 0.8, 0.7, 0.9, 0.8]

    def test_too_few_examples(self):
        with pytest.raises(TooFewExamples):
            metrics.fold_indices(1, 2, seed=0)
        with pytest.raises(TooFewExamples):
            metrics.fold_indices(10, 1, seed=0)

    def test_deterministic_in_seed(self):
        a = metrics.fold_indices(100, 5, seed=3)
        b = metrics.fold_indices(100, 5, seed=3)
        assert all((x == y).all() for x, y in zip(a, b))


def _score(mean, std):
    return {"mean": mean, "std": std, "n_folds": 5, "per_fold": [mean] * 5}


class TestDegradedClasses:
    def test_no_change_means_no_degradation(self):
        scores = {"SL:A": _score(0.8, 0.05), "SL:B": _score(0.5, 0.1)}
        report = degraded_classes(scores, scores)
        assert report["degraded_count"] == 0

    def test_drop_beyond_two_sigma_is_degraded(self):
        before = {"SL:A": _score(0.80, 0.05)}
        after = {"SL:A": _score(0.65, 0.05)}
        assert degraded_classes(before, after)["degraded_count"] == 1

    def test_drop_within_two_sigma_is_not(self):
        before = {"SL:B": _score(0.80, 0.05)}
        after = {"SL:B": _score(0.72, 0.05)}
        assert degraded_classes(before, after)["degraded_count"] == 0

    def test_extra_classes_reported_as_skipped(self):
        before = {"SL:A": _score(0.8, 0.1), "SL:ONLY_BEFORE": _score(0.5, 0.1)}
        after = {"SL:A": _score(0.8, 0.1), "SL:ONLY_AFTER": _score(0.5, 0.1)}
        report = degraded_classes(before, after)
        assert report["skipped"] == ["SL:ONLY_AFTER", "SL:ONLY_BEFORE"]
        assert report["degraded_count"] == 0

    def test_count_invariant_under_relabeling(self):
        before = {"SL:A": _score(0.9, 0.01), "SL:B": _score(0.4, 0.2)}
        after = {"SL:A": _score(0.2, 0.01), "SL:B": _score(0.35, 0.2)}
        renamed_before = {"SL:X": before["SL:A"], "SL:Y": before["SL:B"]}
        renamed_after = {"SL:X": after["SL:A"], "SL:Y": after["SL:B"]}
        assert (degraded_classes(before, after)["degraded_count"]
                == degraded_classes(renamed_before,
                                    renamed_after)["degraded_count"])


def test_reports_are_json_shaped():
    report = tp_f1([FIG1_GOLD], [FIG1_PRED])
    d = report.as_dict()
    assert set(d) == {"precision", "recall", "f1",
                      "n_correct", "n_predicted", "n_expected"}
    score = fold_score([0.1, 0.2])
    assert set(score) == {"mean", "std", "n_folds", "per_fold"}
    deg = degraded_classes({"SL:A": score}, {"SL:A": score})
    assert deg == {"degraded_count": 0, "skipped": [], "entries": [
        {"class": "SL:A", "before": score, "after": score, "degraded": False}]}
    assert json.loads(json.dumps(deg)) == deg
