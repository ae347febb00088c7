import json
import re

import pytest

from treepatch import dataset as ds
from treepatch.dataset import (ClassNotFound, Dataset, Example,
                               LineParseError, SchemaError, SplitSpec,
                               load_snips, load_top_tsv, load_tsv, make_split,
                               save_tsv, split_stats)
from treepatch.treebank import parse_top, serialize


def ex(eid, text):
    tree = parse_top(text)
    return Example(id=eid, query=" ".join(tree.leaves), tree=tree)


def corpus(*texts):
    return Dataset(tuple(ex(f"e{i}", t) for i, t in enumerate(texts)))


class TestTopTsv:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text(
            "never mind\tnever mind\t[IN:CANCEL never mind ]\n"
            "weather today\tweather today\t[IN:GET_WEATHER weather [SL:DATE today ] ]\n")
        data = load_top_tsv(path)
        assert len(data) == 2
        assert data[0].id == "line:1"
        assert serialize(data[1].tree).startswith("[IN:GET_WEATHER")

    def test_bad_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("x\tx\t[IN:CANCEL x ]\ny\ty\t[IN:BROKEN y\n")
        with pytest.raises(LineParseError) as err:
            load_top_tsv(path)
        assert err.value.lineno == 2

    def test_tree_without_tokens_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("x\tx\t[IN:CANCEL x ]\n\t\t[IN:B ]\n")
        with pytest.raises(LineParseError, match="no tokens") as err:
            load_top_tsv(path)
        assert err.value.lineno == 2

    def test_duplicate_serializations_both_kept(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("hi\thi\t[IN:CANCEL hi ]\nhi\thi\t[IN:CANCEL hi ]\n")
        data = load_top_tsv(path)
        assert len(data) == 2
        assert data[0].id != data[1].id


class TestSnips:
    def test_slot_span_becomes_depth2_tree(self, tmp_path):
        path = tmp_path / "snips.json"
        path.write_text(json.dumps([{
            "intent": "GetWeather",
            "text": [{"text": "weather "}, {"text": "today", "slot": "DATE"}],
        }]))
        data = load_snips(path)
        assert serialize(data[0].tree) == "[IN:GET_WEATHER weather [SL:DATE today ] ]"

    def test_zero_slots_gives_slotless_intent(self, tmp_path):
        path = tmp_path / "snips.json"
        path.write_text(json.dumps([{"intent": "Cancel", "text": "never mind"}]))
        data = load_snips(path)
        assert serialize(data[0].tree) == "[IN:CANCEL never mind ]"

    def test_schema_error(self, tmp_path):
        path = tmp_path / "snips.json"
        path.write_text(json.dumps([{"utterance": "no intent key"}]))
        with pytest.raises(SchemaError):
            load_snips(path)

    @pytest.mark.parametrize("text, error", [
        ("", "utterance 1 has no tokens"),
        ([{"text": " "}, {"text": "", "slot": "DATE"}],
         "utterance 1 has no tokens"),
        ([{"text": "a"}, 5], "utterance 1: text is not a string or a list"),
        (5, "utterance 1: text is not a string or a list"),
    ])
    def test_bad_utterance_rejected_naming_it(self, tmp_path, text, error):
        path = tmp_path / "snips.json"
        path.write_text(json.dumps([{"intent": "Cancel", "text": "never mind"},
                                    {"intent": "Cancel", "text": text}]))
        with pytest.raises(SchemaError, match=error):
            load_snips(path)


def split_corpus(n_target=10, n_other=20):
    texts = [f"[IN:TARGETED token{i} [SL:RARE val{i} ] ]" for i in range(n_target)]
    texts += [f"[IN:OTHER tok{i} [SL:COMMON v{i} ] ]" for i in range(n_other)]
    return corpus(*texts)


class TestMakeSplit:
    def test_conservation_and_coverage(self):
        src = split_corpus()
        result = make_split(src, SplitSpec("SL:RARE", 50, seed=3))
        assert len(result.d1) + len(result.d2) == len(src)
        assert result.d1.classes() == src.classes()
        assert result.moved_count == 5

    def test_full_split_retains_coverage_example(self):
        src = split_corpus(n_target=10)
        result = make_split(src, SplitSpec("SL:RARE", 100, seed=0))
        # 10 drawn, 1 moved back so d1 still covers the class: 9 moved net
        assert result.moved_count == 10
        assert sum("SL:RARE" in e.classes for e in result.d2) == 9
        assert sum("SL:RARE" in e.classes for e in result.d1) == 1
        assert len(result.coverage_ids) >= 1

    def test_coverage_takes_the_fewest_target_occurrences(self):
        # all three move; SL:ONLY's holders count SL:RARE 2, 1 (nested), 1
        src = corpus("[IN:A a [SL:RARE b ] [SL:RARE c ] [SL:ONLY d ] ]",
                     "[IN:A e [SL:ONLY [IN:B [SL:RARE f ] ] ] ]",
                     "[IN:A g [SL:RARE h ] [SL:ONLY i ] ]",
                     "[IN:B j ]")
        result = make_split(src, SplitSpec("SL:RARE", 100, seed=0))
        assert result.coverage_ids == ("e1",)  # fewest, then by position
        assert result.d2.ids() == ["e0", "e2"]

    def test_rounding_to_zero_moves_nothing(self):
        src = split_corpus(n_target=10)
        result = make_split(src, SplitSpec("SL:RARE", 4, seed=0))
        assert result.moved_count == 0  # round(0.4) == 0
        assert len(result.d2) == 0

    def test_half_to_even_rounding(self):
        src = split_corpus(n_target=10)
        assert make_split(src, SplitSpec("SL:RARE", 25, seed=0)).moved_count == 2
        assert make_split(src, SplitSpec("SL:RARE", 35, seed=0)).moved_count == 4

    def test_unknown_class(self):
        with pytest.raises(ClassNotFound):
            make_split(split_corpus(), SplitSpec("SL:NOWHERE", 50))

    def test_deterministic_and_seed_sensitive(self):
        src = split_corpus(n_target=12)
        a = make_split(src, SplitSpec("SL:RARE", 50, seed=1))
        b = make_split(src, SplitSpec("SL:RARE", 50, seed=1))
        c = make_split(src, SplitSpec("SL:RARE", 50, seed=2))
        assert a.d2.ids() == b.d2.ids()
        assert a.moved_count == c.moved_count
        assert a.d2.ids() != c.d2.ids()

    def test_split_stats_match_counts(self):
        src = split_corpus()
        result = make_split(src, SplitSpec("SL:RARE", 50, seed=3))
        stats = {cls: (a, b) for cls, a, b in split_stats(result)}
        assert stats["SL:RARE"][0] + stats["SL:RARE"][1] == 10
        assert stats["SL:COMMON"] == (20, 0)


def test_tsv_round_trip(tmp_path):
    src = split_corpus(3, 3)
    path = tmp_path / "out.tsv"
    save_tsv(src, path)
    back = load_tsv(path)
    assert back.ids() == src.ids()
    assert [serialize(e.tree) for e in back] == [serialize(e.tree) for e in src]


CANCEL = "[IN:CANCEL never mind ]"
WEATHER = "[IN:GET_WEATHER weather [SL:DATE today ] ]"


class TestLoadTsvRepeats:
    """load_tsv parses and checks each distinct (query, serialization) pair
    once; the lines that repeat it share its tree."""

    LINES = [("a", "never mind", CANCEL),
             ("b", "weather today", WEATHER),
             ("c", "never mind", CANCEL),
             ("d", "never  mind", CANCEL),  # another query, the same leaves
             ("e", "weather today", WEATHER),
             ("f", "never mind", CANCEL)]

    @staticmethod
    def _write(path, lines):
        path.write_text("".join("\t".join(line) + "\n" for line in lines))
        return path

    def test_parses_each_distinct_pair_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return parse_top(text)

        monkeypatch.setattr(ds, "parse_top", counting)
        load_tsv(self._write(tmp_path / "rep.tsv", self.LINES))
        assert calls == [CANCEL, WEATHER, CANCEL]

    def test_repeated_lines_share_one_tree(self, tmp_path):
        data = load_tsv(self._write(tmp_path / "rep.tsv", self.LINES))
        by_id = {ex.id: ex for ex in data}
        assert by_id["a"].tree is by_id["c"].tree is by_id["f"].tree
        assert by_id["a"].classes is by_id["c"].classes
        assert by_id["b"].tree is by_id["e"].tree
        assert by_id["d"].tree is not by_id["a"].tree
        assert by_id["d"].query == "never  mind"

    def test_equals_a_parse_of_every_line(self, tmp_path):
        data = load_tsv(self._write(tmp_path / "rep.tsv", self.LINES))
        expected = tuple(Example(id=eid, query=query, tree=parse_top(text))
                         for eid, query, text in self.LINES)
        assert data.examples == expected
        save_tsv(data, tmp_path / "again.tsv")
        assert ((tmp_path / "again.tsv").read_text()
                == (tmp_path / "rep.tsv").read_text())

    def test_repeated_bad_line_names_its_first_line(self, tmp_path):
        bad = ("x", "y", "[IN:BROKEN y")
        path = self._write(tmp_path / "bad.tsv",
                           [self.LINES[0], bad, self.LINES[1], bad])
        with pytest.raises(LineParseError) as err:
            load_tsv(path)
        assert err.value.lineno == 2

    def test_tree_without_tokens_rejected_at_its_line(self, tmp_path):
        path = self._write(tmp_path / "empty.tsv",
                           [self.LINES[0], ("z", "", "[IN:B ]")])
        with pytest.raises(LineParseError, match="no tokens") as err:
            load_tsv(path)
        assert err.value.lineno == 2

    def test_repeated_mismatch_names_its_first_id(self, tmp_path):
        path = self._write(tmp_path / "bad.tsv",
                           [self.LINES[0], ("m1", "hello there", CANCEL),
                            ("m2", "hello there", CANCEL)])
        with pytest.raises(LineParseError) as err:
            load_tsv(path)
        assert err.value.lineno == 2
        assert str(err.value.cause).startswith("m1: query tokens")

    def test_first_line_mismatch_rejected_at_its_line(self, tmp_path):
        path = self._write(tmp_path / "bad.tsv",
                           [("m0", "hello", CANCEL), self.LINES[0]])
        with pytest.raises(LineParseError, match="m0: query tokens") as err:
            load_tsv(path)
        assert err.value.lineno == 1


@pytest.mark.parametrize("query, text, error", [
    ("a b c", "[IN:A a [SL:X b ] ]",
     "e1: query tokens ['a', 'b', 'c'] != tree leaves ['a', 'b']"),
    ("b a", "[IN:A a [SL:X b ] ]",
     "e1: query tokens ['b', 'a'] != tree leaves ['a', 'b']"),
    ("", "[IN:B ]", "e1: the tree has no tokens"),
    ("x", "[IN:B [SL:X ] ]", "e1: the tree has no tokens"),
], ids=["extra-token", "reordered", "empty", "empty-slot"])
def test_example_rejects_a_query_that_is_not_its_leaves(query, text, error):
    with pytest.raises(ds.DatasetError, match=f"^{re.escape(error)}$"):
        Example("e1", query, parse_top(text))


def test_duplicate_ids_rejected():
    e = ex("same", "[IN:CANCEL hi ]")
    with pytest.raises(ds.DatasetError):
        Dataset((e, e))

