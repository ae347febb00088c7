"""Example collections, TSV/SNIPS ingestion, and the old/new split generator.

A split takes a target class C and a percentage P: P% of the examples
containing C move into the "new" segment (d2), then a coverage pass moves
examples back so that the "old" segment (d1) still contains every class.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from . import treebank
from .treebank import INTENT_PREFIX, SLOT_PREFIX, ParseTree, parse_top, serialize


class DatasetError(ValueError):
    pass


class LineParseError(DatasetError):
    def __init__(self, path, lineno, cause):
        super().__init__(f"{path}:{lineno}: {cause}")
        self.lineno = lineno
        self.cause = cause


class SchemaError(DatasetError):
    pass


class ClassNotFound(DatasetError):
    pass


class CoverageImpossible(DatasetError):
    pass


@dataclass(frozen=True)
class Example:
    """A query and its gold tree, whose leaves are the query's tokens (at
    least one); a pair that breaks this raises DatasetError naming the id."""

    id: str
    query: str
    tree: ParseTree

    def __post_init__(self):
        leaves = self.tree.leaves
        if not leaves:
            raise DatasetError(f"{self.id}: the tree has no tokens")
        # a token holds no whitespace, so a single-spaced query needs no split
        if self.query != " ".join(leaves) and tuple(self.query.split()) != leaves:
            raise DatasetError(f"{self.id}: query tokens {self.query.split()}"
                               f" != tree leaves {list(leaves)}")

    @property
    def classes(self):
        """The tree's class set, read when the tree was built."""
        return self.tree.classes


@dataclass(frozen=True)
class Dataset:
    examples: tuple

    def __post_init__(self):
        ids = [ex.id for ex in self.examples]
        if len(set(ids)) != len(ids):
            raise DatasetError("duplicate example ids")

    def __len__(self):
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def __getitem__(self, i):
        return self.examples[i]

    def classes(self):
        out = set()
        for ex in self.examples:
            out |= ex.classes
        return out

    def ids(self):
        return [ex.id for ex in self.examples]


@dataclass(frozen=True)
class SplitSpec:
    target_class: str
    percentage: float  # (0, 100]
    seed: int = 0
    coverage_per_class: int = 1

    def __post_init__(self):
        if not 0 < self.percentage <= 100:
            raise DatasetError(f"percentage {self.percentage} outside (0, 100]")
        if self.coverage_per_class < 1:
            raise DatasetError("coverage_per_class must be >= 1")


@dataclass(frozen=True)
class SplitResult:
    d1: Dataset
    d2: Dataset
    moved_count: int  # size of the initial draw, before the coverage pass
    coverage_ids: tuple


def load_top_tsv(path):
    """Load `raw<TAB>tokenized<TAB>bracket_serialization` lines.

    Ids are `line:<n>` (1-based). Malformed lines, and trees without tokens,
    raise LineParseError.
    """
    examples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            try:
                if len(parts) < 2:
                    raise DatasetError(f"expected >=2 tab-separated fields, got {len(parts)}")
                serialization = parts[-1]
                tree = parse_top(serialization)
                query = " ".join(tree.leaves)
                examples.append(Example(id=f"line:{lineno}", query=query, tree=tree))
            except (treebank.TreeError, DatasetError) as exc:
                raise LineParseError(path, lineno, exc) from exc
    return Dataset(tuple(examples))


def _snips_label(name):
    """`GetWeather` / `served_dish` -> `GET_WEATHER` / `SERVED_DISH`."""
    s = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", str(name))
    s = re.sub(r"[^A-Za-z0-9]+", "_", s).strip("_").upper()
    if not s:
        raise SchemaError(f"cannot derive a label from {name!r}")
    return s


def load_snips(path):
    """Load a SNIPS-style JSON corpus, reformatted as depth-2 trees.

    Expected schema: a list (or {"examples": [...]}) of objects with
    `intent` and `text` chunks: [{"text": "weather "}, {"text": "today",
    "slot": "DATE"}, ...]. Slot chunks become `[SL:<SLOT> tokens ]`. Other
    shapes and utterances without tokens raise SchemaError naming them.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("examples")
    if not isinstance(data, list):
        raise SchemaError("expected a JSON list of utterances")
    examples = []
    for i, utt in enumerate(data):
        if not isinstance(utt, dict) or "intent" not in utt or "text" not in utt:
            raise SchemaError(f"utterance {i} lacks intent/text")
        chunks = utt["text"]
        if isinstance(chunks, str):
            chunks = [{"text": chunks}]
        if not isinstance(chunks, list) or not all(isinstance(c, dict) for c in chunks):
            raise SchemaError(f"utterance {i}: text is not a string or a list of objects")
        children = []
        for chunk in chunks:
            tokens = str(chunk.get("text", "")).split()
            if not tokens:
                continue
            slot = chunk.get("slot") or chunk.get("entity")
            if slot is None:
                children.extend(tokens)
            else:
                children.append(treebank.Node(SLOT_PREFIX + _snips_label(slot),
                                              tuple(tokens)))
        if not children:
            raise SchemaError(f"utterance {i} has no tokens")
        root = treebank.Node(INTENT_PREFIX + _snips_label(utt["intent"]), tuple(children))
        tree = ParseTree(root)
        query = " ".join(tree.leaves)
        examples.append(Example(id=f"snips:{i}", query=query, tree=tree))
    return Dataset(tuple(examples))


def make_split(src, spec):
    """Partition `src` into d1 (old) and d2 (new) per the split spec.

    Seeded uniform draw of round(P/100 * n_C) target-class examples into d2,
    then for every class missing from d1, the d2 examples with the fewest
    target-class occurrences (ties by position) move back.
    """
    targets = [ex for ex in src if spec.target_class in ex.classes]
    if not targets:
        raise ClassNotFound(spec.target_class)
    # round() is half-to-even; deterministic and unbiased across percentages
    n_move = round(spec.percentage / 100 * len(targets))
    rng = np.random.default_rng(spec.seed)
    picked = rng.choice(len(targets), size=n_move, replace=False)
    d2_ids = {targets[i].id for i in picked}

    d1 = [ex for ex in src if ex.id not in d2_ids]
    d2 = [ex for ex in src if ex.id in d2_ids]

    d1_classes = set().union(*(ex.classes for ex in d1))
    missing = sorted(src.classes() - d1_classes)

    coverage_ids = []
    covered = set(d1_classes)
    for cls in missing:
        if cls in covered:
            continue  # an earlier coverage example already carries it
        holders = [ex for ex in d2 if cls in ex.classes and ex.id not in coverage_ids]
        if not holders:
            raise CoverageImpossible(cls)
        holders.sort(key=lambda ex: ex.tree.labels.count(spec.target_class))
        for ex in holders[: spec.coverage_per_class]:
            coverage_ids.append(ex.id)
            covered |= ex.classes
    if coverage_ids:
        cov = set(coverage_ids)
        d1 = [ex for ex in src if ex.id not in d2_ids or ex.id in cov]
        d2 = [ex for ex in d2 if ex.id not in cov]

    return SplitResult(
        d1=Dataset(tuple(d1)),
        d2=Dataset(tuple(d2)),
        moved_count=n_move,
        coverage_ids=tuple(coverage_ids),
    )


def split_stats(result):
    """Rows of (class, count_d1, count_d2), sorted by class label."""
    counts = {}
    for ex in result.d1:
        for cls in ex.classes:
            counts.setdefault(cls, [0, 0])[0] += 1
    for ex in result.d2:
        for cls in ex.classes:
            counts.setdefault(cls, [0, 0])[1] += 1
    return [(cls, c[0], c[1]) for cls, c in sorted(counts.items())]


def save_tsv(dataset, path):
    """Write `id<TAB>query<TAB>serialization` lines (canonical export)."""
    with open(path, "w", encoding="utf-8") as fh:
        for ex in dataset:
            fh.write(f"{ex.id}\t{ex.query}\t{serialize(ex.tree)}\n")


def load_tsv(path):
    """Read the canonical 3-column export written by save_tsv.

    Each distinct (query, serialization) pair is parsed once, at its first
    line; the lines that repeat it share that line's immutable tree, and so
    its class set. A bad tree, or a pair Example rejects, raises
    LineParseError.
    """
    examples = []
    first = {}  # (query, serialization) -> the Example of its first line
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise LineParseError(path, lineno, "expected 3 tab-separated fields")
            eid, query, serialization = parts
            key = query, serialization
            seen = first.get(key)
            if seen is not None:
                examples.append(Example(eid, query, seen.tree))
                continue
            try:
                seen = first[key] = Example(eid, query, parse_top(serialization))
            except (treebank.TreeError, DatasetError) as exc:
                raise LineParseError(path, lineno, exc) from exc
            examples.append(seen)
    return Dataset(tuple(examples))
