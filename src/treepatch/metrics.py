"""Tree-path F1, exact match, fold-based uncertainty, and forgetting counts.

A tree path runs from the root to either a slot node or to an intent that
dominates no slots. Slot paths carry the slot's serialized contents as their
value (nested intents serialize in full bracket form), so an error deep
inside a compositional slot also invalidates the enclosing slot's path.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .treebank import Node, serialize, serialize_children


class LengthMismatch(ValueError):
    def __init__(self, n_gold, n_pred):
        super().__init__(f"gold has {n_gold} examples, pred has {n_pred}")


class TooFewExamples(ValueError):
    pass


@dataclass(frozen=True)
class TreePath:
    labels: tuple  # node names, root first
    value: str  # serialized slot contents; "" for slotless-intent paths

    def __str__(self):
        return ">".join(self.labels) + "=" + self.value


@dataclass(frozen=True)
class TpF1Report:
    precision: float
    recall: float
    f1: float
    n_correct: int
    n_predicted: int
    n_expected: int

    def as_dict(self):
        return dict(self.__dict__)


def fold_score(per_fold):
    """A fold score, the one form of the fold statistic: {"mean", "std",
    "n_folds", "per_fold"}, the mean and the sample std (k - 1) of the
    per-fold scores as Python floats. Records store it as it is, and
    degraded_classes reads it so. The squares are Python's x ** 2, whose
    bits numpy's square does not always give."""
    per_fold = list(map(float, per_fold))
    k = len(per_fold)
    if k < 2:
        raise TooFewExamples("need at least 2 folds")
    mean = sum(per_fold) / k
    var = sum([(x - mean) ** 2 for x in per_fold]) / (k - 1)
    return {"mean": mean, "std": math.sqrt(var), "n_folds": k,
            "per_fold": per_fold}


def extract_paths(tree):
    """Multiset (Counter) of TreePath for one tree."""
    paths = Counter()

    def visit(node, prefix):
        prefix = prefix + (node.name,)
        if node.is_slot:
            paths[TreePath(prefix, serialize_children(node))] += 1
        elif not any(isinstance(child, Node) for child in node.children):
            # an intent's child nodes are all slots (Node raises BadNesting
            # for an intent under an intent), so one with none has no slot below
            paths[TreePath(prefix, "")] += 1
            return  # nothing below can emit paths
        for child in node.children:
            if isinstance(child, Node):
                visit(child, prefix)

    visit(tree.root, ())
    return paths


class PathVocab:
    """Distinct tree paths as consecutive ids, each with one row of class
    mentions: column 0 is always set (every path counts in the global
    score), column 1 + j is path_mentions(path, classes[j]). A path is keyed
    by its (labels, value) pair; its row is computed once, when the path is
    first seen."""

    def __init__(self, classes=()):
        self.classes = tuple(classes)
        self._ids = {}  # (labels, value) -> id
        self._mentions = np.zeros((64, 1 + len(self.classes)), dtype=bool)

    def id(self, labels, value):
        pid = self._ids.get((labels, value))
        if pid is None:
            pid = self._ids[(labels, value)] = len(self._ids)
            if pid == len(self._mentions):  # double the capacity
                self._mentions = np.concatenate(
                    [self._mentions, np.zeros_like(self._mentions)])
            path = TreePath(labels, value)
            self._mentions[pid] = [True] + [path_mentions(path, cls)
                                            for cls in self.classes]
        return pid

    @property
    def mentions(self):
        """(paths, 1 + classes) bool: the mention row of each path id."""
        return self._mentions[:len(self._ids)]

    def entries(self, path_multisets):
        """(example, path id, count) int64 arrays of a list of path
        multisets (as from extract_paths), one entry per distinct path."""
        rows = [(i, self.id(path.labels, path.value), n)
                for i, paths in enumerate(path_multisets)
                for path, n in paths.items()]
        return tuple(np.array(rows, dtype=np.int64).reshape(-1, 3).T)


def counts_from_entries(n_examples, mentions, gold, pred):
    """Integer (n_correct, n_predicted, n_expected) per example, for all
    paths and for the paths mentioning each class.

    `gold` and `pred` are (example, path id, count) entry arrays; an example
    and path may appear in several entries, whose counts add. Per example
    and path, n_correct is the smaller of the gold and predicted counts.
    `mentions` is a PathVocab's mention matrix. Returns an int64 array of
    shape (n_examples, mentions.shape[1], 3); totals over folds or the whole
    set are sums over rows.
    """
    n_paths, width = max(len(mentions), 1), mentions.shape[1]
    keys, inverse = np.unique(np.concatenate(
        [gold[0] * n_paths + gold[1], pred[0] * n_paths + pred[1]]),
        return_inverse=True)
    expected = np.zeros(len(keys), dtype=np.int64)
    predicted = np.zeros(len(keys), dtype=np.int64)
    np.add.at(expected, inverse[:len(gold[0])], gold[2])
    np.add.at(predicted, inverse[len(gold[0]):], pred[2])
    per_path = np.stack([np.minimum(expected, predicted), predicted, expected],
                        axis=1)
    example, pid = np.divmod(keys, n_paths)
    path_of, column = np.nonzero(mentions[pid])
    counts = np.zeros((n_examples * width, 3), dtype=np.int64)
    np.add.at(counts, example[path_of] * width + column, per_path[path_of])
    return counts.reshape(n_examples, width, 3)


def path_counts(gold_paths, pred_paths, classes=()):
    """counts_from_entries of aligned lists of path multisets (as from
    extract_paths): (n_examples, 1 + len(classes), 3), where column 0
    counts every path and column 1 + j the paths for which
    path_mentions(path, classes[j]) holds.
    """
    if len(gold_paths) != len(pred_paths):
        raise LengthMismatch(len(gold_paths), len(pred_paths))
    vocab = PathVocab(classes)
    gold, pred = vocab.entries(gold_paths), vocab.entries(pred_paths)
    return counts_from_entries(len(gold_paths), vocab.mentions, gold, pred)


def report_from_counts(n_correct, n_predicted, n_expected):
    """TpF1Report from path counts; numpy integers become Python ints."""
    n_correct, n_predicted, n_expected = map(int, (n_correct, n_predicted, n_expected))
    p = n_correct / n_predicted if n_predicted else 0.0
    r = n_correct / n_expected if n_expected else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return TpF1Report(precision=p, recall=r, f1=f1, n_correct=n_correct,
                      n_predicted=n_predicted, n_expected=n_expected)


def tp_f1(gold, pred):
    """Micro-averaged tree-path F1 over aligned gold/pred tree lists."""
    return report_from_counts(*_total_counts(gold, pred)[0])


def _total_counts(gold, pred, classes=()):
    """path_counts of two tree lists, summed over the examples."""
    return path_counts([extract_paths(t) for t in gold],
                       [extract_paths(t) for t in pred], classes).sum(axis=0)


def path_mentions(path, cls):
    """True if `cls` is one of the path labels or a substring of its value.

    Compositional containment: a slot value like `[IN:GET_EVENT [SL:X ... ] ]`
    mentions both nested labels. The value test is a plain substring test,
    so a value holding `[SL:DATE_EVENT` also mentions `SL:DATE`.
    """
    return cls in path.labels or cls in path.value


def per_class_tp_f1(gold, pred, cls):
    """tp_f1 restricted to paths mentioning `cls`; unknown classes give zeros."""
    return report_from_counts(*_total_counts(gold, pred, (cls,))[1])


def exact_match(gold, pred):
    """Fraction of aligned examples with identical canonical serializations."""
    if len(gold) != len(pred):
        raise LengthMismatch(len(gold), len(pred))
    if not gold:
        return 0.0
    hits = sum(serialize(g) == serialize(p) for g, p in zip(gold, pred))
    return hits / len(gold)


def fold_indices(n, k, seed):
    """Seeded shuffle then contiguous partition into k near-equal folds."""
    if k < 2:
        raise TooFewExamples(f"k={k} must be >= 2")
    if n < k:
        raise TooFewExamples(f"{n} examples cannot fill {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, k)]


def is_degraded(before, after):
    """Whether a class's mean fold score dropped by more than twice its
    std before: the forgetting rule, on two fold scores."""
    return before["mean"] - after["mean"] > 2 * before["std"]


def degraded_classes(before, after):
    """The forgetting count of two {class: fold score} maps, as a record's
    per_class holds them: {"degraded_count", "skipped", "entries"}, where
    skipped lists (sorted) the classes present in only one map and entries
    holds one {"class", "before", "after", "degraded"} per shared class, in
    class order, with the two maps' fold scores as they are."""
    entries = [{"class": cls, "before": before[cls], "after": after[cls],
                "degraded": is_degraded(before[cls], after[cls])}
               for cls in sorted(set(before) & set(after))]
    return {"degraded_count": sum(e["degraded"] for e in entries),
            "skipped": sorted(set(before) ^ set(after)),
            "entries": entries}
