"""Incremental (data-patch) training for task-oriented semantic parsers."""

from . import (datagen, dataset, harness, metrics, model, regularizers,
               sampling, treebank)
from .treebank import ParseTree, parse_top, serialize

__all__ = [
    "datagen", "dataset", "harness", "metrics", "model", "regularizers",
    "sampling", "treebank",
    "ParseTree", "parse_top", "serialize",
]

__version__ = "0.1.0"
