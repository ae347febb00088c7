"""Labeled-bracket parse trees for task-oriented queries.

Trees alternate intent and slot levels: an intent node contains slot nodes
and/or plain tokens, a slot node contains tokens and/or nested intent nodes.
The string form is `[IN:LABEL token [SL:LABEL token ] ]` with a space before
every closing bracket in canonical form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

INTENT_PREFIX = "IN:"
SLOT_PREFIX = "SL:"

_LABEL_RE = re.compile(r"^(IN|SL):[A-Z0-9_]+$")


class TreeError(ValueError):
    """Base class for malformed bracket strings."""


class UnbalancedBrackets(TreeError):
    def __init__(self, position):
        super().__init__(f"unbalanced brackets at token position {position}")
        self.position = position


class BadLabel(TreeError):
    def __init__(self, label):
        super().__init__(f"node label {label!r} lacks IN:/SL: prefix or has bad characters")
        self.label = label


class RootNotIntent(TreeError):
    def __init__(self, label):
        super().__init__(f"root node {label!r} is not an intent")
        self.label = label


class EmptyNode(TreeError):
    def __init__(self, position):
        super().__init__(f"bracket at token position {position} has no label")
        self.position = position


class BadToken(TreeError):
    def __init__(self, token):
        super().__init__(f"token {token!r} contains brackets or whitespace")
        self.token = token


class BadNesting(TreeError):
    def __init__(self, parent, child):
        super().__init__(f"{child!r} cannot be a child of {parent!r}")


@dataclass(frozen=True)
class Node:
    """An intent or slot node; children are Nodes or plain token strings."""

    name: str
    children: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not _LABEL_RE.match(self.name):
            raise BadLabel(self.name)
        for child in self.children:
            if isinstance(child, str):
                # split() finds no token in "" and splits at whitespace
                if "[" in child or "]" in child or child.split() != [child]:
                    raise BadToken(child)
            elif isinstance(child, Node):
                if self.is_intent and child.is_intent:
                    raise BadNesting(self.name, child.name)
                if self.is_slot and child.is_slot:
                    raise BadNesting(self.name, child.name)
            else:
                raise TypeError(f"child must be Node or str, got {type(child)}")

    @property
    def is_intent(self):
        return self.name.startswith(INTENT_PREFIX)

    @property
    def is_slot(self):
        return self.name.startswith(SLOT_PREFIX)


@dataclass(frozen=True)
class ParseTree:
    root: Node
    # read in the tree's one walk, when it is built: the in-order tokens (the
    # underlying query), the node labels in pre-order (repeats kept) and
    # their set, every intent/slot label appearing anywhere in the tree
    leaves: tuple = field(init=False, repr=False, compare=False)
    labels: tuple = field(init=False, repr=False, compare=False)
    classes: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.root.is_intent:
            raise RootNotIntent(self.root.name)
        leaves, labels = [], []

        def visit(node):
            labels.append(node.name)
            for child in node.children:
                if isinstance(child, str):
                    leaves.append(child)
                else:
                    visit(child)

        visit(self.root)
        object.__setattr__(self, "leaves", tuple(leaves))
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "classes", frozenset(labels))

    def __str__(self):
        return serialize(self)


def parse_top(text):
    """Parse a labeled-bracket string into a ParseTree.

    Whitespace runs collapse; labels are upper-cased. Raises a TreeError
    subclass on structural problems.
    """
    if not text or not text.strip():
        raise EmptyNode(0)
    tokens = text.split()
    pos = 0
    stack = []  # list of (name, children)
    root = None
    for pos, tok in enumerate(tokens):
        if tok.startswith("["):
            label = tok[1:].upper()
            if not label:
                raise EmptyNode(pos)
            if not _LABEL_RE.match(label):
                raise BadLabel(tok[1:])
            if not stack and root is not None:
                raise UnbalancedBrackets(pos)
            stack.append((label, []))
        elif tok == "]":
            if not stack:
                raise UnbalancedBrackets(pos)
            name, children = stack.pop()
            node = Node(name, tuple(children))
            if stack:
                stack[-1][1].append(node)
            elif root is None:
                root = node
            else:
                raise UnbalancedBrackets(pos)
        else:
            if not stack:
                raise UnbalancedBrackets(pos)
            if "]" in tok or "[" in tok:
                raise BadToken(tok)
            stack[-1][1].append(tok)
    if stack:
        raise UnbalancedBrackets(len(tokens))
    if root is None:
        raise UnbalancedBrackets(0)
    return ParseTree(root)  # raises RootNotIntent for a slot root


def serialize_children(node):
    """A node's children in canonical form, single-spaced: the value of a
    slot's tree path (see metrics.extract_paths); "" for no children."""
    parts = []
    for child in node.children:
        parts.append(child if isinstance(child, str) else _serialize_node(child))
    return " ".join(parts)


def _serialize_node(node):
    children = serialize_children(node)
    return f"[{node.name} {children} ]" if children else f"[{node.name} ]"


def serialize(tree):
    """Canonical single-spaced bracket string; inverse of parse_top."""
    return _serialize_node(tree.root)
