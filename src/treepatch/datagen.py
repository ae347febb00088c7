"""Seeded synthetic corpus generator with a Zipf long tail over classes.

Stands in for a real task-oriented corpus: each intent has a few query
templates mixing literal tokens and slot placeholders; slot fillers are
token sequences or nested intents (compositional values). Intent and filler
choices are Zipf-weighted so rare classes exist by construction.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, Example
from .treebank import (INTENT_PREFIX, SLOT_PREFIX, Node, ParseTree,
                       TreeError)
from .utils import derive_seed


class GrammarError(ValueError):
    pass


class DepthExceeded(GrammarError):
    pass


@dataclass(frozen=True)
class Grammar:
    """intents: ordered (label, templates); template items are literal tokens
    or slot labels. fillers: slot label -> ordered alternatives, each either
    a token tuple or an intent label (nested subtree)."""

    intents: tuple  # ((intent_label, (template, ...)), ...)
    fillers: dict  # slot label -> tuple of alternatives
    max_depth: int = 3

    def __post_init__(self):
        if self.max_depth < 2:
            raise GrammarError("max_depth must be >= 2")
        labels = [label for label, _ in self.intents]
        if not labels:
            raise GrammarError("the grammar has no intents")
        if len(set(labels)) != len(labels):
            raise GrammarError("duplicate intent labels")
        for label, templates in self.intents:
            if not label.startswith(INTENT_PREFIX):
                raise GrammarError(f"intent {label!r} lacks the "
                                   f"{INTENT_PREFIX} prefix")
            if not templates:
                raise GrammarError(f"{label} has no templates")
            for tpl in templates:
                if not tpl:
                    raise GrammarError(f"{label} has an empty template")
                for item in tpl:
                    if item.startswith(SLOT_PREFIX) and item not in self.fillers:
                        raise GrammarError(f"{item} has no fillers")
                _check_node(label, [item for item in tpl
                                    if not item.startswith(SLOT_PREFIX)])
        for slot, alts in self.fillers.items():
            if not slot.startswith(SLOT_PREFIX):
                raise GrammarError(f"filler slot {slot!r} lacks the "
                                   f"{SLOT_PREFIX} prefix")
            if not alts:
                raise GrammarError(f"{slot} has no fillers")
            for alt in alts:
                if not isinstance(alt, tuple) and alt not in labels:
                    raise GrammarError(f"{slot} filler {alt!r} is not an intent")
                _check_node(slot, alt if isinstance(alt, tuple) else ())

    def intent_templates(self, label):
        for name, templates in self.intents:
            if name == label:
                return templates
        raise GrammarError(f"unknown intent {label}")


def _check_node(label, tokens):
    """Build the node generate builds of `label` over these tokens, so that
    a bad label or token fails when the grammar is made, naming the intent
    or slot."""
    try:
        Node(label, tuple(tokens))
    except TreeError as err:
        raise GrammarError(f"{label}: {err}") from None


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    n_train: int = 5000
    n_test: int = 1000
    tail_exponent: float = 1.0

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1:
            raise GrammarError("corpus sizes must be >= 1")
        if self.tail_exponent <= 0:
            raise GrammarError("tail_exponent must be > 0")


def zipf_weights(n, s):
    """Normalized 1/rank^s weights for n ordered alternatives."""
    w = 1.0 / np.arange(1, n + 1) ** s
    return w / w.sum()


def _cdf(p):
    """The cumulative weights rng.choice(len(p), p=p) draws from, computed as
    Generator.choice computes them: the running sum, divided by its last
    value. cdf.searchsorted(rng.random(), side="right") then draws the index
    that call would, from the same random number, and so does
    bisect_right(cdf.tolist(), rng.random()), the form generate draws with
    (a list's bisect costs far less per call than numpy's searchsorted)."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _sample_intent(grammar, label, rng, s, depth, fillers, nodes):
    """(key, node) of a tree of intent `label`. The key is the draws that
    chose the tree: the intent, the template's index and each slot's
    filler, as its index in grammar.fillers[slot] or the key of the nested
    intent; an index is the first of equal alternatives', so equal trees
    get one key. nodes interns the trees by key: a key met again costs its
    draws and builds no Node. fillers caches, per (slot, whether nested
    fillers fit in the depth left), the usable fillers' indices and their
    _cdf as a list, which each draw bisects."""
    if depth > grammar.max_depth:
        raise DepthExceeded(label)
    templates = grammar.intent_templates(label)
    # as rng.choice(len(templates))
    t = templates.index(templates[rng.integers(len(templates))])
    slots = []  # per slot of the template: (its filler's key, its children)
    for item in templates[t]:
        if not item.startswith(SLOT_PREFIX):
            continue
        # nested fillers are unreachable once the depth budget is spent
        key = (item, depth + 2 <= grammar.max_depth)
        if key not in fillers:
            alts = grammar.fillers[item]
            usable = [alts.index(a) for a in alts
                      if not isinstance(a, str) or key[1]]
            if not usable:
                raise DepthExceeded(item)
            weights = zipf_weights(len(alts), s)[usable]
            fillers[key] = usable, _cdf(weights / weights.sum()).tolist()
        usable, cdf = fillers[key]
        pick = usable[bisect_right(cdf, rng.random())]
        alt = grammar.fillers[item][pick]
        if isinstance(alt, str):
            nested_key, nested = _sample_intent(grammar, alt, rng, s,
                                                depth + 2, fillers, nodes)
            slots.append((nested_key, (nested,)))
        else:
            slots.append((pick, alt))
    key = (label, t, tuple(k for k, _ in slots))
    node = nodes.get(key)
    if node is None:
        slot_children = (children for _, children in slots)
        node = nodes[key] = Node(label, tuple(
            Node(item, next(slot_children)) if item.startswith(SLOT_PREFIX)
            else item for item in templates[t]))
    return key, node


def _sample_corpus(grammar, rng, n, s, id_prefix):
    """n examples drawn from rng. Each distinct tree is built once: its
    Node by _sample_intent, its ParseTree and query at the first example
    that draws it, and the examples with equal trees share that one
    immutable tree. Every example is still checked by Example. The intent
    is drawn by bisecting the _cdf of the intents' weights, as a list."""
    cdf = _cdf(zipf_weights(len(grammar.intents), s)).tolist()
    fillers, nodes = {}, {}
    roots = {}  # key -> (ParseTree, query) of each distinct root drawn
    examples = []
    for i in range(n):
        label = grammar.intents[bisect_right(cdf, rng.random())][0]
        key, root = _sample_intent(grammar, label, rng, s, 1, fillers, nodes)
        if key not in roots:
            tree = ParseTree(root)
            roots[key] = tree, " ".join(tree.leaves)
        tree, query = roots[key]
        examples.append(Example(id=f"{id_prefix}:{i}", query=query, tree=tree))
    return Dataset(tuple(examples))


def generate(grammar, config):
    """(train, test) datasets; disjoint seeded streams, disjoint id spaces."""
    train_rng = np.random.default_rng(derive_seed(config.seed, "datagen", "train"))
    test_rng = np.random.default_rng(derive_seed(config.seed, "datagen", "test"))
    s = config.tail_exponent
    train = _sample_corpus(grammar, train_rng, config.n_train, s, "train")
    test = _sample_corpus(grammar, test_rng, config.n_test, s, "test")
    return train, test


def load_grammar(path):
    """Grammar from JSON: {"max_depth": int, "intents": {label: [templates]},
    "fillers": {slot: [tokens-list | {"intent": label}]}}, where a template is
    a tokens-list too. Intent and filler order in the file is the Zipf rank
    order. A file of another shape raises GrammarError naming the path and
    the key, intent or slot."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)

    def check(ok, where, shape):
        if not ok:
            raise GrammarError(f"{path}: {where} is not {shape}")

    def tokens(value, where):
        check(isinstance(value, list) and all(isinstance(t, str) for t in value),
              where, "a list of token strings")
        return tuple(value)

    check(isinstance(data, dict), "the file", "an object")
    try:
        intents, fillers = data["intents"], data.get("fillers", {})
        check(isinstance(intents, dict), "intents", "an object")
        check(isinstance(fillers, dict), "fillers", "an object")
        for name, alts in (*intents.items(), *fillers.items()):
            check(isinstance(alts, list), name, "a list")
        intents = tuple((label, tuple(tokens(tpl, label) for tpl in templates))
                        for label, templates in intents.items())
        fillers = {slot: tuple(alt["intent"] if isinstance(alt, dict)
                               else tokens(alt, slot) for alt in alts)
                   for slot, alts in fillers.items()}
    except KeyError as err:
        raise GrammarError(f"{path}: missing key {err}") from None
    max_depth = data.get("max_depth", 3)
    check(type(max_depth) is int, "max_depth", "an integer")
    try:
        return Grammar(intents=intents, fillers=fillers, max_depth=max_depth)
    except GrammarError as err:
        raise GrammarError(f"{path}: {err}") from None


def builtin_grammar():
    """Fixed grammar: 12 intents, 30 slot classes, one compositional slot
    (SL:DESTINATION can hold a nested IN:GET_EVENT subtree)."""
    intents = (
        ("IN:GET_WEATHER", (
            ("what", "is", "the", "weather", "SL:DATE"),
            ("weather", "forecast", "for", "SL:LOCATION"),
            ("will", "it", "be", "SL:WEATHER_ATTRIBUTE", "SL:DATE"),
            ("how", "SL:WEATHER_ATTRIBUTE", "is", "it", "in", "SL:LOCATION"),
        )),
        ("IN:PLAY_MUSIC", (
            ("play", "SL:SONG", "by", "SL:ARTIST"),
            ("put", "on", "some", "SL:GENRE", "music"),
            ("play", "songs", "from", "SL:ARTIST"),
        )),
        ("IN:SET_ALARM", (
            ("set", "an", "alarm", "for", "SL:TIME"),
            ("wake", "me", "up", "SL:DATE", "at", "SL:TIME"),
        )),
        ("IN:GET_DIRECTIONS", (
            ("directions", "to", "SL:DESTINATION"),
            ("when", "should", "i", "leave", "for", "SL:DESTINATION", "at", "SL:TIME_ARRIVAL"),
            ("route", "from", "SL:SOURCE", "to", "SL:DESTINATION"),
        )),
        ("IN:GET_EVENT", (
            ("any", "SL:CATEGORY_EVENT", "events", "SL:DATE_EVENT"),
            ("find", "the", "SL:NAME_EVENT", "SL:CATEGORY_EVENT"),
            ("what", "events", "are", "happening", "SL:DATE_EVENT"),
            ("events", "hosted", "by", "SL:ORGANIZER_EVENT", "SL:DATE_EVENT"),
        )),
        ("IN:CREATE_REMINDER", (
            ("remind", "me", "to", "SL:TODO", "SL:REMINDER_DATE"),
            ("create", "a", "reminder", "to", "SL:TODO"),
        )),
        ("IN:SEND_MESSAGE", (
            ("text", "SL:RECIPIENT", "saying", "SL:MESSAGE_BODY"),
            ("send", "a", "message", "to", "SL:RECIPIENT"),
        )),
        ("IN:GET_RESTAURANT", (
            ("find", "a", "SL:CUISINE", "restaurant", "near", "SL:LOCATION_RESTAURANT"),
            ("show", "me", "SL:RATING", "rated", "places", "for", "SL:CUISINE"),
        )),
        ("IN:GET_TRAFFIC", (
            ("how", "is", "traffic", "on", "SL:ROAD"),
            ("traffic", "conditions", "SL:TRAFFIC_TIME", "on", "SL:ROAD"),
        )),
        ("IN:BOOK_FLIGHT", (
            ("book", "a", "SL:SEAT_CLASS", "flight", "on", "SL:AIRLINE"),
            ("find", "flights", "for", "SL:FLIGHT_DATE", "with", "SL:AIRLINE"),
        )),
        ("IN:GET_STOCK", (
            ("stock", "price", "of", "SL:TICKER"),
            ("how", "did", "SL:TICKER", "do", "SL:STOCK_DATE"),
        )),
        ("IN:CANCEL", (
            ("never", "mind"),
            ("cancel", "that"),
            ("stop", "please"),
        )),
    )
    fillers = {
        "SL:DATE": (("today",), ("tomorrow",), ("on", "friday"), ("next", "week")),
        "SL:LOCATION": (("boston",), ("seattle",), ("new", "york"), ("san", "francisco")),
        "SL:WEATHER_ATTRIBUTE": (("cold",), ("rainy",), ("windy",), ("humid",)),
        "SL:SONG": (("yesterday",), ("hey", "jude"), ("bohemian", "rhapsody")),
        "SL:ARTIST": (("the", "beatles"), ("queen",), ("miles", "davis")),
        "SL:GENRE": (("jazz",), ("rock",), ("classical",)),
        "SL:TIME": (("7", "am"), ("noon",), ("6:30", "pm")),
        "SL:DESTINATION": (
            ("the", "airport"),
            ("downtown",),
            ("the", "office"),
            "IN:GET_EVENT",  # compositional value
        ),
        "SL:SOURCE": (("home",), ("work",)),
        "SL:TIME_ARRIVAL": (("4", "pm"), ("9", "am"), ("half", "past", "five")),
        "SL:NAME_EVENT": (("dentist",), ("marathon",), ("gallery", "opening")),
        "SL:CATEGORY_EVENT": (("appointment",), ("concert",), ("festival",), ("workshop",)),
        "SL:DATE_EVENT": (("tonight",), ("this", "weekend"), ("in", "june")),
        "SL:ORGANIZER_EVENT": (("the", "city"), ("acme", "corp"), ("the", "library")),
        "SL:TODO": (("buy", "milk"), ("call", "mary"), ("water", "the", "plants")),
        "SL:REMINDER_DATE": (("tonight",), ("on", "monday"), ("in", "an", "hour")),
        "SL:RECIPIENT": (("mary",), ("my", "boss"), ("alex",)),
        "SL:MESSAGE_BODY": (("running", "late"), ("on", "my", "way"), ("see", "you", "soon")),
        "SL:CUISINE": (("thai",), ("italian",), ("mexican",)),
        "SL:RATING": (("highly",), ("five", "star"), ("top",)),
        "SL:LOCATION_RESTAURANT": (("here",), ("midtown",), ("the", "waterfront")),
        "SL:ROAD": (("the", "highway"), ("main", "street"), ("route", "9")),
        "SL:TRAFFIC_TIME": (("right", "now"), ("this", "evening")),
        "SL:SEAT_CLASS": (("economy",), ("business",)),
        "SL:AIRLINE": (("united",), ("delta",), ("jetblue",)),
        "SL:FLIGHT_DATE": (("next", "tuesday"), ("in", "march")),
        "SL:TICKER": (("acme",), ("globex",), ("initech",)),
        "SL:STOCK_DATE": (("today",), ("this", "quarter")),
    }
    return Grammar(intents=intents, fillers=fillers, max_depth=4)
