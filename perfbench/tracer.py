"""In-memory span tracer that wraps treepatch's public functions from outside.

A target is `(span name, module, attribute path)`. Installing a target
replaces the function in every loaded treepatch module that holds a
reference to it, not only in the module that defines it: `harness` imports
`featurize`, `forward`, `decode_tree` and `train` from `model`, and `model`
imports `penalty` and `apply_freeze` from `regularizers`, so patching the
defining module alone would miss those calls. A dotted attribute path such
as `FisherAccumulator.update` patches a method on its class.

Spans are (name, start, end, parent) in four parallel lists, read from the
tracer's clock (`time.perf_counter` unless given another); nothing is
written until `write_csv` is called at the end of a run. Self time is a
span's duration minus the durations of its direct children (one thread, so
children nest strictly inside their parent).
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter


class Tracer:
    def __init__(self, targets, clock=perf_counter):
        self.targets = tuple(targets)
        self.clock = clock
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        # name -> function of a call's return value; what it returns is
        # kept in `observed` as (span index, value)
        self.observers = {}
        self.observed = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def _close(self, i):
        self.ends[i] = self.clock()
        self._stack.pop()

    def span(self, name):
        """Context manager recording one span (used for the run's roots)."""
        return _Span(self, name)

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            observe = tracer.observers.get(name)
            if observe is not None:
                tracer.observed.append((i, observe(out)))
            return out

        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        if self._patches:
            return
        for name, module_name, attr_path in self.targets:
            owner = importlib.import_module(module_name)
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrapper_for(name, original)
            if owner_path:  # a method: the class is the only holder
                holders = [(owner, attr)]
            else:
                holders = [(mod, key) for mod in _treepatch_modules()
                           for key, value in list(vars(mod).items())
                           if value is original]
            for holder, key in holders:
                self._patches.append((holder, key, original))
                setattr(holder, key, wrapper)

    def _wrapper_for(self, name, original):
        if name == "harness.evaluator":
            # the evaluator is a closure built per run by make_evaluator:
            # wrap the factory so each closure it returns is wrapped
            tracer = self

            @functools.wraps(original)
            def make_evaluator(*args, **kwargs):
                return tracer.wrap(name, original(*args, **kwargs))

            return make_evaluator
        return self.wrap(name, original)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches = []

    # -- analysis ----------------------------------------------------------

    def roots(self):
        """Index of the root span each span descends from."""
        out = []
        for i, parent in enumerate(self.parents):
            out.append(i if parent < 0 else out[parent])
        return out

    def self_times(self):
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i]
                for i in range(len(self.names))]

    def durations(self, name, root_name):
        """Durations of the spans called `name` under roots called `root_name`."""
        roots = self.roots()
        return [self.ends[i] - self.starts[i]
                for i, n in enumerate(self.names)
                if n == name and self.names[roots[i]] == root_name]

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i] - t0:.9f},"
                         f"{self.ends[i] - t0:.9f},{self.parents[i]}\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


def _treepatch_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "treepatch" or key.startswith("treepatch."))]
