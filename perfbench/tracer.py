"""Spans around the public functions of each quasiherm module.

The tracer replaces every public function of a layer module, and every
public method (plus ``__call__``) of a class the module defines, with a
wrapper that records a span: name, start, end and parent span; the
benchmark tags the spans it keeps with their operation id.
A function is replaced in every namespace that binds it -- ``verify`` imports
``evolve``, ``integrate_u`` and friends by name, the package ``__init__``
re-exports most of them, and ``models.BUILTINS`` holds the builder functions
-- so a call is recorded however it is reached. ``uninstall`` restores the
originals, which lets a run interleave traced and untraced operations.

Spans stay in memory until the operation that opened them is aggregated; a
layer's self time is a span's duration minus the durations of its direct
children (calls nest strictly: the program is single-threaded).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("scenario_io", "models", "dynamics", "schedules", "linalg", "spaces",
          "verify", "cli")

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._name = array("l")
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, bool]] | None = None
        self._originals: list[object] = []

    # --- recording ---

    def _open(self, name_id: int) -> int:
        idx = len(self._end)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._name.append(name_id)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def run_op(self, fn):
        """Call fn() as one operation under a root span; return its result."""
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    # --- installing ---

    def _plan(self) -> list[tuple[object, str, object, bool]]:
        """(namespace, key, wrapper, is_dict_item) for every binding to replace."""
        wrappers = {}   # original function -> wrapper
        plan = []
        for layer in LAYERS:
            mod = importlib.import_module(f"quasiherm.{layer}")
            for key, val in vars(mod).items():
                if key.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(val):
                    wrappers[val] = self._wrap(f"{layer}.{key}", val)
                elif inspect.isclass(val):
                    for attr, meth in vars(val).items():
                        if inspect.isfunction(meth) and (
                                not attr.startswith("_") or attr == "__call__"):
                            plan.append((val, attr, self._wrap(f"{layer}.{key}.{attr}", meth),
                                         False))
        modules = [importlib.import_module("quasiherm")] + [
            importlib.import_module(f"quasiherm.{m}") for m in LAYERS]
        dicts_seen = set()   # models.BUILTINS is also bound in the package namespace
        for mod in modules:
            for key, val in vars(mod).items():
                if inspect.isfunction(val) and val in wrappers:
                    plan.append((mod, key, wrappers[val], False))
                elif isinstance(val, dict) and id(val) not in dicts_seen:
                    dicts_seen.add(id(val))
                    plan.extend((val, k, wrappers[v], True) for k, v in val.items()
                                if inspect.isfunction(v) and v in wrappers)
        return plan

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        if self._bindings is None:
            self._bindings = self._plan()
        for target, key, new, item in self._bindings:
            if item:
                self._originals.append(target[key])
                target[key] = new
            else:
                self._originals.append(getattr(target, key))
                setattr(target, key, new)

    def uninstall(self) -> None:
        for (target, key, _, item), old in reversed(list(zip(self._bindings or (),
                                                              self._originals))):
            if item:
                target[key] = old
            else:
                setattr(target, key, old)
        self._originals.clear()

    # --- reading ---

    def take_spans(self) -> dict:
        """Return the recorded spans as arrays and forget them."""
        if self._stack:
            raise RuntimeError("spans still open")
        spans = {"name": np.frombuffer(self._name, dtype=np.int_).copy(),
                 "start": np.frombuffer(self._start, dtype=float).copy(),
                 "end": np.frombuffer(self._end, dtype=float).copy(),
                 "parent": np.frombuffer(self._parent, dtype=np.int_).copy()}
        for arr in (self._name, self._start, self._end, self._parent):
            del arr[:]
        return spans

    def aggregate(self, spans: dict) -> tuple[np.ndarray, np.ndarray]:
        """Self seconds and call counts per name index, for one batch of spans."""
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        n = len(self.names)
        self_s = np.bincount(spans["name"], weights=dur - child, minlength=n)
        calls = np.bincount(spans["name"], minlength=n)
        return self_s, calls
