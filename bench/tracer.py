"""Span tracer that times crossflow's public functions from outside the package.

``Tracer.install`` wraps every public function of the layer modules and
rebinds the function's name in each crossflow module that holds it, so calls
from one module into another and calls inside a module both pass through the
wrapper.  No source file of the package changes.  ``Tracer.restore`` puts
the original functions back.

Each wrapped call records a span (name, start, end, parent span, job id).
Spans stay in memory until the run writes them out.  The hot leaf calls in
``HOT_FUNCTIONS`` and ``HOT_METHODS`` happen up to millions of times in one
run, so they are rolled up per (parent span, name) into a call count and a
total time instead of one span each; that keeps memory flat and still lets
self time be computed for their parents.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterable

LAYERS = ("scenario", "conflicts", "scheduling", "control", "simulation", "cli")

HOT_FUNCTIONS = frozenset({
    "scenario.classify_conflict",
    "conflicts.reachability_conflict",
    "control.control_input",
    "control.step_dynamics",
})

# (layer, class, method): counted by wrapping the class attribute
HOT_METHODS = (
    ("conflicts", "ConflictDirectedGraph", "connected"),
    ("conflicts", "CoexistenceGraph", "adjacent"),
)

ROOT = 0  # parent id of spans opened outside any other span


@dataclass(slots=True)
class Span:
    id: int
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int
    job: int | None
    error: str | None  # exception class name when the call raised


Observer = Callable[[object, dict], None]
"""(result of a wrapped call, counters) -> None; records counts read off results."""


class Tracer:
    def __init__(self, observers: dict[str, Observer] | None = None):
        self.spans: list[Span] = []
        self.rollups: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, seconds]
        self.counters: dict[str, int] = defaultdict(int)
        self.job: int | None = None
        self._observers = observers or {}
        self._stack = [ROOT]
        self._next_id = ROOT + 1
        self._active = False
        self._restore: list[tuple[object, str, object]] = []

    # --- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn: Callable, hot: bool = False) -> Callable:
        if hot:
            @functools.wraps(fn)
            def traced_leaf(*args, **kwargs):
                if not self._active:
                    return fn(*args, **kwargs)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._roll(name, perf_counter() - start)
            return traced_leaf

        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self.job, error))
            if observe is not None:
                observe(result, self.counters)
            return result
        return traced

    def _roll(self, name: str, seconds: float) -> None:
        key = (self._stack[-1], name)
        entry = self.rollups.get(key)
        if entry is None:
            self.rollups[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def install(self, package: ModuleType, modules: dict[str, ModuleType]) -> None:
        """Wrap the public functions of ``modules`` (layer name -> module).

        Every module in ``modules`` and the package itself has each name that
        refers to a wrapped function rebound to the wrapper.
        """
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped: dict[Callable, Callable] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(name, obj, hot=name in HOT_FUNCTIONS)
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(module, attr, wrapped[obj])
        for layer, cls_name, method in HOT_METHODS:
            cls = getattr(modules[layer], cls_name)
            self._rebind(cls, method,
                         self.wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method), hot=True))
        self._active = True

    def _rebind(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        self._active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def paused(self):
        """Calls made inside the block (the benchmark's own checks) go unrecorded."""
        active, self._active = self._active, False
        try:
            yield
        finally:
            self._active = active

    # --- reading --------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """Inclusive call count and seconds per name."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for s in self.spans:
            out[s.name][0] += 1
            out[s.name][1] += s.end - s.start
        for (_, name), (calls, seconds) in self.rollups.items():
            out[name][0] += calls
            out[name][1] += seconds
        return {k: (v[0], v[1]) for k, v in out.items()}

    def write(self, path) -> None:
        """Spans and rollups as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "job": s.job,
                                     "error": s.error}) + "\n")
            for (parent, name), (calls, seconds) in sorted(self.rollups.items()):
                fh.write(json.dumps({"rollup": name, "parent": parent, "calls": calls,
                                     "seconds": seconds}) + "\n")


def self_times(spans: Iterable[Span], rollups: dict[tuple[int, str], list]) -> dict[str, float]:
    """Self seconds per name: each span's duration minus what its children cover.

    Children of one span run one after another in this single-threaded
    program, so the part of a parent's interval they cover is the sum of
    their durations.  Rolled-up leaf calls are children of their parent span
    and count wholly as their own self time.
    """
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        covered[s.parent] += s.end - s.start
    for (parent, _), (_, seconds) in rollups.items():
        covered[parent] += seconds
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - covered[s.id]
    for (_, name), (_, seconds) in rollups.items():
        out[name] += seconds
    return dict(out)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
