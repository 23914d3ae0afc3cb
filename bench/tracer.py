"""Span tracer that measures ihtlab's layers from outside the package.

A span wraps one function of one module and is named ``<module>.<function>``
(for methods, ``<module>.<Class>.<method>``).  Each span accumulates its call
count and its self time: the time inside the function minus the time inside
the traced functions it calls.

Patching is by identity: a function is replaced on the object that defines it
and at every ihtlab module attribute bound to the same object, so callers that
imported it by name (``from .core import hard_threshold``) call the wrapper
too.  A function that no longer exists is skipped and reports zero calls, so a
refactor that renames or deletes it does not break the benchmark.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    # Inclusive time: the span's whole duration, children included.
    total_s: float = 0.0


@dataclass
class Tracer:
    """Holds span statistics, caller->callee call counts and the live stack."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    edges: dict[tuple[str | None, str], int] = field(default_factory=dict)
    _stack: list[list] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def stats(self, name: str) -> SpanStats:
        return self.spans.setdefault(name, SpanStats())

    def wrap(self, name: str, fn: Callable, on_return: Callable | None = None) -> Callable:
        stats = self.stats(name)
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                stats.total_s += elapsed
                if stack:
                    stack[-1][1] += elapsed
                edges[(parent, name)] = edges.get((parent, name), 0) + 1
            if on_return is not None:
                on_return(args, result, elapsed)
            return result

        return traced

    def install(self, name: str, module: str, attr: str, on_return: Callable | None = None) -> None:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``) under span ``name``.

        ``on_return(args, result, elapsed)`` is called after each call that returns.
        A module or attribute that does not exist leaves the span at zero calls.
        """
        self.stats(name)
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return
        raw = vars(owner).get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
        if raw is None:
            return
        if isinstance(raw, (classmethod, staticmethod)):
            fn = raw.__func__
            replacement = type(raw)(self.wrap(name, fn, on_return))
        elif callable(raw):
            fn = raw
            replacement = self.wrap(name, fn, on_return)
        else:
            return
        self._set(owner, leaf, replacement)
        if not isinstance(owner, type):
            # Rebind every by-name import of the same function object.
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("ihtlab"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, key, replacement)

    @contextmanager
    def installed(self, specs):
        """Wrap every ``(name, module, attr, on_return)`` spec for the ``with`` body."""
        for spec in specs:
            self.install(*spec)
        try:
            yield self
        finally:
            self.uninstall()

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def child_calls(self, parent: str, child: str) -> int:
        return self.edges.get((parent, child), 0)
