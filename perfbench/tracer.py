"""Span recording around the program's public functions, from outside it.

Tracer.install replaces every public module-level function of the given
modules with a timing wrapper, at every place the function is bound:
modules that did ``from .network import forward`` hold their own
reference, and that name is patched too. A few methods are wrapped on
their class. uninstall puts every original back. Nothing in the program
changes on disk.
"""

from __future__ import annotations

import inspect
import time
from types import ModuleType


class Tracer:
    """Records spans as [name, start, end, parent, size] in call order.

    parent is the index of the enclosing span, or -1; size is filled for
    functions given a size_of rule (used for factorization flop counts).
    Spans are appended on entry, so a parent always precedes its children.
    """

    def __init__(self, size_of: dict | None = None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._size_of = size_of or {}
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        size_of = self._size_of.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if size_of is not None:
                span[4] = size_of(*args, **kwargs)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, value) -> None:
        """Set owner.attr to value until uninstall restores it."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, modules: list[ModuleType], methods=()) -> None:
        """Wrap public functions of modules and (cls, attr, name) methods."""
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self.patch(module, attr, wrappers[obj])
        for cls, attr, name in methods:
            self.patch(cls, attr, self.wrap(name, vars(cls)[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()
