"""Outside-in span tracer: times library layers without touching ``src/``.

:meth:`Tracer.install` replaces each target with a timing wrapper where its
callers look it up.  A function is patched in its defining module *and* in
every loaded ``repro`` module that bound it with ``from ... import``
(``repro.backends.fake_hardware.sample_counts``,
``repro.core.pipeline.detect_tree_golden_bases``, ...); a method is patched
on its class.  :meth:`Tracer.remove` restores every original.  A target that
no longer exists raises :class:`TraceError` at install time, so a refactor
cannot silently drop a layer from the trace.

Each span records its name, start, end, parent span and op id.  Parent
stacks are per thread: the service's dispatcher thread and its client
threads never nest into each other, and dispatcher spans carry no op id.
A span's *self time* is its duration minus the time its child spans cover.
Only the calling process is visible — spans inside process-pool workers
are not recorded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time

__all__ = ["Span", "TraceError", "Tracer"]


class TraceError(RuntimeError):
    """A patch target vanished or an expected span never fired."""


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "child_s")

    def __init__(self, name, parent, op, attrs):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.op = op
        self.attrs = attrs
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Span recorder over a list of ``(span name, "module:qualname")`` targets.

    ``annotators`` maps a span name to ``fn(args, kwargs) -> dict`` whose
    result is stored on the span (e.g. how many variants a call carried).
    Recording is off until :meth:`install`; :meth:`paused` suspends it in
    every thread (for input generation and oracles, which must not count as
    traced work even when they fan out to worker threads).
    """

    def __init__(self, targets, annotators=None) -> None:
        self.targets = list(targets)
        self.annotators = dict(annotators or {})
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._paused = False

    # -- patching ---------------------------------------------------------
    def install(self) -> "Tracer":
        if self._patches:
            raise TraceError("tracer already installed")
        try:
            for name, target in self.targets:
                self._install_one(name, target)
        except BaseException:
            self.remove()
            raise
        return self

    def _install_one(self, name: str, target: str) -> None:
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError as exc:
            raise TraceError(f"patch target {target}: {exc}") from exc
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                raise TraceError(f"patch target {target} no longer exists")
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
            if not callable(original):
                raise TraceError(
                    f"patch target {target}: {owner.__name__} no longer defines {attr}"
                )
            self._patch(owner, attr, self._wrap(name, original))
            return
        original = getattr(owner, attr, None)
        if not callable(original):
            raise TraceError(f"patch target {target} no longer exists")
        wrapper = self._wrap(name, original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            bound = [k for k, v in vars(module).items() if v is original]
            for key in bound:
                self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- recording --------------------------------------------------------
    def _open(self, name: str, attrs) -> Span:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        span = Span(name, stack[-1] if stack else None, getattr(local, "op", None), attrs)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        self.spans.append(span)

    def _wrap(self, name: str, fn):
        annotate = self.annotators.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = self._open(name, annotate(args, kwargs) if annotate else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    @contextlib.contextmanager
    def op(self, op_id):
        """The root span ``"op"`` of op ``op_id`` on the current thread."""
        self._local.op = op_id
        span = self._open("op", None)
        try:
            yield span
        finally:
            self._close(span)
            self._local.op = None

    @contextlib.contextmanager
    def paused(self):
        self._paused = True
        try:
            yield
        finally:
            self._paused = False
