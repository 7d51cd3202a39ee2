"""In-memory spans around blockscan's layer functions, recorded from outside.

``Tracer.install()`` swaps each layer function for a timing wrapper in the
namespace its caller looks it up in, and ``Tracer.uninstall()`` puts the
originals back, so untraced operations run the package's own code unchanged.
``blockscan.pipeline`` binds the layer functions by name at import, so they
are wrapped in that module, not in their home modules.

Each span records its name, start and end (``time.perf_counter``), its
parent (a thread-local stack; chunk spans take the accumulator's span as
parent across the worker-thread boundary), its chunk id and the ``nbytes``
of the arrays passed in and returned (computed bytes, not measured traffic).
"""
from __future__ import annotations

import inspect
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

_INHERIT = object()


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    chunk: int | None
    thread: int
    start: float
    end: float = 0.0
    bytes_in: int = 0
    bytes_out: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nbytes(values) -> int:
    return sum(int(v.nbytes) for v in values if isinstance(v, np.ndarray))


class Tracer:
    """Collects spans in memory; ``spans`` is appended to from every thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._chunk_ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent=_INHERIT, chunk: int | None = None):
        stack = self._stack()
        top = stack[-1] if stack else None
        if parent is _INHERIT:
            parent = None if top is None else top.id
        if chunk is None and top is not None:
            chunk = top.chunk
        record = Span(next(self._ids), name, parent, chunk, threading.get_ident(), 0.0)
        stack.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def _layer(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
            record.bytes_in = _nbytes(args) + _nbytes(kwargs.values())
            record.bytes_out = _nbytes(out if isinstance(out, tuple) else (out,))
            return out

        return traced

    def _accumulator(self, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            chunk_eval = bound.arguments["chunk_eval"]
            with self.span("pipeline.accumulate") as acc:

                def chunk(*c_args, **c_kwargs):
                    with self.span("pipeline.chunk", parent=acc.id, chunk=next(self._chunk_ids)):
                        return chunk_eval(*c_args, **c_kwargs)

                bound.arguments["chunk_eval"] = chunk
                return fn(*bound.args, **bound.kwargs)

        return traced

    def install(self) -> None:
        """Wrap every layer function; a name the package lacks is skipped."""
        from blockscan import fields, pipeline

        targets = [
            (fields.MarginalDistribution, "sample", "fields.sample"),
            (pipeline, "apply_block_factor_batch", "blockfactor.apply_batch"),
            (pipeline, "window_sums_batch", "scan.window_sums_batch"),
            (pipeline, "approximant_H_with_flag", "haiman.approximant_H"),
            (pipeline, "error_factor_F", "haiman.error_factor_F"),
            (pipeline, "theorem1_constants", "haiman.theorem1_constants"),
        ]
        for owner, attr, name in targets:
            if hasattr(owner, attr):
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._layer(name, original))
        if hasattr(pipeline, "_accumulate"):
            original = pipeline._accumulate
            self._patched.append((pipeline, "_accumulate", original))
            pipeline._accumulate = self._accumulator(original)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children = _children(spans)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def descendants(spans: list[Span], root: Span) -> list[Span]:
    """``root`` and every span below it."""
    children = _children(spans)
    out, todo = [], [root]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children.get(s.id, ()))
    return out
