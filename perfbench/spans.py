"""Spans recorded around calls into the package's public functions.

A ``Tracer`` replaces each named function with a wrapper at the place its
caller looks it up (a module attribute or a class attribute), records one
span per call, and puts every original back in ``restore``.  Nothing
inside the package changes; the spans are measured from outside.

Each span keeps its name, start, end, parent span and the
``ivec.op_counter`` delta over the call.  Self time is the span's duration minus the time its child spans
cover; time spent in the tracer's own wrappers and hooks is charged to no
span and is summed in ``Tracer.own_s``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    ops: int = 0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Wraps public functions, records spans, restores the originals.

    ``op_count`` is a zero-argument callable giving a running operation
    count (the package's ``op_counter.count``), sampled at span edges.
    """

    def __init__(self, op_count):
        self._op_count = op_count
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[Span] = []
        self.spans: list[Span] = []
        self.own_s = 0.0

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Trace owner.attr under `name`; hook(span, args, result) may add info."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(len(tracer.spans), name, parent.sid if parent else None)
            tracer.spans.append(span)
            stack.append(span)
            ops0 = tracer._op_count()
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
                span.ops = tracer._op_count() - ops0
                if parent is not None:
                    parent.child_s += span.duration
            if hook is not None:
                hook(span, args, result)
            own = (span.start - t_in) + (time.perf_counter() - span.end)
            tracer.own_s += own
            if parent is not None:
                parent.child_s += own
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self) -> list[dict]:
        return [
            {
                "id": s.sid,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self_s": s.self_s,
                "ops": s.ops,
                **s.info,
            }
            for s in self.spans
        ]
