"""Outside-in span tracer for the sparsepose benchmark.

The package has no instrumentation of its own, so the tracer wraps the public
functions and classes of each module from the outside. Two rules make that
work:

* A function is replaced in every ``sparsepose`` module that holds it, not
  only in the module that defines it: ``pipeline`` does
  ``from .voting import dbscan`` and looks the name up in its own namespace.
* Networks and other classes are wrapped at the class (``__call__``,
  ``__init__``, methods), never by replacing an instance attribute: a
  ``PipelineModel`` collects its parameters from its attributes, so swapping
  ``model.roi`` for a wrapper would break ``parameters()``.

Every span records a name, a start, an end, its parent span and the
operation it belongs to, plus optional counts.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    op: int | None
    parent: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Keeps spans in memory; an operation groups the spans of one unit of
    benchmark work (one training call, one scene)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.ops: list[dict] = []
        self._stack: list[Span] = []
        self._op: int | None = None
        self._restore: list[tuple[object, str, object]] = []
        self.context: dict = {}

    # -- spans and operations -----------------------------------------------
    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self._op, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def begin_op(self, kind: str, units: int = 1) -> dict:
        op = {"id": len(self.ops), "kind": kind, "units": units, "start": time.perf_counter()}
        self.ops.append(op)
        self._op = op["id"]
        return op

    def end_op(self, op: dict) -> None:
        op["end"] = time.perf_counter()
        self._op = None

    # -- patching -------------------------------------------------------------
    def _wrap(self, fn, name: str, probe=None, faults: bool = False, pre=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            span = tracer.begin(name)
            before = resource.getrusage(resource.RUSAGE_SELF) if faults else None
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if faults:
                after = resource.getrusage(resource.RUSAGE_SELF)
                span.info.update(
                    minflt=after.ru_minflt - before.ru_minflt,
                    # CPU time of all threads; wall time well above it means waiting
                    cpu_ms=1000.0 * (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime),
                    nivcsw=after.ru_nivcsw - before.ru_nivcsw,
                )
            if probe is not None:
                probe(span.info, args, kwargs, result)
            return result

        return wrapper

    def patch_function(self, module, attr: str, name: str, probe=None, faults: bool = False,
                       pre=None) -> None:
        """Replace ``module.attr`` wherever a sparsepose module holds it.

        ``pre(args)`` runs before the call, ``probe(info, args, kwargs,
        result)`` after it; ``faults`` records minor page faults, CPU time and involuntary
        context switches."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, name, probe, faults, pre)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sparsepose" or mod_name.startswith("sparsepose.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, probe=None, faults: bool = False) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, probe, faults))

    def unpatch(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- summaries -------------------------------------------------------------
    def by_name(self, op_ids=None) -> dict[str, list[Span]]:
        """Spans grouped by name, optionally only those inside the given
        operations."""
        keep = None if op_ids is None else set(op_ids)
        out: dict[str, list[Span]] = {}
        for span in self.spans:
            if keep is None or span.op in keep:
                out.setdefault(span.name, []).append(span)
        return out

    def top_level_ms(self, op: dict) -> float:
        """Summed duration of the spans opened directly inside an operation."""
        return sum(s.ms for s in self.spans if s.op == op["id"] and s.parent is None)

    def records(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
             "start": s.start, "end": s.end, **({"info": s.info} if s.info else {})}
            for s in self.spans
        ]
