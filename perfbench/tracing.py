"""Spans recorded around calls into the program's public functions.

The traced run wraps public functions of ``repro`` (module attributes
and class methods) so each call leaves a span in a standalone
:class:`repro.obs.spans.Tracer` of the benchmark's own: name, start,
end and parent.  The program's own spans go to its process-wide tracer
and stay out.  Spans stay in memory and are written out when the
benchmark exits.  Nothing inside the program is edited; the wrappers
sit in the module namespaces that hold a reference to the wrapped
function.

An operation (an ``api.run``, a sweep, a query) is a root span.  The
operation a span belongs to is found afterwards by time containment:
operations that call wrapped functions run one at a time per process,
so a span lies inside exactly one operation's interval.  That also
places spans the program opens on its own pool threads, which have no
parent because a new thread starts with an empty context.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.spans import SpanRecord, Tracer

_FIELDS = [f.name for f in dataclasses.fields(SpanRecord)]


def wrap(tracer: Tracer, func: Callable, name: str,
         on_result: Optional[Callable] = None) -> Callable:
    """A stand-in for ``func`` that records a span while the tracer is
    enabled (``on_result(record, result)`` may add attributes)."""

    @functools.wraps(func)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return func(*args, **kwargs)
        with tracer.span(name) as record:
            result = func(*args, **kwargs)
            if on_result is not None:
                on_result(record, result)
            return result

    return traced


def patch_function(module_prefix: str, original: Callable,
                   replacement: Callable) -> int:
    """Point every module-level reference to ``original`` in loaded
    modules under ``module_prefix`` at ``replacement``."""
    patched = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == module_prefix or
                                  name.startswith(module_prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched += 1
    return patched


def patch_method(cls, attr: str, tracer: Tracer, name: str) -> None:
    setattr(cls, attr, wrap(tracer, getattr(cls, attr), name))


def from_json(record: dict, pid: int) -> SpanRecord:
    """A span written by child process ``pid`` (``SpanRecord.to_json``)."""
    fields = {k: record[k] for k in _FIELDS if k in record}
    fields["pid"] = pid
    return SpanRecord(**fields)


Key = Tuple[Optional[int], int]


def _key(span: SpanRecord) -> Key:
    return (span.pid, span.span_id)


def operations(spans: Iterable[SpanRecord], root_name: str
               ) -> List[Tuple[SpanRecord, List[SpanRecord]]]:
    """Each root span named ``root_name`` with the spans inside its
    interval in the same process (the root included)."""
    spans = list(spans)
    out = []
    for root in spans:
        if root.name != root_name or root.parent_id is not None:
            continue
        out.append((root, [s for s in spans if s.pid == root.pid and
                           root.start <= s.start and s.end <= root.end]))
    return out


def self_time_by_name(root: SpanRecord, spans: List[SpanRecord]
                      ) -> Dict[str, float]:
    """Summed self time per span name within one operation: a span's
    duration minus the part its children cover (children on other
    threads may overlap; their union counts once).  A span without a
    parent, other than the root, is a child of the root."""
    children: Dict[Key, List[Tuple[float, float]]] = {}
    for s in spans:
        if s is root:
            continue
        parent = (s.pid, s.parent_id) if s.parent_id is not None \
            else _key(root)
        children.setdefault(parent, []).append((s.start, s.end))
    out: Dict[str, float] = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(_key(s), ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.name] = out.get(s.name, 0.0) + s.duration - covered
    return out
