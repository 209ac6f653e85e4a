"""Spans around the public functions of the chiralchain layers, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules at
every module attribute that binds it (``spectral.eigh`` and also
``indices.eigh``, ``bounds.eigh``, ...) with a wrapper that records a span:
name, start, end, parent span and pass id.  Spans stay in memory until
``write`` is called; ``uninstall`` puts the original functions back.  Nothing
is wrapped unless ``install`` runs, so an untraced run pays nothing.

A few boundaries also record what the work was, so that per-pass counts and
useful ratios are measured where the work happens: the matrix handed to
``spectral.eigh`` (its dimension and a content fingerprint), the profile
handed to ``hamiltonian.bulk_gap`` (a fingerprint), and the size of the SVG
returned by ``svgplot.emit_plot``.  Fingerprinting runs after the span has
ended and its duration is stored as the span's ``overhead``, which self
times subtract from the parent.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Package modules whose public functions are layers of the benchmark.
TRACED_MODULES = ("cli", "hamiltonian", "spectral", "indices", "bounds", "svgplot")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    pass_id: int | None
    end: float = 0.0
    overhead: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a)
    return h.hexdigest()


def _eigh_attrs(args, kwargs, result) -> dict:
    H = args[0] if args else kwargs["H"]
    M = np.asarray(getattr(H, "matrix", H))
    return {"n": int(M.shape[0]), "key": _digest(M)}


def _bulk_gap_attrs(args, kwargs, result) -> dict:
    profile = args[0] if args else kwargs["profile"]
    l_ring = args[1] if len(args) > 1 else kwargs.get("l_ring")
    parts = [profile.t1, profile.t2, np.asarray(-1 if l_ring is None else l_ring)]
    for blk in profile.extra:
        parts += [np.asarray(blk.offset), blk.a, blk.b]
    return {"key": _digest(*parts)}


def _emit_plot_attrs(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode())}


# Span name -> function computing span attributes from (args, kwargs, result).
ATTRIBUTES = {
    "spectral.eigh": _eigh_attrs,
    "hamiltonian.bulk_gap": _bulk_gap_attrs,
    "svgplot.emit_plot": _emit_plot_attrs,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        annotate = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), parent, self.pass_id)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
                span.overhead = time.perf_counter() - span.end
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function of the traced modules wherever it is bound."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        prefix = package.__name__ + "."
        binders = [package] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith(prefix) and m is not None
        ]
        for short in TRACED_MODULES:
            module = sys.modules[prefix + short]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for binder in binders:
                    for bound_name, value in list(vars(binder).items()):
                        if value is fn:
                            self._patched.append((binder, bound_name, fn))
                            setattr(binder, bound_name, wrapper)
            # Public methods of the public classes defined in the module.
            for cls_name, cls in list(vars(module).items()):
                if cls_name.startswith("_") or not inspect.isclass(cls):
                    continue
                if cls.__module__ != module.__name__:
                    continue
                for attr, fn in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(fn):
                        continue
                    self._patched.append((cls, attr, fn))
                    setattr(cls, attr, self._wrap(f"{short}.{cls_name}.{attr}", fn))

    def uninstall(self) -> None:
        for binder, name, fn in reversed(self._patched):
            setattr(binder, name, fn)
        self._patched.clear()

    def write(self, path: Path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "pass": s.pass_id, "overhead": s.overhead,
                    **s.attrs,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its child spans (and their bookkeeping) cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration + s.overhead
    return [s.duration - c for s, c in zip(spans, covered)]
