"""In-memory span recording around the package's public layer functions.

Wrappers are installed only for the traced phase: every qnogo module that
binds one of the traced functions (``qnogo.proofs.spectrum`` as well as
``qnogo.tensor_core.spectrum``) gets the same wrapper, so nested calls are
seen wherever the caller looked the name up, and are removed afterwards.
Spans stay in memory; derived per-layer numbers are computed at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: (defining module, function) pairs; the span name is "module.function".
TRACED = (
    ("tensor_core", "hermitian_eig"),
    ("tensor_core", "spectrum"),
    ("tensor_core", "joint_eigenspace"),
    ("tensor_core", "commutator_norm"),
    ("observables", "build_product"),
    ("ks_search", "search"),
    ("ks_search", "system_from_document"),
    ("ks_search", "validate_against_matrices"),
    ("ks_search", "builtin_matrix_bindings"),
    ("proofs", "verify_ghz"),
    ("proofs", "verify_hardy"),
    ("proofs", "swap_demo"),
    ("cli", "run"),
    ("cli", "load_system"),
)


def enumeration_size(system) -> int:
    """Assignments an exhaustive search of ``system`` enumerates.

    Free observables are those no product_equals context determines.
    """
    determined = {c.constraint.arg for c in system.contexts if c.constraint.kind == "product_equals"}
    return math.prod(len(o.spectrum) for o in system.observables if o.id not in determined)


def _search_counts(args, kwargs, report) -> dict:
    system = args[0] if args else kwargs["system"]
    return {
        "assignments": report.assignments_checked,
        "enumeration": enumeration_size(system),
        "satisfiable": report.satisfiable,
    }


def _eig_counts(args, kwargs, result) -> dict:
    return {"dim": len(args[0] if args else kwargs["m"])}


_COUNTERS: dict[str, Callable[[tuple, dict, Any], dict]] = {
    "ks_search.search": _search_counts,
    "tensor_core.hermitian_eig": _eig_counts,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    op: int | None = None
    _stack: list[int] = field(default_factory=list)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every qnogo module binding a traced function; undo on exit."""
        modules = [m for name, m in sys.modules.items() if name == "qnogo" or name.startswith("qnogo.")]
        patched = []
        try:
            for module_name, attr in TRACED:
                original = getattr(sys.modules[f"qnogo.{module_name}"], attr)
                wrapper = self._wrap(f"{module_name}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            patched.append((module, key, original))
            yield
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus its direct children's (calls nest, never overlap)."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def dump(self, path: Path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op, "counts": s.counts}
            for s in self.spans
        ]
        path.write_text(json.dumps({"spans": rows}) + "\n", encoding="utf-8")


def layer_metrics(tracer: Tracer, op_times: list[float]) -> dict[str, float]:
    """Per-layer counts, busy and self time, and how far the spans cover the ops."""
    own = tracer.self_times()
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s, t in zip(tracer.spans, own):
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + t

    searches = [s.counts for s in tracer.spans if s.name == "ks_search.search"]
    assignments = sum(c["assignments"] for c in searches)
    sat = [c for c in searches if c["satisfiable"]]
    sat_base = sum(c["enumeration"] for c in sat)
    dims = [s.counts["dim"] for s in tracer.spans if s.name == "tensor_core.hermitian_eig"]
    wall = sum(op_times)
    top = sum(s.duration for s in tracer.spans if s.parent is None)

    m = {
        "tensor_core.hermitian_eig.calls": calls.get("tensor_core.hermitian_eig", 0),
        "tensor_core.hermitian_eig.busy_s": busy.get("tensor_core.hermitian_eig", 0.0),
        "tensor_core.hermitian_eig.mean_dim": statistics.fmean(dims) if dims else 0.0,
        "tensor_core.spectrum.busy_s": busy.get("tensor_core.spectrum", 0.0),
        "tensor_core.joint_eigenspace.busy_s": busy.get("tensor_core.joint_eigenspace", 0.0),
        "tensor_core.commutator_norm.calls": calls.get("tensor_core.commutator_norm", 0),
        "tensor_core.commutator_norm.busy_s": busy.get("tensor_core.commutator_norm", 0.0),
        "ks_search.search.calls": len(searches),
        "ks_search.search.busy_s": busy.get("ks_search.search", 0.0),
        "ks_search.search.assignments": assignments,
        "ks_search.search.us_per_assignment": 1e6 * busy.get("ks_search.search", 0.0) / assignments if assignments else 0.0,
        "ks_search.search.early_exit_ratio": sum(c["assignments"] for c in sat) / sat_base if sat_base else 0.0,
        "ks_search.search.early_exit_base": sat_base,
        "ks_search.system_from_document.busy_s": busy.get("ks_search.system_from_document", 0.0),
        "ks_search.validate_against_matrices.busy_s": busy.get("ks_search.validate_against_matrices", 0.0),
        "ks_search.validate_against_matrices.self_s": self_s.get("ks_search.validate_against_matrices", 0.0),
        "ks_search.builtin_matrix_bindings.busy_s": busy.get("ks_search.builtin_matrix_bindings", 0.0),
        "observables.build_product.busy_s": busy.get("observables.build_product", 0.0),
        "proofs.verify_ghz.busy_s": busy.get("proofs.verify_ghz", 0.0),
        "proofs.verify_ghz.self_s": self_s.get("proofs.verify_ghz", 0.0),
        "proofs.verify_hardy.busy_s": busy.get("proofs.verify_hardy", 0.0),
        "proofs.swap_demo.busy_s": busy.get("proofs.swap_demo", 0.0),
        "cli.run.self_s": self_s.get("cli.run", 0.0),
        "cli.load_system.busy_s": busy.get("cli.load_system", 0.0),
        "trace.ops": len(op_times),
        "trace.spans": len(tracer.spans),
        "trace.op_wall_s": wall,
        "trace.top_level_busy_s": top,
        "trace.unaccounted_ratio": (wall - top) / wall if wall else 0.0,
    }
    return m
