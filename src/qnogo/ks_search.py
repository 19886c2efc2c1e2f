"""Finite context systems and an exhaustive noncontextual-assignment search.

A context system is a set of named observables, each with a finite real
spectrum, plus contexts: groups of jointly measurable observables whose
assigned values must respect a multiplicative relation.  Three relation
kinds are supported:

* ``product_equals(id)``: one member's value equals the product of the
  other members' values,
* ``product_sign(sign)``: the product of all member values is positive
  or negative,
* ``product_equals_value(v)``: the product of all member values equals a
  fixed number.

The search enumerates every assignment of spectrum values to the free
observables (those not fixed by a ``product_equals`` relation), derives
the determined ones, and reports whether any assignment satisfies all
contexts.  Enumeration order is lexicographic over declared observable
order with each spectrum ascending, so reports are deterministic.  The
enumeration is chunked and vectorized: blocks of 4096 assignments are
decoded into numpy value columns and every constraint is evaluated on
whole columns, well under a microsecond per assignment on the built-in
systems.  Enumeration order and violation attribution are those of a
one-assignment-at-a-time walk, so reports are unchanged by the blocking.

Systems round-trip through a JSON-shaped document::

    {"observables": [{"id": "A12", "spectrum": [-2, -1, 1, 2]}, ...],
     "contexts": [{"members": ["A12", "A34", "B56"],
                   "constraint": {"type": "product_equals_value", "arg": 1}}, ...]}

``product_sign`` takes ``"negative"``/``"positive"`` (or -1/+1) as arg and
``product_equals`` takes the determined member's id.

Only multiplicative relations are supported; additive functional
relations are out of scope.  Note that ``product_equals`` is strictly
stronger than a sign rule on the same line: it pins the determined
observable's value to the factor product instead of merely constraining
the joint sign.  The built-in ten-observable system encodes the stronger
functional form; collapsing all spectra to {+1, -1} recovers the pure
sign/parity reading, and both are unsatisfiable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import observables as obs
from .report import VerificationReport, make_check, make_report
from .tensor_core import commutator_norm, matmul, max_abs, spectrum

DEFAULT_BUDGET = 10_000_000

_VALUE_RTOL = 1e-9

# Assignments evaluated per vectorized block: of 2^10 to 2^14, 4096 ran
# the benchmark's planted search documents fastest.
_BLOCK_ROWS = 4096

# Assignment indices are int64, which caps any budget.
_MAX_ENUMERATION = 2**63 - 1


class SystemFormatError(ValueError):
    """A context-system document is malformed or inconsistent."""


class CyclicDeterminationError(ValueError):
    """product_equals relations determine observables circularly."""


class SearchBudgetError(RuntimeError):
    """The enumeration space exceeds the configured budget."""


def _values_close(a: float, b: float) -> bool:
    return abs(a - b) <= _VALUE_RTOL * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class SymbolicObservable:
    id: str
    spectrum: tuple[float, ...]

    def __post_init__(self):
        if not self.id:
            raise SystemFormatError("observable id must be a nonempty string")
        values = tuple(float(v) for v in self.spectrum)
        if not values:
            raise SystemFormatError(f"observable {self.id!r}: spectrum is empty")
        if any(not math.isfinite(v) or v == 0.0 for v in values):
            raise SystemFormatError(f"observable {self.id!r}: spectrum values must be finite and nonzero")
        if len(set(values)) != len(values):
            raise SystemFormatError(f"observable {self.id!r}: spectrum values must be distinct")
        object.__setattr__(self, "spectrum", values)


@dataclass(frozen=True)
class Constraint:
    kind: str  # "product_equals" | "product_sign" | "product_equals_value"
    arg: str | float

    def __post_init__(self):
        if self.kind == "product_equals":
            if not isinstance(self.arg, str) or not self.arg:
                raise SystemFormatError("product_equals needs the determined member id as arg")
        elif self.kind == "product_sign":
            if self.arg not in (-1, 1, -1.0, 1.0):
                raise SystemFormatError("product_sign needs arg -1 or +1")
            object.__setattr__(self, "arg", float(self.arg))
        elif self.kind == "product_equals_value":
            try:
                value = float(self.arg)
            except (TypeError, ValueError):
                raise SystemFormatError("product_equals_value needs a numeric arg") from None
            if not math.isfinite(value) or value == 0.0:
                raise SystemFormatError("product_equals_value arg must be finite and nonzero")
            object.__setattr__(self, "arg", value)
        else:
            raise SystemFormatError(f"unknown constraint type {self.kind!r}")


def product_equals(member_id: str) -> Constraint:
    return Constraint(kind="product_equals", arg=member_id)


def product_sign(sign: int) -> Constraint:
    return Constraint(kind="product_sign", arg=sign)


def product_equals_value(value: float) -> Constraint:
    return Constraint(kind="product_equals_value", arg=value)


@dataclass(frozen=True)
class Context:
    member_ids: tuple[str, ...]
    constraint: Constraint

    def __post_init__(self):
        members = tuple(str(m) for m in self.member_ids)
        if not members:
            raise SystemFormatError("context has no members")
        if len(set(members)) != len(members):
            raise SystemFormatError(f"context members must be distinct: {members}")
        object.__setattr__(self, "member_ids", members)
        if self.constraint.kind == "product_equals" and self.constraint.arg not in members:
            raise SystemFormatError(
                f"product_equals target {self.constraint.arg!r} is not a member of {members}"
            )


@dataclass(frozen=True)
class ContextSystem:
    observables: tuple[SymbolicObservable, ...]
    contexts: tuple[Context, ...]

    def __post_init__(self):
        object.__setattr__(self, "observables", tuple(self.observables))
        object.__setattr__(self, "contexts", tuple(self.contexts))
        if not self.observables:
            raise SystemFormatError("a context system needs at least one observable")
        ids = [o.id for o in self.observables]
        if len(set(ids)) != len(ids):
            raise SystemFormatError("observable ids must be unique")
        declared = set(ids)
        for i, ctx in enumerate(self.contexts):
            for m in ctx.member_ids:
                if m not in declared:
                    raise SystemFormatError(f"context {i} references undeclared observable {m!r}")

    def observable(self, obs_id: str) -> SymbolicObservable:
        for o in self.observables:
            if o.id == obs_id:
                return o
        raise KeyError(obs_id)


@dataclass(frozen=True)
class SearchReport:
    satisfiable: bool
    assignments_checked: int
    witness: dict[str, float] | None
    first_violated_context_histogram: dict[int, int] = field(default_factory=dict)


def _determination_plan(system: ContextSystem) -> tuple[dict[str, tuple[int, tuple[str, ...]]], list[str]]:
    """Map each determined observable to (context index, factor ids), toposorted.

    An observable is determined by the first product_equals context naming
    it; later contexts over it act as plain constraints.  Determined
    observables may feed each other as long as the dependency graph is
    acyclic.
    """
    determined: dict[str, tuple[int, tuple[str, ...]]] = {}
    for i, ctx in enumerate(system.contexts):
        if ctx.constraint.kind != "product_equals":
            continue
        det = str(ctx.constraint.arg)
        if det in determined:
            continue
        factors = tuple(m for m in ctx.member_ids if m != det)
        determined[det] = (i, factors)

    order: list[str] = []
    placed: set[str] = set()
    pending = dict(determined)
    while pending:
        progressed = False
        for det, (_, factors) in list(pending.items()):
            if all(f not in determined or f in placed for f in factors):
                order.append(det)
                placed.add(det)
                del pending[det]
                progressed = True
        if not progressed:
            raise CyclicDeterminationError(
                f"cyclic product_equals determination among {sorted(pending)}"
            )
    return determined, order


def _context_violated(ctx: Context, values: Mapping[str, float]) -> bool:
    kind = ctx.constraint.kind
    if kind == "product_equals":
        det = str(ctx.constraint.arg)
        rest = 1.0
        for m in ctx.member_ids:
            if m != det:
                rest *= values[m]
        return not _values_close(rest, values[det])
    prod = 1.0
    for m in ctx.member_ids:
        prod *= values[m]
    if kind == "product_sign":
        return prod == 0.0 or (prod > 0.0) != (ctx.constraint.arg > 0.0)
    return not _values_close(prod, float(ctx.constraint.arg))


def check_assignment(system: ContextSystem, values: Mapping[str, float]) -> int | None:
    """Independent straight re-check of a complete assignment.

    Verifies spectrum membership for every observable and every context
    constraint, walking the declared structures directly.  Returns the
    index of the first violated context (spectrum misses count against the
    context that determines the observable, or -1 when no context does),
    or None when the assignment satisfies everything.
    """
    determined, _ = _determination_plan(system)
    for o in system.observables:
        v = values.get(o.id)
        if v is None or not any(_values_close(float(v), s) for s in o.spectrum):
            return determined[o.id][0] if o.id in determined else -1
    for i, ctx in enumerate(system.contexts):
        if _context_violated(ctx, values):
            return i
    return None


def _close_columns(a, b) -> np.ndarray:
    """Elementwise :func:`_values_close`, with the same float operations."""
    return np.abs(a - b) <= _VALUE_RTOL * np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


def _column_product(columns: Mapping[str, np.ndarray], ids: tuple[str, ...], rows: int) -> np.ndarray:
    """Row-wise product of the member columns, multiplied in member order."""
    if not ids:
        return np.ones(rows)
    prod = columns[ids[0]]
    for m in ids[1:]:
        prod = prod * columns[m]
    return prod


def _columns_violated(ctx: Context, columns: Mapping[str, np.ndarray], rows: int) -> np.ndarray:
    """Row mask of :func:`_context_violated` over a block of assignments."""
    kind = ctx.constraint.kind
    if kind == "product_equals":
        det = str(ctx.constraint.arg)
        rest = _column_product(columns, tuple(m for m in ctx.member_ids if m != det), rows)
        return ~_close_columns(rest, columns[det])
    prod = _column_product(columns, ctx.member_ids, rows)
    if kind == "product_sign":
        return (prod == 0.0) | ((prod > 0.0) != (ctx.constraint.arg > 0.0))
    return ~_close_columns(prod, float(ctx.constraint.arg))


def _first_violations(
    system: ContextSystem,
    columns: dict[str, np.ndarray],
    det_steps: list[tuple[str, int, tuple[str, ...], tuple[float, ...]]],
    rows: int,
) -> np.ndarray:
    """Index of the first violated context per row, -1 where none is.

    Determined observables are computed in topological order and added to
    ``columns``; a row whose product lands on no spectrum value is charged
    to the determining context (its column holds NaN there) and nothing
    computed for it afterwards changes that.  Contexts are then checked in
    declared order.
    """
    first = np.full(rows, -1, dtype=np.int64)
    for det, ctx_index, factors, spectrum_values in det_steps:
        prod = _column_product(columns, factors, rows)
        snapped = np.full(rows, np.nan)
        # Reversed, so the first close value in declared order is written last.
        for value in reversed(spectrum_values):
            snapped[_close_columns(prod, value)] = value
        columns[det] = snapped
        first[(first < 0) & np.isnan(snapped)] = ctx_index
    for i, ctx in enumerate(system.contexts):
        first[(first < 0) & _columns_violated(ctx, columns, rows)] = i
    return first


def _histogram(counts: np.ndarray) -> dict[int, int]:
    return {i: int(c) for i, c in enumerate(counts) if c}


def search(system: ContextSystem, budget: int = DEFAULT_BUDGET) -> SearchReport:
    """Exhaustive satisfiability search over noncontextual value assignments.

    Free observables are enumerated over their spectra; determined ones are
    computed from their product_equals context and must land on a declared
    spectrum value (that miss is attributed, in the violation histogram, to
    the determining context).  On success the witness is the first
    satisfying assignment in enumeration order and ``assignments_checked``
    counts assignments up to and including it; on failure the full
    enumeration size is reported.

    Enumeration is chunked and vectorized: blocks of consecutive
    mixed-radix indices are decoded into one value column per free
    observable and every constraint is evaluated on whole columns.  The
    enumeration order, the float arithmetic and the first-violation
    attribution are those of a one-assignment-at-a-time walk, so the
    report is the same in every field.
    """
    determined, topo = _determination_plan(system)
    free = [o for o in system.observables if o.id not in determined]
    total = math.prod(len(o.spectrum) for o in free)
    limit = min(budget, _MAX_ENUMERATION)
    if total > limit:
        raise SearchBudgetError(f"enumeration size {total} exceeds budget {limit}")

    domains = [np.array(sorted(o.spectrum)) for o in free]
    # Mixed-radix place values, the last free observable varying fastest as
    # in itertools.product.
    strides = [math.prod(len(d) for d in domains[j + 1 :]) for j in range(len(domains))]
    det_steps = []
    for det in topo:
        ctx_index, factors = determined[det]
        det_steps.append((det, ctx_index, factors, system.observable(det).spectrum))

    counts = np.zeros(len(system.contexts), dtype=np.int64)
    # Overflow, underflow and inf - inf follow IEEE rules silently, as
    # Python float arithmetic does.
    with np.errstate(all="ignore"):
        for start in range(0, total, _BLOCK_ROWS):
            index = np.arange(start, min(start + _BLOCK_ROWS, total))
            # Digit j is index // stride_j - radix_j * (index // stride_{j-1}),
            # which spares the slow integer modulo.
            columns = {}
            outer = 0
            for o, domain, stride in zip(free, domains, strides):
                quotient = index // stride
                columns[o.id] = domain[quotient - len(domain) * outer]
                outer = quotient
            first = _first_violations(system, columns, det_steps, len(index))
            satisfying = np.flatnonzero(first < 0)
            if satisfying.size:
                row = int(satisfying[0])
                counts += np.bincount(first[:row], minlength=len(counts))
                return SearchReport(
                    satisfiable=True,
                    assignments_checked=start + row + 1,
                    witness={o.id: float(columns[o.id][row]) for o in system.observables},
                    first_violated_context_histogram=_histogram(counts),
                )
            counts += np.bincount(first, minlength=len(counts))
    return SearchReport(
        satisfiable=False,
        assignments_checked=total,
        witness=None,
        first_violated_context_histogram=_histogram(counts),
    )


# ---------------------------------------------------------------------------
# Built-in systems

_PAIR_SPECTRUM = (-2.0, -1.0, 1.0, 2.0)
_PRODUCT_SPECTRUM = (-8.0, -4.0, -2.0, -1.0, 1.0, 2.0, 4.0, 8.0)


def _pair_ids() -> list[str]:
    return [f"{kind.value}{slot}" for slot in ("12", "34", "56") for kind in (obs.PairKind.A, obs.PairKind.B)]


def _pattern_member_ids(pattern) -> tuple[str, ...]:
    return tuple(f"{kind.value}{slot}" for kind, slot in zip(pattern, ("12", "34", "56")))


def state_dependent_system() -> ContextSystem:
    """Value constraints forced by a common eigenvector of the four products.

    Six pair observables; four contexts pin the triple products of their
    values to the joint eigenvalues (1, 1, 1, -1).  Unsatisfiable: every
    pair value appears in exactly two constraints, so the product of all
    four left-hand sides is positive while the right-hand sides multiply
    to -1.
    """
    observables = tuple(SymbolicObservable(i, _PAIR_SPECTRUM) for i in _pair_ids())
    contexts = []
    for pattern, target in zip(obs.GHZ_PRODUCT_PATTERNS, (1.0, 1.0, 1.0, -1.0)):
        contexts.append(Context(_pattern_member_ids(pattern), product_equals_value(target)))
    return ContextSystem(observables=observables, contexts=tuple(contexts))


def state_independent_system() -> ContextSystem:
    """Ten observables on five lines with no satisfying value assignment.

    The six pair observables plus the four triple-product observables.
    Four lines tie each product observable to its three tensor factors
    (functional relation: its value is the product of theirs); the fifth
    line holds the four product observables and demands a negative joint
    product.  The factor relations force each product observable's value
    to a square times a positive pattern, so the fifth line cannot close.
    """
    observables = [SymbolicObservable(i, _PAIR_SPECTRUM) for i in _pair_ids()]
    product_ids = [obs.pattern_label(p) for p in obs.GHZ_PRODUCT_PATTERNS]
    observables += [SymbolicObservable(i, _PRODUCT_SPECTRUM) for i in product_ids]
    contexts = []
    for pattern, pid in zip(obs.GHZ_PRODUCT_PATTERNS, product_ids):
        members = _pattern_member_ids(pattern) + (pid,)
        contexts.append(Context(members, product_equals(pid)))
    contexts.append(Context(tuple(product_ids), product_sign(-1)))
    return ContextSystem(observables=tuple(observables), contexts=tuple(contexts))


def sign_collapsed(system: ContextSystem) -> ContextSystem:
    """Copy of a system with every spectrum replaced by {-1, +1}.

    Strips magnitudes so only the parity content of the constraints
    remains; a parity-based impossibility survives this collapse.
    """
    observables = tuple(SymbolicObservable(o.id, (-1.0, 1.0)) for o in system.observables)
    return ContextSystem(observables=observables, contexts=system.contexts)


def builtin_matrix_bindings() -> dict[str, np.ndarray]:
    """Concrete 64-dim matrices for the built-in systems' observable ids."""
    bindings: dict[str, np.ndarray] = {}
    for slot_index, slot in enumerate(("12", "34", "56")):
        bindings[f"A{slot}"] = obs.embed_pair(obs.build_pair_A(), slot_index)
        bindings[f"B{slot}"] = obs.embed_pair(obs.build_pair_B(), slot_index)
    for pattern in obs.GHZ_PRODUCT_PATTERNS:
        bindings[obs.pattern_label(pattern)] = obs.build_product(pattern)
    return bindings


# ---------------------------------------------------------------------------
# Matrix-level validation

def _nearest_power_of_four(value: float) -> float:
    if value <= 0.0:
        return 1.0
    n = max(0, round(math.log(value, 4.0)))
    return float(4.0**n)


def _ordered_product(mats: Mapping[str, np.ndarray], ids: tuple[str, ...]) -> np.ndarray:
    """Matrix product of the members ``ids``, multiplied left to right.

    The empty product is the identity, as the search takes it to be 1.
    """
    if not ids:
        return np.eye(next(iter(mats.values())).shape[0], dtype=complex)
    return functools.reduce(matmul, (mats[m] for m in ids))


def validate_against_matrices(
    system: ContextSystem,
    bindings: Mapping[str, np.ndarray],
    tol: float = 1e-10,
    cluster_tol: float = 1e-8,
) -> VerificationReport:
    """Check that concrete matrices realize a context system's structure.

    Per context: members pairwise commute; product_equals lines reproduce
    the determined matrix as the ordered product of the factor matrices;
    sign lines have a definite-sign spectrum.  Additionally all
    product_equals line products (over every member, in member order) must
    coincide and their common spectrum must consist of powers of four.
    """
    for o in system.observables:
        if o.id not in bindings:
            raise ValueError(f"missing matrix binding for observable {o.id!r}")
    mats = {o.id: np.asarray(bindings[o.id], dtype=complex) for o in system.observables}
    dims = {m.shape for m in mats.values()}
    if len(dims) != 1:
        raise ValueError(f"bindings must share one dimension, got {sorted(dims)}")

    checks = []
    line_products: list[tuple[int, np.ndarray]] = []
    for i, ctx in enumerate(system.contexts):
        members = ctx.member_ids
        worst = 0.0
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                worst = max(worst, commutator_norm(mats[members[a]], mats[members[b]]))
        checks.append(make_check(f"context {i} [{' '.join(members)}]: mutually commuting", worst, 0.0, tol))

        if ctx.constraint.kind == "product_equals":
            det = str(ctx.constraint.arg)
            prod = _ordered_product(mats, tuple(m for m in members if m != det))
            checks.append(
                make_check(
                    f"context {i}: {det} equals ordered product of its factors",
                    max_abs(mats[det] - prod),
                    0.0,
                    tol,
                )
            )
            line_products.append((i, _ordered_product(mats, members)))
        elif ctx.constraint.kind == "product_sign":
            full = _ordered_product(mats, members)
            sign_word = "negative" if ctx.constraint.arg < 0 else "positive"
            clusters = spectrum(full, cluster_tol=cluster_tol, tol=tol).distinct()
            wrong = sum(1 for v in clusters if (v < 0.0) != (ctx.constraint.arg < 0.0))
            checks.append(
                make_check(f"context {i}: product eigenvalues all {sign_word}", float(wrong), 0.0, 0.0)
            )

    if line_products:
        worst = 0.0
        first = line_products[0][1]
        for _, other in line_products[1:]:
            worst = max(worst, max_abs(first - other))
        checks.append(make_check("functional-line products mutually equal", worst, 0.0, tol))
        clusters = spectrum(first, cluster_tol=cluster_tol, tol=tol).distinct()
        expected = tuple(_nearest_power_of_four(v) for v in clusters)
        checks.append(
            make_check("shared line-product spectrum within powers of four", clusters, expected, cluster_tol)
        )

    return make_report("ks", checks)


# ---------------------------------------------------------------------------
# Document round-trip

def system_to_document(system: ContextSystem) -> dict:
    """Plain-dict form of a system, ready for json.dump."""
    doc_obs = [{"id": o.id, "spectrum": list(o.spectrum)} for o in system.observables]
    doc_ctx = []
    for ctx in system.contexts:
        c = ctx.constraint
        if c.kind == "product_sign":
            arg = "negative" if c.arg < 0 else "positive"
        else:
            arg = c.arg
        doc_ctx.append({"members": list(ctx.member_ids), "constraint": {"type": c.kind, "arg": arg}})
    return {"observables": doc_obs, "contexts": doc_ctx}


def _sign_from_arg(arg) -> int:
    if isinstance(arg, str):
        if arg.lower() in ("negative", "minus", "-"):
            return -1
        if arg.lower() in ("positive", "plus", "+"):
            return 1
        raise SystemFormatError(f"product_sign arg must be 'negative' or 'positive', got {arg!r}")
    if arg in (-1, 1, -1.0, 1.0):
        return int(arg)
    raise SystemFormatError(f"product_sign arg must be -1/+1 or 'negative'/'positive', got {arg!r}")


def system_from_document(doc) -> ContextSystem:
    """Parse and validate the JSON-shaped document format."""
    if not isinstance(doc, dict):
        raise SystemFormatError("document root must be an object")
    raw_obs = doc.get("observables")
    raw_ctx = doc.get("contexts", [])
    if not isinstance(raw_obs, list) or not raw_obs:
        raise SystemFormatError("document needs a nonempty 'observables' list")
    if not isinstance(raw_ctx, list):
        raise SystemFormatError("'contexts' must be a list")

    observables = []
    for k, entry in enumerate(raw_obs):
        if not isinstance(entry, dict) or "id" not in entry or "spectrum" not in entry:
            raise SystemFormatError(f"observable {k}: expected an object with 'id' and 'spectrum'")
        values = entry["spectrum"]
        if not isinstance(values, list) or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in values):
            raise SystemFormatError(f"observable {k}: 'spectrum' must be a list of numbers")
        observables.append(SymbolicObservable(str(entry["id"]), tuple(values)))

    contexts = []
    for k, entry in enumerate(raw_ctx):
        if not isinstance(entry, dict) or "members" not in entry or "constraint" not in entry:
            raise SystemFormatError(f"context {k}: expected an object with 'members' and 'constraint'")
        members = entry["members"]
        if not isinstance(members, list) or not members:
            raise SystemFormatError(f"context {k}: 'members' must be a nonempty list of ids")
        raw_constraint = entry["constraint"]
        if not isinstance(raw_constraint, dict) or "type" not in raw_constraint:
            raise SystemFormatError(f"context {k}: 'constraint' must be an object with 'type' and 'arg'")
        kind = raw_constraint["type"]
        arg = raw_constraint.get("arg")
        if kind == "product_equals":
            constraint = product_equals(str(arg))
        elif kind == "product_sign":
            constraint = product_sign(_sign_from_arg(arg))
        elif kind == "product_equals_value":
            if not isinstance(arg, (int, float)):
                raise SystemFormatError(f"context {k}: product_equals_value needs a numeric arg")
            constraint = product_equals_value(float(arg))
        else:
            raise SystemFormatError(f"context {k}: unknown constraint type {kind!r}")
        contexts.append(Context(tuple(str(m) for m in members), constraint))

    return ContextSystem(observables=tuple(observables), contexts=tuple(contexts))
