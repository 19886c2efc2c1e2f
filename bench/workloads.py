"""Seeded inputs, operations and oracles for the three benchmark workloads.

Every workload is a tuple of *cycles*; a cycle is one op per stratum, and the
runner only ever times whole cycles, so each timed phase holds every stratum
equally often.  Inputs depend only on the seed.  The oracles use arithmetic
written here (plain Python integers, numpy matrix products) and never the
package's own checking helpers, so a bug in the code under test cannot hide
itself.

The package must already be importable (``run.py`` puts ``src`` on the path).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qnogo import cli, ks_search, tensor_core


class OracleError(AssertionError):
    """An op's output disagrees with what the benchmark planted or expects."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


@dataclass(frozen=True)
class Op:
    """One unit of a workload's work: ``run`` is timed, ``check`` is not."""

    stratum: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


#: A workload's ops: one cycle per round, one op per stratum in each cycle.
Cycles = tuple[tuple[Op, ...], ...]


# ---------------------------------------------------------------------------
# builtin_suites: what users run.

_BUILTIN_ARGV = (
    ("all", "--format", "json"),
    ("demo-swap", "--measurement", "A", "--format", "json"),
    ("demo-swap", "--measurement", "B", "--format", "json"),
)


def _run_builtin() -> list[tuple[int, str]]:
    outputs = []
    for argv in _BUILTIN_ARGV:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        outputs.append((code, buf.getvalue()))
    return outputs


def _check_named(report: dict, name: str, expected: float, tol: float) -> None:
    found = [c for c in report["checks"] if c["name"] == name]
    _require(len(found) == 1, f"{report['proof_id']}: no single check named {name!r}")
    measured = found[0]["measured"]
    _require(abs(measured - expected) <= tol, f"{name}: measured {measured}, expected {expected}")


def _check_builtin_outputs(outputs: list[tuple[int, str]]) -> None:
    for argv, (code, _) in zip(_BUILTIN_ARGV, outputs):
        _require(code == 0, f"qnogo {' '.join(argv)} exited {code}")
    suite = json.loads(outputs[0][1])
    _require(suite["overall"] is True, "all: overall is not true")
    _require(all(r["overall"] is True for r in suite["reports"]), "all: some report failed")
    ghz = next(r for r in suite["reports"] if r["proof_id"] == "ghz")
    _check_named(ghz, "joint eigenspace dimension (computed)", 1.0, 0.0)
    _check_named(ghz, "assignments exhausted", 4096.0, 0.0)
    searches = [r["search_reports"] for r in suite["reports"] if "search_reports" in r]
    _require(len(searches) == 1 and len(searches[0]) == 2, "all: expected two search reports")
    for name, sr in searches[0].items():
        _require(sr["satisfiable"] is False, f"{name}: reported satisfiable")
        _require(sr["assignments_checked"] == 4096, f"{name}: checked {sr['assignments_checked']} != 4096")
        _require(sum(sr["first_violated_context_histogram"].values()) == 4096, f"{name}: histogram total")
    for (_, text), entropy in ((outputs[1], 0.0), (outputs[2], 1.0)):
        swap = json.loads(text)
        _require(swap["overall"] is True, "demo-swap: overall is not true")
        entropies = [c["measured"] for c in swap["checks"] if "entanglement entropy" in c["name"]]
        probabilities = [c["measured"] for c in swap["checks"] if c["name"].endswith(": probability")]
        _require(len(entropies) == 4 and len(probabilities) == 4, "demo-swap: expected four outcomes")
        _require(all(abs(e - entropy) <= 1e-9 for e in entropies), f"demo-swap: entropies {entropies}")
        _require(all(abs(p - 0.25) <= 1e-12 for p in probabilities), f"demo-swap: probabilities {probabilities}")


def builtin_suites(seed: int, workdir: Path) -> Cycles:
    """The built-in suites have no seeded inputs; the seed is only recorded."""
    reference: list[list[tuple[int, str]]] = []

    def check(outputs: list[tuple[int, str]]) -> None:
        _check_builtin_outputs(outputs)
        if not reference:
            reference.append(outputs)
        _require(outputs == reference[0], "output differs from the first op (not byte-identical)")

    return ((Op("all+swap", _run_builtin, check),),)


# ---------------------------------------------------------------------------
# search_planted: generated context-system documents.

#: Spectrum magnitudes.  A free observable takes one or two magnitudes, with
#: both signs, so every sign is equally likely; even- and odd-numbered
#: observables draw from disjoint halves, and a determined observable has one
#: factor of each, so its reachable products are distinct and equally likely.
#: That keeps the cost of every system in a stratum close to the stratum's
#: mean.
_MAGNITUDES = ((2, 3, 5), (7, 11, 13))
#: Values a determined observable drops from its reachable set, so a
#: quarter of the enumerated assignments miss there.
_DETERMINED_DROPPED = 2


@dataclass(frozen=True)
class Stratum:
    """Shape of one class of planted systems.

    ``sizes`` are the free observables' spectrum sizes (2 or 4), so the
    enumeration size is their product; each of the ``determined``
    observables has two size-4 factors.  ``contexts`` counts the random
    three-member contexts.  SAT systems plant their only solution at lexical
    rank ``depth`` x enumeration size (jittered by up to 10 %).
    """

    name: str
    satisfiable: bool
    sizes: tuple[int, ...]
    determined: int
    contexts: int
    depth: float = 0.0

    @property
    def enumeration(self) -> int:
        return math.prod(self.sizes)


#: Five strata in rising cost, one op each per cycle: the middle one sets
#: op_p50_s and the last one op_tail_s, so both stay inside one class.
SEARCH_STRATA = (
    Stratum("unsat-1k", False, (4,) * 5, 1, 3),
    Stratum("sat-64k", True, (4,) * 8, 2, 2, 0.04),
    Stratum("unsat-8k", False, (4,) * 6 + (2,), 2, 4),
    Stratum("sat-1m", True, (4,) * 10, 2, 3, 0.015),
    Stratum("unsat-32k", False, (4,) * 7 + (2,), 3, 4),
)

SEARCH_ROUNDS = 24


def _constraint(kind: str, arg) -> dict:
    return {"type": kind, "arg": arg}


def _sign_word(value: int) -> str:
    return "negative" if value < 0 else "positive"


def planted_document(seed: int, stratum: Stratum, round_index: int) -> tuple[dict, dict]:
    """A context-system document plus what was planted in it.

    UNSAT systems carry a parity contradiction: once each determined
    observable is expanded into its factors, every free observable occurs an
    even number of times across the sign contexts, whose required signs
    multiply to -1.  SAT systems pin the last free observable and chain every
    neighbouring pair by its planted product, which makes the planted
    assignment the only solution.  Contexts are listed as determinations,
    random contexts, then the closing (UNSAT) or chain (SAT) contexts.
    """
    rng = random.Random(f"qnogo-bench:{seed}:{stratum.name}:{round_index}")
    free = [f"F{i}" for i in range(len(stratum.sizes))]
    spectra = {}
    for i, (f, size) in enumerate(zip(free, stratum.sizes)):
        spectra[f] = sorted(s * m for m in rng.sample(_MAGNITUDES[i % 2], size // 2) for s in (-1, 1))
    total = stratum.enumeration

    planted: dict[str, int] = {}
    rank = None
    if stratum.satisfiable:
        rank = min(total - 1, int(stratum.depth * total * rng.uniform(0.9, 1.1)))
        r = rank
        for f in reversed(free):
            r, digit = divmod(r, len(spectra[f]))
            planted[f] = spectra[f][digit]

    observables = [{"id": f, "spectrum": spectra[f]} for f in free]
    contexts = []
    factors_of: dict[str, list[str]] = {}
    wide = [[f for f in free[half::2] if len(spectra[f]) == 4] for half in (0, 1)]
    for j in range(stratum.determined):
        det = f"D{j}"
        factors = [rng.choice(wide[0]), rng.choice(wide[1])]
        reachable = sorted({a * b for a in spectra[factors[0]] for b in spectra[factors[1]]})
        if stratum.satisfiable:
            planted[det] = planted[factors[0]] * planted[factors[1]]
            reachable.remove(planted[det])
            keep = [planted[det], *rng.sample(reachable, len(reachable) - _DETERMINED_DROPPED)]
        else:
            keep = rng.sample(reachable, len(reachable) - _DETERMINED_DROPPED)
        factors_of[det] = factors
        observables.append({"id": det, "spectrum": sorted(keep)})
        contexts.append({"members": factors + [det], "constraint": _constraint("product_equals", det)})

    def parity(members: list[str]) -> Counter[str]:
        odd: Counter[str] = Counter()
        for m in members:
            odd.update(factors_of.get(m, [m]))
        return Counter({f: 1 for f, n in odd.items() if n % 2})

    items = free + list(factors_of)
    groups = []
    while len(groups) < stratum.contexts:
        members = rng.sample(items, 3)
        if parity(members):  # a context whose sign is fixed would be a no-op
            groups.append(members)

    if stratum.satisfiable:
        for k, members in enumerate(groups):
            value = math.prod(planted[m] for m in members)
            kind, arg = ("product_sign", _sign_word(value)) if k % 2 == 0 else ("product_equals_value", value)
            contexts.append({"members": members, "constraint": _constraint(kind, arg)})
        for a, b in zip(free, free[1:]):
            contexts.append({"members": [a, b], "constraint": _constraint("product_equals_value", planted[a] * planted[b])})
        contexts.append({"members": [free[-1]], "constraint": _constraint("product_equals_value", planted[free[-1]])})
    else:
        closing = sorted(parity([m for members in groups for m in members]), key=free.index)
        if closing:
            groups.append(closing)
        signs = [rng.choice((-1, 1)) for _ in groups]
        if math.prod(signs) > 0:
            signs[-1] = -signs[-1]
        for members, sign in zip(groups, signs):
            contexts.append({"members": members, "constraint": _constraint("product_sign", _sign_word(sign))})

    doc = {"observables": observables, "contexts": contexts}
    truth = {
        "satisfiable": stratum.satisfiable,
        "enumeration": total,
        "rank": rank,
        "assignment": {o["id"]: planted[o["id"]] for o in observables} if stratum.satisfiable else None,
    }
    return doc, truth


def _as_int(value: float) -> int:
    _require(float(value).is_integer(), f"value {value} is not an integer")
    return int(value)


def document_violations(doc: dict, assignment: dict[str, int]) -> list[int]:
    """Indices of the contexts an assignment breaks, by exact integer arithmetic.

    A value outside its observable's spectrum is reported as index -1.
    """
    bad = [-1] if any(assignment[o["id"]] not in o["spectrum"] for o in doc["observables"]) else []
    for i, ctx in enumerate(doc["contexts"]):
        kind, arg = ctx["constraint"]["type"], ctx["constraint"]["arg"]
        members = ctx["members"]
        if kind == "product_equals":
            ok = math.prod(assignment[m] for m in members if m != arg) == assignment[arg]
        elif kind == "product_sign":
            ok = (math.prod(assignment[m] for m in members) < 0) == (arg == "negative")
        else:
            ok = math.prod(assignment[m] for m in members) == arg
        if not ok:
            bad.append(i)
    return bad


def brute_force(doc: dict) -> tuple[bool, int]:
    """(satisfiable, lexical rank of the first solution or the enumeration size).

    Enumerates the free observables in declared order, last fastest, each
    spectrum ascending, and computes every product_equals target from its
    factors; the reference for small planted systems.
    """
    determined = {}
    for ctx in doc["contexts"]:
        arg = ctx["constraint"]["arg"]
        if ctx["constraint"]["type"] == "product_equals" and arg not in determined:
            determined[arg] = [m for m in ctx["members"] if m != arg]
    free = [o for o in doc["observables"] if o["id"] not in determined]
    domains = [sorted(o["spectrum"]) for o in free]
    total = math.prod(len(d) for d in domains)
    for rank, combo in enumerate(itertools.product(*domains)):
        assignment = {o["id"]: v for o, v in zip(free, combo)}
        for det, factors in determined.items():
            assignment[det] = math.prod(assignment[f] for f in factors)
        if not document_violations(doc, assignment):
            return True, rank
    return False, total


def _check_search(truth: dict, report: ks_search.SearchReport) -> None:
    _require(report.satisfiable == truth["satisfiable"], f"verdict {report.satisfiable}, planted {truth['satisfiable']}")
    histogram_total = sum(report.first_violated_context_histogram.values())
    if not truth["satisfiable"]:
        _require(report.assignments_checked == truth["enumeration"], "UNSAT search did not exhaust the enumeration")
        _require(histogram_total == truth["enumeration"], "violation histogram does not cover the enumeration")
        return
    _require(report.assignments_checked == truth["rank"] + 1, f"witness at {report.assignments_checked}, planted at {truth['rank'] + 1}")
    _require(histogram_total == truth["rank"], "violation histogram does not cover the assignments before the witness")
    witness = {k: _as_int(v) for k, v in report.witness.items()}
    _require(witness == truth["assignment"], "witness differs from the planted (unique) solution")


def _recheck_witness(doc: dict, report: ks_search.SearchReport) -> None:
    if report.witness is not None:
        bad = document_violations(doc, {k: _as_int(v) for k, v in report.witness.items()})
        _require(not bad, f"witness breaks contexts {bad}")


def search_planted(seed: int, workdir: Path, strata: tuple[Stratum, ...] = SEARCH_STRATA, rounds: int = SEARCH_ROUNDS) -> Cycles:
    cycles = []
    for r in range(rounds):
        cycle = []
        for stratum in strata:
            doc, truth = planted_document(seed, stratum, r)
            path = workdir / f"{stratum.name}-{r}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

            def run(path: Path = path) -> ks_search.SearchReport:
                return ks_search.search(cli.load_system(str(path)))

            def check(report, doc: dict = doc, truth: dict = truth) -> None:
                _check_search(truth, report)
                _recheck_witness(doc, report)

            cycle.append(Op(stratum.name, run, check))
        cycles.append(tuple(cycle))
    return tuple(cycles)


# ---------------------------------------------------------------------------
# dense_spectra: dense commuting families U D_k U^dagger.

DENSE_DIMS = (16, 32, 64)
DENSE_FAMILY_SIZE = 3
DENSE_ROUNDS = 24
_DIAGONAL_VALUES = np.arange(-3, 4)


@dataclass(frozen=True)
class DenseFamily:
    operators: tuple[np.ndarray, ...]
    diagonals: np.ndarray  # dim x family size, integer eigenvalue table
    target: tuple[int, ...]
    joint_dim: int
    member: int


def dense_family(seed: int, dim: int, round_index: int) -> DenseFamily:
    """Commuting Hermitian family sharing a Haar-random eigenbasis.

    Row i of ``diagonals`` holds the joint eigenvalues of basis vector i.
    The target row is planted 1 to 3 times and no other row equals it, so
    the joint eigenspace dimension is known; the small integer alphabet
    gives every member degenerate eigenvalues.
    """
    rng = np.random.default_rng([seed, dim, round_index])
    joint_dim = int(rng.integers(1, 4))
    target = tuple(int(v) for v in rng.choice(_DIAGONAL_VALUES, size=DENSE_FAMILY_SIZE))
    rows = [target] * joint_dim
    while len(rows) < dim:
        row = tuple(int(v) for v in rng.choice(_DIAGONAL_VALUES, size=DENSE_FAMILY_SIZE))
        if row != target:
            rows.append(row)
    diagonals = np.array(rows)[rng.permutation(dim)]
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    operators = []
    for k in range(DENSE_FAMILY_SIZE):
        op = (u * diagonals[:, k]) @ u.conj().T
        operators.append((op + op.conj().T) / 2.0)
    return DenseFamily(tuple(operators), diagonals, target, joint_dim, round_index % DENSE_FAMILY_SIZE)


def _check_dense(family: DenseFamily, result) -> None:
    spec, basis = result
    planted = sorted(Counter(family.diagonals[:, family.member].tolist()).items())
    got = spec.values
    _require(len(got) == len(planted), f"{len(got)} eigenvalue clusters, planted {len(planted)}")
    for (value, mult), (want, want_mult) in zip(got, planted):
        _require(abs(value - want) <= 1e-8 and mult == want_mult, f"cluster ({value}, {mult}) != planted ({want}, {want_mult})")
    _require(len(basis) == family.joint_dim, f"joint eigenspace dimension {len(basis)}, planted {family.joint_dim}")
    v = np.array(basis).T
    _require(np.abs(v.conj().T @ v - np.eye(family.joint_dim)).max() <= 1e-8, "joint basis is not orthonormal")
    for op, t in zip(family.operators, family.target):
        _require(np.abs(op @ v - t * v).max() <= 1e-8, f"joint basis vector is not a {t}-eigenvector")


def dense_spectra(seed: int, workdir: Path, dims: tuple[int, ...] = DENSE_DIMS, rounds: int = DENSE_ROUNDS) -> Cycles:
    cycles = []
    for r in range(rounds):
        cycle = []
        for dim in dims:
            family = dense_family(seed, dim, r)

            def run(family: DenseFamily = family):
                return (
                    tensor_core.spectrum(family.operators[family.member]),
                    tensor_core.joint_eigenspace(family.operators, family.target),
                )

            def check(result, family: DenseFamily = family) -> None:
                _check_dense(family, result)

            cycle.append(Op(f"dim-{dim}", run, check))
        cycles.append(tuple(cycle))
    return tuple(cycles)


WORKLOADS = {
    "builtin_suites": builtin_suites,
    "search_planted": search_planted,
    "dense_spectra": dense_spectra,
}
