"""Shared helpers: random inputs and blunt oracles used across test modules."""

import itertools
import math

import numpy as np

from qnogo import ks_search as ks


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (x + x.conj().T) / 2.0


def make_system(observables, contexts) -> ks.ContextSystem:
    return ks.ContextSystem(
        observables=tuple(ks.SymbolicObservable(i, tuple(s)) for i, s in observables),
        contexts=tuple(ks.Context(tuple(m), c) for m, c in contexts),
    )


def random_system(rng: np.random.Generator) -> ks.ContextSystem:
    """Small random context system; at most one product_equals line so that
    the determination structure is permutation-proof."""
    n = int(rng.integers(2, 5))
    ids = [f"x{i}" for i in range(n)]
    observables = []
    for i in ids:
        size = int(rng.integers(2, 4))
        spectrum = rng.choice([-2.0, -1.0, 1.0, 2.0], size=size, replace=False)
        observables.append((i, tuple(float(v) for v in spectrum)))
    contexts = []
    used_product_equals = False
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(2, min(3, n) + 1))
        members = [ids[j] for j in rng.choice(n, size=k, replace=False)]
        roll = rng.random()
        if roll < 0.3 and not used_product_equals:
            contexts.append((members, ks.product_equals(members[-1])))
            used_product_equals = True
        elif roll < 0.65:
            contexts.append((members, ks.product_sign(-1 if rng.random() < 0.5 else 1)))
        else:
            target = float(rng.choice([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0]))
            contexts.append((members, ks.product_equals_value(target)))
    return make_system(observables, contexts)


def random_determined_system(rng: np.random.Generator) -> ks.ContextSystem:
    """Small random system with chained and repeated product_equals lines.

    Determined observable ``d<k>`` takes its factors from the free
    observables and from ``d<j>``, j < k, so every choice of determining
    line is acyclic and both declaration orders can be shuffled.  Spectra
    of determined observables are partial, so some products miss, and one
    may hold two values within the closeness tolerance of each other, so
    the first close value in declared order decides the snap.
    """
    free = [f"f{i}" for i in range(int(rng.integers(1, 5)))]
    dets = [f"d{k}" for k in range(int(rng.integers(1, 4)))]
    observables = []
    for i in free:
        size = int(rng.integers(1, 4))
        observables.append((i, tuple(float(v) for v in rng.choice([-2.0, -1.0, 1.0, 2.0], size=size, replace=False))))
    for d in dets:
        size = int(rng.integers(1, 5))
        values = [float(v) for v in rng.choice([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0], size=size, replace=False)]
        if rng.random() < 0.2:
            values.insert(int(rng.integers(0, len(values) + 1)), values[0] * (1.0 + 1e-12))
        observables.append((d, tuple(values)))

    contexts = []
    for k, d in enumerate(dets):
        pool = free + dets[:k]
        for _ in range(1 + int(rng.random() < 0.4)):  # sometimes a repeated line
            count = int(rng.integers(0, min(3, len(pool)) + 1))
            members = [pool[j] for j in rng.choice(len(pool), size=count, replace=False)] + [d]
            contexts.append((list(rng.permutation(members)), ks.product_equals(d)))
    ids = free + dets
    for _ in range(int(rng.integers(0, 3))):
        members = [ids[j] for j in rng.choice(len(ids), size=int(rng.integers(1, min(3, len(ids)) + 1)), replace=False)]
        if rng.random() < 0.5:
            contexts.append((members, ks.product_sign(-1 if rng.random() < 0.5 else 1)))
        else:
            contexts.append((members, ks.product_equals_value(float(rng.choice([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0])))))
    observables = [observables[i] for i in rng.permutation(len(observables))]
    contexts = [contexts[i] for i in rng.permutation(len(contexts))]
    return make_system(observables, contexts)


def brute_force_satisfiable(system: ks.ContextSystem) -> bool:
    """Blunt oracle: try every full assignment over all declared spectra."""
    ids = [o.id for o in system.observables]
    domains = [sorted(o.spectrum) for o in system.observables]
    for combo in itertools.product(*domains):
        if ks.check_assignment(system, dict(zip(ids, combo))) is None:
            return True
    return False


def reference_search(system: ks.ContextSystem, budget: int = ks.DEFAULT_BUDGET) -> ks.SearchReport:
    """Test-only oracle: ``ks.search`` one assignment at a time.

    Walks ``itertools.product`` over the sorted free spectra with a dict per
    assignment; the vectorized engine must reproduce its report exactly.
    """
    determined, topo = ks._determination_plan(system)
    free = [o for o in system.observables if o.id not in determined]
    domains = [tuple(sorted(o.spectrum)) for o in free]
    total = math.prod(len(d) for d in domains) if domains else 1
    if total > budget:
        raise ks.SearchBudgetError(f"enumeration size {total} exceeds budget {budget}")

    det_steps = []
    for det in topo:
        ctx_index, factors = determined[det]
        spectrum_values = system.observable(det).spectrum
        det_steps.append((det, ctx_index, factors, spectrum_values))

    free_ids = [o.id for o in free]
    histogram: dict[int, int] = {}
    checked = 0
    for combo in itertools.product(*domains) if domains else [()]:
        checked += 1
        values = dict(zip(free_ids, combo))
        violated: int | None = None
        for det, ctx_index, factors, spectrum_values in det_steps:
            prod = 1.0
            for f in factors:
                prod *= values[f]
            snapped = next((s for s in spectrum_values if ks._values_close(prod, s)), None)
            if snapped is None:
                violated = ctx_index
                break
            values[det] = snapped
        if violated is None:
            for i, ctx in enumerate(system.contexts):
                if ks._context_violated(ctx, values):
                    violated = i
                    break
        if violated is None:
            ordered = {o.id: values[o.id] for o in system.observables}
            return ks.SearchReport(
                satisfiable=True,
                assignments_checked=checked,
                witness=ordered,
                first_violated_context_histogram=dict(sorted(histogram.items())),
            )
        histogram[violated] = histogram.get(violated, 0) + 1
    return ks.SearchReport(
        satisfiable=False,
        assignments_checked=total,
        witness=None,
        first_violated_context_histogram=dict(sorted(histogram.items())),
    )
