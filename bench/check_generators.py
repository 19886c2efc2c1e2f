"""Checks of the benchmark's own input generators and bookkeeping.

Run with ``python3 -m pytest -q bench/check_generators.py``.  The file name
keeps it out of the package's default test collection; it exercises the
benchmark, not the package.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from qnogo import ks_search  # noqa: E402

SMALL_STRATA = (
    W.Stratum("t-unsat", False, (4, 4, 2, 4), 1, 3),
    W.Stratum("t-unsat-wide", False, (4, 4, 4, 4, 2), 2, 4),
    W.Stratum("t-sat-shallow", True, (4, 4, 4, 2), 1, 2, 0.1),
    W.Stratum("t-sat-deep", True, (4, 4, 4, 4), 2, 3, 0.8),
)


def _free_parity_of_sign_contexts(doc: dict) -> Counter:
    determined = {
        c["constraint"]["arg"]: [m for m in c["members"] if m != c["constraint"]["arg"]]
        for c in doc["contexts"]
        if c["constraint"]["type"] == "product_equals"
    }
    counts: Counter = Counter()
    for c in doc["contexts"]:
        if c["constraint"]["type"] == "product_sign":
            for m in c["members"]:
                counts.update(determined.get(m, [m]))
    return counts


@pytest.mark.parametrize("stratum", SMALL_STRATA, ids=lambda s: s.name)
@pytest.mark.parametrize("seed", range(6))
def test_brute_force_confirms_planted_truth(stratum, seed):
    doc, truth = W.planted_document(seed, stratum, 0)
    satisfiable, position = W.brute_force(doc)
    assert satisfiable == truth["satisfiable"]
    if satisfiable:
        assert position == truth["rank"]
        assert W.document_violations(doc, truth["assignment"]) == []
    else:
        assert position == truth["enumeration"] == stratum.enumeration
        signs = [c["constraint"]["arg"] for c in doc["contexts"] if c["constraint"]["type"] == "product_sign"]
        assert signs.count("negative") % 2 == 1
        assert all(n % 2 == 0 for n in _free_parity_of_sign_contexts(doc).values())


@pytest.mark.parametrize("stratum", SMALL_STRATA, ids=lambda s: s.name)
def test_search_agrees_with_brute_force(stratum):
    doc, truth = W.planted_document(7, stratum, 1)
    report = ks_search.search(ks_search.system_from_document(doc))
    W._check_search(truth, report)
    W._recheck_witness(doc, report)


def test_same_seed_gives_byte_identical_documents(tmp_path):
    strata = W.SEARCH_STRATA[:3]
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    W.search_planted(5, first, strata=strata, rounds=2)
    W.search_planted(5, second, strata=strata, rounds=2)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir()) and len(names) == 6
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    other = tmp_path / "c"
    other.mkdir()
    W.search_planted(6, other, strata=strata, rounds=2)
    assert any((first / n).read_bytes() != (other / n).read_bytes() for n in names)


def test_production_strata_have_their_enumeration_sizes():
    sizes = [s.enumeration for s in W.SEARCH_STRATA]
    assert sizes == [1024, 65536, 8192, 4**10, 32768]
    for stratum in W.SEARCH_STRATA:
        doc, truth = W.planted_document(0, stratum, 0)
        free = [o for o in doc["observables"] if o["id"].startswith("F")]
        assert math.prod(len(o["spectrum"]) for o in free) == truth["enumeration"]
        determined = [o for o in doc["observables"] if o["id"].startswith("D")]
        assert len(determined) == stratum.determined and all(len(o["spectrum"]) == 6 for o in determined)
        if truth["satisfiable"]:
            assert W.document_violations(doc, truth["assignment"]) == []


@pytest.mark.parametrize("dim", W.DENSE_DIMS)
@pytest.mark.parametrize("round_index", range(2))
def test_dense_family_commutes_and_has_planted_spectra(dim, round_index):
    family = W.dense_family(3, dim, round_index)
    ops = family.operators
    for a in ops:
        assert np.abs(a - a.conj().T).max() == 0.0
        for b in ops:
            assert np.abs(a @ b - b @ a).max() < 1e-10
    for k, op in enumerate(ops):
        want = np.sort(family.diagonals[:, k].astype(float))
        assert np.abs(np.linalg.eigvalsh(op) - want).max() < 1e-10
    rows = [tuple(r) for r in family.diagonals.tolist()]
    assert rows.count(family.target) == family.joint_dim
    again = W.dense_family(3, dim, round_index)
    for a, b in zip(ops, again.operators):
        assert np.array_equal(a, b)


def test_anchor_system_is_a_parity_contradiction():
    system = run.anchor_system()
    assert tracing.enumeration_size(system) == 4**10
    counts = Counter(m for c in system.contexts for m in c.member_ids)
    assert set(counts.values()) == {2}
    assert math.prod(c.constraint.arg for c in system.contexts) == -1.0


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(100)]
    value, pct = run.tail(times)
    assert value == 89.0 and pct == 90.0
    assert sum(t > value for t in times) == 10
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_normalize_divides_by_the_neighbouring_probes():
    ref = run.REF_KERNEL_S
    assert run.normalize([1.0, 2.0], [ref, 3 * ref, 2 * ref]) == pytest.approx([0.5, 0.8])
    assert run.reference_kernel() > 0.0


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("outer", 0.0, 10.0, None, 0),
        tracing.Span("inner", 1.0, 4.0, 0, 0),
        tracing.Span("leaf", 2.0, 3.0, 1, 0),
        tracing.Span("inner", 5.0, 6.0, 0, 0),
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
    metrics = tracing.layer_metrics(tracer, [10.5])
    assert metrics["trace.top_level_busy_s"] == 10.0
    assert metrics["trace.unaccounted_ratio"] == pytest.approx(0.5 / 10.5)


def test_wrappers_cover_every_binding_and_are_removed():
    from qnogo import proofs, tensor_core

    original = tensor_core.spectrum
    tracer = tracing.Tracer()
    with tracer.installed():
        assert proofs.spectrum is tensor_core.spectrum is not original
        tensor_core.spectrum(np.diag([1.0, 2.0, 2.0]))
    assert proofs.spectrum is original and tensor_core.spectrum is original
    assert [s.name for s in tracer.spans] == ["tensor_core.spectrum", "tensor_core.hermitian_eig"]
    assert tracer.spans[1].parent == 0 and tracer.spans[1].counts == {"dim": 3}
    json.dumps([s.counts for s in tracer.spans])
