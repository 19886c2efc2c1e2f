"""Context systems, the exhaustive search, matrix validation, and the
document round-trip."""

import json
import math
import warnings

import numpy as np
import pytest

from qnogo import ks_search as ks
from testutil import (
    brute_force_satisfiable,
    make_system,
    random_determined_system,
    random_system,
    reference_search,
)


# ---------------------------------------------------------------------------
# search basics


def test_single_observable_trivially_sat():
    system = make_system([("x", (1.0,))], [])
    report = ks.search(system)
    assert report.satisfiable
    assert report.witness == {"x": 1.0}
    assert report.assignments_checked == 1


def test_state_dependent_layout():
    system = ks.state_dependent_system()
    assert len(system.observables) == 6
    assert [c.constraint.arg for c in system.contexts] == [1.0, 1.0, 1.0, -1.0]
    assert system.contexts[3].member_ids == ("B12", "B34", "B56")


def test_state_dependent_unsat_over_4096():
    report = ks.search(ks.state_dependent_system())
    assert not report.satisfiable
    assert report.assignments_checked == 4096
    assert report.witness is None
    assert sum(report.first_violated_context_histogram.values()) == 4096


def test_state_dependent_flipped_target_becomes_sat():
    base = ks.state_dependent_system()
    contexts = list(base.contexts[:3]) + [ks.Context(base.contexts[3].member_ids, ks.product_equals_value(1.0))]
    report = ks.search(ks.ContextSystem(base.observables, tuple(contexts)))
    assert report.satisfiable
    # the all-ones assignment works, and it is the oracle witness
    all_ones = {o.id: 1.0 for o in base.observables}
    assert ks.check_assignment(ks.ContextSystem(base.observables, tuple(contexts)), all_ones) is None
    assert ks.check_assignment(ks.ContextSystem(base.observables, tuple(contexts)), report.witness) is None


def test_state_independent_unsat_over_4096():
    report = ks.search(ks.state_independent_system())
    assert not report.satisfiable
    assert report.assignments_checked == 4096
    # only the sign line can fail: the functional lines define the products
    assert set(report.first_violated_context_histogram) == {4}


def test_state_independent_without_sign_line_is_sat():
    base = ks.state_independent_system()
    relaxed = ks.ContextSystem(base.observables, base.contexts[:4])
    report = ks.search(relaxed)
    assert report.satisfiable
    assert ks.check_assignment(relaxed, report.witness) is None


def test_sign_collapse_still_unsat():
    report = ks.search(ks.sign_collapsed(ks.state_independent_system()))
    assert not report.satisfiable
    assert report.assignments_checked == 64

    report = ks.search(ks.sign_collapsed(ks.state_dependent_system()))
    assert not report.satisfiable
    assert report.assignments_checked == 64


def test_search_deterministic():
    a = ks.search(ks.state_independent_system())
    b = ks.search(ks.state_independent_system())
    assert a == b


def test_budget_exceeded():
    system = make_system([(f"x{i}", (-2.0, -1.0, 1.0, 2.0)) for i in range(6)], [])
    with pytest.raises(ks.SearchBudgetError):
        ks.search(system, budget=1000)


def test_cyclic_determination_rejected():
    system = make_system(
        [("a", (-1.0, 1.0)), ("b", (-1.0, 1.0))],
        [
            ((("a", "b")), ks.product_equals("a")),
            ((("a", "b")), ks.product_equals("b")),
        ],
    )
    with pytest.raises(ks.CyclicDeterminationError):
        ks.search(system)


def test_chained_determination_allowed():
    # c is derived from b, which is derived from a: acyclic, so fine.
    system = make_system(
        [("a", (-1.0, 1.0)), ("b", (-1.0, 1.0)), ("c", (-1.0, 1.0))],
        [
            (("a", "b"), ks.product_equals("b")),
            (("b", "c"), ks.product_equals("c")),
        ],
    )
    report = ks.search(system)
    assert report.satisfiable
    assert report.assignments_checked <= 2
    assert ks.check_assignment(system, report.witness) is None


def test_determined_value_outside_spectrum_counts_against_its_line():
    # b must equal a * c in {1, -1} but a * c can be 4: spectrum miss.
    system = make_system(
        [("a", (2.0,)), ("b", (-1.0, 1.0)), ("c", (2.0,))],
        [(("a", "c", "b"), ks.product_equals("b"))],
    )
    report = ks.search(system)
    assert not report.satisfiable
    assert report.first_violated_context_histogram == {0: 1}


# ---------------------------------------------------------------------------
# randomized permutation invariance with independent recheck


@pytest.mark.parametrize("seed", range(20))
def test_randomized_systems_permutation_invariant(seed):
    rng = np.random.default_rng(1000 + seed)
    system = random_system(rng)

    report = ks.search(system)
    assert report == ks.search(system)  # determinism

    assert report.satisfiable == brute_force_satisfiable(system)
    if report.satisfiable:
        assert ks.check_assignment(system, report.witness) is None
    else:
        determined = {c.constraint.arg for c in system.contexts if c.constraint.kind == "product_equals"}
        free_sizes = [len(o.spectrum) for o in system.observables if o.id not in determined]
        assert report.assignments_checked == math.prod(free_sizes)

    perm = rng.permutation(len(system.contexts))
    shuffled_contexts = tuple(system.contexts[i] for i in perm)
    obs_perm = rng.permutation(len(system.observables))
    shuffled_obs = tuple(system.observables[i] for i in obs_perm)
    permuted = ks.ContextSystem(shuffled_obs, shuffled_contexts)

    other = ks.search(permuted)
    assert other.satisfiable == report.satisfiable
    if other.satisfiable:
        assert ks.check_assignment(permuted, other.witness) is None
    else:
        assert other.assignments_checked == report.assignments_checked


# ---------------------------------------------------------------------------
# the vectorized engine against the one-assignment-at-a-time reference


@pytest.mark.parametrize("seed", range(60))
def test_search_matches_reference_on_random_systems(seed):
    rng = np.random.default_rng(5000 + seed)
    for system in (random_system(rng), random_determined_system(rng)):
        assert ks.search(system) == reference_search(system)


@pytest.mark.parametrize("builder", [ks.state_dependent_system, ks.state_independent_system])
def test_search_matches_reference_on_builtins(builder):
    for system in (builder(), ks.sign_collapsed(builder())):
        assert ks.search(system) == reference_search(system)


def test_chained_and_repeated_product_equals_match_reference():
    # c is determined from b, b from a; the second b-line only constrains.
    observables = [("c", (-2.0, 2.0, 4.0)), ("a", (-2.0, -1.0, 1.0, 2.0)), ("b", (-4.0, 2.0, 4.0)), ("e", (-1.0, 1.0))]
    contexts = [
        (("b", "c", "e"), ks.product_equals("c")),
        (("a", "a2", "b"), ks.product_equals("b")),
        (("e", "b", "a"), ks.product_equals("b")),
        (("c", "e"), ks.product_sign(1)),
    ]
    system = make_system(observables + [("a2", (1.0, 2.0))], contexts)
    report = ks.search(system)
    assert report == reference_search(system)
    assert report.satisfiable
    assert ks.check_assignment(system, report.witness) is None


@pytest.mark.parametrize("spectrum", [(1.0 + 1e-12, 1.0), (1.0, 1.0 + 1e-12)])
def test_snap_takes_first_close_value_in_declared_order(spectrum):
    system = make_system([("a", (1.0,)), ("d", spectrum)], [(("a", "d"), ks.product_equals("d"))])
    report = ks.search(system)
    assert report == reference_search(system)
    assert report.witness == {"a": 1.0, "d": spectrum[0]}


def _pinned_system(rank: int) -> ks.ContextSystem:
    """Twelve free observables (radices 3, 2, ..., 2: 6144 assignments, one
    and a half blocks) with the assignment of the given rank pinned by
    single-member value lines, so it is the only witness."""
    spectra = [(-1.0, 1.0, 2.0)] + [(-1.0, 1.0)] * 11
    digits = []
    for spectrum in reversed(spectra):
        rank, digit = divmod(rank, len(spectrum))
        digits.append(digit)
    pins = [sorted(s)[d] for s, d in zip(spectra, reversed(digits))]
    ids = [f"x{i}" for i in range(len(spectra))]
    return make_system(
        list(zip(ids, spectra)),
        [((i,), ks.product_equals_value(v)) for i, v in zip(ids, pins)],
    )


@pytest.mark.parametrize("rank", [0, 4095, 4096, 5000, 6143])
def test_multi_block_witness_matches_reference(rank):
    system = _pinned_system(rank)
    report = ks.search(system)
    assert report == reference_search(system)
    assert report.satisfiable
    assert report.assignments_checked == rank + 1
    assert sum(report.first_violated_context_histogram.values()) == rank


def test_multi_block_unsat_matches_reference():
    base = _pinned_system(6143)
    contexts = base.contexts + (ks.Context(("x0", "x11"), ks.product_sign(-1)),)
    system = ks.ContextSystem(base.observables, contexts)
    report = ks.search(system)
    assert report == reference_search(system)
    assert not report.satisfiable
    assert report.assignments_checked == 6144


@pytest.mark.parametrize("spectrum, satisfiable", [((-1.0, 1.0), True), ((2.0,), False)])
def test_zero_free_observables(spectrum, satisfiable):
    # The empty factor product is 1.0: a hit for {-1, 1}, a miss for {2}.
    system = make_system([("d", spectrum)], [(("d",), ks.product_equals("d"))])
    report = ks.search(system)
    assert report == reference_search(system)
    assert report.satisfiable is satisfiable
    assert report.assignments_checked == 1


def test_overflowing_products_match_reference():
    # 1e200 * 1e200 overflows to inf and 1e-200 * 1e-200 underflows to 0,
    # silently in Python floats; the columns must agree without warnings.
    big = (-1e200, 1e-200, 1e200)
    system = make_system(
        [("a", big), ("b", big), ("c", (-1.0, 1.0)), ("d", (1.0, 2.0)), ("e", (-1.0, 1.0))],
        [
            (("a", "b", "e"), ks.product_equals("e")),
            (("a", "b"), ks.product_sign(1)),
            (("a", "b", "c"), ks.product_sign(-1)),
            (("a", "b", "d"), ks.product_equals_value(1e300)),
            (("c",), ks.product_equals_value(2.0)),  # forces full enumeration
        ],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = ks.search(system)
    assert report == reference_search(system)
    assert len(report.first_violated_context_histogram) > 2


def test_budget_boundary(monkeypatch):
    system = make_system([(f"x{i}", (-2.0, -1.0, 1.0, 2.0)) for i in range(5)], [])
    assert ks.search(system, budget=4**5).satisfiable
    monkeypatch.setattr(ks, "np", None)  # any array work would now fail
    with pytest.raises(ks.SearchBudgetError):
        ks.search(system, budget=4**5 - 1)


def test_budget_capped_at_int64_indices():
    system = make_system([(f"x{i}", (-2.0, -1.0, 1.0, 2.0)) for i in range(31)], [])
    assert ks.search(system, budget=10**30).assignments_checked == 1  # 4^31 = 2^62 fits
    system = make_system([(f"x{i}", (-2.0, -1.0, 1.0, 2.0)) for i in range(32)], [])
    with pytest.raises(ks.SearchBudgetError, match="exceeds budget"):
        ks.search(system, budget=10**30)


def test_4pow10_unsat_histogram():
    # Ten four-valued observables, each on two sign lines; the required
    # signs multiply to -1.  Only signs matter, so every sign pattern of the
    # two-valued copy stands for 2^10 magnitude patterns.
    lines = ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 0, 4), (1, 5, 8, 6), (2, 3, 7, 9))
    system = make_system(
        [(f"X{i}", (-2.0, -1.0, 1.0, 2.0)) for i in range(10)],
        [([f"X{i}" for i in line], ks.product_sign(-1 if k == 4 else 1)) for k, line in enumerate(lines)],
    )
    report = ks.search(system)
    assert not report.satisfiable
    assert report.assignments_checked == 4**10
    assert sum(report.first_violated_context_histogram.values()) == 4**10
    signs = reference_search(ks.sign_collapsed(system))
    assert report.first_violated_context_histogram == {
        k: 2**10 * v for k, v in signs.first_violated_context_histogram.items()
    }


# ---------------------------------------------------------------------------
# matrix validation


def test_validate_standard_bindings():
    report = ks.validate_against_matrices(ks.state_independent_system(), ks.builtin_matrix_bindings())
    assert report.proof_id == "ks"
    assert report.overall
    spectrum_check = [c for c in report.checks if "powers of four" in c.name][0]
    assert len(spectrum_check.measured) == 4
    for value, target in zip(spectrum_check.measured, (1.0, 4.0, 16.0, 64.0)):
        assert value == pytest.approx(target, abs=1e-8)
    sign_check = [c for c in report.checks if "negative" in c.name][0]
    assert sign_check.passed


def test_validate_detects_wrong_binding():
    bindings = ks.builtin_matrix_bindings()
    bindings["A12"] = np.eye(64, dtype=complex)
    report = ks.validate_against_matrices(ks.state_independent_system(), bindings)
    assert not report.overall
    failed = [c for c in report.checks if not c.passed]
    assert any("A12A34B56 equals ordered product" in c.name for c in failed)


def test_validate_factorless_line_compares_with_identity():
    system = make_system([("d", (-1.0, 1.0))], [(("d",), ks.product_equals("d"))])
    assert ks.validate_against_matrices(system, {"d": np.eye(4)}).overall
    report = ks.validate_against_matrices(system, {"d": -np.eye(4)})
    failed = [c.name for c in report.checks if not c.passed]
    assert "context 0: d equals ordered product of its factors" in failed


def test_validate_requires_complete_bindings_and_matching_dims():
    bindings = ks.builtin_matrix_bindings()
    del bindings["B56"]
    with pytest.raises(ValueError):
        ks.validate_against_matrices(ks.state_independent_system(), bindings)

    bindings = ks.builtin_matrix_bindings()
    bindings["B56"] = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        ks.validate_against_matrices(ks.state_independent_system(), bindings)


# ---------------------------------------------------------------------------
# document round-trip and format validation


@pytest.mark.parametrize("builder", [ks.state_dependent_system, ks.state_independent_system])
def test_document_round_trip(builder):
    system = builder()
    doc = json.loads(json.dumps(ks.system_to_document(system)))
    loaded = ks.system_from_document(doc)
    assert loaded == system
    assert ks.search(loaded) == ks.search(system)


def test_document_rejects_empty_observables():
    with pytest.raises(ks.SystemFormatError):
        ks.system_from_document({"observables": [], "contexts": []})


def test_document_rejects_unknown_constraint():
    doc = {
        "observables": [{"id": "a", "spectrum": [1, -1]}],
        "contexts": [{"members": ["a"], "constraint": {"type": "sum_equals", "arg": 0}}],
    }
    with pytest.raises(ks.SystemFormatError):
        ks.system_from_document(doc)


def test_document_rejects_dangling_member():
    doc = {
        "observables": [{"id": "a", "spectrum": [1, -1]}],
        "contexts": [{"members": ["a", "ghost"], "constraint": {"type": "product_sign", "arg": "negative"}}],
    }
    with pytest.raises(ks.SystemFormatError, match="ghost"):
        ks.system_from_document(doc)


def test_document_rejects_bad_spectrum():
    with pytest.raises(ks.SystemFormatError):
        ks.system_from_document({"observables": [{"id": "a", "spectrum": [1, 1]}], "contexts": []})
    with pytest.raises(ks.SystemFormatError):
        ks.system_from_document({"observables": [{"id": "a", "spectrum": [0]}], "contexts": []})


def test_sign_arg_spellings():
    for arg in ("negative", -1):
        doc = {
            "observables": [{"id": "a", "spectrum": [1, -1]}, {"id": "b", "spectrum": [1, -1]}],
            "contexts": [{"members": ["a", "b"], "constraint": {"type": "product_sign", "arg": arg}}],
        }
        system = ks.system_from_document(doc)
        assert system.contexts[0].constraint.arg == -1.0


def test_builtin_bindings_cover_all_ids():
    system = ks.state_independent_system()
    bindings = ks.builtin_matrix_bindings()
    assert {o.id for o in system.observables} == set(bindings)
    assert all(m.shape == (64, 64) for m in bindings.values())


def test_observable_counts_match_layout():
    system = ks.state_independent_system()
    assert len(system.observables) == 10
    assert len(system.contexts) == 5
    horizontal = system.contexts[4]
    assert horizontal.constraint.kind == "product_sign"
    assert horizontal.constraint.arg == -1.0
    # four lines tie each product observable to its three factors
    assert all(c.constraint.kind == "product_equals" for c in system.contexts[:4])
