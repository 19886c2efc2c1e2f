"""Dense complex linear algebra on small Hilbert spaces.

Operators are square complex numpy arrays, states are 1-d complex numpy
arrays.  Every function is pure: inputs are never mutated and no global
state is touched, so values can be shared freely across threads.

The scales of interest here are tiny (dimension 2 to 64), so everything is
dense and the Hermitian eigensolver is a self-contained cyclic Jacobi
iteration: deterministic, no convergence randomness, accurate to roughly
1e-12 times the matrix norm.  Eigenvectors follow a fixed phase convention
(first nonvanishing component real and positive) so repeated runs produce
identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_TOL = 1e-10
DEFAULT_CLUSTER_TOL = 1e-8

_JACOBI_MAX_SWEEPS = 100
_JACOBI_REL_THRESHOLD = 1e-12


class ConvergenceError(RuntimeError):
    """Jacobi iteration exhausted its sweep budget before converging."""


def as_operator(m) -> np.ndarray:
    """Coerce to a finite square complex matrix (copy, read-only semantics)."""
    a = np.array(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def as_state(v) -> np.ndarray:
    """Coerce to a finite 1-d complex vector (copy)."""
    a = np.array(v, dtype=complex)
    if a.ndim != 1 or a.shape[0] < 1:
        raise ValueError(f"expected a 1-d state vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("state amplitudes must be finite (no NaN/Inf)")
    return a


def max_abs(m) -> float:
    """Largest entry modulus; the norm used by entrywise comparisons."""
    return float(np.abs(m).max())


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    a = as_operator(m)
    return max_abs(a - a.conj().T) <= tol


def is_projector(p, tol: float = DEFAULT_TOL) -> bool:
    """True when p is Hermitian and idempotent within tol, entrywise."""
    a = as_operator(p)
    if max_abs(a - a.conj().T) > tol:
        return False
    return max_abs(a @ a - a) <= tol


def normalize(v) -> np.ndarray:
    """Scale to unit Euclidean norm; rejects (numerically) zero vectors."""
    a = as_state(v)
    n = float(np.linalg.norm(a))
    if n < 1e-150:
        raise ValueError("cannot normalize a zero vector")
    return a / n


def projector(v) -> np.ndarray:
    """Rank-1 projector |v><v| onto a unit vector."""
    a = normalize(v)
    return np.outer(a, a.conj())


def kron(a, b) -> np.ndarray:
    """Tensor (Kronecker) product of two operators."""
    return np.kron(as_operator(a), as_operator(b))


def kron_all(mats: Sequence) -> np.ndarray:
    """Tensor product of a sequence of operators, left to right."""
    mats = list(mats)
    if not mats:
        raise ValueError("kron_all needs at least one factor")
    out = as_operator(mats[0])
    for m in mats[1:]:
        out = np.kron(out, as_operator(m))
    return out


def matmul(a, b) -> np.ndarray:
    """Matrix product of two operators on the same space."""
    x, y = as_operator(a), as_operator(b)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    return x @ y


def commutator_norm(a, b) -> float:
    """Largest entry modulus of ab - ba."""
    x, y = as_operator(a), as_operator(b)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {y.shape[0]}")
    return max_abs(x @ y - y @ x)


def apply(m, s) -> np.ndarray:
    """Matrix-vector product; the result is generally not normalized."""
    a, v = as_operator(m), as_state(s)
    if a.shape[0] != v.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {v.shape[0]}")
    return a @ v


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` is real and ascending; column k of ``eigenvectors``
    is the unit eigenvector paired with ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SpectrumMultiset:
    """Eigenvalues grouped within a clustering tolerance.

    ``values`` holds (eigenvalue, multiplicity) pairs in ascending order;
    multiplicities sum to the matrix dimension.
    """

    values: tuple[tuple[float, int], ...]

    def distinct(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.values)


def _round_robin_schedule(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rounds of pairwise-disjoint index pairs covering every p < q once.

    The circle method: one full pass through the rounds visits each
    off-diagonal position exactly once, which makes the sweep cyclic, and
    the rotations within a round act on disjoint rows/columns, which lets
    them be applied as a single unitary.
    """
    m = n + (n % 2)
    ring = list(range(m))
    rounds = []
    for _ in range(max(m - 1, 0)):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = ring[i], ring[m - 1 - i]
            if a < n and b < n:
                ps.append(min(a, b))
                qs.append(max(a, b))
        rounds.append((np.asarray(ps, dtype=int), np.asarray(qs, dtype=int)))
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return rounds


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first nonvanishing entry is real > 0."""
    mags = np.abs(v)
    peak = mags.max()
    if peak == 0.0:
        return v
    idx = int(np.argmax(mags > 1e-6 * peak))
    lead = v[idx]
    return v * (lead.conjugate() / abs(lead))


def hermitian_eig(m, tol: float = DEFAULT_TOL) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix by cyclic Jacobi.

    Each round applies a batch of disjoint complex Jacobi rotations (a phase
    that makes the pivot real, then a real 2x2 rotation that annihilates
    it).  Sweeps stop once the off-diagonal Frobenius norm drops below
    1e-12 times the matrix norm; the budget is 100 sweeps.

    Raises ValueError when the input is not Hermitian within ``tol`` and
    ConvergenceError when the budget runs out.
    """
    a = as_operator(m)
    if max_abs(a - a.conj().T) > tol:
        raise ValueError("hermitian_eig requires a Hermitian matrix")
    n = a.shape[0]
    a = (a + a.conj().T) / 2.0
    v = np.eye(n, dtype=complex)
    threshold = _JACOBI_REL_THRESHOLD * float(np.linalg.norm(a))
    skip_below = threshold / max(n, 1)
    schedule = _round_robin_schedule(n)

    for _ in range(_JACOBI_MAX_SWEEPS + 1):
        if _offdiag_norm(a) <= threshold:
            break
        for ps, qs in schedule:
            if ps.size == 0:
                continue
            apq = a[ps, qs]
            r = np.abs(apq)
            active = r > skip_below
            if not np.any(active):
                continue
            safe_r = np.where(active, r, 1.0)
            phase = np.where(active, apq / safe_r, 1.0 + 0.0j)
            tau = np.where(active, (a[qs, qs].real - a[ps, ps].real) / (2.0 * safe_r), 0.0)
            sgn = np.where(tau >= 0.0, 1.0, -1.0)
            t = np.where(active, sgn / (np.abs(tau) + np.sqrt(1.0 + tau * tau)), 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            u = np.eye(n, dtype=complex)
            u[ps, ps] = c
            u[ps, qs] = s
            u[qs, ps] = -s * phase.conj()
            u[qs, qs] = c * phase.conj()
            a = u.conj().T @ a @ u
            v = v @ u
        a = (a + a.conj().T) / 2.0
    else:
        raise ConvergenceError(
            f"Jacobi did not reach threshold {threshold:g} in {_JACOBI_MAX_SWEEPS} sweeps"
        )

    eigenvalues = np.diag(a).real.copy()
    order = np.argsort(eigenvalues, kind="stable")
    vectors = v[:, order]
    for k in range(n):
        vectors[:, k] = _fix_phase(vectors[:, k])
    return EigenDecomposition(eigenvalues=eigenvalues[order], eigenvectors=vectors)


def spectrum(m, cluster_tol: float = DEFAULT_CLUSTER_TOL, tol: float = DEFAULT_TOL) -> SpectrumMultiset:
    """Eigenvalue multiset with near-degenerate values merged.

    Ascending eigenvalues are grouped greedily: a value joins the current
    group while the group's total spread stays within ``cluster_tol``.
    Each group is reported as (mean, multiplicity).
    """
    eig = hermitian_eig(m, tol=tol)
    groups: list[list[float]] = []
    for lam in eig.eigenvalues:
        if groups and lam - groups[-1][0] <= cluster_tol:
            groups[-1].append(float(lam))
        else:
            groups.append([float(lam)])
    values = tuple((float(np.mean(g)), len(g)) for g in groups)
    return SpectrumMultiset(values=values)


def joint_eigenspace(
    ops: Sequence,
    targets: Sequence[float],
    tol: float = DEFAULT_CLUSTER_TOL,
    commute_tol: float = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Orthonormal basis of the simultaneous eigenspace of commuting operators.

    Iterated refinement: take the ``targets[0]`` eigenspace of ``ops[0]``,
    compress ``ops[1]`` onto it, and recurse.  Because the operators
    commute (checked up front within ``commute_tol``), each compression is
    again Hermitian and its eigenvectors lift back to simultaneous
    eigenvectors of the originals.  Eigenvalues are matched to targets
    within ``tol``.  Returns [] when the joint eigenspace is trivial.
    """
    mats = [as_operator(op) for op in ops]
    if not mats:
        raise ValueError("need at least one operator")
    if len(mats) != len(targets):
        raise ValueError("one target eigenvalue per operator required")
    dim = mats[0].shape[0]
    for mat in mats:
        if mat.shape[0] != dim:
            raise ValueError("all operators must share one dimension")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            cn = commutator_norm(mats[i], mats[j])
            if cn > commute_tol:
                raise ValueError(f"operators {i} and {j} do not commute (norm {cn:g})")

    basis = np.eye(dim, dtype=complex)
    for mat, target in zip(mats, targets):
        compressed = basis.conj().T @ mat @ basis
        compressed = (compressed + compressed.conj().T) / 2.0
        eig = hermitian_eig(compressed, tol=max(commute_tol, 1e-9))
        keep = np.abs(eig.eigenvalues - float(target)) <= tol
        if not np.any(keep):
            return []
        basis = basis @ eig.eigenvectors[:, keep]
    return [_fix_phase(basis[:, k]) for k in range(basis.shape[1])]


def measure_project(s, p, tol: float = DEFAULT_TOL) -> tuple[float, np.ndarray | None]:
    """Projective measurement outcome: (probability, post-selected state).

    The probability is <s|p|s>, clipped into [0, 1] against roundoff.  The
    post-state is p|s> renormalized, or None when the outcome probability
    is at most ``tol`` (post-selection on a null outcome is undefined).
    """
    v = as_state(s)
    a = as_operator(p)
    if not is_projector(a, tol=max(tol, 1e-12)):
        raise ValueError("measure_project requires a projector")
    if a.shape[0] != v.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {v.shape[0]}")
    pv = a @ v
    prob = float(min(1.0, max(0.0, np.real(np.vdot(v, pv)))))
    if prob <= tol:
        return prob, None
    return prob, normalize(pv)


def schmidt_entropy(s, left_dims: int) -> float:
    """Bipartite entanglement entropy in bits across the left|right cut.

    The state is reshaped to a left_dims x (dim/left_dims) matrix M; the
    squared Schmidt coefficients are the eigenvalues of M M-dagger, and the
    result is their Shannon entropy (base 2).  0 for product states,
    log2(min(left, right)) for maximally entangled ones.
    """
    v = normalize(s)
    dim = v.shape[0]
    if left_dims < 1 or dim % left_dims != 0:
        raise ValueError(f"left factor dimension {left_dims} does not divide {dim}")
    m = v.reshape(left_dims, dim // left_dims)
    gram = m @ m.conj().T
    eig = hermitian_eig(gram, tol=1e-9)
    probs = np.clip(eig.eigenvalues, 0.0, None)
    probs = probs / probs.sum()
    probs = probs[probs > 1e-12]
    return float(-(probs * np.log2(probs)).sum())
