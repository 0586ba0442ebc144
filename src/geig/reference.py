"""Exact dense generalized eigensolver used as the brute-force oracle.

The eigensolver is deliberately self-contained (hand-rolled Cholesky plus a
cyclic complex Jacobi iteration) so it stays independent of the solvers it
validates.  Intended for desk scale (dimension <= 16 or so).
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from . import pauli

_HERM_TOL = 1e-10
_JACOBI_OFF_TOL = 1e-12  # relative to the Frobenius norm of the matrix
_JACOBI_MAX_SWEEPS = 30
DEFAULT_CLUSTER_GAP = 1e-6


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues, B-orthonormal eigenvector columns, and the
    smallest eigenvalue of B."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eta1: float


def _check_hermitian(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    if np.max(np.abs(m - m.conj().T)) > _HERM_TOL:
        raise ValueError(f"{name} is not Hermitian within {_HERM_TOL}")
    return m


def cholesky(b: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^dagger = b.

    Raises ValueError on a non-positive pivot, which doubles as the
    positive-definiteness check.
    """
    b = _check_hermitian(b, "matrix")
    dim = b.shape[0]
    low = np.zeros_like(b)
    for j in range(dim):
        pivot = b[j, j].real - float(np.sum(np.abs(low[j, :j]) ** 2))
        if pivot <= 0.0:
            raise ValueError(
                f"matrix is not positive definite (pivot {pivot:.3e} at row {j})"
            )
        low[j, j] = np.sqrt(pivot)
        if j + 1 < dim:
            low[j + 1 :, j] = (
                b[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j].conj()
            ) / low[j, j]
    return low


def _off_norm(m: np.ndarray) -> float:
    off = m - np.diag(np.diag(m))
    return float(np.linalg.norm(off))


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian
    matrix, by cyclic Jacobi rotations.

    Sweeps stop once the off-diagonal norm is at most 1e-12 times the
    Frobenius norm, which the rotations leave unchanged, so the stopping
    rule is the same at every coefficient scale.  The sweeps run on the
    matrix divided by the power of two nearest its largest real or
    imaginary part, so that the norms cannot under- or overflow; the
    division and the scaling back of the eigenvalues are exact.
    """
    a = _check_hermitian(m, "matrix").copy()
    dim = a.shape[0]
    vecs = np.eye(dim, dtype=np.complex128)
    if dim == 1:
        return np.array([a[0, 0].real]), vecs
    parts = a.view(np.float64)
    exponent = math.frexp(float(np.max(np.abs(parts))))[1]
    # in place: scaling into a new array made the dim-128 sweeps about 6% slower
    np.ldexp(parts, -exponent, out=parts)
    scale = float(np.linalg.norm(a))
    if scale == 0.0:
        return np.zeros(dim), vecs
    off_tol = _JACOBI_OFF_TOL * scale

    for _ in range(_JACOBI_MAX_SWEEPS):
        for p in range(dim - 1):
            for q in range(p + 1, dim):
                apq = a[p, q]
                r = abs(apq)
                if r == 0.0:
                    continue
                phase = apq / r
                tau = float(a[q, q].real - a[p, p].real) / (2.0 * r)
                # the smaller root of t^2 + 2 tau t - 1 = 0; hypot cannot overflow
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # unitary U: U[p,p]=c, U[p,q]=s*phase, U[q,p]=-s*conj(phase), U[q,q]=c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * phase * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * np.conj(phase) * row_p + c * row_q
                vp = vecs[:, p].copy()
                vq = vecs[:, q].copy()
                vecs[:, p] = c * vp - s * np.conj(phase) * vq
                vecs[:, q] = s * phase * vp + c * vq
        if _off_norm(a) <= off_tol:
            break
    else:
        raise RuntimeError(
            f"Jacobi iteration did not converge in {_JACOBI_MAX_SWEEPS} sweeps "
            f"(off-diagonal norm {_off_norm(a):.3e})"
        )

    values = np.ldexp(np.real(np.diag(a)), exponent)
    order = np.argsort(values, kind="stable")
    return values[order], vecs[:, order]


def generalized_eig_dense(a: np.ndarray, b: np.ndarray) -> EigenDecomposition:
    """Solve a v = lambda b v for dense Hermitian a and positive definite b.

    Reduction: with b = L L^dagger, solve the standard problem for
    L^-1 a L^-dagger and back-substitute; eigenvectors come out
    B-orthonormal.
    """
    a = _check_hermitian(a, "A")
    b = _check_hermitian(b, "B")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: A {a.shape}, B {b.shape}")
    low = cholesky(b)
    x = np.linalg.solve(low, a)
    mid = np.linalg.solve(low, x.conj().T).conj().T
    mid = (mid + mid.conj().T) / 2.0
    values, y = hermitian_eig(mid)
    vectors = np.linalg.solve(low.conj().T, y)
    eta1 = float(hermitian_eig(b)[0][0])
    return EigenDecomposition(values, vectors, eta1)


def generalized_eig(pencil, max_qubits: int = pauli.DEFAULT_DENSE_CAP) -> EigenDecomposition:
    """Oracle decomposition of a Pauli-sum pencil via dense reconstruction."""
    a = pauli.dense_matrix(pencil.A, max_qubits=max_qubits)
    b = pauli.dense_matrix(pencil.B, max_qubits=max_qubits)
    return generalized_eig_dense(a, b)


def distinct_values(eigenvalues, gap: float = DEFAULT_CLUSTER_GAP) -> list:
    """One representative (cluster mean) per eigenvalue cluster, where
    clusters are separated by more than ``gap``."""
    values = np.sort(np.asarray(eigenvalues, dtype=float))
    if values.size == 0:
        return []
    reps = []
    start = 0
    for i in range(1, values.size + 1):
        if i == values.size or values[i] - values[i - 1] > gap:
            reps.append(float(np.mean(values[start:i])))
            start = i
    return reps


def count_distinct(eigenvalues, gap: float = DEFAULT_CLUSTER_GAP) -> int:
    """Number of eigenvalue clusters separated by more than ``gap``."""
    return len(distinct_values(eigenvalues, gap))
