"""Seeded synthetic pencils and an independent dense spectrum for checking
solver output.

The generator builds a real, gapped Ising-type pencil.  A is a
nearest-neighbour ZZ chain in a transverse X field plus weak random real
2-local terms.  B is a multiple of the identity plus a weak random X field
and weak random real 2-local terms, with the identity weight chosen so that
``c_I - sum_k |c_k| >= B_MARGIN``, which certifies that B is positive
definite.  The random terms are weak so that solver work (fqge iterations,
Jacobi sweeps) stays within a few percent from seed to seed while every seed
still gives a different problem; stronger ones, B's above all, spread the
fqge iteration count by 20% or more.  They are also distinct and never
coincide with a chain term, so every seed gives the same number of terms;
when draws could merge, the count, and with it the cost of each Pauli-sum
action, varied by 10% from seed to seed.

The dense spectrum is computed with numpy's ``cholesky`` and ``eigvalsh``
from matrices built here, not by the package's own oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ISING_J = 1.0
ISING_H = 4.0
RANDOM_A_TERMS = 40
RANDOM_A_SCALE = 0.05
RANDOM_B_TERMS = 30
RANDOM_B_SCALE = 0.001
B_MARGIN = 0.5


# 2-local factors with an even number of Y, so every term is a real matrix
REAL_PAIRS = ("XX", "XZ", "ZX", "ZZ", "YY")


def _two_local(rng, n: int, count: int, exclude=()) -> list:
    """``count`` distinct random real 2-local strings, none in ``exclude``
    (all of them when fewer exist), so that no two terms merge and every
    seed gives the same number of terms, which sets the cost of one
    Pauli-sum action."""
    pool = []
    for i in range(n):
        for j in range(i + 1, n):
            for pair in REAL_PAIRS:
                ops = ["I"] * n
                ops[i], ops[j] = pair
                if "".join(ops) not in exclude:
                    pool.append("".join(ops))
    picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    return [pool[k] for k in picks]


def _site(n: int, q: int, ops: str) -> str:
    return "I" * q + ops + "I" * (n - q - len(ops))


def ising_problem(n: int, seed: int) -> dict:
    """Problem dict (the CLI's JSON form) of the seeded Ising-type pencil
    on ``n >= 2`` qubits, written through ``geig.cli.serialize_problem``."""
    from geig.cli import serialize_problem
    from geig.pauli import PauliSum
    from geig.vqge import Pencil

    rng = np.random.default_rng([seed, n])
    chain = [_site(n, q, "ZZ") for q in range(n - 1)]
    a_terms = [(ISING_J, ops) for ops in chain]
    a_terms += [(ISING_H, _site(n, q, "X")) for q in range(n)]
    a_terms += [
        (RANDOM_A_SCALE * rng.uniform(-1.0, 1.0), ops)
        for ops in _two_local(rng, n, RANDOM_A_TERMS, exclude=chain)
    ]
    # the X field couples every basis state, so B has no block structure
    # that would let the dense oracle skip a seed-dependent share of rotations
    b_random = [(RANDOM_B_SCALE * rng.uniform(-1.0, 1.0), _site(n, q, "X")) for q in range(n)]
    b_random += [
        (RANDOM_B_SCALE * rng.uniform(-1.0, 1.0), ops)
        for ops in _two_local(rng, n, RANDOM_B_TERMS)
    ]
    b_offdiag = PauliSum(n, b_random)
    c_identity = float(np.sum(np.abs(b_offdiag.coeffs))) + B_MARGIN
    b_terms = list(b_offdiag.terms) + [(c_identity, "I" * n)]
    return serialize_problem(Pencil(PauliSum(n, a_terms), PauliSum(n, b_terms)))


def dense_side(n: int, terms) -> np.ndarray:
    """Dense matrix of a list of ``{"coeff", "ops"}`` terms, built by index
    arithmetic: the string maps basis state j to phase(j) |j ^ x_mask>."""
    dim = 2**n
    cols = np.arange(dim, dtype=np.int64)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for term in terms:
        x_mask = z_mask = 0
        for ch in term["ops"]:
            x_mask = (x_mask << 1) | (ch in "XY")
            z_mask = (z_mask << 1) | (ch in "ZY")
        n_y = term["ops"].count("Y")
        # Z acts before X in Y = iXZ, so the sign reads the source bit j
        signs = 1.0 - 2.0 * (np.bitwise_count(cols & z_mask) & 1)
        out[cols ^ x_mask, cols] += term["coeff"] * (1j) ** n_y * signs
    return out


@dataclass(frozen=True)
class DenseSpectrum:
    """Ascending generalized eigenvalues of (A, B) and, when asked for, the
    smallest eigenvalue of B."""

    eigenvalues: np.ndarray
    eta1: float | None


def dense_spectrum(problem: dict, with_eta1: bool) -> DenseSpectrum:
    """Generalized spectrum of a term-list problem dict via B = L L^H and
    the standard problem for L^-1 A L^-H."""
    n = problem["n"]
    a = dense_side(n, problem["A"])
    b = dense_side(n, problem["B"])
    if not (a.imag.any() or b.imag.any()):
        a, b = a.real, b.real  # real symmetric: a quarter of the work
    low_inv = np.linalg.inv(np.linalg.cholesky(b))
    mid = low_inv @ a @ low_inv.conj().T
    del a, low_inv
    values = np.linalg.eigvalsh((mid + mid.conj().T) / 2.0)
    eta1 = float(np.linalg.eigvalsh(b)[0]) if with_eta1 else None
    return DenseSpectrum(values, eta1)


def distinct(values: np.ndarray, gap: float = 1e-6) -> np.ndarray:
    """One value (cluster mean) per cluster of eigenvalues closer than gap."""
    values = np.sort(values)
    cuts = np.flatnonzero(np.diff(values) > gap) + 1
    return np.array([c.mean() for c in np.split(values, cuts)])
