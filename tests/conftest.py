"""Shared helpers: the two-qubit demonstration pencil, a problem with a
degenerate ground level, the benchmark's
seeded pencils and summary gates, random positive-definite pencil
generators and the dense-cap refusal check used across the test
modules, and verbatim copies of ``pauli.apply_string``,
``vqge.optimize``, ``fqge.line_search`` and ``fqge.residual``, which the
package no longer exports, as the one-string, one-restart and one-state
references that several modules compare against."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from geig.ansatz import AnsatzParams
from geig.fqge import _line_search, _residual
from geig.pauli import PauliString, PauliSum, decompose, gather_kets, term_gathers
from geig.pencil import rayleigh_quotient
from geig.statevector import StateVector, normalize
from geig.vqge import OptConfig, OptTrace, Pencil, _descend


def _bench_module(name: str):
    """``bench/<name>.py`` imported under its own name without putting
    ``bench/`` on the path."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


# the seeded pencils and numpy spectrum, and the gates on their summaries
# (``workloads`` imports ``problems`` by name)
BENCH_PROBLEMS = _bench_module("problems")
BENCH_WORKLOADS = _bench_module("workloads")


# 1*II + 0.4*ZI + 0.4*IZ + 0.2*XX against 1*II + 0.3*ZI + 0.4*IZ + 0.2*ZZ
A_TERMS = [(1.0, "II"), (0.4, "ZI"), (0.4, "IZ"), (0.2, "XX")]
B_TERMS = [(1.0, "II"), (0.3, "ZI"), (0.4, "IZ"), (0.2, "ZZ")]

DENSE_A = np.array(
    [
        [1.8, 0.0, 0.0, 0.2],
        [0.0, 1.0, 0.2, 0.0],
        [0.0, 0.2, 1.0, 0.0],
        [0.2, 0.0, 0.0, 0.2],
    ]
)
DENSE_B = np.diag([1.9, 0.7, 0.9, 0.5])

# block determinants of the pencil: {|00>,|11>} and {|01>,|10>}
BLOCK_QUADS = [(0.95, -1.28, 0.32), (0.63, -1.6, 0.96)]


# ZI + 0.3 XI against II + 0.2 ZI: the second qubit is free, so every level
# is doubly degenerate
DEGENERATE_GROUND = {
    "n": 2,
    "A": [{"coeff": 1.0, "ops": "ZI"}, {"coeff": 0.3, "ops": "XI"}],
    "B": [{"coeff": 1.0, "ops": "II"}, {"coeff": 0.2, "ops": "ZI"}],
}


def two_qubit_pencil() -> Pencil:
    return Pencil(PauliSum(2, A_TERMS), PauliSum(2, B_TERMS))


def quad_roots(a, b, c):
    disc = np.sqrt(b * b - 4 * a * c)
    return sorted([(-b - disc) / (2 * a), (-b + disc) / (2 * a)])


def block_eigenvalues():
    """All four eigenvalues from the two 2x2 block quadratics, ascending."""
    vals = []
    for a, b, c in BLOCK_QUADS:
        vals.extend(quad_roots(a, b, c))
    return sorted(vals)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_pd(rng, dim, shift=0.5):
    c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return c @ c.conj().T / dim + shift * np.eye(dim)


def random_pencil(rng, n):
    """Random Hermitian A against a well-conditioned positive definite B."""
    dim = 2**n
    a = random_hermitian(rng, dim)
    b = random_pd(rng, dim)
    return Pencil(decompose(a), decompose(b)), a, b


def random_state(rng, n) -> StateVector:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return StateVector(n, v / np.linalg.norm(v))


def refused_without_allocating(call, match):
    """Run ``call``, which must raise ValueError matching ``match``, and
    return the peak bytes it allocated on the way (numpy allocations are
    traced too)."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def apply_string(p: PauliString, v: StateVector) -> StateVector:
    """P|v>; norm-preserving (Pauli strings are unitary)."""
    if p.n != v.n:
        raise ValueError(f"qubit counts differ: operator {p.n}, state {v.n}")
    amps = gather_kets(term_gathers((p,), v.n), v.amps)[0]
    return StateVector(v.n, amps, normalized=v.normalized)


def optimize(
    loss_fn: Callable[[AnsatzParams], float],
    grad_fn: Callable[[AnsatzParams], np.ndarray],
    p0: AnsatzParams,
    config: OptConfig = OptConfig(),
) -> OptTrace:
    """Adam (or plain gradient descent) on the given loss, at its own
    scale (exponent 0); records every step and reports the first best
    iterate seen over the whole run."""

    def value_and_grad(theta: np.ndarray) -> tuple:
        params = AnsatzParams(p0.n, p0.L, theta[0])
        value = float(loss_fn(params))
        if not np.isfinite(value):
            return np.array([value]), None
        return np.array([value]), np.asarray(grad_fn(params), dtype=float)[None]

    return _descend(value_and_grad, p0.theta[None], config, 0)[0]


def residual(state: StateVector, pencil) -> float:
    """Relative residual ||(A - F B)psi|| / (||A psi|| + |F| ||B psi||),
    bounded in [0, 1]."""
    a_psi, b_psi, a, b = pencil.apply(state.amps)
    return _residual(a_psi, b_psi, rayleigh_quotient(a, b, 0))[2]


def line_search(state: StateVector, direction: StateVector, pencil):
    """Exact minimizer of the Rayleigh quotient over span{psi, direction}.

    Solves the 2x2 projected pencil; returns (delta, predicted) where
    psi + delta*direction attains the predicted quotient.  A near-singular
    leading component caps |delta| at 1e12 with a warning.
    """
    psi = (state if state.normalized else normalize(state)).amps
    a_psi, b_psi, a, b = applied = pencil.apply(psi)
    scale = _residual(a_psi, b_psi, rayleigh_quotient(a, b, 0))[1]
    return _line_search(psi, direction.amps, applied, scale, pencil)[:2]
