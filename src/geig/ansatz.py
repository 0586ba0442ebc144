"""Layered hardware-efficient circuit: per layer, one R_y rotation on every
qubit followed by a fixed CNOT entangler, plus the exact pi-shift derivative
identity dU/dtheta[i][t] = U(theta with pi added at [i][t]) / 2.

``apply_ansatz`` runs the circuit gate by gate on a ``StateVector``.
``CompiledAnsatz`` runs it on raw amplitude arrays for a whole batch of
angle grids at once, and takes the gradient of any real function of the
output by one reverse (adjoint) sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .statevector import StateVector, apply_cnot, apply_ry, cnot_index, rotate_y, scale

_ENTANGLER_NAMES = ("linear", "ring")


@dataclass(frozen=True)
class AnsatzParams:
    """Rotation-angle grid theta[i][t] for qubit i, layer t (shape n x L)."""

    n: int
    L: int
    theta: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.L < 1:
            raise ValueError(f"need n >= 1 and L >= 1, got n={self.n}, L={self.L}")
        theta = np.array(self.theta, dtype=float)
        if theta.shape != (self.n, self.L):
            raise ValueError(
                f"theta has shape {theta.shape}, expected ({self.n}, {self.L})"
            )
        if not np.all(np.isfinite(theta)):
            raise ValueError("angles must be finite")
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)


def random_params(n: int, L: int, rng) -> AnsatzParams:
    """Angles drawn uniformly from [0, 2*pi); ``rng`` is a seed or Generator."""
    rng = np.random.default_rng(rng)
    return AnsatzParams(n, L, rng.uniform(0.0, 2.0 * np.pi, size=(n, L)))


def entangler_pairs(n: int, entangler="linear") -> tuple:
    """Resolve an entangler name or pair list into CNOT (control, target) pairs.

    "linear" is the chain 0->1, 1->2, ...; "ring" closes the chain; an
    explicit sequence of pairs is used as given.  One qubit entangles nothing.
    """
    if isinstance(entangler, str):
        if entangler == "linear":
            return tuple((i, i + 1) for i in range(n - 1))
        if entangler == "ring":
            if n == 1:
                return ()
            return tuple((i, (i + 1) % n) for i in range(n))
        raise ValueError(
            f"unknown entangler {entangler!r}; expected one of "
            f"{_ENTANGLER_NAMES} or an explicit pair list"
        )
    pairs = []
    for pair in entangler:
        c, t = int(pair[0]), int(pair[1])
        if c == t or not (0 <= c < n and 0 <= t < n):
            raise ValueError(f"invalid entangler pair ({c}, {t}) for {n} qubits")
        pairs.append((c, t))
    return tuple(pairs)


def apply_ansatz(p: AnsatzParams, v_in: StateVector, entangler="linear") -> StateVector:
    """U(theta)|v_in>: for each layer, rotate every qubit then entangle."""
    if p.n != v_in.n:
        raise ValueError(f"qubit counts differ: params {p.n}, state {v_in.n}")
    pairs = entangler_pairs(p.n, entangler)
    v = v_in
    for t in range(p.L):
        for i in range(p.n):
            v = apply_ry(i, p.theta[i, t], v)
        for c, tgt in pairs:
            v = apply_cnot(c, tgt, v)
    return v


@dataclass(frozen=True)
class CompiledAnsatz:
    """The ansatz on ``n`` qubits for raw arrays: angle grids of shape
    (R, n, L) act on amplitude rows of shape (R, 2^n).

    ``perm`` is one layer's CNOT entangler as a gather index (the layer maps
    row ``v`` to ``v[perm]``) and ``inverse`` undoes it.
    """

    n: int
    perm: np.ndarray
    inverse: np.ndarray

    def run(self, theta: np.ndarray, v_in: np.ndarray) -> np.ndarray:
        """U(theta[r])|v_in> for every row r, shape (R, 2^n); ``v_in`` has
        shape (2^n,) or (R, 2^n)."""
        c, s = _half_angles(theta)
        v = np.broadcast_to(v_in, (theta.shape[0], 1 << self.n))
        for t in range(theta.shape[2]):
            for i in range(self.n):
                v = rotate_y(v, i, c[:, i, t], s[:, i, t])
            v = v.take(self.perm, axis=-1)
        return v

    def vjp(self, theta: np.ndarray, psi: np.ndarray, chi: np.ndarray) -> np.ndarray:
        """2 Re<d psi/d theta[r, i, t]|chi> for every angle, shape (R, n, L),
        where ``psi`` = run(theta, v_in) and ``chi`` is held fixed.

        One reverse sweep uncomputes psi and chi gate by gate; at each Ry
        the entry is Re<(-iY_i) phi|lam>, with phi the state just after the
        gate and lam the co-state pulled back to the same point (Jones and
        Gacon, arXiv:2009.02823).  No circuit is re-simulated.
        """
        c, s = _half_angles(theta)
        rows, _, layers = theta.shape
        grad = np.empty(theta.shape)
        w = np.stack((psi, chi))
        for t in reversed(range(layers)):
            w = w.take(self.inverse, axis=-1)
            for i in reversed(range(self.n)):
                # -iY = [[0, -1], [1, 0]] maps (phi_0, phi_1) to (-phi_1, phi_0)
                view = w.reshape(2, rows, 1 << i, 2, -1)
                phi, lam = view[0], view[1]
                overlap = phi[:, :, 0].conj() * lam[:, :, 1] - phi[:, :, 1].conj() * lam[:, :, 0]
                grad[:, i, t] = overlap.real.sum(axis=(1, 2))
                w = rotate_y(w, i, c[:, i, t], -s[:, i, t])
        return grad


def _half_angles(theta: np.ndarray) -> tuple:
    """cos and sin of theta/2, shaped (R, n, L, 1, 1) so that entry [:, i, t]
    broadcasts against one qubit's (R, 2^i, 2^(n-i-1)) halves."""
    half = theta[..., None, None] / 2.0
    return np.cos(half), np.sin(half)


def compile_ansatz(n: int, entangler="linear") -> CompiledAnsatz:
    """The ansatz on ``n`` qubits with the entangler resolved into one
    permutation of basis indices per layer."""
    perm = np.arange(1 << n, dtype=np.int64)
    for c, tgt in entangler_pairs(n, entangler):
        perm = perm[cnot_index(n, c, tgt)]
    return CompiledAnsatz(n, perm, np.argsort(perm))


def shift(p: AnsatzParams, t: int, i: int, delta: float) -> AnsatzParams:
    """Copy of ``p`` with ``delta`` added to theta[i][t]."""
    if not 0 <= t < p.L:
        raise IndexError(f"layer index {t} out of range for L={p.L}")
    if not 0 <= i < p.n:
        raise IndexError(f"qubit index {i} out of range for n={p.n}")
    theta = p.theta.copy()
    theta[i, t] += delta
    return AnsatzParams(p.n, p.L, theta)


def derivative_state(
    p: AnsatzParams, t: int, i: int, v_in: StateVector, entangler="linear"
) -> StateVector:
    """Exact dU/dtheta[i][t] |v_in| as half the pi-shifted circuit output."""
    shifted = apply_ansatz(shift(p, t, i, np.pi), v_in, entangler)
    return scale(shifted, 0.5)
