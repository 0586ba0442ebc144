"""Dense complex statevectors with inner products.

Amplitudes are indexed so that qubit 0 is the most significant basis-index
bit, i.e. ``|q0 q1 ... q_{n-1}>`` read as a binary number.  States are value
objects: every operation returns a new state and never mutates its inputs.
Unnormalized states are first-class and carry ``normalized=False``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_NORM_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """A register of ``n`` qubits as 2^n complex amplitudes."""

    n: int
    amps: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        amps = np.array(self.amps, dtype=np.complex128)
        if amps.shape != (2**self.n,):
            raise ValueError(
                f"amplitude array has shape {amps.shape}, expected ({2**self.n},)"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        if self.normalized:
            total = float(np.sum(np.abs(amps) ** 2))
            if abs(total - 1.0) > _NORM_TOL:
                raise ValueError(
                    f"state flagged normalized but sum |amp|^2 = {total:.3e}"
                )


def zero_state(n: int) -> StateVector:
    """The all-zeros computational basis state |0...0>."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n, amps)


def basis_state(n: int, index: int) -> StateVector:
    """The computational basis state with the given index (qubit 0 = MSB)."""
    if not 0 <= index < 2**n:
        raise ValueError(f"basis index {index} out of range for {n} qubits")
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n, amps)


def _check_match(u: StateVector, v: StateVector) -> None:
    if u.n != v.n:
        raise ValueError(f"qubit counts differ: {u.n} vs {v.n}")


def inner(u: StateVector, v: StateVector) -> complex:
    """Sesquilinear inner product <u|v>, conjugate-linear in ``u``."""
    _check_match(u, v)
    return complex(np.vdot(u.amps, v.amps))


def norm(v: StateVector) -> float:
    """Euclidean norm of the amplitude vector."""
    return float(np.linalg.norm(v.amps))


def scale(v: StateVector, c: complex) -> StateVector:
    """c*v, flagged unnormalized."""
    return StateVector(v.n, c * v.amps, normalized=False)


def normalize(v: StateVector) -> StateVector:
    """Rescale to unit norm."""
    nrm = norm(v)
    if nrm <= 0.0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(v.n, v.amps / nrm, normalized=True)
