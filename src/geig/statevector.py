"""Dense complex statevectors with gates, inner products and expectations.

Amplitudes are indexed so that qubit 0 is the most significant basis-index
bit, i.e. ``|q0 q1 ... q_{n-1}>`` read as a binary number.  States are value
objects: every operation returns a new state and never mutates its inputs.
Unnormalized states are first-class and carry ``normalized=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _check_qubit(q: int, n: int) -> None:
    if not 0 <= q < n:
        raise IndexError(f"qubit index {q} out of range for {n} qubits")


def rotate_y(amps: np.ndarray, q: int, c, s) -> np.ndarray:
    """The real rotation [[c, -s], [s, c]] on qubit ``q`` of every row of a
    raw amplitude array of shape (..., 2^n).

    ``c`` and ``s`` are scalars or broadcast against (..., 1, 1), one pair
    per row; Ry(angle) is c = cos(angle/2), s = sin(angle/2).
    """
    view = amps.reshape(amps.shape[:-1] + (1 << q, 2, -1))
    a0 = view[..., 0, :]
    a1 = view[..., 1, :]
    out = np.empty_like(view)
    out[..., 0, :] = c * a0 - s * a1
    out[..., 1, :] = s * a0 + c * a1
    return out.reshape(amps.shape)


def apply_ry(q: int, angle: float, v: StateVector) -> StateVector:
    """Apply the rotation exp(-i*angle*Y/2) on qubit ``q``.

    The 2x2 matrix is [[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]].
    """
    _check_qubit(q, v.n)
    out = rotate_y(v.amps, q, np.cos(angle / 2.0), np.sin(angle / 2.0))
    return StateVector(v.n, out, normalized=v.normalized)


def apply_cnot(control: int, target: int, v: StateVector) -> StateVector:
    """Apply CNOT: flip ``target`` where ``control`` is 1."""
    if control == target:
        raise ValueError("control and target qubits must differ")
    _check_qubit(control, v.n)
    _check_qubit(target, v.n)
    view = v.amps.reshape((2,) * v.n).copy()
    # slice with control fixed to 1, then flip the target axis of that block
    sel: list = [slice(None)] * v.n
    sel[control] = 1
    block = view[tuple(sel)]
    t_axis = target if target < control else target - 1
    view[tuple(sel)] = np.flip(block, axis=t_axis)
    return StateVector(v.n, view.reshape(-1), normalized=v.normalized)


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


def add_scaled(u: StateVector, c: complex, v: StateVector) -> StateVector:
    """u + c*v, flagged unnormalized."""
    _check_match(u, v)
    return StateVector(u.n, u.amps + c * v.amps, normalized=False)


def scale(v: StateVector, c: complex) -> StateVector:
    """c*v, flagged unnormalized."""
    return StateVector(v.n, c * v.amps, normalized=False)


def normalize(v: StateVector) -> StateVector:
    """Rescale to unit norm."""
    nrm = norm(v)
    if nrm <= 0.0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(v.n, v.amps / nrm, normalized=True)


def fidelity(u: StateVector, v: StateVector) -> float:
    """Squared overlap |<u|v>|^2."""
    return abs(inner(u, v)) ** 2


def expectation(s, v: StateVector) -> float:
    """Real expectation value <v|s|v> of a Hermitian Pauli sum.

    Requires a normalized state; the imaginary part must vanish to 1e-10
    (it does for any Hermitian operator) and is discarded.
    """
    if not v.normalized:
        raise ValueError("expectation requires a normalized state")
    from . import pauli

    val = inner(v, pauli.apply_sum(s, v))
    if abs(val.imag) > 1e-10:
        raise ValueError(
            f"expectation has non-real value {val}; operator is not Hermitian"
        )
    return val.real
