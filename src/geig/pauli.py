"""Pauli-string algebra: representation, dense matrices, sparse action,
and decomposition of Hermitian matrices into real-weighted Pauli sums.

A string is stored as X/Z bitmasks over basis-index space.  Text form "ZX"
means qubit 0 = Z, and qubit 0 is the leftmost tensor factor (most
significant index bit), so mask bit ``n-1-q`` belongs to qubit ``q``.

A sum is compiled on its first application into one diagonal vector per
distinct X-mask, so that it acts as ``out[i] = sum_x diag_x[i] v[i ^ x]``.
The compiled form is cached on the instance and costs 2^n floats per
distinct mask (complex only where a mask carries an odd number of Y
factors).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence

import numpy as np

from .statevector import StateVector

DEFAULT_DENSE_CAP = 12
DEFAULT_DECOMPOSE_TOL = 1e-10

_SINGLE = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


@dataclass(frozen=True, slots=True)
class PauliString:
    """A tensor product of single-qubit Pauli operators.

    ``x_mask`` and ``z_mask`` hold the X- and Z-components in index space
    (bit ``n-1-q`` for qubit ``q``); Y has both bits set.
    """

    n: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        top = 1 << self.n
        if not (0 <= self.x_mask < top and 0 <= self.z_mask < top):
            raise ValueError("bitmask out of range for qubit count")

    @classmethod
    def from_ops(cls, ops: str) -> "PauliString":
        """Build from text like "IZXY" (leftmost character = qubit 0)."""
        if not ops:
            raise ValueError("empty Pauli string")
        n = len(ops)
        x_mask = 0
        z_mask = 0
        for q, ch in enumerate(ops):
            bit = 1 << (n - 1 - q)
            if ch == "I":
                pass
            elif ch == "X":
                x_mask |= bit
            elif ch == "Y":
                x_mask |= bit
                z_mask |= bit
            elif ch == "Z":
                z_mask |= bit
            else:
                raise ValueError(
                    f"invalid Pauli character {ch!r} (expected one of I, X, Y, Z)"
                )
        return cls(n, x_mask, z_mask)

    @property
    def ops(self) -> str:
        """Text form, leftmost character = qubit 0."""
        chars = []
        for q in range(self.n):
            bit = 1 << (self.n - 1 - q)
            x = bool(self.x_mask & bit)
            z = bool(self.z_mask & bit)
            chars.append("Y" if x and z else "X" if x else "Z" if z else "I")
        return "".join(chars)

    @property
    def n_y(self) -> int:
        """Number of Y factors."""
        return int(self.x_mask & self.z_mask).bit_count()

    def __str__(self) -> str:
        return self.ops


@dataclass(frozen=True)
class PauliSum:
    """A real-weighted (hence Hermitian) sum of distinct Pauli strings.

    Terms are canonicalized: duplicates merged, exact zeros dropped,
    order fixed by (x_mask, z_mask), so equality is structural.
    """

    n: int
    terms: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        merged: dict = {}
        for item in self.terms:
            coeff, string = item
            if isinstance(string, str):
                string = PauliString.from_ops(string)
            if string.n != self.n:
                raise ValueError(
                    f"term {string.ops!r} has {string.n} qubits, sum has {self.n}"
                )
            if isinstance(coeff, complex) or isinstance(coeff, np.complexfloating):
                if abs(complex(coeff).imag) != 0.0:
                    raise ValueError(f"coefficients must be real, got {coeff}")
                coeff = complex(coeff).real
            coeff = float(coeff)
            if not np.isfinite(coeff):
                raise ValueError(f"coefficient must be finite, got {coeff}")
            key = (string.x_mask, string.z_mask)
            merged[key] = merged.get(key, 0.0) + coeff
        canonical = tuple(
            (c, PauliString(self.n, x, z))
            for (x, z), c in sorted(merged.items())
            if c != 0.0
        )
        object.__setattr__(self, "terms", canonical)

    @classmethod
    def identity(cls, n: int, coeff: float = 1.0) -> "PauliSum":
        return cls(n, [(coeff, "I" * n)])

    @property
    def coeffs(self) -> np.ndarray:
        return np.array([c for c, _ in self.terms], dtype=float)

    @property
    def strings(self) -> tuple:
        return tuple(s for _, s in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @cached_property
    def _action(self) -> tuple:
        """(index, ((x_mask, diag), ...)): the compiled action of the sum,
        built on first use.  A diagonal is stored as float64 when its
        imaginary part is zero, as for every term with an even number of Y
        factors."""
        index = np.arange(2**self.n, dtype=np.int64)
        diags: dict = {}
        for coeff, string in self.terms:
            # P|j> = phase(j) |j ^ x>, read at i = j ^ x
            term = coeff * _phase(string, index ^ string.x_mask)
            diags[string.x_mask] = diags.get(string.x_mask, 0.0) + term
        compiled = []
        for x_mask, diag in sorted(diags.items()):
            if not diag.imag.any():
                diag = diag.real.copy()
            compiled.append((x_mask, diag))
        return index, tuple(compiled)

    @cached_property
    def _gathers(self) -> tuple:
        """(src, phase) per term, with P_k|w> = phase * w[src]: the operands
        ``apply_string`` uses, built on first use by ``term_kets`` only."""
        index = np.arange(2**self.n, dtype=np.int64)
        gathers = []
        for _, string in self.terms:
            src = index ^ string.x_mask
            gathers.append((src, _phase(string, src)))
        return tuple(gathers)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c:g}*{s.ops}" for c, s in self.terms)


def dense_matrix(p, max_qubits: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a PauliString or PauliSum."""
    if p.n > max_qubits:
        raise ValueError(
            f"dense matrix for {p.n} qubits exceeds the cap of {max_qubits}"
        )
    if isinstance(p, PauliString):
        return reduce(np.kron, (_SINGLE[ch] for ch in p.ops))
    out = np.zeros((2**p.n, 2**p.n), dtype=np.complex128)
    for coeff, string in p.terms:
        out += coeff * dense_matrix(string, max_qubits=max_qubits)
    return out


def _parity(x: np.ndarray) -> np.ndarray:
    """Bit parity of each entry of an integer array."""
    x = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> shift
    return x & 1


def _phase(p: PauliString, src: np.ndarray) -> np.ndarray:
    """(1j)^n_y (-1)^parity(j & z) at each basis index j in ``src``: the
    phase in P|j> = phase(j) |j ^ x>."""
    return (1j) ** p.n_y * (1.0 - 2.0 * _parity(src & p.z_mask))


def _string_action(p: PauliString, amps: np.ndarray) -> np.ndarray:
    """Amplitudes of P|v> for a basis-index-space masked string."""
    src = np.arange(amps.size, dtype=np.int64) ^ p.x_mask
    return _phase(p, src) * amps[src]


def apply_string(p: PauliString, v: StateVector) -> StateVector:
    """P|v>; norm-preserving (Pauli strings are unitary)."""
    if p.n != v.n:
        raise ValueError(f"qubit counts differ: operator {p.n}, state {v.n}")
    return StateVector(v.n, _string_action(p, v.amps), normalized=v.normalized)


def apply_sum_array(s: PauliSum, amps: np.ndarray) -> np.ndarray:
    """(sum_k c_k P_k) applied to every row of a raw amplitude array of
    shape (..., 2^n), through the compiled per-X-mask form."""
    if amps.shape[-1] != 1 << s.n:
        raise ValueError(
            f"qubit counts differ: operator {s.n}, amplitudes of length {amps.shape[-1]}"
        )
    index, compiled = s._action
    out = np.zeros_like(amps)
    for x_mask, diag in compiled:
        out += diag * (amps.take(index ^ x_mask, axis=-1) if x_mask else amps)
    return out


def term_kets(s: PauliSum, w: np.ndarray) -> list:
    """P_k|w> for every term P_k of ``s``, in term order, as the raw
    amplitudes ``phase * w[src]`` that ``apply_string`` computes."""
    return [phase * w[src] for src, phase in s._gathers]


def term_overlaps(s: PauliSum, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<u|P_k|w> for every term P_k of ``s``, in term order, from raw
    amplitude vectors; each is ``np.vdot`` of ``u`` with its ``term_kets``
    entry, so it equals ``inner(u, apply_string(P_k, w))`` bitwise."""
    return np.array([np.vdot(u, ket) for ket in term_kets(s, w)], dtype=complex)


def apply_sum(s: PauliSum, v: StateVector) -> StateVector:
    """(sum_k c_k P_k)|v> through the compiled per-X-mask form; output
    flagged unnormalized."""
    if s.n != v.n:
        raise ValueError(f"qubit counts differ: operator {s.n}, state {v.n}")
    return StateVector(v.n, apply_sum_array(s, v.amps), normalized=False)


def decompose(
    m: np.ndarray,
    tol: float = DEFAULT_DECOMPOSE_TOL,
    max_qubits: int = DEFAULT_DENSE_CAP,
) -> PauliSum:
    """Expand a Hermitian matrix in the Pauli basis.

    The coefficient of string P is Tr[P m]/2^n (the exact minimizer of the
    Hilbert-Schmidt distance); terms with |coeff| <= tol are dropped.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if dim != 2**n or dim < 2:
        raise ValueError(f"matrix dimension {dim} is not a power of two >= 2")
    if n > max_qubits:
        raise ValueError(f"decompose on {n} qubits exceeds the cap of {max_qubits}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    if np.max(np.abs(m - m.conj().T)) > max(tol, 1e-12):
        raise ValueError("matrix is not Hermitian within tolerance")

    idx = np.arange(dim, dtype=np.int64)
    terms = []
    for x_mask in range(dim):
        src = idx ^ x_mask
        col = m[src, idx]
        for z_mask in range(dim):
            p = PauliString(n, x_mask, z_mask)
            # Tr[P m] = sum_i phase(i^x) m[i^x, i] with P|j> = phase(j)|j^x>
            tr = np.sum(_phase(p, src) * col)
            coeff = tr / dim
            if abs(coeff.imag) > 1e-10:
                raise ValueError(
                    f"non-real coefficient {coeff} for {p.ops}; input not Hermitian"
                )
            if abs(coeff.real) > tol:
                terms.append((coeff.real, p))
    return PauliSum(n, terms)
