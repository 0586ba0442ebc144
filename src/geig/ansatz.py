"""Layered hardware-efficient circuit: per layer, one R_y rotation on every
qubit followed by a fixed CNOT entangler, plus the exact pi-shift derivative
identity dU/dtheta[i][t] = U(theta with pi added at [i][t]) / 2.

``CompiledAnsatz`` is the one circuit simulator: it runs the circuit on raw
amplitude arrays for a whole batch of angle grids at once, and takes the
gradient of any real function of the output by one reverse (adjoint) sweep.
Both sweeps take their rotations from one pair of ``half_angles`` arrays
and apply each with one kernel on whole rows: the gate on qubit q gathers
every amplitude's partner across q's bit from a compiled index, signs it,
and adds it scaled by s to c times the row, which on real rows rounds
exactly as the textbook c a0 - s a1; the reverse sweep negates s.
The reverse sweep buffers each gate's state pair with the gate's qubit bit
moved first, and takes the gradient entries of a whole buffer of gates by
one product and one sum, each entry rounding as a per-gate sum would.
``apply_ansatz`` is its one-state view on a ``StateVector``.

``pi_shifted`` lays out each angle grid with its n L pi-shifted copies as
one batch for ``run``.  Shot mode always takes its gradient from that
batch.  Exact mode (``geig.vqge``) takes it there for small circuits, where
the batch applies the fewest gates (n L per step, against 2 n L - 1 for
the two sweeps), and from the reverse sweep for larger ones, whose work
grows with n L rather than with its square.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .statevector import StateVector

_ENTANGLER_NAMES = ("linear", "ring")
# amplitudes of (phi, lam) pairs that vjp buffers before it takes their
# gradient entries (128 kB of float64); a pair above half of this is read
# in place.  Measured per vjp call, two layers, one BLAS thread, against
# this budget: no buffer took 1.12x at n = 8 with 10 rows and 1.26x with
# 4; 1 << 15 took 0.95-0.97x at n = 8, inside the spread, and 1.08x at
# n = 12 with 4 rows; 1 << 17 took 1.42x at n = 10 with 10 rows and 1.43x
# at n = 12, where copying a pair costs more than the calls it saves
_SWEEP_BLOCK_ENTRIES = 1 << 14


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
    out = compile_ansatz(p.n, entangler).run(p.theta[None], v_in.amps)[0]
    return StateVector(p.n, out, normalized=v_in.normalized)


def half_angles(theta: np.ndarray) -> tuple:
    """cos and sin of theta[r, i, t] / 2 for an angle grid of shape (R, n, L),
    each laid out (L, n, R, 1): entry [t, i] is the column of qubit i's
    rotations in layer t, one per row, contiguous and broadcast against
    rows of shape (R, 2^n)."""
    half = np.divide(theta.transpose(2, 1, 0)[..., None], 2.0, order="C")
    return np.cos(half), np.sin(half)


def _rotate(v: np.ndarray, partner: np.ndarray, sign: np.ndarray, c, s) -> np.ndarray:
    """The rotation [[c, -s], [s, c]] on one qubit of every row of ``v``
    (..., R, 2^n), as a new array: out[j] = c v[j] + s sign[j] v[partner[j]],
    where ``partner`` flips the qubit's bit and ``sign`` is -1 where that
    bit is clear and +1 where it is set.  ``c`` and ``s`` are (R, 1), one
    pair per row; (c, -s) is the inverse rotation.

    On real rows the clear half is c a0 + s (-a1), which rounds exactly as
    c a0 - s a1, and the set half is c a1 + s a0.  On complex rows numpy
    multiplies by c, s and sign as complex numbers with a zero imaginary
    part; only the sign of a zero component can tell that apart from
    rotating the real and imaginary parts alone.
    """
    w = v.take(partner, axis=-1)
    w *= sign
    w *= s
    out = c * v
    out += w
    return out


@cache
def _pi_offsets(n: int, layers: int) -> np.ndarray:
    """(1 + n L, n, L) offsets: pi on angle k of offset 1 + k, layer-major,
    and -0.0, which adds to every angle exactly, everywhere else."""
    k = np.arange(n * layers)
    out = np.full((1 + len(k), n, layers), -0.0)
    out[1 + k, k % n, k // n] = np.pi
    out.setflags(write=False)
    return out


def pi_shifted(theta: np.ndarray) -> np.ndarray:
    """Every angle grid theta[r] of (R, n, L) followed by its n L pi-shifted
    copies, as one batch of shape (R (1 + n L), n, L).  Grid r (1 + n L) is
    theta[r] exactly; grid r (1 + n L) + 1 + k has pi added to qubit k % n of
    layer k // n, and its circuit is 2 dU/dtheta[r, k % n, k // n]."""
    rows, n, layers = theta.shape
    return (theta[:, None] + _pi_offsets(n, layers)).reshape(-1, n, layers)


def cnot_index(n: int, control: int, target: int) -> np.ndarray:
    """CNOT on ``n`` qubits as a gather index (it maps amplitudes ``v`` to
    ``v[index]``): the involution j -> j ^ target_bit wherever control_bit
    is set."""
    index = np.arange(1 << n, dtype=np.int64)
    control_bit = 1 << (n - 1 - control)
    return index ^ np.where(index & control_bit, 1 << (n - 1 - target), 0)


@dataclass(frozen=True)
class CompiledAnsatz:
    """The ansatz on ``n`` qubits for raw arrays: angle grids of shape
    (R, n, L) act on amplitude rows of shape (R, 2^n).

    ``perm`` is one layer's CNOT entangler as a gather index (the layer maps
    row ``v`` to ``v[perm]``) and ``inverse`` undoes it.  Row i of
    ``partners`` maps each basis index to the one across qubit i's bit, and
    row i of ``signs`` is -1 where that bit is clear and +1 where it is set:
    the tables of the Ry kernel on qubit i.
    """

    n: int
    perm: np.ndarray
    inverse: np.ndarray
    partners: np.ndarray
    signs: np.ndarray

    def _rows(self, theta: np.ndarray) -> int:
        """The row count R of an angle grid, which must be (R, n, L)."""
        if theta.ndim != 3 or theta.shape[1] != self.n:
            raise ValueError(f"angle grid of shape {theta.shape} is not (R, {self.n}, L)")
        return theta.shape[0]

    def run(self, theta: np.ndarray, v_in: np.ndarray, angles=None) -> np.ndarray:
        """U(theta[r])|v_in> for every row r, shape (R, 2^n); ``v_in`` has
        shape (2^n,), (1, 2^n) or (R, 2^n).  ``angles`` is
        ``half_angles(theta)`` when the caller has built it already."""
        rows = self._rows(theta)
        if v_in.shape[-1] != 1 << self.n or v_in.ndim == 2 and len(v_in) not in (1, rows):
            raise ValueError(
                f"start of shape {v_in.shape} does not fit {rows} rows of {1 << self.n} amplitudes"
            )
        c, s = half_angles(theta) if angles is None else angles
        # the start on every row, in a float type the kernel scales in place
        v = np.empty((rows, 1 << self.n), np.promote_types(v_in.dtype, np.float64))
        v[...] = v_in
        for layer in zip(c, s):
            for gate in zip(self.partners, self.signs, *layer):
                v = _rotate(v, *gate)
            v = v.take(self.perm, axis=-1)
        return v

    def vjp(self, theta: np.ndarray, psi: np.ndarray, chi: np.ndarray, angles=None) -> np.ndarray:
        """2 Re<d psi/d theta[r, i, t]|chi> for every angle, shape (R, n, L),
        where ``psi`` = run(theta, v_in) and ``chi`` is held fixed, both of
        shape (R, 2^n); ``angles`` is ``half_angles(theta)`` when the caller
        has built it.

        One reverse sweep uncomputes psi and chi gate by gate with the
        inverse rotations Ry(-theta); at each Ry the entry is
        Re<(-iY_i) phi|lam>, with phi the state just after the gate and lam
        the co-state pulled back to the same point (Jones and Gacon,
        arXiv:2009.02823).  No circuit is re-simulated, and the first gate
        is not uncomputed, since nothing reads the result.

        The sweep copies each gate's (phi, lam) into one buffer with that
        gate's qubit bit ahead of the others, which keep their order, so an
        entry's 2^(n-1) terms are one contiguous run in the order of the
        per-gate sum.  Each full buffer, of up to ``_SWEEP_BLOCK_ENTRIES``
        amplitudes, gives the entries of all its gates by one product, one
        subtract and one sum over the last axis.  A pair larger than half
        the buffer is its own block, read in place without the copy.
        """
        rows, layers = self._rows(theta), theta.shape[2]
        if psi.shape != (rows, 1 << self.n) or chi.shape != psi.shape:
            raise ValueError(
                f"psi of shape {psi.shape} and chi of shape {chi.shape} do not fit "
                f"{rows} rows of {1 << self.n} amplitudes"
            )
        c, s = half_angles(theta) if angles is None else angles
        s = -s  # Ry(-theta) undoes Ry(theta)
        w = np.array((psi, chi), np.result_type(psi, chi, np.float64))
        count = self.n * layers
        per_block = min(count, max(1, _SWEEP_BLOCK_ENTRIES // w.size))
        if per_block > 1:
            block = np.empty((2, per_block, rows, 2, w.shape[-1] // 2), dtype=w.dtype)
        sums = np.empty((count, rows))  # in sweep order, the last gate first
        g = 0
        for t in reversed(range(layers)):
            w = w.take(self.inverse, axis=-1)
            for i in reversed(range(self.n)):
                pair = w.reshape(2, rows, 1 << i, 2, -1).swapaxes(2, 3)
                if per_block == 1:
                    _gate_entries(pair[:, None], sums[g : g + 1])
                else:
                    k = g % per_block
                    block[:, k].reshape(pair.shape)[...] = pair
                    if k + 1 == per_block or g + 1 == count:
                        _gate_entries(block[:, : k + 1], sums[g - k : g + 1])
                g += 1
                if g < count:
                    w = _rotate(w, self.partners[i], self.signs[i], c[t, i], s[t, i])
        return sums[::-1].reshape(layers, self.n, rows).transpose(2, 1, 0)


def _gate_entries(pairs: np.ndarray, out: np.ndarray) -> None:
    """Re<(-iY) phi|lam> into ``out`` (gates, R) for the (phi, lam) pairs of
    ``pairs`` (2, gates, R, 2, ...), the gate's qubit bit on axis 3 and its
    other bits after it.  -iY = [[0, -1], [1, 0]] maps (phi_0, phi_1) to
    (-phi_1, phi_0), so the overlap is phi_0* lam_1 - phi_1* lam_0, summed
    over the other bits."""
    phi, lam = pairs
    p = phi.conj() * lam[:, :, ::-1]
    diff = p[:, :, 0] - p[:, :, 1]
    diff.real.sum(axis=tuple(range(2, diff.ndim)), out=out)


def compile_ansatz(n: int, entangler="linear") -> CompiledAnsatz:
    """The ansatz on ``n`` qubits with the entangler resolved into one
    permutation of basis indices per layer."""
    index = np.arange(1 << n, dtype=np.int64)
    perm = index
    for c, tgt in entangler_pairs(n, entangler):
        perm = perm[cnot_index(n, c, tgt)]
    bits = 1 << np.arange(n - 1, -1, -1, dtype=np.int64)[:, None]
    signs = np.where(index & bits, 1.0, -1.0)
    return CompiledAnsatz(n, perm, np.argsort(perm), index ^ bits, signs)


def shift(p: AnsatzParams, t: int, i: int, delta: float) -> AnsatzParams:
    """Copy of ``p`` with ``delta`` added to theta[i][t]."""
    if not 0 <= t < p.L:
        raise IndexError(f"layer index {t} out of range for L={p.L}")
    if not 0 <= i < p.n:
        raise IndexError(f"qubit index {i} out of range for n={p.n}")
    theta = p.theta.copy()
    theta[i, t] += delta
    return AnsatzParams(p.n, p.L, theta)
