"""Layered hardware-efficient circuit: per layer, one R_y rotation on every
qubit followed by a fixed CNOT entangler, plus the exact pi-shift derivative
identity dU/dtheta[i][t] = U(theta with pi added at [i][t]) / 2.

``CompiledAnsatz`` is the one circuit simulator: it runs the circuit on raw
amplitude arrays for a whole batch of angle grids at once, and takes the
gradient of any real function of the output by one reverse (adjoint) sweep.
Both sweeps take their rotations from one ``ry_gates`` tensor, the reverse
sweep as its transpose, and apply each with ``apply_ry``: one broadcast
multiply and one add, which rounds exactly as the textbook c a0 - s a1.
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
# gradient entries (128 kB of float64).  Copying a pair into the buffer
# costs more than the calls it saves once a pair holds more than about 8k
# amplitudes (n = 10 with 10 rows or n = 12 with 4 measured 5-20% slower
# than the per-gate sum), so a pair above half of this is read in place
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


def ry_gates(theta: np.ndarray) -> np.ndarray:
    """The rotations Ry(theta[r, i, t]) = [[c, -s], [s, c]], c = cos(theta/2)
    and s = sin(theta/2), as one gate tensor of shape (R, n, L, 1, 2, 2, 1):
    entry [:, i, t] is the ``gate`` argument of ``apply_ry`` for qubit i in
    layer t, and its transpose over the two 2-axes is the inverse rotation."""
    half = theta / 2.0
    gates = np.empty(theta.shape + (1, 2, 2, 1))
    c, s = gates[..., 0, 0, 0, 0], gates[..., 0, 1, 0, 0]
    np.cos(half, out=c)
    np.sin(half, out=s)
    gates[..., 0, 1, 1, 0] = c
    np.negative(s, out=gates[..., 0, 0, 1, 0])
    return gates


def apply_ry(amps: np.ndarray, q: int, gate: np.ndarray) -> np.ndarray:
    """A real 2 x 2 ``gate`` on qubit ``q`` of every row of a raw amplitude
    array of shape (..., 2^n), as a new array.

    ``gate`` has shape (1, 2, 2, 1), or (R, 1, 2, 2, 1) with one matrix per
    row, in which case a single row of amplitudes is spread across all R.
    One broadcast multiply forms every product g[o, k] a_k and one add sums
    the two halves: row o is g[o, 0] a_0 + g[o, 1] a_1.  For Ry that is
    c a_0 + (-s) a_1, which rounds exactly as c a_0 - s a_1.
    """
    view = amps.reshape(amps.shape[:-1] + (1 << q, 1, 2, -1))
    prod = view * gate
    out = prod[..., 0, :] + prod[..., 1, :]
    return out.reshape(out.shape[:-3] + (-1,))


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
    row ``v`` to ``v[perm]``) and ``inverse`` undoes it.
    """

    n: int
    perm: np.ndarray
    inverse: np.ndarray

    def _rows(self, theta: np.ndarray) -> int:
        """The row count R of an angle grid, which must be (R, n, L)."""
        if theta.ndim != 3 or theta.shape[1] != self.n:
            raise ValueError(f"angle grid of shape {theta.shape} is not (R, {self.n}, L)")
        return theta.shape[0]

    def run(self, theta: np.ndarray, v_in: np.ndarray, gates=None) -> np.ndarray:
        """U(theta[r])|v_in> for every row r, shape (R, 2^n); ``v_in`` has
        shape (2^n,), (1, 2^n) or (R, 2^n).  ``gates`` is ``ry_gates(theta)``
        when the caller has built it already."""
        rows = self._rows(theta)
        if v_in.shape[-1] != 1 << self.n or v_in.ndim == 2 and len(v_in) not in (1, rows):
            raise ValueError(
                f"start of shape {v_in.shape} does not fit {rows} rows of {1 << self.n} amplitudes"
            )
        gates = ry_gates(theta) if gates is None else gates
        v = v_in
        for t in range(theta.shape[2]):
            for i in range(self.n):
                v = apply_ry(v, i, gates[:, i, t])
            v = v.take(self.perm, axis=-1)
        return v

    def vjp(self, theta: np.ndarray, psi: np.ndarray, chi: np.ndarray, gates=None) -> np.ndarray:
        """2 Re<d psi/d theta[r, i, t]|chi> for every angle, shape (R, n, L),
        where ``psi`` = run(theta, v_in) and ``chi`` is held fixed, both of
        shape (R, 2^n); ``gates`` is ``ry_gates(theta)`` when the caller has
        built it.

        One reverse sweep uncomputes psi and chi gate by gate with the
        transposed (inverse) rotations; at each Ry the entry is
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
        gates = ry_gates(theta) if gates is None else gates
        inverses = gates.swapaxes(-3, -2)
        w = np.array((psi, chi))
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
                    w = apply_ry(w, i, inverses[:, i, t])
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
