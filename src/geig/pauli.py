"""Pauli-string algebra: representation, dense matrices, sparse action,
and decomposition of Hermitian matrices into real-weighted Pauli sums.

A string is stored as X/Z bitmasks over basis-index space.  Text form "ZX"
means qubit 0 = Z, and qubit 0 is the leftmost tensor factor (most
significant index bit), so mask bit ``n-1-q`` belongs to qubit ``q``.

``compile_sums`` turns a list of sums on n qubits into one table: the
gather index ``table[m] = index ^ x_m`` of each distinct X-mask x_m of the
union of the sums, and one diagonal per sum and mask, ``diags[s, m]``, so
that sum s acts as ``out[i] = sum_m diags[s, m, i] v[i ^ x_m]``.  The
diagonals are float64 unless a mask carries an odd number of Y factors.
``apply_compiled`` applies every sum of a table with one gather of the
rows and one contraction; complex rows on a real table run as their real
and imaginary parts.  ``dense_compiled`` scatters the dense matrix of every
sum of a table, and ``decompose`` reads those per-mask bands back from a
dense matrix.  A ``PauliSum`` is a plain value that keeps no table:
``apply_sum`` and ``dense_matrix`` compile it on each call, and
``geig.pencil`` keeps the one table the solvers read.

``term_gathers`` is the one per-term form: the gather index and phase of
each string of a list, so that ``gather_kets`` takes every P_k|w> by one
gather.  The solvers' per-string actions (the Hadamard-test kets and the
LCU step) all read it.

``overlaps`` is the one bracket: <u|w> for every pair of broadcast rows,
each bitwise equal to ``np.vdot`` of the pair, so a row of a batch rounds
as the same state alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .statevector import StateVector

DEFAULT_DENSE_CAP = 12
DEFAULT_DECOMPOSE_TOL = 1e-10

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
    order fixed by (x_mask, z_mask), so equality is structural.  Each
    coefficient, and each sum of merged ones, must be finite.
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
            if not math.isfinite(coeff):
                raise ValueError(f"coefficient must be finite, got {coeff}")
            key = (string.x_mask, string.z_mask)
            # the first string of each key is kept: equal strings are equal values
            total, first = merged.get(key, (0.0, string))
            total += coeff
            if not math.isfinite(total):
                raise ValueError(f"coefficients of {string.ops!r} sum to {total}")
            merged[key] = total, first
        canonical = tuple(term for _, term in sorted(merged.items()) if term[0] != 0.0)
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

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c:g}*{s.ops}" for c, s in self.terms)


def check_dense_cap(n: int) -> None:
    """Refuse n above ``DEFAULT_DENSE_CAP``, the guard on holding a dense
    2^n x 2^n matrix."""
    if n > DEFAULT_DENSE_CAP:
        raise ValueError(f"{n} qubits exceed the dense cap of {DEFAULT_DENSE_CAP}")


def dense_matrix(p) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a PauliString or PauliSum, scattered from
    its compiled form.  Refuses n above ``DEFAULT_DENSE_CAP`` before
    anything is allocated.
    """
    check_dense_cap(p.n)
    if isinstance(p, PauliString):
        p = PauliSum(p.n, [(1.0, p)])
    return dense_compiled(compile_sums((p,)))[0]


def dense_compiled(compiled: tuple) -> np.ndarray:
    """The dense matrix of every sum of ``compiled = (table, diags)``,
    shape (sums, 2^n, 2^n), by one scatter: each diagonal fills the
    entries (i, i ^ x_mask) of its X-mask; no two masks share an entry."""
    table, diags = compiled
    out = np.zeros(diags.shape[:1] + diags.shape[-1:] * 2, dtype=np.complex128)
    out[:, np.arange(diags.shape[-1]), table] = diags
    return out


def compile_sums(sums: Sequence, names: Sequence[str] | None = None) -> tuple:
    """``(table, diags)`` of a list of sums on the same n qubits.

    ``table`` (masks, 2^n) holds ``index ^ x_mask`` for each distinct X-mask
    of the union of the sums, ascending; ``diags`` (sums, masks, 2^n) holds
    each sum's diagonal on each mask, zero where the sum has no term.  A
    term's signs are read from one parity vector at ``src & z_mask``, src
    the table row, and added in term order, so each diagonal is the one a
    term-by-term complex accumulation gives.  A sum whose terms add past
    the float range on some entry is refused by one ``ValueError`` that
    names it, ``names[k]`` or "sum k", with no ``RuntimeWarning``.
    """
    n = sums[0].n
    index = np.arange(1 << n, dtype=np.int64)
    masks = sorted({p.x_mask for s in sums for p in s.strings})
    row = {x_mask: m for m, x_mask in enumerate(masks)}
    table = index ^ np.array(masks, dtype=np.int64).reshape(-1, 1)
    signs = 1.0 - 2.0 * _parity(index)
    odd = any(p.n_y % 2 for s in sums for p in s.strings)
    diags = np.zeros((len(sums), len(masks), 1 << n), dtype=complex if odd else float)
    for k, s in enumerate(sums):
        with np.errstate(over="ignore"):
            for coeff, p in s.terms:
                # (1j)^n_y is 1, 1j, -1 or -1j: one part of the diagonal, one sign
                m = row[p.x_mask]
                part = diags[k, m].imag if p.n_y % 2 else diags[k, m].real
                term = coeff * signs[table[m] & p.z_mask]
                if p.n_y % 4 < 2:
                    part += term
                else:
                    part -= term
        if not np.isfinite(diags[k]).all():
            name = names[k] if names else f"sum {k}"
            raise ValueError(f"the terms of {name} add past the float range on a basis state")
    return table, diags


# gathered entries (rows x masks x 2^n) above which apply_compiled works a
# batch in blocks of rows: one contraction over a larger block measured up
# to 1.4x slower than blocks of this size (about 1 MB of float64)
_BLOCK_ENTRIES = 1 << 17


def apply_compiled(compiled: tuple, amps: np.ndarray) -> np.ndarray:
    """Every sum of ``compiled = (table, diags)`` applied to every row of a
    raw amplitude array of shape (..., 2^n); the result has shape
    (sums, ..., 2^n).  Rows of another length are refused.

    One gather takes all masks of a block of rows, and one contraction sums
    the products over masks in mask order, as a per-mask loop would.  Real
    rows on a real table stay float64; complex rows on a real table are
    contracted as their real and imaginary parts.
    """
    table, diags = compiled
    if amps.shape[-1] != diags.shape[-1]:
        raise ValueError(
            f"qubit counts differ: operator {diags.shape[-1].bit_length() - 1}, "
            f"amplitudes of length {amps.shape[-1]}"
        )
    if amps.dtype.kind == "c" and diags.dtype.kind != "c":
        parts = _contract(table, diags, np.stack((amps.real, amps.imag)))
        out = np.empty(parts.shape[:1] + parts.shape[2:], dtype=complex)
        out.real = parts[:, 0]
        out.imag = parts[:, 1]
        return out
    return _contract(table, diags, amps)


def _contract(table: np.ndarray, diags: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """sum_m diags[s, m] * amps[..., table[m]] for every sum s, with one
    gather per block of rows; a batch that fits one block is contracted
    whole.  Real products are summed by ``einsum``, in mask order; complex
    ones are formed first and summed by ``sum``, also in mask order, since
    ``einsum`` rounds a complex sum differently."""

    def contract(block: np.ndarray) -> np.ndarray:
        if diags.dtype.kind == "c":
            return (diags[:, None] * block).sum(axis=2)
        return np.einsum("smd,rmd->srd", diags, block)

    rows = amps.reshape(-1, amps.shape[-1])
    step = max(1, _BLOCK_ENTRIES // max(table.size, 1))
    if len(rows) <= step:
        out = contract(rows.take(table, axis=-1))
    else:
        # each gathered block is freed before the next is taken: with two
        # alive at once the allocator returned them to the system and
        # faulted them in again on every call, which tripled the time of a
        # two-block apply
        blocks = [
            contract(rows[lo : lo + step].take(table, axis=-1))
            for lo in range(0, len(rows), step)
        ]
        out = np.concatenate(blocks, axis=1)
    return out.reshape(diags.shape[:1] + amps.shape)


def _parity(x: np.ndarray) -> np.ndarray:
    """Bit parity of each entry of an integer array."""
    x = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        x ^= x >> shift
    return x & 1


def _phase(p: PauliString, src: np.ndarray) -> np.ndarray:
    """(1j)^n_y (-1)^parity(j & z) at each basis index j in ``src``: the
    phase in P|j> = phase(j) |j ^ x>, string by string.  ``term_gathers``,
    ``compile_sums`` and ``decompose`` are tested against this rule."""
    return (1j) ** p.n_y * (1.0 - 2.0 * _parity(src & p.z_mask))


def term_gathers(strings: Sequence, n: int) -> tuple:
    """(src, phase), two (strings, 2^n) arrays with P_k|w> = phase[k] *
    w[src[k]] for the k-th string on n qubits: one ``index ^ x_mask``
    table, one parity pass over ``src & z_mask`` and ``(1j)^n_y`` per row,
    so each row of ``phase`` is ``_phase`` of its string bitwise."""
    index = np.arange(1 << n, dtype=np.int64)
    src = index ^ np.array([p.x_mask for p in strings], dtype=np.int64).reshape(-1, 1)
    z_masks = np.array([p.z_mask for p in strings], dtype=np.int64).reshape(-1, 1)
    powers = np.array([(1j) ** p.n_y for p in strings], dtype=complex).reshape(-1, 1)
    return src, powers * (1.0 - 2.0 * _parity(src & z_masks))


def gather_kets(gathers: tuple, w: np.ndarray) -> np.ndarray:
    """``phase[k] * w[..., src[k]]`` for every row k of ``gathers = (src,
    phase)``, shape (..., rows, 2^n), by one gather.  ``take`` keeps the
    result C-contiguous, so each ket is a unit-stride vector whose products
    round as those of a ket gathered on its own."""
    src, phase = gathers
    return phase * w.take(src, axis=-1)


def overlaps(bras: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """<u|w> for every pair of broadcast rows u of ``bras`` (..., 2^n) and w
    of ``kets`` (..., 2^n), by one stacked (1, 2^n) @ (2^n, 1) product of
    the conjugated bra.  On C-contiguous rows each entry equals
    ``np.vdot(u, w)`` bitwise; a 2-D product of all rows at once does not,
    nor does a strided ket."""
    return (bras.conj()[..., None, :] @ kets[..., :, None])[..., 0, 0]


def apply_sum(s: PauliSum, v: StateVector) -> StateVector:
    """(sum_k c_k P_k)|v> through the compiled form, compiled for this
    call; output flagged unnormalized."""
    if s.n != v.n:
        raise ValueError(f"qubit counts differ: operator {s.n}, state {v.n}")
    return StateVector(v.n, apply_compiled(compile_sums((s,)), v.amps)[0], normalized=False)


def decompose(m: np.ndarray, tol: float = DEFAULT_DECOMPOSE_TOL) -> PauliSum:
    """Expand a Hermitian matrix in the Pauli basis.

    The coefficient of string P is Tr[P m]/2^n (the exact minimizer of the
    Hilbert-Schmidt distance); terms with |coeff| <= tol are dropped, so
    ``tol`` must be finite and >= 0.  Refuses n above ``DEFAULT_DENSE_CAP``.
    The Hermitian check allows an asymmetry of max(tol, 1e-12 s) and the
    non-real check an imaginary part of 1e-10 s, s = max(1, max|m|): both
    grow with the matrix, so rounding at a large scale passes, and neither
    shrinks below its unit-scale value; ``tol`` itself stays absolute.

    The inverse of ``dense_matrix``: one gather reads the band of every
    X-mask, and a Walsh-Hadamard transform of each band, n in-place
    butterflies, gives the coefficients of all its Z-masks at once.  A
    non-real coefficient is an error naming the first such string in
    (x_mask, z_mask) order.
    """
    # NaN fails this comparison, as it would fail the two that use tol below
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if dim != 2**n or dim < 2:
        raise ValueError(f"matrix dimension {dim} is not a power of two >= 2")
    check_dense_cap(n)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) > max(tol, 1e-12 * scale):
        raise ValueError("matrix is not Hermitian within tolerance")

    # row x: the band dense_matrix writes for X-mask x, m[i ^ x, i]
    idx = np.arange(dim, dtype=np.int64)
    coeffs = m[idx ^ idx[:, None], idx] / dim
    # Tr[P m] = (-1j)^|x & z| sum_i (-1)^|i & z| m[i ^ x, i]: one butterfly
    # per qubit over i, with the -1j of a Y where x and z share the qubit
    for h in (1 << k for k in range(n)):
        low, high = np.moveaxis(coeffs.reshape(dim // (2 * h), 2, h, -1, 2, h), 4, 0)
        low[...], high[...] = low + high, low - high
        high[:, 1] *= -1j
    bad = np.abs(coeffs.imag) > 1e-10 * scale
    if bad.any():
        x, z = divmod(int(np.argmax(bad)), dim)
        raise ValueError(
            f"non-real coefficient {coeffs[x, z]} for {PauliString(n, x, z).ops}; "
            "input not Hermitian"
        )
    kept = zip(*np.nonzero(np.abs(coeffs.real) > tol))
    return PauliSum(n, [(coeffs[x, z].real, PauliString(n, int(x), int(z))) for x, z in kept])
