"""Variational solver for Pauli-sum pencils: Rayleigh-quotient and deflated
losses with exact gradients, a from-scratch Adam loop, and the
min / max / deflate pipeline that recovers the full spectrum.

In exact mode a loss and its gradient come from one fused pass on raw
arrays for a whole batch of angle grids at once; ``loss_f``, ``loss_fj``,
``grad_f`` and ``grad_fj`` are that pass at one grid.  A small
circuit, whose row and n L pi-shifted rows hold at most
``_SHIFT_ROW_ENTRIES`` amplitudes, runs every grid with its pi-shifted grids
as one circuit batch, and each gradient entry is one overlap of a shifted
state with the co-state: n L gate applications per step, the fewest where
the cost of a numpy call dominates.  A larger circuit takes a forward sweep
and one adjoint (reverse) sweep, both on one tensor of Ry gates, whose work
grows with n L rather than with its square.  ``solve_spectrum`` runs all
restarts of a level as one batch, and the min and max levels as one batch
with a sign per row.  The solver reads the problem through ``geig.pencil``:
the pencil's one compiled table, the <B> check and the quotient; the exact
pass runs in float64 when that table and the states are real.

Shot mode is ``solve_spectrum`` with ``SolveConfig.shots > 0``: every
expectation is a sampled Hadamard test and gradients use the pi-shift
rule.  The restarts of a level run one after another on the level's
sampling stream, but restart k of the min and max levels descends as one
batch of two rows, each row drawing from its own level's stream.  Per
step, one circuit batch gives every row's psi and pi-shifted states, one
gather the Pauli kets, one stacked product each family of overlaps, and
one sampler call per row all the draws the row's loss and gradient need.
Weighted sums and gradient entries run on arrays in the scalar loop's
order of operations, so each row rounds and draws as the term-by-term
evaluation of its level alone does.

Both modes run on ``Pencil.unit``, whose losses and gradients are the
pencil's times 2^-e: the descent scales its two constants that carry
scale with them, so the angles are the pencil's own, and the losses,
gradient norms, eigenvalues and B-normalized states are scaled back."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .ansatz import (
    AnsatzParams,
    apply_ansatz,
    compile_ansatz,
    entangler_pairs,
    pi_shifted,
    random_params,
    ry_gates,
)
from .measurement import sample_overlaps
from .pauli import gather_kets, overlaps, term_gathers
from .pencil import Pencil, check_b, check_int, rayleigh_quotient
from .statevector import StateVector, norm, scale, zero_state

# gathered kets (rows x B terms x 2^n) above which shot mode takes the
# record overlaps in blocks of rows, so that a large circuit batch never
# holds every row's kets at once (about 2 MB of complex128)
_KET_BLOCK_ENTRIES = 1 << 17
# amplitudes per row, (1 + n L) 2^n, up to which an exact gradient comes
# from theta and its n L pi-shifted grids run as one batch rather than from
# the reverse sweep.  Measured per call on batches of 5 and 10 rows: the
# batch took 0.69-0.92 of the sweep's time up to n = 3 at two layers (56)
# and n = 2 at six (52, 0.84 and 1.16), 0.95-1.72 at 60 and 64, and
# 0.97-1.25 at n = 4 with two layers (144)
_SHIFT_ROW_ENTRIES = 56
# Adam's moment decays and denominator guard (Kingma & Ba 2015 defaults)
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class DeflationRecord:
    """One previously found eigenpair used as a deflation penalty.

    ``state`` may carry any nonzero scaling; overlaps are normalized
    internally.
    """

    eigenvalue: float
    gamma: float
    state: StateVector


@dataclass(frozen=True)
class OptTrace:
    """One descent's log, one entry per step (S = iters + 1 steps): the
    losses (S,), gradient norms (S,) and angle grids (S, n, L), with the
    first best iterate over the run."""

    losses: np.ndarray
    grad_norms: np.ndarray
    thetas: np.ndarray
    best_value: float
    best_params: AnsatzParams


@dataclass(frozen=True)
class OptConfig:
    lr: float = 0.1
    iters: int = 200
    method: str = "adam"

    def __post_init__(self):
        check_int("iters", self.iters, 1)
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.method not in ("adam", "gd"):
            raise ValueError(f"unknown method {self.method!r} (expected 'adam' or 'gd')")


@dataclass(frozen=True)
class SolveConfig:
    layers: int = 2
    restarts: int = 5
    seed: int = 0
    entangler: object = "linear"
    opt: OptConfig = field(default_factory=OptConfig)
    shots: int = 0

    def __post_init__(self):
        check_int("layers", self.layers, 1)
        check_int("restarts", self.restarts, 1)
        check_int("shots", self.shots, 0)
        check_int("seed", self.seed, 0)
        if isinstance(self.entangler, str):
            # a name resolves without the qubit count; a pair list needs it
            entangler_pairs(1, self.entangler)


@dataclass(frozen=True)
class SpectrumLevel:
    """One recovered eigenpair: value, circuit parameters, B-normalized
    state, the objective that produced it, and per-restart traces."""

    eigenvalue: float
    params: AnsatzParams
    state: StateVector
    objective: str
    traces: tuple
    best_restart: int


def _weighted_sums(estimates: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k c_k z_k over the last axis of ``estimates`` (..., T), for
    coefficients (T,), or one sum per group g for a (G, T) matrix against
    estimates (..., G, T).  The real and imaginary parts are scaled by the
    coefficients and summed by one ``np.add.accumulate`` in term order from
    a leading zero, which rounds as the scalar loop ``total += c * z`` from
    zero does; a pairwise ``sum``, ``einsum`` or ``@`` does not.  Zero
    coefficients over zero estimates before a group's terms add +0 to the
    leading zero, so a group left-padded that way sums as it would alone."""
    terms = estimates.view(np.float64).reshape(estimates.shape + (2,))
    parts = np.zeros(terms.shape[:-2] + (terms.shape[-2] + 1, 2))
    np.multiply(terms, coeffs[..., None], out=parts[..., 1:, :])
    total = np.add.accumulate(parts, axis=-2)[..., -1, :]
    return np.ascontiguousarray(total).view(np.complex128)[..., 0]


def _penalties(pencil: Pencil, records: Sequence[DeflationRecord], real: bool = False) -> list:
    """(gamma, B x, <x|B|x>) per deflation record on ``pencil.unit``, x
    the record's raw amplitudes, or their real part with ``real``, and
    gamma the record's times 2^-e, the unit pencil's."""
    unit, e, eb = pencil.unit
    out = []
    for rec in records:
        _, bx, _, m = unit.apply(rec.state.amps.real if real else rec.state.amps)
        out.append((np.ldexp(rec.gamma, -e), bx, check_b(m, eb)))
    return out


def _psi_and_gradient(circuit, theta: np.ndarray, start: np.ndarray) -> tuple:
    """psi = U(theta[r]) start for every row, shape (R, 2^n), and the
    function chi -> 2 Re<d psi/d theta[r, i, t]|chi>, shape (R, n, L), for
    co-states chi (R, 2^n).

    While a row's circuits hold at most ``_SHIFT_ROW_ENTRIES`` amplitudes,
    theta and its pi-shifted grids run as one batch: psi is a contiguous
    copy of each row's first state, bitwise that of theta alone, and the
    entries are Re<U(theta + pi e_k) start|chi> by one ``overlaps`` call
    (dU/dtheta_k = U(theta + pi e_k)/2, Crooks, arXiv:1905.13311).  Above
    the bound the entries come from one reverse sweep, ``CompiledAnsatz.vjp``.
    The bound reads no row count, so a row rounds in any batch as it does
    alone.
    """
    rows, n, layers = theta.shape
    if (1 + n * layers) << n <= _SHIFT_ROW_ENTRIES:
        states = circuit.run(pi_shifted(theta), start).reshape(rows, 1 + n * layers, -1)

        def gradient(chi: np.ndarray) -> np.ndarray:
            entries = overlaps(states[:, 1:], chi[:, None]).real
            return entries.reshape(rows, layers, n).transpose(0, 2, 1)

        return np.ascontiguousarray(states[:, 0]), gradient
    gates = ry_gates(theta)
    psi = circuit.run(theta, start, gates)
    return psi, lambda chi: circuit.vjp(theta, psi, chi, gates)


def _exact_objective(
    pencil: Pencil,
    records: Sequence[DeflationRecord],
    v_in: StateVector,
    entangler="linear",
    sign=1.0,
) -> Callable:
    """The exact deflated loss ``sign * F_j`` of ``pencil.unit``, 2^-e
    times the pencil's, as a batched function ``theta (R, n, L) ->
    (values (R,), grads (R, n, L))``, with one ``sign`` for every row or an
    (R,) array of them (+1 or -1, so that rows minimizing and rows
    maximizing F share a batch).

    The circuit pass gives psi, hence A psi, B psi, F = a/b and each
    penalty gamma |t|^2 / (m b) with t = <Bx|psi> and m = <x|B|x>; Bx and m
    are computed here, once per objective.  The gradient is 2 Re<d psi|chi> for
    the co-state

        chi = (A psi - F B psi)/b + sum_x gamma/(m b) (t Bx - |t|^2/b B psi),

    taken by ``_psi_and_gradient``: from the pi-shifted batch of a small
    circuit, else by one adjoint sweep.  The records are stacked:
    one ``overlaps`` call takes every record's t, one set of array
    operations every penalty and co-state term, and the terms are added to
    F and chi one record at a time, in record order, as a loop over the
    records adds them.  The ansatz is real, so when
    the pencil is real and neither the input state nor a record has an
    imaginary part, every row (psi, A psi, B psi, Bx, chi) is float64.
    """
    circuit = compile_ansatz(pencil.n, entangler)
    unit, _, eb = pencil.unit
    real = unit.real and not any(v.amps.imag.any() for v in (v_in, *(r.state for r in records)))
    penalties = _penalties(pencil, records, real)
    if penalties:
        # the records stacked: gamma (X, 1), Bx (X, 1, 2^n) and m (X, 1)
        gammas, bxs, ms = (np.array(part)[:, None] for part in zip(*penalties))
        scales = (gammas / ms)[..., None]
    start = v_in.amps.real if real else v_in.amps

    def value_and_grad(theta: np.ndarray) -> tuple:
        psi, gradient = _psi_and_gradient(circuit, theta, start)
        a_psi, b_psi, a, b = unit.apply(psi)
        value = f = rayleigh_quotient(a, b, eb)
        chi = a_psi - f[:, None] * b_psi
        if penalties:
            t = overlaps(bxs, psi)
            t_sq = np.abs(t) ** 2
            # one add per record: for up to three records these beat one
            # np.add.accumulate over the concatenated terms
            for term in gammas * t_sq / (ms * b):
                value = value + term
            for term in scales * (t[..., None] * bxs - (t_sq / b)[..., None] * b_psi):
                chi += term
        value = value * sign
        chi *= (sign / b)[:, None]
        return value, gradient(chi)

    return value_and_grad


def _shot_objective(
    pencil: Pencil, records: Sequence, v_in: StateVector, entangler, sign, shots: int, rngs
) -> Callable:
    """The deflated loss ``sign * F_j`` of ``pencil.unit``, 2^-e times the
    pencil's, from Hadamard tests, with its gradient by the pi-shift rule,
    as a batched function
    ``theta (R, n, L) -> (values (R,), grads (R, n, L))``, with one
    ``sign`` for every row or an (R,) array of them and one generator per
    row in ``rngs``: levels with the same records share a batch while each
    row draws from its own stream.

    One circuit batch holds, per row, psi and, layer-major, each circuit
    with pi added to one angle.  Every state phi of a row gives the exact
    overlaps <phi|A_k|psi>, <phi|B_k|psi> and, per record, <x|B_k|phi> for
    the unit vector x.  One ``term_gathers`` table of the strings of A then
    B is built per objective, and ``gather_kets`` reads it: one gather
    takes the A and B kets of every row's psi, one the B kets (the table's
    tail rows) of every state (in blocks of states above
    ``_KET_BLOCK_ENTRIES``), and each family of overlaps is one stacked
    product.  One sampler call per row, on the row's generator, draws psi
    for the loss and then every state of the row afresh for the gradient,
    as two calls would; ``shots == 0`` keeps the overlaps exact.  The A, B
    and record sums of every draw are groups of one accumulation in term
    order, and the values and gradient entries are (R, ...) arrays in the
    scalar rule's order of operations, so each row rounds and draws as a
    term-by-term loop on its own.  An error raised in a batch (a <B> that
    is not positive) may report a value from any row.  On the unit pencil a
    sampled <B> is at most the sum of B's |coefficients|, below 2 4^n, so
    no square or gradient entry overflows.
    """
    circuit = compile_ansatz(pencil.n, entangler)
    unit, _, eb = pencil.unit
    n_x = len(records)
    gathers = term_gathers(unit.A.strings + unit.B.strings, unit.n)
    b_gathers = tuple(part[len(unit.A) :] for part in gathers)
    penalties = [(gamma, m) for gamma, _, m in _penalties(pencil, records)]
    scales = np.array([gamma / m for gamma, m in penalties])
    norms = np.array([norm(rec.state) for rec in records])
    units = np.array([rec.state.amps / x_norm for rec, x_norm in zip(records, norms)])
    step = max(1, _KET_BLOCK_ENTRIES // (max(len(unit.B), 1) << unit.n))  # states per block
    signs = np.asarray(sign, dtype=float).reshape(-1, 1, 1)
    # each group (the A sum, the B sum, each record's B sum) left-padded to
    # one width by zero coefficients over the zero column appended last
    groups = [unit.A.coeffs] + [unit.B.coeffs] * (1 + n_x)
    width = max(map(len, groups))
    columns = np.full((len(groups), width), sum(map(len, groups)))
    coeffs = np.zeros((len(groups), width))
    first = 0
    for g, c in enumerate(groups):
        columns[g, width - len(c) :] = np.arange(first, first + len(c))
        coeffs[g, width - len(c) :] = c
        first += len(c)

    def value_and_grad(theta: np.ndarray) -> tuple:
        rows, n, layers = theta.shape
        per_row = 1 + n * layers
        states = circuit.run(pi_shifted(theta), v_in.amps)
        kets = gather_kets(gathers, states[::per_row])
        exact = overlaps(states.reshape(rows, per_row, 1, -1), kets[:, None])
        if n_x:
            at_x = [
                overlaps(units[:, None], gather_kets(b_gathers, states[lo : lo + step])[:, None])
                for lo in range(0, len(states), step)
            ]
            exact = np.concatenate((exact, np.concatenate(at_x).reshape(rows, per_row, -1)), -1)
        # psi drawn for the loss, then psi and every shifted state for the gradient
        exact = np.concatenate((exact[:, :1], exact), axis=1)
        est = np.zeros(exact.shape[:-1] + (exact.shape[-1] + 1,), dtype=np.complex128)
        for row_est, row_exact, rng in zip(est, exact, rngs, strict=True):
            row_est[:, :-1] = sample_overlaps(row_exact, shots, rng)
        sums = _weighted_sums(est.take(columns, axis=-1), coeffs)
        a, b, t = sums[..., 0].real, sums[..., 1].real, sums[..., 2:] * norms
        values = rayleigh_quotient(a[:, 0], b[:, 0], eb)
        if n_x:
            for (gamma, m), t_sq in zip(penalties, _abs_sq(t[:, 0]).T):
                values += gamma * t_sq / (m * b[:, 0])
        values *= signs[:, 0, 0]
        a0, b0, t0 = a[:, 1, None], b[:, 1, None], t[:, 1, None]
        check_b(b0, eb)
        b0_sq = np.array([[b_row**2] for b_row in b0.ravel().tolist()])
        da, db, t_plus = a[:, 2:], b[:, 2:], t[:, 2:]
        entries = (da * b0 - a0 * db) / b0_sq
        if n_x:
            # Re(conj(t) t_plus) in real parts, as the scalar product rounds it
            dt2 = t0.real * t_plus.real - (-t0.imag) * t_plus.imag
            t_sq = _abs_sq(t0)
            terms = scales * (dt2 * b0[..., None] - t_sq * db[..., None])
            terms /= b0_sq[..., None]
            parts = np.concatenate((entries[..., None], terms), axis=-1)
            entries = np.add.accumulate(parts, axis=-1)[..., -1]
        grads = signs * entries.reshape(rows, layers, n).transpose(0, 2, 1).copy()
        return values, grads

    return value_and_grad


def _abs_sq(t: np.ndarray) -> np.ndarray:
    """|z|**2 of every entry, as Python's ``abs(z) ** 2`` rounds it."""
    return np.array([abs(z) ** 2 for z in t.ravel().tolist()]).reshape(t.shape)


def _at(p: AnsatzParams, pencil: Pencil, records, v_in, entangler) -> tuple:
    """(value, gradient) of loss_fj at one angle grid by the fused exact
    pass on ``pencil.unit``, both scaled back by 2^e."""
    v_in = zero_state(pencil.n) if v_in is None else v_in
    if p.n != v_in.n:
        raise ValueError(f"qubit counts differ: params {p.n}, state {v_in.n}")
    values, grads = _exact_objective(pencil, records, v_in, entangler)(p.theta[None])
    e = pencil.unit[1]
    return float(np.ldexp(values[0], e)), np.ldexp(grads[0], e)


def loss_f(p: AnsatzParams, pencil: Pencil, v_in=None, entangler="linear") -> float:
    """Rayleigh quotient <A>/<B> on the prepared state; lies in
    [lambda_1, lambda_r]."""
    return loss_fj(p, pencil, (), v_in, entangler)


def loss_fj(
    p: AnsatzParams,
    pencil: Pencil,
    records: Sequence[DeflationRecord],
    v_in=None,
    entangler="linear",
) -> float:
    """Deflated loss: the Rayleigh quotient plus, per record, the penalty
    gamma * |<x|B|psi>|^2 / (<x|B|x> <psi|B|psi>).

    The overlaps are taken between B-normalized states, which keeps the
    lower bound F_j >= lambda_j valid for every trial state; the minimum
    over states is exactly lambda_j.
    """
    return _at(p, pencil, records, v_in, entangler)[0]


def grad_f(p: AnsatzParams, pencil: Pencil, v_in=None, entangler="linear") -> np.ndarray:
    """Gradient of loss_f, shape (n, L) matching the parameter grid: exact,
    by the pi-shift rule on a small circuit and the adjoint sweep on a
    larger one."""
    return grad_fj(p, pencil, (), v_in, entangler)


def grad_fj(
    p: AnsatzParams,
    pencil: Pencil,
    records: Sequence[DeflationRecord],
    v_in=None,
    entangler="linear",
) -> np.ndarray:
    """Gradient of loss_fj (quotient rule plus the normalized-penalty
    derivative); equals grad_f when records is empty."""
    return _at(p, pencil, records, v_in, entangler)[1]


def _descend(value_and_grad: Callable, theta0: np.ndarray, config: OptConfig, e: int) -> list:
    """Adam (or plain gradient descent) on R angle grids at once.

    ``value_and_grad`` maps theta (R, n, L) to (values (R,), grads
    (R, n, L)) of a loss on ``Pencil.unit``, 2^-e times the pencil's (e
    even); grads may be None when a value is not finite.  The two constants
    that carry scale move with it: gradient descent's step is lr 2^e and
    Adam's epsilon eps 2^-e, against which m_hat and sqrt(v_hat) scale by
    exactly 2^-e, so every angle is the one the descent on the pencil
    itself takes, bit for bit wherever nothing leaves the float range.
    Every step's values, angles and gradients go into (S, R, ...) arrays;
    after the loop the gradient norms come from one ``overlaps`` call,
    which rounds as ``np.linalg.norm`` of each row does, and the best
    iterate of each row from one argmin (its first minimum).  Returns one
    OptTrace per row, its losses and gradient norms scaled back by 2^e
    (inf past the float range).
    """
    rows, n, layers = theta0.shape
    values = np.empty((config.iters + 1, rows))
    thetas = np.empty((config.iters + 1, rows, n, layers))
    grads = np.empty_like(thetas)
    theta = theta0.astype(float)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    if not np.isfinite(theta).all():
        raise ValueError("angles must be finite")
    # an overflow ends in the check of the loss or of the update, not in a warning
    with np.errstate(over="ignore", invalid="ignore"):
        lr, eps = np.ldexp(config.lr, e), np.ldexp(_ADAM_EPS, -e)
        for s in range(config.iters + 1):
            values[s], g = value_and_grad(theta)
            finite = np.isfinite(values[s])
            if not finite.all():
                raise RuntimeError(f"non-finite loss {values[s][~finite][0]} at step {s}")
            thetas[s], grads[s] = theta, g
            if s == config.iters:
                break
            if config.method == "adam":
                m = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * g
                v = _ADAM_BETA2 * v + (1.0 - _ADAM_BETA2) * g**2
                m_hat = m / (1.0 - _ADAM_BETA1 ** (s + 1))
                v_hat = v / (1.0 - _ADAM_BETA2 ** (s + 1))
                theta = theta - config.lr * m_hat / (np.sqrt(v_hat) + eps)
            else:
                theta = theta - lr * g
            if not np.isfinite(theta).all():
                raise ValueError(f"step {s}: the update at lr = {config.lr:.3e} is not finite")
        flat = grads.reshape(config.iters + 1, rows, n * layers)
        norms = np.ldexp(np.sqrt(overlaps(flat, flat)), e)
        best = np.argmin(values, axis=0)
        values = np.ldexp(values, e)
    return [
        OptTrace(losses, grad_norms, grids, float(losses[k]), AnsatzParams(n, layers, grids[k]))
        for losses, grad_norms, grids, k in zip(values.T, norms.T, thetas.swapaxes(0, 1), best)
    ]


def _b_normalized(state: StateVector, pencil: Pencil) -> StateVector:
    """The state over sqrt(<B>): the factor of ``pencil.unit`` times
    2^(-b/2), B's exponent b being even."""
    unit, _, eb = pencil.unit
    factor = np.ldexp(1.0 / np.sqrt(check_b(unit.apply(state.amps)[3], eb)), -eb // 2)
    if abs(factor - 1.0) < 1e-12:
        return state
    return scale(state, factor)


def check_levels(r, n: int) -> None:
    """Require a level count ``r``: an integer between 1 and 2^n, the
    dimension of a pencil on n qubits."""
    check_int("r", r, 1)
    if not 1 <= r <= 2**n:
        raise ValueError(f"r must be between 1 and {2**n}, got {r}")


def solve_spectrum(pencil: Pencil, r: int, config: SolveConfig = SolveConfig()) -> list:
    """Recover ``r`` eigenpairs: minimize F for the smallest, maximize F for
    the largest, then deflate level by level; returns SpectrumLevel entries
    sorted ascending with B-normalized states.

    The min and max levels, which have no deflation records, share their
    batches, the max rows negated.  In exact mode every restart of a level
    descends in one batch, so min and max make one batch of 2 x restarts
    rows.  With shots the restarts run one after another on their level's
    sampling stream, and restart k of min and max is one batch of 2 rows,
    each drawing from its own level's stream, so every draw and trace is
    the one the levels would give descending alone.  An error raised in a
    shared batch (a <B> that is not positive, a non-finite loss) may report
    a value from either level's rows.

    Every level runs on ``pencil.unit``: ``_descend`` scales its constants
    and the losses back by 2^e, and each state is B-normalized from the
    unit pencil's bracket scaled back, so that a pencil at any scale whose
    levels are in the float range gives the levels, traces and states it
    would give at unit scale, times the powers of two.
    """
    check_levels(r, pencil.n)
    n = pencil.n
    e = pencil.unit[1]
    v_in = zero_state(n)
    entangler = config.entangler
    restarts = config.restarts

    def starts(level_idx: int) -> list:
        return [
            random_params(n, config.layers, np.random.default_rng([config.seed, level_idx, k]))
            for k in range(restarts)
        ]

    def run_levels(specs: list, records: tuple) -> list:
        """Levels with the same deflation records, one per (level_idx,
        sign, kind) spec, each state prepared by the ansatz (not yet
        B-normalized)."""
        if config.shots:
            # restart k of every level descends as one batch, each row on
            # its level's stream; the traces come back level-major
            rngs = [np.random.default_rng([config.seed, 7919, j]) for j, _, _ in specs]
            signs = np.array([sign for _, sign, _ in specs])
            objective = _shot_objective(
                pencil, records, v_in, entangler, signs, config.shots, rngs
            )
            theta0 = np.array([[p0.theta for p0 in starts(j)] for j, _, _ in specs])
            batches = [_descend(objective, theta0[:, k], config.opt, e) for k in range(restarts)]
            traces = [batch[j] for j in range(len(specs)) for batch in batches]
        else:
            signs = np.repeat([sign for _, sign, _ in specs], restarts)
            objective = _exact_objective(pencil, records, v_in, entangler, signs)
            theta0 = np.stack([p0.theta for level_idx, _, _ in specs for p0 in starts(level_idx)])
            traces = _descend(objective, theta0, config.opt, e)
        levels = []
        for j, (_, sign, kind) in enumerate(specs):
            level_traces = tuple(traces[j * restarts : (j + 1) * restarts])
            best_k = int(np.argmin([trace.best_value for trace in level_traces]))
            value, params = level_traces[best_k].best_value, level_traces[best_k].best_params
            state = apply_ansatz(params, v_in, entangler)
            levels.append(SpectrumLevel(sign * value, params, state, kind, level_traces, best_k))
        return levels

    if r == 1:
        return _assemble(run_levels([(1, 1.0, "min")], ()), pencil)
    levels = run_levels([(1, 1.0, "min"), (r, -1.0, "max")], ())
    gamma = levels[1].eigenvalue - levels[0].eigenvalue
    for j in range(2, r):
        # every level found so far except the maximum becomes a penalty
        found = levels[:1] + levels[2:]
        records = tuple(DeflationRecord(lv.eigenvalue, gamma, lv.state) for lv in found)
        levels += run_levels([(j, 1.0, "deflate")], records)
    return _assemble(levels, pencil)


def _assemble(levels: list, pencil: Pencil) -> list:
    """The levels with B-normalized states, sorted by eigenvalue."""
    out = (replace(lv, state=_b_normalized(lv.state, pencil)) for lv in levels)
    return sorted(out, key=lambda lv: lv.eigenvalue)
