"""Variational solver for Pauli-sum pencils: Rayleigh-quotient and deflated
losses with exact gradients, a from-scratch Adam loop, and the
min / max / deflate pipeline that recovers the full spectrum.

In exact mode (``shots == 0``) a loss and its gradient come from one fused
pass on raw arrays: a forward sweep, then one adjoint (reverse) sweep of the
circuit, for a whole batch of angle grids at once; ``solve_spectrum`` runs
all restarts of a level as one batch.  With ``shots > 0`` every expectation
is a sampled Hadamard test and gradients use the pi-shift rule, one restart
at a time: one circuit batch gives psi and every pi-shifted state, and one
sampler call draws all the overlaps a loss or a gradient needs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .ansatz import AnsatzParams, apply_ansatz, compile_ansatz, random_params
from .measurement import sample_overlaps
from .pauli import PauliSum, apply_sum_array, term_kets, term_overlaps
from .statevector import StateVector, norm, scale, zero_state

_B_FLOOR = 1e-12


@dataclass(frozen=True)
class Pencil:
    """The operator pair (A, B) of the generalized eigenproblem; B must be
    positive definite (validated at desk scale by the reference solver)."""

    A: PauliSum
    B: PauliSum

    def __post_init__(self):
        if self.A.n != self.B.n:
            raise ValueError(
                f"qubit counts differ: A has {self.A.n}, B has {self.B.n}"
            )

    @property
    def n(self) -> int:
        return self.A.n

    def apply(self, amps: np.ndarray) -> tuple:
        """(A psi, B psi, <A>, <B>) for raw amplitude rows psi of shape
        (..., 2^n): both sides through the compiled form, and the real
        brackets <psi|A|psi>, <psi|B|psi> of each row (unchecked).  A single
        state takes ``np.vdot``, whose rounding ``inner`` on states has."""
        a_psi = apply_sum_array(self.A, amps)
        b_psi = apply_sum_array(self.B, amps)
        if amps.ndim == 1:
            return a_psi, b_psi, np.vdot(amps, a_psi).real, np.vdot(amps, b_psi).real
        bra = amps.conj()
        a = np.einsum("...d,...d->...", bra, a_psi).real
        return a_psi, b_psi, a, np.einsum("...d,...d->...", bra, b_psi).real


def check_b(b):
    """Return <B> (a float, or an array with one entry per state) after
    checking that it is positive, as it is for every state when B is
    positive definite."""
    low = b if isinstance(b, float) else np.min(b)
    if low <= _B_FLOOR:
        raise ValueError(
            f"<B> = {low:.3e} at the evaluated state; B is not positive definite"
        )
    return b


def check_int(name: str, value, minimum: int) -> None:
    """Require an integer (not a bool) no smaller than ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def rayleigh_quotient(a, b):
    """F = <A>/<B>, after the <B> positivity check; floats or arrays."""
    return a / check_b(b)


@dataclass(frozen=True)
class DeflationRecord:
    """One previously found eigenpair used as a deflation penalty.

    ``state`` is the operational field (any nonzero scaling works; overlaps
    are normalized internally); ``theta_star`` is kept when the state came
    from an ansatz optimization.
    """

    eigenvalue: float
    gamma: float
    state: StateVector
    theta_star: Optional[AnsatzParams] = None


@dataclass(frozen=True)
class OptStep:
    step: int
    loss: float
    grad_norm: float
    theta: np.ndarray


@dataclass(frozen=True)
class OptTrace:
    """Per-iteration optimization log with the best iterate over the run."""

    steps: tuple
    best_value: float
    best_params: AnsatzParams


@dataclass(frozen=True)
class OptConfig:
    lr: float = 0.1
    iters: int = 200
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    method: str = "adam"

    def __post_init__(self):
        check_int("iters", self.iters, 1)
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {value}")
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
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


def _weighted(coeffs: list, estimates: list) -> complex:
    """sum_k c_k z_k, accumulated term by term in order from zero."""
    total = 0.0 + 0.0j
    for c, z in zip(coeffs, estimates):
        total += c * z
    return total


def _penalties(pencil: Pencil, records: Sequence[DeflationRecord]) -> list:
    """(gamma, x, B x, <x|B|x>) per deflation record, x the record's raw
    amplitudes."""
    out = []
    for rec in records:
        _, bx, _, m = pencil.apply(rec.state.amps)
        out.append((rec.gamma, rec.state.amps, bx, check_b(m)))
    return out


def _exact_objective(
    pencil: Pencil,
    records: Sequence[DeflationRecord],
    v_in: StateVector,
    entangler="linear",
    sign: float = 1.0,
) -> Callable:
    """The exact deflated loss ``sign * F_j`` of one level as a batched
    function ``theta (R, n, L) -> (values (R,), grads (R, n, L) or None)``.

    One forward sweep gives psi, A psi and B psi, hence F = a/b and each
    penalty gamma |t|^2 / (m b) with t = <Bx|psi> and m = <x|B|x>; Bx and m
    are computed here, once per level.  The gradient is 2 Re<d psi|chi> for
    the co-state

        chi = (A psi - F B psi)/b + sum_x gamma/(m b) (t Bx - |t|^2/b B psi),

    taken by one adjoint sweep of the circuit.
    """
    circuit = compile_ansatz(pencil.n, entangler)
    penalties = [(gamma, bx, bx.conj(), m) for gamma, _, bx, m in _penalties(pencil, records)]

    def value_and_grad(theta: np.ndarray, grad: bool = True) -> tuple:
        psi = circuit.run(theta, v_in.amps)
        a_psi, b_psi, a, b = pencil.apply(psi)
        f = rayleigh_quotient(a, b)
        value = f.copy()
        chi = a_psi - f[:, None] * b_psi
        for gamma, bx, bx_conj, m in penalties:
            t = psi @ bx_conj
            t_sq = np.abs(t) ** 2
            value += gamma * t_sq / (m * b)
            chi += (gamma / m) * (t[:, None] * bx - (t_sq / b)[:, None] * b_psi)
        value *= sign
        if not grad:
            return value, None
        chi *= sign / b[:, None]
        return value, circuit.vjp(theta, psi, chi)

    return value_and_grad


def _shot_objective(
    pencil: Pencil, records: Sequence, v_in: StateVector, entangler, sign: float, shots: int, rng
) -> Callable:
    """The deflated loss ``sign * F_j`` of one level from Hadamard tests,
    with its gradient by the pi-shift rule, as a function
    ``theta (1, n, L) -> (values (1,) or None, grads (1, n, L) or None)``.

    One circuit batch holds psi and, layer-major, each circuit with pi added
    to one angle.  Every row phi of it gives the exact overlaps
    <phi|A_k|psi>, <phi|B_k|psi> and, per record, <x|B_k|phi> for the unit
    vector x; row 0 (phi = psi) is all the loss needs.  The value samples
    row 0, then the gradient samples every row afresh, one sampler call
    each; ``shots == 0`` keeps the overlaps exact.  Sums run term by term.
    """
    circuit = compile_ansatz(pencil.n, entangler)
    coeffs_a, coeffs_b = pencil.A.coeffs.tolist(), pencil.B.coeffs.tolist()
    n_a, n_b = len(coeffs_a), len(coeffs_b)
    penalties = [(gamma, m) for gamma, _, _, m in _penalties(pencil, records)]
    norms = [norm(rec.state) for rec in records]
    units = [rec.state.amps / x_norm for rec, x_norm in zip(records, norms)]

    def overlaps(phi: np.ndarray, kets: list) -> list:
        """<phi|A_k|psi>, <phi|B_k|psi> from the kets of psi, then <x|B_k|phi>."""
        b_kets = term_kets(pencil.B, phi) if units else []
        return [np.vdot(phi, ket) for ket in kets] + [np.vdot(x, k) for x in units for k in b_kets]

    def brackets(row: np.ndarray) -> tuple:
        """(<A>, <B>, [<x|B|phi> per record]) from one row of estimates."""
        est = row.tolist()
        ts = [x * _weighted(coeffs_b, est[n_a + n_b * j :]) for j, x in enumerate(norms, 1)]
        return _weighted(coeffs_a, est).real, _weighted(coeffs_b, est[n_a:]).real, ts

    def value_and_grad(theta: np.ndarray, value: bool = True, grad: bool = True) -> tuple:
        _, n, layers = theta.shape
        grid = np.repeat(theta, 1 + n * layers if grad else 1, axis=0)
        k = np.arange(len(grid) - 1)
        grid[1 + k, k % n, k // n] += np.pi
        states = circuit.run(grid, v_in.amps)
        kets = term_kets(pencil.A, states[0]) + term_kets(pencil.B, states[0])
        exact = np.array([overlaps(phi, kets) for phi in states], dtype=complex)
        values = grads = None
        if value:
            a, b, ts = brackets(sample_overlaps(exact[0], shots, rng))
            loss = rayleigh_quotient(a, b)
            for (gamma, m), t in zip(penalties, ts):
                loss += gamma * abs(t) ** 2 / (m * b)
            values = np.array([sign * loss])
        if grad:
            est = sample_overlaps(exact, shots, rng)
            a, b, ts = brackets(est[0])
            check_b(b)
            entries = []
            for row in est[1:]:
                da, db, ts_plus = brackets(row)
                entry = (da * b - a * db) / b**2
                for (gamma, m), t, t_plus in zip(penalties, ts, ts_plus):
                    dt2 = (np.conj(t) * t_plus).real
                    entry += gamma / m * (dt2 * b - abs(t) ** 2 * db) / b**2
                entries.append(entry)
            grads = sign * np.array(entries).reshape(layers, n).T.copy()[None]
        return values, grads

    return value_and_grad


def _at(
    p: AnsatzParams, pencil: Pencil, records, v_in, entangler, shots, rng, grad, pi_shift=False
):
    """The value of loss_fj at one angle grid, or with ``grad`` its
    gradient: by the fused exact pass when ``shots == 0`` (unless
    ``pi_shift``), else from Hadamard tests and the pi-shift rule."""
    v_in = zero_state(pencil.n) if v_in is None else v_in
    if p.n != v_in.n:
        raise ValueError(f"qubit counts differ: params {p.n}, state {v_in.n}")
    if shots == 0 and not pi_shift:
        values, grads = _exact_objective(pencil, records, v_in, entangler)(p.theta[None], grad)
    else:
        objective = _shot_objective(pencil, records, v_in, entangler, 1.0, shots, rng)
        values, grads = objective(p.theta[None], value=not grad, grad=grad)
    return grads[0] if grad else float(values[0])


def loss_f(
    p: AnsatzParams, pencil: Pencil, v_in=None, entangler="linear", shots=0, rng=None
) -> float:
    """Rayleigh quotient <A>/<B> on the prepared state; lies in
    [lambda_1, lambda_r]."""
    return loss_fj(p, pencil, (), v_in, entangler, shots, rng)


def overlap_sq(
    p: AnsatzParams,
    p_star: AnsatzParams,
    b_sum: PauliSum,
    v_in=None,
    entangler="linear",
    shots=0,
    rng=None,
) -> float:
    """Squared magnitude |<psi(p)|B|psi(p_star)>|^2 between two prepared
    states."""
    if v_in is None:
        v_in = zero_state(b_sum.n)
    psi = apply_ansatz(p, v_in, entangler)
    psi_star = apply_ansatz(p_star, v_in, entangler)
    x_norm = norm(psi)
    exact = term_overlaps(b_sum, psi.amps / x_norm, psi_star.amps)
    t = x_norm * _weighted(b_sum.coeffs.tolist(), sample_overlaps(exact, shots, rng).tolist())
    return abs(t) ** 2


def loss_fj(
    p: AnsatzParams,
    pencil: Pencil,
    records: Sequence[DeflationRecord],
    v_in=None,
    entangler="linear",
    shots=0,
    rng=None,
) -> float:
    """Deflated loss: the Rayleigh quotient plus, per record, the penalty
    gamma * |<x|B|psi>|^2 / (<x|B|x> <psi|B|psi>).

    The overlaps are taken between B-normalized states, which keeps the
    lower bound F_j >= lambda_j valid for every trial state; the minimum
    over states is exactly lambda_j.
    """
    return _at(p, pencil, records, v_in, entangler, shots, rng, grad=False)


def _pi_shift_gradient(
    p: AnsatzParams,
    pencil: Pencil,
    records: Sequence[DeflationRecord],
    v_in,
    entangler,
    shots,
    rng,
) -> np.ndarray:
    """Gradient of loss_fj by the pi-shift rule: one shifted circuit per
    angle, with Hadamard-test estimates when ``shots > 0``.  Shot mode uses
    it; with ``shots == 0`` it is the reference for the adjoint pass."""
    return _at(p, pencil, records, v_in, entangler, shots, rng, grad=True, pi_shift=True)


def grad_f(
    p: AnsatzParams, pencil: Pencil, v_in=None, entangler="linear", shots=0, rng=None
) -> np.ndarray:
    """Gradient of loss_f, shape (n, L) matching the parameter grid: the
    adjoint pass in exact mode, the pi-shift rule with shots."""
    return grad_fj(p, pencil, (), v_in, entangler, shots, rng)


def grad_fj(
    p: AnsatzParams,
    pencil: Pencil,
    records: Sequence[DeflationRecord],
    v_in=None,
    entangler="linear",
    shots=0,
    rng=None,
) -> np.ndarray:
    """Gradient of loss_fj (quotient rule plus the normalized-penalty
    derivative); equals grad_f when records is empty."""
    return _at(p, pencil, records, v_in, entangler, shots, rng, grad=True)


def _descend(value_and_grad: Callable, theta0: np.ndarray, config: OptConfig) -> list:
    """Adam (or plain gradient descent) on R angle grids at once.

    ``value_and_grad`` maps theta (R, n, L) to (values (R,), grads
    (R, n, L)); grads may be None when a value is not finite.  Returns one
    OptTrace per row, each with every step and the first best iterate.
    """
    rows, n, layers = theta0.shape
    theta = theta0.astype(float)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    steps = [[] for _ in range(rows)]
    best_value = np.full(rows, np.inf)
    best_theta = theta.copy()
    for s in range(config.iters + 1):
        if not np.all(np.isfinite(theta)):
            raise ValueError("angles must be finite")
        values, g = value_and_grad(theta)
        for value in values:
            if not np.isfinite(value):
                raise RuntimeError(f"non-finite loss {float(value)} at step {s}")
        for r in range(rows):
            steps[r].append(
                OptStep(s, float(values[r]), float(np.linalg.norm(g[r])), theta[r].copy())
            )
        better = values < best_value
        best_value[better] = values[better]
        best_theta[better] = theta[better]
        if s == config.iters:
            break
        if config.method == "adam":
            k = s + 1
            m = config.beta1 * m + (1.0 - config.beta1) * g
            v = config.beta2 * v + (1.0 - config.beta2) * g**2
            m_hat = m / (1.0 - config.beta1**k)
            v_hat = v / (1.0 - config.beta2**k)
            theta = theta - config.lr * m_hat / (np.sqrt(v_hat) + config.eps)
        else:
            theta = theta - config.lr * g
    return [
        OptTrace(tuple(steps[r]), float(best_value[r]), AnsatzParams(n, layers, best_theta[r]))
        for r in range(rows)
    ]


def optimize(
    loss_fn: Callable[[AnsatzParams], float],
    grad_fn: Callable[[AnsatzParams], np.ndarray],
    p0: AnsatzParams,
    config: OptConfig = OptConfig(),
) -> OptTrace:
    """Adam (or plain gradient descent) on the given loss; records every
    step and reports the best iterate seen over the whole run."""

    def value_and_grad(theta: np.ndarray) -> tuple:
        params = AnsatzParams(p0.n, p0.L, theta[0])
        value = float(loss_fn(params))
        if not np.isfinite(value):
            return np.array([value]), None
        return np.array([value]), np.asarray(grad_fn(params), dtype=float)[None]

    return _descend(value_and_grad, p0.theta[None], config)[0]


def _b_normalized(state: StateVector, pencil: Pencil) -> StateVector:
    factor = 1.0 / np.sqrt(check_b(pencil.apply(state.amps)[3]))
    if abs(factor - 1.0) < 1e-12:
        return state
    return scale(state, factor)


def solve_spectrum(pencil: Pencil, r: int, config: SolveConfig = SolveConfig()) -> list:
    """Recover ``r`` eigenpairs: minimize F for the smallest, maximize F for
    the largest, then deflate level by level; returns SpectrumLevel entries
    sorted ascending with B-normalized states.

    In exact mode the restarts of a level descend together as one batch;
    with shots they run one after another on the level's sampling stream.
    """
    if not 1 <= r <= 2**pencil.n:
        raise ValueError(f"r must be between 1 and {2**pencil.n}, got {r}")
    n = pencil.n
    v_in = zero_state(n)
    entangler = config.entangler

    def run_level(level_idx: int, sign: float, records: tuple, kind: str) -> tuple:
        """(eigenvalue, params, state, kind, traces, best_restart) of one level."""
        starts = [
            random_params(n, config.layers, np.random.default_rng([config.seed, level_idx, k]))
            for k in range(config.restarts)
        ]
        if config.shots:
            rng = np.random.default_rng([config.seed, 7919, level_idx])
            objective = _shot_objective(pencil, records, v_in, entangler, sign, config.shots, rng)
            traces = [_descend(objective, p0.theta[None], config.opt)[0] for p0 in starts]
        else:
            objective = _exact_objective(pencil, records, v_in, entangler, sign)
            theta0 = np.stack([p0.theta for p0 in starts])
            traces = _descend(objective, theta0, config.opt)
        best_k = int(np.argmin([trace.best_value for trace in traces]))
        best = traces[best_k]
        state = apply_ansatz(best.best_params, v_in, entangler)
        return sign * best.best_value, best.best_params, state, kind, tuple(traces), best_k

    levels = [run_level(1, 1.0, (), "min")]
    if r == 1:
        return _assemble(levels, pencil)
    levels.append(run_level(r, -1.0, (), "max"))
    gamma = levels[1][0] - levels[0][0]
    for j in range(2, r):
        # every level found so far except the maximum becomes a penalty
        found = levels[:1] + levels[2:]
        records = tuple(DeflationRecord(lam, gamma, x, params) for lam, params, x, *_ in found)
        levels.append(run_level(j, 1.0, records, "deflate"))
    return _assemble(levels, pencil)


def _assemble(levels: list, pencil: Pencil) -> list:
    out = [
        SpectrumLevel(lam, params, _b_normalized(state, pencil), kind, traces, best_k)
        for lam, params, state, kind, traces, best_k in levels
    ]
    out.sort(key=lambda lv: lv.eigenvalue)
    return out
