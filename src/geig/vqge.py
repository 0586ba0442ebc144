"""Variational solver for Pauli-sum pencils: Rayleigh-quotient and deflated
losses, exact pi-shift gradients, a from-scratch Adam loop, and the
min / max / deflate pipeline that recovers the full spectrum."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .ansatz import AnsatzParams, apply_ansatz, random_params, shift
from .measurement import hadamard_test
from .pauli import PauliSum, apply_sum
from .statevector import StateVector, inner, norm, scale, zero_state

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


def check_b(b: float) -> float:
    """Return <B> after checking that it is positive, as it is for every
    state when B is positive definite."""
    if b <= _B_FLOOR:
        raise ValueError(
            f"<B> = {b:.3e} at the evaluated state; B is not positive definite"
        )
    return b


def rayleigh_quotient(a: float, b: float) -> float:
    """F = <A>/<B>, after the <B> positivity check."""
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
        if self.iters < 1:
            raise ValueError(f"need at least one iteration, got {self.iters}")
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
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.shots < 0:
            raise ValueError(f"shots must be >= 0, got {self.shots}")


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


def _prepare(p: AnsatzParams, pencil: Pencil, v_in, entangler) -> StateVector:
    if v_in is None:
        v_in = zero_state(pencil.n)
    return apply_ansatz(p, v_in, entangler)


def _expect(s: PauliSum, v: StateVector, shots: int, rng) -> float:
    if shots == 0:
        val = inner(v, apply_sum(s, v))
        return val.real
    return sum(
        c * hadamard_test(v, term, v, shots, rng)[0] for c, term in s.terms
    )


def _b_bracket(x: StateVector, psi: StateVector, b_sum: PauliSum, shots, rng) -> complex:
    """<x|B|psi>, exact or estimated term by term."""
    if shots == 0:
        return inner(apply_sum(b_sum, x), psi)
    x_norm = norm(x)
    x_unit = StateVector(x.n, x.amps / x_norm, normalized=True)
    total = 0.0 + 0.0j
    for c, term in b_sum.terms:
        re, im = hadamard_test(x_unit, term, psi, shots, rng)
        total += c * (re + 1j * im)
    return x_norm * total


def loss_f(
    p: AnsatzParams, pencil: Pencil, v_in=None, entangler="linear", shots=0, rng=None
) -> float:
    """Rayleigh quotient <A>/<B> on the prepared state; lies in
    [lambda_1, lambda_r]."""
    psi = _prepare(p, pencil, v_in, entangler)
    a = _expect(pencil.A, psi, shots, rng)
    return rayleigh_quotient(a, _expect(pencil.B, psi, shots, rng))


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
    return abs(_b_bracket(psi, psi_star, b_sum, shots, rng)) ** 2


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
    psi = _prepare(p, pencil, v_in, entangler)
    a = _expect(pencil.A, psi, shots, rng)
    b = _expect(pencil.B, psi, shots, rng)
    value = rayleigh_quotient(a, b)
    for rec in records:
        bx = apply_sum(pencil.B, rec.state)
        m = inner(rec.state, bx).real
        t = _b_bracket(rec.state, psi, pencil.B, shots, rng)
        value += rec.gamma * abs(t) ** 2 / (m * b)
    return value


def _gradient(
    p: AnsatzParams,
    pencil: Pencil,
    records: Sequence[DeflationRecord],
    v_in,
    entangler,
    shots,
    rng,
) -> np.ndarray:
    if v_in is None:
        v_in = zero_state(pencil.n)
    psi = apply_ansatz(p, v_in, entangler)
    a_psi = apply_sum(pencil.A, psi)
    b_psi = apply_sum(pencil.B, psi)
    if shots == 0:
        a = inner(psi, a_psi).real
        b = inner(psi, b_psi).real
    else:
        a = _expect(pencil.A, psi, shots, rng)
        b = _expect(pencil.B, psi, shots, rng)
    check_b(b)

    rec_data = []
    for rec in records:
        bx = apply_sum(pencil.B, rec.state)
        m = inner(rec.state, bx).real
        t = _b_bracket(rec.state, psi, pencil.B, shots, rng)
        rec_data.append((rec.gamma, rec.state, bx, m, t))

    grad = np.zeros((p.n, p.L))
    for t_idx in range(p.L):
        for i in range(p.n):
            psi_plus = apply_ansatz(shift(p, t_idx, i, np.pi), v_in, entangler)
            if shots == 0:
                da = inner(psi_plus, a_psi).real
                db = inner(psi_plus, b_psi).real
            else:
                da = sum(
                    c * hadamard_test(psi_plus, term, psi, shots, rng)[0]
                    for c, term in pencil.A.terms
                )
                db = sum(
                    c * hadamard_test(psi_plus, term, psi, shots, rng)[0]
                    for c, term in pencil.B.terms
                )
            entry = (da * b - a * db) / b**2
            for gamma, x_state, bx, m, t in rec_data:
                if shots == 0:
                    t_plus = inner(bx, psi_plus)
                else:
                    t_plus = _b_bracket(x_state, psi_plus, pencil.B, shots, rng)
                dt2 = (np.conj(t) * t_plus).real
                entry += gamma / m * (dt2 * b - abs(t) ** 2 * db) / b**2
            grad[i, t_idx] = entry
    return grad


def grad_f(
    p: AnsatzParams, pencil: Pencil, v_in=None, entangler="linear", shots=0, rng=None
) -> np.ndarray:
    """Gradient of loss_f via the exact pi-shift rule and the quotient rule;
    shape (n, L) matching the parameter grid."""
    return _gradient(p, pencil, (), v_in, entangler, shots, rng)


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
    return _gradient(p, pencil, records, v_in, entangler, shots, rng)


def optimize(
    loss_fn: Callable[[AnsatzParams], float],
    grad_fn: Callable[[AnsatzParams], np.ndarray],
    p0: AnsatzParams,
    config: OptConfig = OptConfig(),
) -> OptTrace:
    """Adam (or plain gradient descent) on the given loss; records every
    step and reports the best iterate seen over the whole run."""
    theta = p0.theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    steps = []
    best_value = np.inf
    best_params = p0
    for s in range(config.iters + 1):
        params = AnsatzParams(p0.n, p0.L, theta)
        value = float(loss_fn(params))
        if not np.isfinite(value):
            raise RuntimeError(f"non-finite loss {value} at step {s}")
        g = np.asarray(grad_fn(params), dtype=float)
        steps.append(OptStep(s, value, float(np.linalg.norm(g)), theta.copy()))
        if value < best_value:
            best_value = value
            best_params = params
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
    return OptTrace(tuple(steps), best_value, best_params)


def _b_normalized(state: StateVector, b_sum: PauliSum) -> StateVector:
    m = inner(state, apply_sum(b_sum, state)).real
    if m <= 0.0:
        raise ValueError("cannot B-normalize: <x|B|x> <= 0")
    factor = 1.0 / np.sqrt(m)
    if abs(factor - 1.0) < 1e-12:
        return state
    return scale(state, factor)


def solve_spectrum(pencil: Pencil, r: int, config: SolveConfig = SolveConfig()) -> list:
    """Recover ``r`` eigenpairs: minimize F for the smallest, maximize F for
    the largest, then deflate level by level; returns SpectrumLevel entries
    sorted ascending with B-normalized states."""
    if not 1 <= r <= 2**pencil.n:
        raise ValueError(f"r must be between 1 and {2**pencil.n}, got {r}")
    n = pencil.n
    v_in = zero_state(n)

    def run_level(level_idx: int, loss, grad) -> tuple:
        traces = []
        best_k = 0
        for k in range(config.restarts):
            rng = np.random.default_rng([config.seed, level_idx, k])
            p0 = random_params(n, config.layers, rng)
            trace = optimize(loss, grad, p0, config.opt)
            traces.append(trace)
            if trace.best_value < traces[best_k].best_value:
                best_k = k
        return traces[best_k], tuple(traces), best_k

    def shot_rng(level_idx: int) -> object:
        return np.random.default_rng([config.seed, 7919, level_idx]) if config.shots else None

    levels = []

    rng0 = shot_rng(1)
    ground, traces, best_k = run_level(
        1,
        lambda p: loss_f(p, pencil, v_in, config.entangler, config.shots, rng0),
        lambda p: grad_f(p, pencil, v_in, config.entangler, config.shots, rng0),
    )
    lam_1 = ground.best_value
    state_1 = apply_ansatz(ground.best_params, v_in, config.entangler)
    levels.append((lam_1, ground.best_params, state_1, "min", traces, best_k))
    if r == 1:
        return _assemble(levels, pencil)

    rng_r = shot_rng(r)
    top, traces, best_k = run_level(
        r,
        lambda p: -loss_f(p, pencil, v_in, config.entangler, config.shots, rng_r),
        lambda p: -grad_f(p, pencil, v_in, config.entangler, config.shots, rng_r),
    )
    lam_r = -top.best_value
    state_r = apply_ansatz(top.best_params, v_in, config.entangler)
    levels.append((lam_r, top.best_params, state_r, "max", traces, best_k))

    gamma = lam_r - lam_1
    records = [DeflationRecord(lam_1, gamma, state_1, ground.best_params)]
    for j in range(2, r):
        rng_j = shot_rng(j)
        recs = tuple(records)
        mid, traces, best_k = run_level(
            j,
            lambda p: loss_fj(p, pencil, recs, v_in, config.entangler, config.shots, rng_j),
            lambda p: grad_fj(p, pencil, recs, v_in, config.entangler, config.shots, rng_j),
        )
        lam_j = mid.best_value
        state_j = apply_ansatz(mid.best_params, v_in, config.entangler)
        levels.append((lam_j, mid.best_params, state_j, "deflate", traces, best_k))
        records.append(DeflationRecord(lam_j, gamma, state_j, mid.best_params))

    return _assemble(levels, pencil)


def _assemble(levels: list, pencil: Pencil) -> list:
    out = [
        SpectrumLevel(lam, params, _b_normalized(state, pencil.B), kind, traces, best_k)
        for lam, params, state, kind, traces, best_k in levels
    ]
    out.sort(key=lambda lv: lv.eigenvalue)
    return out
