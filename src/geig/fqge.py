"""Iterative eigensolver driven by the non-unitary step operator
G = I - 2*delta*(A - F*B)/<B>, realized as a linear combination of Pauli
unitaries.  Includes the exact two-dimensional line search for the step
size, a relative residual diagnostic, and depolarizing-style statevector
noise injection.

``run_fqge`` works on raw amplitudes: it applies the pencil once per iterate
(once more on a line-search direction) and steps the state as
psi + delta*direction, which equals G|psi>; the explicit combination
(``build_lcu`` / ``apply_g``) is kept as a public oracle, and the LCU size
reported per step comes from the same coefficient table."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .pauli import PauliString, apply_string
from .statevector import StateVector, normalize
from .vqge import check_b, check_int, rayleigh_quotient

_DIRECTION_FLOOR = 1e-10
_DELTA_CAP = 1e12


@dataclass(frozen=True)
class FqgeConfig:
    delta: float = 0.1
    line_search: bool = False
    epsilon: float = 1e-8
    max_iters: int = 200
    noise_sigma: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self):
        for name in ("delta", "epsilon", "noise_sigma"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        check_int("max_iters", self.max_iters, 1)
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class LcuOperator:
    """G as an explicit combination sum_j g_j P_j after merging duplicate
    strings; norm_c is sqrt(sum |g_j|^2) and d the retained term count."""

    coeffs: tuple
    strings: tuple
    norm_c: float
    d: int


@dataclass(frozen=True)
class FqgeIterate:
    """State of the iteration when row ``s`` was evaluated, before the
    update recorded in the same row was applied."""

    s: int
    state: StateVector
    value: float
    residual: float
    delta_used: complex
    success_prob: float
    lcu_norm_c: float
    lcu_terms: int


@dataclass(frozen=True)
class FqgeResult:
    iterates: tuple
    status: str
    eigenvalue: float
    state: StateVector


def _relative_residual(a_psi, b_psi, f: float) -> float:
    num = float(np.linalg.norm(a_psi - f * b_psi))
    den = float(np.linalg.norm(a_psi)) + abs(f) * float(np.linalg.norm(b_psi))
    if den == 0.0:
        return 0.0
    return num / den


def _direction(a_psi, b_psi, f: float, b: float) -> np.ndarray:
    return -(2.0 / b) * (a_psi - f * b_psi)


def loss_state(state: StateVector, pencil) -> float:
    """Rayleigh quotient <psi|A|psi>/<psi|B|psi> on an explicit state."""
    _, _, a, b = pencil.apply(state.amps)
    return rayleigh_quotient(a, b)


def gradient_direction(state: StateVector, pencil, f_value: float) -> StateVector:
    """Unnormalized steepest-descent direction -(2/<B>)(A - F B)|psi>;
    exactly orthogonal to |psi> when f_value is the Rayleigh quotient."""
    a_psi, b_psi, _, b = pencil.apply(state.amps)
    return StateVector(state.n, _direction(a_psi, b_psi, f_value, check_b(b)), normalized=False)


def residual(state: StateVector, pencil) -> float:
    """Relative residual ||(A - F B)psi|| / (||A psi|| + |F| ||B psi||),
    bounded in [0, 1]."""
    a_psi, b_psi, a, b = pencil.apply(state.amps)
    return _relative_residual(a_psi, b_psi, rayleigh_quotient(a, b))


def _lcu_table(pencil, delta: complex, f_value: float, b: float) -> list:
    """Sorted ((x_mask, z_mask), g) pairs of G = I - 2*delta*(A - F B)/<B>
    with duplicate strings merged and exact zeros dropped."""
    table: dict = {}

    def add(key, g):
        table[key] = table.get(key, 0.0 + 0.0j) + g

    add((0, 0), 1.0 + 0.0j)
    for alpha, ps in pencil.A.terms:
        add((ps.x_mask, ps.z_mask), -2.0 * delta * alpha / b)
    for beta, ps in pencil.B.terms:
        add((ps.x_mask, ps.z_mask), 2.0 * delta * f_value * beta / b)
    return [(key, complex(g)) for key, g in sorted(table.items()) if g != 0]


def _lcu_size(table: list):
    """(C, d) of a coefficient table: C = sqrt(sum |g_j|^2), d = term count."""
    return float(np.sqrt(sum(abs(g) ** 2 for _, g in table))), len(table)


def build_lcu(state: StateVector, pencil, delta: complex, f_value: float) -> LcuOperator:
    """Expand G = I - 2*delta*(A - F B)/<B> over Pauli strings, merging
    duplicates and dropping exact zeros."""
    b = check_b(pencil.apply(state.amps)[3])
    table = _lcu_table(pencil, delta, f_value, b)
    norm_c, d = _lcu_size(table)
    coeffs = tuple(g for _, g in table)
    strings = tuple(PauliString(pencil.n, x, z) for (x, z), _ in table)
    return LcuOperator(coeffs, strings, norm_c, d)


def apply_g(lcu: LcuOperator, state: StateVector):
    """Apply the combination to the state; returns the unnormalized result
    and the post-selection success probability ||G psi||^2 / (C^2 d)."""
    amps = np.zeros_like(state.amps)
    for g, ps in zip(lcu.coeffs, lcu.strings):
        amps = amps + g * apply_string(ps, state).amps
    out_norm = float(np.linalg.norm(amps))
    if out_norm == 0.0:
        raise RuntimeError("LCU output has zero norm; the state is annihilated by G")
    success = out_norm**2 / (lcu.norm_c**2 * lcu.d)
    return StateVector(state.n, amps, normalized=False), success


def line_search(state: StateVector, direction: StateVector, pencil):
    """Exact minimizer of the Rayleigh quotient over span{psi, direction}.

    Solves the 2x2 projected pencil; returns (delta, predicted) where
    psi + delta*direction attains the predicted quotient.  A near-singular
    leading component caps |delta| at 1e12 with a warning.
    """
    psi = (state if state.normalized else normalize(state)).amps
    return _line_search(psi, direction.amps, pencil.apply(psi), pencil)


def _line_search(psi: np.ndarray, direction: np.ndarray, applied: tuple, pencil):
    """line_search for normalized raw amplitudes psi, with the direction
    and ``pencil.apply(psi)`` given; applies the pencil only to the part of
    the direction orthogonal to psi."""
    _, _, a00, b00 = applied
    f00 = rayleigh_quotient(a00, b00)
    w = direction - np.vdot(psi, direction) * psi
    wn = float(np.linalg.norm(w))
    if wn < 1e-14:
        return 0.0 + 0.0j, f00
    tilde = w / wn
    a_til, b_til, a11, b11 = pencil.apply(tilde)
    a01 = np.vdot(psi, a_til)
    b01 = np.vdot(psi, b_til)

    c2 = b00 * b11 - abs(b01) ** 2
    c1 = a00 * b11 + a11 * b00 - 2.0 * (a01 * np.conj(b01)).real
    c0 = a00 * a11 - abs(a01) ** 2
    disc = max(c1**2 - 4.0 * c2 * c0, 0.0)
    sq = np.sqrt(disc)
    # stable quadratic roots: q carries the sign of c1 to avoid cancellation
    q = 0.5 * (c1 + (sq if c1 >= 0 else -sq))
    roots = []
    if c2 != 0.0:
        roots.append(q / c2)
    if q != 0.0:
        roots.append(c0 / q)
    if not roots:
        return 0.0 + 0.0j, f00
    u1 = min(roots)

    m00 = a00 - u1 * b00
    m01 = a01 - u1 * b01
    m10 = np.conj(m01)
    m11 = a11 - u1 * b11
    if abs(m00) ** 2 + abs(m01) ** 2 >= abs(m10) ** 2 + abs(m11) ** 2:
        v0, v1 = m01, -m00
    else:
        v0, v1 = m11, -m10
    if abs(v0) * _DELTA_CAP <= abs(v1):
        warnings.warn(
            "line-search minimizer is orthogonal to the current state; "
            "capping |delta| at 1e12"
        )
        phase = v1 / abs(v1) if v1 != 0 else 1.0
        delta_tilde = _DELTA_CAP * phase
    else:
        delta_tilde = v1 / v0
    return complex(delta_tilde) / wn, float(u1)


def noise_vector(n: int, sigma: float, rng) -> np.ndarray:
    """Uniform perturbation tau * 2^(-n/2) * (1,...,1) with a single draw
    tau ~ N(0, sigma^2); its norm is |tau|."""
    tau = rng.normal(0.0, sigma)
    return np.full(2**n, tau * 2.0 ** (-n / 2), dtype=complex)


def _perturbed(amps: np.ndarray, n: int, sigma: float, rng) -> np.ndarray:
    """Raw amplitudes plus the perturbation, renormalized; sigma = 0
    returns ``amps`` itself (the zero-width draw is exactly zero)."""
    pert = noise_vector(n, sigma, rng)
    if pert[0] == 0:
        return amps
    out = amps + pert
    out_norm = float(np.linalg.norm(out))
    if out_norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return out / out_norm


def noise_inject(state: StateVector, sigma: float, rng) -> StateVector:
    """Add the perturbation and renormalize; sigma = 0 leaves the state
    untouched."""
    amps = _perturbed(state.amps, state.n, sigma, rng)
    return state if amps is state.amps else StateVector(state.n, amps)


def run_fqge(pencil, initial: StateVector, cfg: FqgeConfig = FqgeConfig()) -> FqgeResult:
    """Iterate the G map from ``initial`` until the relative residual drops
    to cfg.epsilon or cfg.max_iters updates have been applied.

    Each iterate row holds the state as evaluated (before that row's
    update); the final row is terminal with a zero step.  The iteration
    runs on raw amplitudes: one ``pencil.apply`` per iterate gives the
    quotient, the residual, the direction and the step G psi = psi +
    delta*direction, and each row's state is its one ``StateVector``.
    """
    rng = np.random.default_rng(cfg.seed)
    state = initial if initial.normalized else normalize(initial)
    psi = state.amps
    rows = []
    s = 1
    while True:
        a_psi, b_psi, a, b = applied = pencil.apply(psi)
        value = rayleigh_quotient(a, b)
        res = _relative_residual(a_psi, b_psi, value)
        direction = _direction(a_psi, b_psi, value, b)
        delta = complex(cfg.delta)
        status = None
        if res <= cfg.epsilon:
            status = "converged"
        elif s > cfg.max_iters:
            status = "max_iters"
        elif np.linalg.norm(direction) < _DIRECTION_FLOOR:
            status = "converged"
        elif cfg.line_search:
            delta = _line_search(psi, direction, applied, pencil)[0]
            if delta == 0:
                status = "converged"
        if status is not None:  # a terminal row: zero step, trivial LCU
            rows.append(FqgeIterate(s, state, value, res, 0.0 + 0.0j, 1.0, 1.0, 1))
            break
        norm_c, d = _lcu_size(_lcu_table(pencil, delta, value, b))
        raw = psi + delta * direction
        out_norm = float(np.linalg.norm(raw))
        if out_norm == 0.0:
            raise RuntimeError(
                f"step {s}: LCU output has zero norm; the state is annihilated by G"
            )
        success = out_norm**2 / (norm_c**2 * d)
        rows.append(FqgeIterate(s, state, value, res, delta, success, norm_c, d))
        psi = raw / out_norm
        if cfg.noise_sigma > 0:
            psi = _perturbed(psi, pencil.n, cfg.noise_sigma, rng)
        state = StateVector(pencil.n, psi)
        s += 1
    return FqgeResult(tuple(rows), status, value, state)
