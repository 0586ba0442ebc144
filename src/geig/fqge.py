"""Iterative eigensolver driven by the non-unitary step operator
G = I - 2*delta*(A - F*B)/<B>, realized as a linear combination of Pauli
unitaries.  Includes the exact two-dimensional line search for the step
size, a relative residual diagnostic, and statevector noise: one Gaussian
draw per step, added uniformly to every amplitude before the state is
renormalized.

``run_fqge`` works on ``Pencil.unit``, the pencil with each side divided
by an even power of two, and on raw amplitudes: it applies the pencil once
per iterate, forms the residual (A - F B)psi once, and steps the state as
psi + delta*direction, which equals G|psi>; the rows are float64 when the
pencil and the start state are real.  A noiseless line-search iterate
applies the pencil to the part of the direction orthogonal to psi only:
the next state's images are the step's combination of the images it
holds, and the row that ends the run is evaluated on psi's own.  Each
iterate keeps its raw row and builds its ``StateVector`` only when
``state`` is read.  The explicit combination (``build_lcu`` / ``apply_g``)
is kept as a public oracle; it and ``loss_state`` read the unit pencil too
and take the pencil's own step and value.  Both it and the LCU size
reported per step come from coefficient vectors over the strings of A and
B, built once per solve.  The solver reads the problem only through ``geig.pencil``: its
unit pencil, ``apply``, the <B> check and the quotient.  The scale rule
lives in ``Pencil.unit``: on the unit pencil no norm or product here
overflows at any coefficient scale, and only ``_norm`` keeps a guard, for a
state near A's null space, where the squares of a tiny A psi underflow."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import count
from typing import Optional

import numpy as np

from .pauli import PauliString, gather_kets, overlaps, term_gathers
from .pencil import check_b, check_int, rayleigh_quotient
from .statevector import StateVector, normalize

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
        check_int("seed", 0 if self.seed is None else self.seed, 0)  # None draws fresh entropy
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        # a negative epsilon is never met: every run would end at max_iters
        for name in ("epsilon", "noise_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


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
    update recorded in the same row was applied.  ``amps`` is the solver's
    read-only raw row (float64 on the real path); ``state`` wraps it in a
    ``StateVector`` on first read."""

    s: int
    amps: np.ndarray
    value: float
    residual: float
    delta_used: complex
    success_prob: float
    lcu_norm_c: float
    lcu_terms: int

    def __post_init__(self):
        self.amps.setflags(write=False)

    @cached_property
    def state(self) -> StateVector:
        return StateVector(self.amps.size.bit_length() - 1, self.amps)


@dataclass(frozen=True)
class FqgeResult:
    iterates: tuple
    status: str
    eigenvalue: float
    state: StateVector


def _norm(v: np.ndarray) -> float:
    """||v|| by ``np.linalg.norm``; at or below 1e-140, where its squares
    underflow, or where they overflow, the norm of v over 2^e, the power of
    two of its largest |entry| (at least 2^-1022, so 2^-e is finite and
    scales exactly), times 2^e (inf past the float range), so a nonzero v
    never reads 0 and a finite norm never reads inf.  On the unit pencil no
    state's norm overflows, but A psi is tiny for a state near A's null
    space, and the LCU coefficients of a capped step along a tiny direction
    are huge.  numpy warns of an overflow it meets: callers hold an errstate
    that ignores it."""
    out = float(np.linalg.norm(v))
    if out <= 1e-140 or out == math.inf:  # NaN is neither
        e = max(math.frexp(float(np.max(np.abs(v))))[1], -1022)
        out = float(np.ldexp(np.linalg.norm(v * 2.0**-e), e))
    return out


def _residual(a_psi, b_psi, f: float) -> tuple:
    """(r, scale, relative): r = (A - F B) psi, the scale ||A psi|| +
    |F| ||B psi|| of its terms, and ||r|| / scale (0 at zero scale)."""
    r = a_psi - f * b_psi
    scale = _norm(a_psi) + abs(f) * _norm(b_psi)
    return r, scale, _norm(r) / scale if scale != 0.0 else 0.0


def loss_state(state: StateVector, pencil) -> float:
    """Rayleigh quotient <psi|A|psi>/<psi|B|psi> on an explicit state: that
    of ``pencil.unit`` = (unit, e, b) times 2^e."""
    unit, e, eb = pencil.unit
    return np.ldexp(rayleigh_quotient(*unit.apply(state.amps)[2:], eb), e)


def _lcu_basis(pencil) -> tuple:
    """(keys, identity, alpha, beta) of a pencil, built once per solve: the
    sorted (x_mask, z_mask) keys of the identity and of every string of A
    and B, and over them the indicator of the identity and the
    coefficients of A and of B (zero where a side has no such string)."""
    sides = [{(p.x_mask, p.z_mask): c for c, p in side.terms} for side in (pencil.A, pencil.B)]
    keys = sorted({(0, 0)}.union(*sides))
    identity = np.array([key == (0, 0) for key in keys], dtype=float)
    alpha, beta = (np.array([side.get(key, 0.0) for key in keys]) for side in sides)
    return keys, identity, alpha, beta


def _lcu_coeffs(basis: tuple, delta, f_value: float, b: float) -> np.ndarray:
    """g_j of G = I - 2*delta*(A - F B)/<B> over the basis keys, summed per
    key in the order identity, A, B; float64 when delta is real.  Exact
    zeros are terms G does not have."""
    _, identity, alpha, beta = basis
    return identity + (-2.0 * delta) * alpha / b + (2.0 * delta * f_value) * beta / b


def _lcu_size(g: np.ndarray) -> tuple:
    """(C, d) of a coefficient vector: C = sqrt(sum |g_j|^2), by ``_norm``
    where those squares overflow, and d = the number of nonzero g_j."""
    c = float(np.sqrt(np.vdot(g, g).real))
    return (_norm(g) if c == math.inf else c), int(np.count_nonzero(g))


def build_lcu(state: StateVector, pencil, delta: complex, f_value: float) -> LcuOperator:
    """Expand G = I - 2*delta*(A - F B)/<B> over Pauli strings, merging
    duplicates and dropping exact zeros.  It is built on ``pencil.unit`` =
    (unit, e, b), where the same G has the step delta 2^e and the value
    F 2^-e: every coefficient is the one of the pencil itself, bit for bit
    wherever nothing leaves the float range."""
    unit, e, eb = pencil.unit
    b = check_b(unit.apply(state.amps)[3], eb)
    basis = _lcu_basis(unit)
    g = _lcu_coeffs(basis, delta * np.ldexp(1.0, e), np.ldexp(f_value, -e), b)
    keys, kept = basis[0], np.flatnonzero(g)
    coeffs = tuple(complex(g[j]) for j in kept)
    strings = tuple(PauliString(pencil.n, *keys[j]) for j in kept)
    with np.errstate(over="ignore"):  # squares of g past the float range: C by ``_norm``
        return LcuOperator(coeffs, strings, *_lcu_size(g))


def _post_select(raw: np.ndarray, norm_c: float, d: int, where: str = "") -> tuple:
    """(||G psi||, ||G psi||^2 / (C^2 d)) of an unnormalized output G psi:
    its norm and the post-selection success probability, taken as
    (||G psi|| / C)^2 / d where C^2 overflows."""
    out_norm = float(np.linalg.norm(raw))
    if out_norm == 0.0:
        raise RuntimeError(f"{where}LCU output has zero norm; the state is annihilated by G")
    if math.isfinite(norm_c * norm_c):
        return out_norm, out_norm**2 / (norm_c**2 * d)
    return out_norm, (out_norm / norm_c) ** 2 / d


def apply_g(lcu: LcuOperator, state: StateVector):
    """Apply the combination to the state; returns the unnormalized result
    and the post-selection success probability ||G psi||^2 / (C^2 d)."""
    amps = np.zeros_like(state.amps)
    for g, ps in zip(lcu.coeffs, lcu.strings):
        if ps.n != state.n:
            raise ValueError(f"qubit counts differ: operator {ps.n}, state {state.n}")
        amps = amps + g * gather_kets(term_gathers((ps,), state.n), state.amps)[0]
    return StateVector(state.n, amps, normalized=False), _post_select(amps, lcu.norm_c, lcu.d)[1]


def _line_search(psi: np.ndarray, direction: np.ndarray, applied: tuple, scale: float, pencil):
    """Exact minimizer of the Rayleigh quotient over span{psi, direction}
    for normalized raw amplitudes psi, with ``pencil.apply(psi)`` and the
    residual's ``scale`` given: it solves the 2x2 projected pencil, and a
    near-singular leading component caps |delta| at 1e12 with a warning.
    The pencil is applied only to the part of the direction orthogonal to
    psi.  Returns (delta, predicted, images): psi + delta*direction attains
    the predicted quotient, and images is (A d, B d) for the direction d,
    combined from A psi, B psi and that part's images, or None where no
    direction is searched."""
    a_psi, b_psi, a00, b00 = applied
    f00 = a00 / b00  # the caller checked b00
    c = np.vdot(psi, direction)
    w = direction - c * psi
    wn = _norm(w)
    # w below the rounding of the terms (2/<B>)(A psi - F B psi) is formed
    # from is no direction
    if wn <= 1e-14 * (2.0 / b00) * scale:
        return 0.0 + 0.0j, f00, None
    tilde = w / wn
    a_til, b_til, a11, b11 = pencil.apply(tilde)
    # d = wn*tilde + c*psi, so its images combine those of tilde and psi
    images = (wn * a_til + c * a_psi, wn * b_til + c * b_psi)
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
        return 0.0 + 0.0j, f00, None
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
    return complex(delta_tilde) / wn, float(u1), images


def _perturbed(amps: np.ndarray, n: int, sigma: float, rng, where: str = "") -> np.ndarray:
    """Raw amplitudes plus the uniform perturbation tau * 2^(-n/2) on every
    amplitude, from one draw tau ~ N(0, sigma^2) (its norm is |tau|),
    renormalized; sigma = 0 returns ``amps`` itself (the zero-width draw
    is exactly zero).  Real rows add the real shift and stay real.  A norm
    that is not finite is an error."""
    shift = rng.normal(0.0, sigma) * 2.0 ** (-n / 2)
    if shift == 0:
        return amps
    out = amps + (complex(shift) if np.iscomplexobj(amps) else shift)
    out_norm = float(np.linalg.norm(out))
    if out_norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    if not math.isfinite(out_norm):
        raise ValueError(f"{where}the perturbed norm is not finite at noise_sigma = {sigma:.3e}")
    return out / out_norm


def run_fqge(pencil, initial: StateVector, cfg: FqgeConfig = FqgeConfig()) -> FqgeResult:
    """Iterate the G map from ``initial`` until the relative residual drops
    to cfg.epsilon or cfg.max_iters updates have been applied.

    Each iterate row holds the state as evaluated (before that row's
    update); the final row is terminal with a zero step.  The iteration
    runs on raw amplitudes: one ``pencil.apply`` per iterate gives the
    quotient and one residual (A - F B)psi gives the relative residual,
    the direction and the step G psi = psi + delta*direction.  Without
    noise, a line-search step applies the pencil to its search direction
    only and takes the next state's images, hence its quotient and
    residual, as the step's combination of the images of psi and of the
    direction; the first state, every fixed-step and every perturbed state
    and the row that ends the run get ``pencil.apply`` of their own, so
    the reported eigenvalue and residual are those of the returned state.
    Rows keep the raw amplitudes; a row's ``state``, and the result's (the
    last row's), is built when it is first read.  When the pencil is real
    and the start state has no imaginary part, the rows, the step and the
    noise are float64; states stay complex.

    The iteration runs on ``pencil.unit`` = (unit, e, e_b), whose
    eigenvalues are the pencil's times 2^-e: the fixed step there is
    cfg.delta 2^e, which makes the iterates the same bits, and each row's
    value and step, and the result's eigenvalue, are scaled back exactly
    (inf or 0 past the float range, which the caller's summary check
    reports).  The <B> check is the unit pencil's, so its floor is 1e-12
    of B's scale 2^e_b; its message and the step's name the pencil's own
    <B> and |delta|.
    """
    unit, e, e_b = pencil.unit
    rng = np.random.default_rng(cfg.seed)
    state = initial if initial.normalized else normalize(initial)
    real = unit.real and not state.amps.imag.any()
    psi = state.amps.real if real else state.amps
    basis = _lcu_basis(unit)
    rows = []
    applied = None  # (A psi, B psi, <A>, <B>) when a line-search step combined them
    # an overflow ends in the check of the step, of the noise or of the
    # caller's summary, not in a warning
    with np.errstate(over="ignore", invalid="ignore"):
        step = np.ldexp(cfg.delta, e)  # the fixed step on the unit pencil
        for s in count(1):
            # combined images carry the step's rounding: a row they would
            # end is evaluated again on psi's own images
            for explicit in (applied is None, True):
                if explicit:
                    applied = unit.apply(psi)
                a_psi, b_psi, a, b = applied
                value = a / check_b(b, e_b)
                r, scale, res = _residual(a_psi, b_psi, value)
                direction = -(2.0 / b) * r
                delta, own = (step if real else complex(step)), complex(cfg.delta)
                status = None
                if res <= cfg.epsilon:
                    status = "converged"
                elif s > cfg.max_iters:
                    status = "max_iters"
                elif cfg.line_search:
                    delta, _, images = _line_search(psi, direction, applied, scale, unit)
                    # on real rows every quantity of the 2x2 pencil, hence delta, is real
                    delta = delta.real if real else delta
                    # the pencil's own step is delta 2^-e
                    own = complex(np.ldexp(delta.real, -e), np.ldexp(delta.imag, -e))
                    if delta == 0:
                        status = "converged"
                if status is None or explicit:
                    break
            if status is not None:  # a terminal row: zero step, trivial LCU
                rows.append(FqgeIterate(s, psi, np.ldexp(value, e), res, 0.0 + 0.0j, 1.0, 1.0, 1))
                break
            norm_c, d = _lcu_size(_lcu_coeffs(basis, delta, value, b))
            raw = psi + delta * direction
            out_norm, success = _post_select(raw, norm_c, d, f"step {s}: ")
            if not (math.isfinite(out_norm) and math.isfinite(norm_c)):
                raise ValueError(f"step {s}: the step overflows at |delta| = {abs(own):.3e}")
            rows.append(FqgeIterate(s, psi, np.ldexp(value, e), res, own, success, norm_c, d))
            psi = raw / out_norm
            applied = None
            if cfg.noise_sigma > 0:
                psi = _perturbed(psi, unit.n, cfg.noise_sigma, rng, f"step {s}: ")
            elif cfg.line_search:
                # psi + delta*d is in span{psi, d}: A and B act on it by the same step
                a_psi = (a_psi + delta * images[0]) / out_norm
                b_psi = (b_psi + delta * images[1]) / out_norm
                applied = a_psi, b_psi, overlaps(psi, a_psi).real[()], overlaps(psi, b_psi).real[()]
    return FqgeResult(tuple(rows), status, rows[-1].value, rows[-1].state)
