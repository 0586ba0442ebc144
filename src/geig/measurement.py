"""Hadamard-test emulation with optional binomial shot noise, the loss
error bound, and Lagrange-optimal measurement-shot allocation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pencil import check_int


@dataclass(frozen=True)
class ErrorBudget:
    """Per-component estimation error budget for the Rayleigh quotient.

    eps_a / eps_b are the numerator / denominator expectation errors, eps_o
    the overlap-penalty error; eta1 is the smallest eigenvalue of B and
    lambda_r the largest generalized eigenvalue.
    """

    eps_a: float
    eps_b: float
    eps_o: float
    eta1: float
    lambda_r: float

    def __post_init__(self):
        if min(self.eps_a, self.eps_b, self.eps_o) < 0.0:
            raise ValueError("error components must be >= 0")


@dataclass(frozen=True)
class ShotPlan:
    """Integral per-term shot counts for the A, B and overlap estimators."""

    m_a: tuple
    m_b: tuple
    m_o: tuple
    total: int
    eps: float


def sample_overlaps(values, shots: int = 0, rng=None) -> np.ndarray:
    """Hadamard-test estimates of an array of exact overlaps <u|P|w>.

    ``shots`` is an integer (not a bool): a fractional count would draw
    Bin(floor(shots), p) and divide by shots, a biased estimate.  With
    ``shots == 0`` the values come back unchanged.  Otherwise the real and
    then the imaginary part of each entry, in C order, is replaced by the
    unbiased binomial estimate 2k/shots - 1 with k ~ Bin(shots, (1 +
    part)/2), all drawn by one ``rng.binomial`` call; that consumes the
    generator exactly as the same scalar draws made one after another.
    """
    values = np.ascontiguousarray(values, dtype=np.complex128)
    check_int("shot count", shots, 0)
    if shots == 0:
        return values
    rng = np.random.default_rng(rng)
    # (1 + part) / 2 clipped to [0, 1], in place; a NaN stays NaN, which
    # the binomial draw refuses
    p = values.view(np.float64) + 1.0
    p /= 2.0
    np.minimum(p, 1.0, out=p)
    np.maximum(p, 0.0, out=p)
    estimates = rng.binomial(shots, p) * 2.0
    estimates /= shots
    estimates -= 1.0
    return estimates.view(np.complex128)


def error_bound(budget: ErrorBudget) -> float:
    """Worst-case loss error (eps_a + |lambda_r|*eps_b)/eta1 + eps_o."""
    if budget.eta1 <= 0.0:
        raise ValueError(f"eta1 must be > 0, got {budget.eta1}")
    return (budget.eps_a + abs(budget.lambda_r) * budget.eps_b) / budget.eta1 + budget.eps_o


def _families(coeffs: Sequence, sigmas: Sequence) -> list:
    """Validated (coeffs, sigmas) arrays of the A, B and overlap families;
    variances default to ones."""
    out = []
    for c, s, name in zip(coeffs, sigmas, ("A", "B", "overlap")):
        c = np.asarray(list(c), dtype=float)
        if np.any(c < 0.0):
            raise ValueError(f"{name} coefficients must be >= 0")
        if s is None:
            s = np.ones_like(c)
        else:
            s = np.asarray(list(s), dtype=float)
            if s.shape != c.shape:
                raise ValueError(f"{name}: {c.size} coefficients, {s.size} variances")
            if np.any(s <= 0.0):
                raise ValueError(f"{name} variances must be > 0")
        out.append((c, s))
    return out


def shot_allocation(
    alphas: Sequence[float],
    betas: Sequence[float],
    gammas: Sequence[float],
    eps: float,
    sigmas_a=None,
    sigmas_b=None,
    sigmas_o=None,
) -> ShotPlan:
    """Minimal-total shot counts meeting pseudo-error eps.

    Lagrange closed form: M_term = (Lam_a + Lam_b + Lam_o)/eps^2 *
    coeff*sqrt(sigma), with Lam = sum coeff*sqrt(sigma) per family; counts
    are ceil-rounded with a floor of one shot.  Variances default to 1.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"target pseudo-error must be finite and > 0, got {eps}")
    families = _families((alphas, betas, gammas), (sigmas_a, sigmas_b, sigmas_o))
    lam = sum(float(np.sum(c * np.sqrt(s))) for c, s in families)
    if lam <= 0.0:
        raise ValueError("all coefficients are zero; nothing to allocate")
    mu_root = lam / eps**2
    counts = [
        tuple(max(1, math.ceil(mu_root * c * math.sqrt(s))) for c, s in zip(*family))
        for family in families
    ]
    return ShotPlan(*counts, sum(map(sum, counts)), eps)


def pseudo_error_sq(
    alphas, betas, gammas, m_a, m_b, m_o, sigmas_a=None, sigmas_b=None, sigmas_o=None
) -> float:
    """Pseudo-error eps^2 = sum coeff^2*sigma/M over all allocated terms."""
    families = _families((alphas, betas, gammas), (sigmas_a, sigmas_b, sigmas_o))
    total = 0.0
    for (coeffs, sigmas), counts in zip(families, (m_a, m_b, m_o)):
        counts = np.asarray(list(counts), dtype=float)
        if counts.shape != coeffs.shape:
            raise ValueError("shot counts do not match coefficient count")
        if np.any(counts < 1):
            raise ValueError("shot counts must be >= 1")
        total += float(np.sum(coeffs**2 * sigmas / counts))
    return total


def per_term_precision(coeffs: Sequence[float], eps_total: float) -> np.ndarray:
    """Split a target precision across weighted terms.

    Term i gets eps_i = sqrt(|a_i| / sum_j |a_j|) * eps_total, so the
    implied estimator variances add back to eps_total^2.
    """
    if not (math.isfinite(eps_total) and eps_total > 0.0):
        raise ValueError(f"target precision must be finite and > 0, got {eps_total}")
    mags = np.abs(np.asarray(list(coeffs), dtype=float))
    weight = float(np.sum(mags))
    if weight <= 0.0:
        raise ValueError("all coefficients are zero")
    return np.sqrt(mags / weight) * eps_total
