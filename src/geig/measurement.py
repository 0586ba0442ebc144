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


def _families(coeffs: Sequence) -> list:
    """Validated coefficient arrays of the A, B and overlap families."""
    out = []
    for c, name in zip(coeffs, ("A", "B", "overlap")):
        c = np.asarray(list(c), dtype=float)
        if np.any(c < 0.0):
            raise ValueError(f"{name} coefficients must be >= 0")
        out.append(c)
    return out


def shot_allocation(
    alphas: Sequence[float], betas: Sequence[float], gammas: Sequence[float], eps: float
) -> ShotPlan:
    """Minimal-total shot counts meeting pseudo-error eps.

    Lagrange closed form: M_term = (Lam_a + Lam_b + Lam_o)/eps^2 * coeff,
    with Lam = sum coeff per family; counts are ceil-rounded with a floor
    of one shot.  Every term's variance is taken as 1, which bounds the
    variance of a +-1 Hadamard-test outcome.  An eps whose square, Lam /
    eps^2 or any count is not a finite float is refused.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"target pseudo-error must be finite and > 0, got {eps}")
    families = _families((alphas, betas, gammas))
    lam = sum(float(np.sum(c)) for c in families)
    if lam <= 0.0:
        raise ValueError("all coefficients are zero; nothing to allocate")
    try:
        mu_root = lam / eps**2
    except (OverflowError, ZeroDivisionError):  # eps^2 over- or underflows
        mu_root = math.inf
    scaled = [[mu_root * c for c in family.tolist()] for family in families]
    if not all(math.isfinite(x) for family in scaled for x in family):
        msg = "its square, Lam / eps^2 or a shot count is not a finite float"
        raise ValueError(f"target pseudo-error {eps!r} is out of range: {msg}")
    counts = [tuple(max(1, math.ceil(x)) for x in family) for family in scaled]
    return ShotPlan(*counts, sum(map(sum, counts)), eps)


def pseudo_error_sq(alphas, betas, gammas, m_a, m_b, m_o) -> float:
    """Pseudo-error eps^2 = sum coeff^2/M over all allocated terms (unit
    variances, as in ``shot_allocation``)."""
    total = 0.0
    for coeffs, counts in zip(_families((alphas, betas, gammas)), (m_a, m_b, m_o)):
        counts = np.asarray(list(counts), dtype=float)
        if counts.shape != coeffs.shape:
            raise ValueError("shot counts do not match coefficient count")
        if np.any(counts < 1):
            raise ValueError("shot counts must be >= 1")
        total += float(np.sum(coeffs**2 / counts))
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
