"""The benchmark's workloads: the CLI command each one runs, the problem it
runs on, and the correctness gate its JSON summary must pass.

Every gate compares against ``problems.dense_spectrum``, which the
benchmark computes with numpy outside the timed process, and not against the
package's own oracle alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from problems import DenseSpectrum, distinct

VQGE_TOL = 1e-2  # acceptance criterion 1
FQGE_TOL = 1e-6
REFERENCE_TOL = 1e-9
SHOTS = 2000
# The reported vqge value is the best of every noisy loss evaluated on a
# level (iters + 1 steps times the restarts), which biases it down by a few
# standard deviations; six leaves room for the deflation penalties' noise.
SHOT_SIGMAS = 6.0


def _level_errors(found, exact: np.ndarray) -> np.ndarray:
    """Distance of each found level to the exact distinct levels: pairwise
    when all levels were found, else to the nearest exact level."""
    found = np.sort(np.asarray(found, dtype=float))
    levels = distinct(exact)
    if found.size == levels.size:
        return np.abs(found - levels)
    return np.array([np.min(np.abs(levels - f)) for f in found])


def shot_tolerance(problem: dict, shots: int, spectrum: DenseSpectrum) -> float:
    """SHOT_SIGMAS standard deviations of the estimated quotient <A>/<B>.

    One Hadamard-test estimate of <P> from ``shots`` samples has variance
    (1 - <P>^2) / shots <= 1 / shots, and the identity string is exact, so
    sigma_A <= sqrt(sum_k a_k^2 / shots) over the non-identity terms.  The
    quotient's error is at most (sigma_A + |lambda|max sigma_B) / eta1.
    """

    def sigma(terms) -> float:
        weights = [t["coeff"] ** 2 for t in terms if set(t["ops"]) != {"I"}]
        return math.sqrt(sum(weights) / shots)

    lam = float(np.max(np.abs(spectrum.eigenvalues)))
    return SHOT_SIGMAS * (sigma(problem["A"]) + lam * sigma(problem["B"])) / spectrum.eta1


def _check_levels(summary, spectrum, tol) -> list:
    failures = []
    reported = summary.get("reference", {}).get("max_abs_error")
    if reported is None or not reported <= tol:
        failures.append(f"reference.max_abs_error {reported} above {tol:.3g}")
    worst = float(np.max(_level_errors(summary["eigenvalues"], spectrum.eigenvalues)))
    if not worst <= tol:
        failures.append(f"eigenvalue error {worst:.3e} against eigh, above {tol:.3g}")
    return failures


def check_vqge_exact(summary, problem, spectrum) -> list:
    return _check_levels(summary, spectrum, VQGE_TOL)


def check_vqge_shots(summary, problem, spectrum) -> list:
    return _check_levels(summary, spectrum, shot_tolerance(problem, SHOTS, spectrum))


def check_fqge(summary, problem, spectrum) -> list:
    failures = []
    if summary.get("status") != "converged":
        failures.append(f"status {summary.get('status')!r}, not 'converged'")
    err = abs(summary["eigenvalue"] - float(spectrum.eigenvalues[0]))
    if not err <= FQGE_TOL:
        failures.append(f"eigenvalue {err:.3e} from the eigh ground value")
    return failures


def check_reference(summary, problem, spectrum) -> list:
    got = np.sort(np.asarray(summary["eigenvalues"], dtype=float))
    if got.shape != spectrum.eigenvalues.shape:
        return [f"{got.size} eigenvalues, expected {spectrum.eigenvalues.size}"]
    failures = []
    err = float(np.max(np.abs(got - spectrum.eigenvalues)))
    if not err <= REFERENCE_TOL:
        failures.append(f"eigenvalues {err:.3e} from eigh")
    eta_err = abs(summary["eta1"] - spectrum.eta1)
    if not eta_err <= REFERENCE_TOL:
        failures.append(f"eta1 {eta_err:.3e} from eigh")
    return failures


@dataclass(frozen=True)
class Workload:
    """``qubits`` None runs on the bundled pencil with no problem argument;
    otherwise the seeded Ising-type pencil of that size is passed as a file.
    The ``smoke_*`` fields give the smallest version, for the shape check."""

    name: str
    why: str
    argv: tuple
    qubits: Optional[int]
    check: Callable
    needs_eta1: bool
    smoke_argv: tuple
    smoke_qubits: Optional[int]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "vqge-demo2q",
            "geig vqge defaults on the bundled 2-qubit pencil: per-call overhead in "
            "statevector, ansatz, pi-shift gradients and small apply_sum",
            ("vqge",),
            None,
            check_vqge_exact,
            False,
            ("vqge", "--r", "1", "--restarts", "1"),
            None,
        ),
        Workload(
            "vqge-shots2q",
            "same optimizer with 2000-shot Hadamard tests: the only measurement "
            "workload, and the pi-shift path an exact-mode gradient change bypasses",
            ("vqge", "--shots", str(SHOTS), "--restarts", "2", "--iters", "100"),
            None,
            check_vqge_shots,
            True,
            ("vqge", "--shots", str(SHOTS), "--r", "1", "--restarts", "1", "--iters", "100"),
            None,
        ),
        Workload(
            "fqge-ising11",
            "geig fqge --line-search on a seeded 11-qubit Ising pencil: apply_sum on "
            "2048 amplitudes dominates; no ansatz and no dense oracle above the cap",
            ("fqge", "--line-search", "--epsilon", "1e-6"),
            11,
            check_fqge,
            False,
            ("fqge", "--line-search", "--epsilon", "1e-6"),
            4,
        ),
        Workload(
            "reference-ising7",
            "geig reference on a seeded 7-qubit Ising pencil: dense Jacobi sweeps "
            "dominate; statevector, ansatz and the Pauli action are bypassed",
            ("reference",),
            7,
            check_reference,
            True,
            ("reference",),
            4,
        ),
    )
}
