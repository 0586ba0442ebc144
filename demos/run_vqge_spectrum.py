"""Recover the full spectrum of the bundled two-qubit pencil with the
variational solver and compare every level against the dense reference.

Run from the repository root after installing the package:

    python3 demos/run_vqge_spectrum.py
"""

import numpy as np

from geig.pauli import PauliSum, apply_sum
from geig.pencil import Pencil
from geig.reference import generalized_eig
from geig.statevector import inner
from geig.vqge import OptConfig, SolveConfig, solve_spectrum

A_TERMS = [(1.0, "II"), (0.4, "ZI"), (0.4, "IZ"), (0.2, "XX")]
B_TERMS = [(1.0, "II"), (0.3, "ZI"), (0.4, "IZ"), (0.2, "ZZ")]


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def demo_spectrum():
    banner("variational spectrum recovery, 2 qubits, 4 levels")
    pencil = Pencil(PauliSum(2, A_TERMS), PauliSum(2, B_TERMS))
    ref = generalized_eig(pencil)

    config = SolveConfig(layers=2, restarts=5, seed=0, opt=OptConfig(iters=200))
    levels = solve_spectrum(pencil, r=4, config=config)

    print(f"{'level':>5} {'objective':>10} {'found':>22} {'reference':>22} {'abs err':>10}")
    for j, (level, lam) in enumerate(zip(levels, ref.eigenvalues), start=1):
        err = abs(level.eigenvalue - lam)
        print(
            f"{j:>5} {level.objective:>10} {level.eigenvalue:>22.15f} "
            f"{lam:>22.15f} {err:>10.2e}"
        )

    banner("B-orthogonality of the recovered states (Gram matrix)")
    states = [level.state for level in levels]
    gram = np.array(
        [[inner(si, apply_sum(pencil.B, sj)) for sj in states] for si in states]
    )
    with np.printoptions(precision=3, suppress=True):
        print(np.abs(gram))
    off = np.abs(gram - np.eye(4)).max()
    print(f"\nmax deviation from the identity: {off:.2e}")


def demo_optimizer_trace():
    banner("per-restart optimizer traces for the ground level")
    pencil = Pencil(PauliSum(2, A_TERMS), PauliSum(2, B_TERMS))
    config = SolveConfig(layers=2, restarts=3, seed=1, opt=OptConfig(iters=120))
    level = solve_spectrum(pencil, r=1, config=config)[0]
    print(f"best restart: {level.best_restart}")
    for k, trace in enumerate(level.traces):
        first = trace.losses[0]
        last = trace.losses[-1]
        print(
            f"restart {k}: start {first:+.6f}  end {last:+.6f}  "
            f"best {trace.best_value:+.6f}"
        )


if __name__ == "__main__":
    demo_spectrum()
    demo_optimizer_trace()
