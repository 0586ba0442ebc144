"""Drive the iterative LCU descent on the bundled two-qubit pencil: a
fixed-step run, the exact line-search variant, and a noisy sweep.

Run from the repository root after installing the package:

    python3 demos/run_fqge_descent.py
"""

import numpy as np

from geig.fqge import FqgeConfig, run_fqge
from geig.pauli import PauliSum
from geig.pencil import Pencil
from geig.reference import generalized_eig
from geig.statevector import basis_state

A_TERMS = [(1.0, "II"), (0.4, "ZI"), (0.4, "IZ"), (0.2, "XX")]
B_TERMS = [(1.0, "II"), (0.3, "ZI"), (0.4, "IZ"), (0.2, "ZZ")]


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def show_rows(rows, stride=1):
    print(f"{'s':>4} {'F':>20} {'residual':>12} {'P_suc':>10} {'C':>8} {'d':>3}")
    for row in rows:
        if (row.s - 1) % stride and row.s != rows[-1].s:
            continue
        print(
            f"{row.s:>4} {row.value:>20.15f} {row.residual:>12.3e} "
            f"{row.success_prob:>10.4f} {row.lcu_norm_c:>8.4f} {row.lcu_terms:>3}"
        )


def demo_fixed_step():
    banner("fixed step delta = 0.1 from |00>")
    pencil = Pencil(PauliSum(2, A_TERMS), PauliSum(2, B_TERMS))
    ref = generalized_eig(pencil)
    result = run_fqge(pencil, basis_state(2, 0), FqgeConfig(delta=0.1))
    show_rows(result.iterates, stride=8)
    print(f"\nstatus: {result.status} after {len(result.iterates) - 1} updates")
    print(f"eigenvalue: {result.eigenvalue:.15f}")
    print(f"reference : {ref.eigenvalues[0]:.15f}")
    print(f"abs error : {abs(result.eigenvalue - ref.eigenvalues[0]):.2e}")


def demo_line_search():
    banner("exact line search (one step suffices on a 2x2 block)")
    pencil = Pencil(PauliSum(2, A_TERMS), PauliSum(2, B_TERMS))
    result = run_fqge(pencil, basis_state(2, 0), FqgeConfig(line_search=True))
    show_rows(result.iterates)
    row = result.iterates[0]
    print(f"\nstep size used: {row.delta_used}")
    print(f"status: {result.status} after {len(result.iterates) - 1} update(s)")


def demo_noise_sweep():
    banner("statevector noise sweep, sigma = 0.01, 20 seeds")
    pencil = Pencil(PauliSum(2, A_TERMS), PauliSum(2, B_TERMS))
    ref = generalized_eig(pencil)
    errors = []
    for seed in range(20):
        cfg = FqgeConfig(delta=0.1, noise_sigma=0.01, seed=seed)
        result = run_fqge(pencil, basis_state(2, 0), cfg)
        errors.append(abs(result.eigenvalue - ref.eigenvalues[0]))
    errors = np.array(errors)
    print(f"final |error| over seeds:  min {errors.min():.2e}")
    print(f"                        median {np.median(errors):.2e}")
    print(f"                           max {errors.max():.2e}")


if __name__ == "__main__":
    demo_fixed_step()
    demo_line_search()
    demo_noise_sweep()
