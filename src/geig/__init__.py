"""Classical simulation toolkit for generalized eigenvalue problems
A|psi> = lambda B|psi> over Pauli-sum operator pencils: a variational
solver, an iterative LCU descent solver, shot/precision budgeting, and a
dense reference oracle."""

from .ansatz import AnsatzParams, apply_ansatz, entangler_pairs, random_params
from .fqge import (
    FqgeConfig,
    FqgeIterate,
    FqgeResult,
    LcuOperator,
    apply_g,
    build_lcu,
    gradient_direction,
    line_search,
    loss_state,
    noise_inject,
    residual,
    run_fqge,
)
from .measurement import (
    ErrorBudget,
    ShotPlan,
    error_bound,
    hadamard_test,
    per_term_precision,
    shot_allocation,
)
from .pauli import PauliString, PauliSum, apply_string, apply_sum, decompose, dense_matrix
from .pauli import expectation
from .pencil import Pencil
from .reference import (
    EigenDecomposition,
    cholesky,
    count_distinct,
    generalized_eig,
    generalized_eig_dense,
    hermitian_eig,
)
from .statevector import StateVector, basis_state, fidelity, zero_state
from .vqge import (
    DeflationRecord,
    OptConfig,
    OptTrace,
    SolveConfig,
    SpectrumLevel,
    grad_f,
    grad_fj,
    loss_f,
    loss_fj,
    optimize,
    overlap_sq,
    solve_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzParams",
    "DeflationRecord",
    "EigenDecomposition",
    "ErrorBudget",
    "FqgeConfig",
    "FqgeIterate",
    "FqgeResult",
    "LcuOperator",
    "OptConfig",
    "OptTrace",
    "PauliString",
    "PauliSum",
    "Pencil",
    "ShotPlan",
    "SolveConfig",
    "SpectrumLevel",
    "StateVector",
    "apply_ansatz",
    "apply_g",
    "apply_string",
    "apply_sum",
    "basis_state",
    "build_lcu",
    "cholesky",
    "count_distinct",
    "decompose",
    "dense_matrix",
    "entangler_pairs",
    "error_bound",
    "expectation",
    "fidelity",
    "generalized_eig",
    "generalized_eig_dense",
    "grad_f",
    "grad_fj",
    "gradient_direction",
    "hadamard_test",
    "hermitian_eig",
    "line_search",
    "loss_f",
    "loss_fj",
    "loss_state",
    "noise_inject",
    "optimize",
    "overlap_sq",
    "per_term_precision",
    "random_params",
    "residual",
    "run_fqge",
    "shot_allocation",
    "solve_spectrum",
    "zero_state",
]
