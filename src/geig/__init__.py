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
    loss_state,
    run_fqge,
)
from .measurement import (
    ErrorBudget,
    ShotPlan,
    error_bound,
    per_term_precision,
    shot_allocation,
)
from .pauli import PauliString, PauliSum, apply_sum, decompose, dense_matrix
from .pencil import Pencil
from .reference import (
    EigenDecomposition,
    count_distinct,
    generalized_eig,
    generalized_eig_dense,
)
from .statevector import StateVector, basis_state, zero_state
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
    "apply_sum",
    "basis_state",
    "build_lcu",
    "count_distinct",
    "decompose",
    "dense_matrix",
    "entangler_pairs",
    "error_bound",
    "generalized_eig",
    "generalized_eig_dense",
    "grad_f",
    "grad_fj",
    "loss_f",
    "loss_fj",
    "loss_state",
    "per_term_precision",
    "random_params",
    "run_fqge",
    "shot_allocation",
    "solve_spectrum",
    "zero_state",
]
