"""Finite-temperature thermodynamics of sl(n)-invariant spin chains.

The package solves the closed sets of nonlinear integral equations for the
n = 4, 5 invariant chains, evaluates the Yangian Young-tableau machinery
they rest on, and cross-checks everything against exact diagonalization.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DomainError,
    InconsistencyError,
    PoleError,
    QtmChainError,
    UnsupportedSubsetError,
)
from .tableaux import (
    EvalContext,
    RangeTableau,
    RootData,
    check_functional_relation,
    conjugate_data,
    eval_lambda,
    eval_q,
    eval_range_tableau,
    fused_eigenvalue,
)
from .aux_functions import (
    AuxFunctionDef,
    canonical_defs,
    canonical_pair,
    check_y_relations,
    counting_values,
    eval_aux,
    eval_f,
    eval_f_conjugate,
    function_order,
    legacy_defs,
)
from .spectral import (
    AdjacencyMatrix,
    EafFactorization,
    adjacency_matrix,
    bae_residuals,
    eaf_factorization,
    eigenvalue_from_roots,
    residue_check,
    solve_bethe_roots,
)
from .kernels import (
    KernelSystem,
    common_kernel,
    integration_constants,
    kernel_system,
)
from .solver import (
    Grid,
    NlieState,
    asymptotic_constants,
    default_grid,
    free_energy,
    gamma_term,
    log_eigenvalue,
    solve_nlie,
)
from .thermo import ThermoPoint, sweep, thermo_point
from .oracle import (
    build_hamiltonian,
    finite_free_energy,
    qtm_eigenvalue,
    qtm_matrix,
    spin2_identity_residual,
    transfer_matrix,
    trotter_free_energy,
    ybe_residual,
)
