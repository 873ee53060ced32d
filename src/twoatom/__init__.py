"""Dissipative dynamics and entanglement of two closely spaced two-level atoms."""

from .entanglement import (
    asymptotic_concurrence,
    concurrence,
    entropy_of_entanglement,
    is_ppt_separable,
)
from .model import (
    ModelParams,
    ParameterError,
    StepTooLargeError,
    evolve_series,
    integrate,
    lindblad_rhs,
    liouvillian,
)
from .propagator import (
    AsymptoticParams,
    DegenerateRatesError,
    asymptotic_params,
    asymptotic_state,
    c_max,
    evolve,
    t_gamma,
)
from .qmat import (
    InvalidStateError,
    NotHermitianError,
    NotPSDError,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose_a,
    validate_state,
)
from .states import (
    bell,
    bell_diagonal,
    bell_vector,
    mems,
    mems_h,
    mes,
    product_state,
    purity,
    werner,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticParams",
    "DegenerateRatesError",
    "InvalidStateError",
    "ModelParams",
    "NotHermitianError",
    "NotPSDError",
    "ParameterError",
    "StepTooLargeError",
    "asymptotic_concurrence",
    "asymptotic_params",
    "asymptotic_state",
    "bell",
    "bell_diagonal",
    "bell_vector",
    "c_max",
    "concurrence",
    "entropy_of_entanglement",
    "evolve",
    "evolve_series",
    "hermitian_eigenvalues",
    "integrate",
    "is_ppt_separable",
    "lindblad_rhs",
    "liouvillian",
    "mems",
    "mems_h",
    "mes",
    "partial_trace",
    "partial_transpose_a",
    "product_state",
    "purity",
    "t_gamma",
    "validate_state",
    "werner",
]
