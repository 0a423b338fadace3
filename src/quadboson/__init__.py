"""Diagonalization, stability analysis, and exact evolution of hermitian
quadratic boson forms via generalized (non-adjoint) Bogoliubov transforms."""

from .core import (
    QuadraticForm,
    bar,
    bar_symmetrize,
    bar_vector,
    build_form,
    quadratic_matrix,
)
from .spectral import (
    CLASS_CODES,
    CLASS_LABELS,
    BogoliubovTransform,
    ModePair,
    StabilityClass,
    StabilityColumns,
    StabilityReport,
    classify,
    classify_stack,
    normalize_pairs,
    sqrt_metric_spectrum,
)
from .evolution import (
    GrowthClass,
    GrowthKind,
    Propagator,
    PropagatorStack,
    growth_class,
    mode_evolution,
    ode_cross_check,
    propagate,
    propagate_grid,
    propagate_stack,
)
from .bcs import (
    BcsParams,
    BcsSweep,
    BcsThresholds,
    JordanDecoupledForm,
    bcs_alpha,
    bcs_closed_evolution,
    bcs_form,
    bcs_jordan_form,
    bcs_lambda,
    bcs_lambda_formula,
    bcs_sigma,
    bcs_sweep,
    bcs_thresholds,
    bcs_transform,
    bcs_uv,
)
from .oracle import (
    FockSpectrumReport,
    fock_ground_energy,
    fock_ground_trend,
    fock_hamiltonian,
    fock_spectrum_check,
)
from .formio import dumps_form, form_digest, load_form, loads_form, read_form, save_form
from . import errors

__version__ = "0.1.0"
