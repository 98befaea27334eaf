"""Deterministic numerical checks for a Dirac-electron matrix model.

Matrix algebra for two generator sets, plane-wave and cylindrical spinor
states, closed-form trembling-motion dynamics, commutator-derived self
fields, and a lattice cross-check of the commutator field extraction.
Every identity in the check catalogue is compared against an independent
brute-force oracle; `run_suite` assembles the machine-readable report the
`diraclab` CLI writes.
"""

from .config import DEFAULT_SEED, SUITE_NAMES, RunConfig, resolve_run_config
from .constants import PhysicalConstants
from .dynamics import (
    MomentumState,
    eigenspinor,
    fitted_zbw_frequency,
    hamiltonian,
    spectrum,
    zbw_closed_form,
    zbw_trajectory,
)
from .errors import ConfigError, DomainError
from .fields import (
    self_fields_commutator,
    self_fields_matrix_maxwell,
    self_potentials,
)
from .lattice import Grid3, commutator_field_extract, convergence_study, make_preset
from .matrices import Representation, clifford_check, generators
from .report import VerificationReport, report_json, text_summary
from .spinors import PlaneWave, angular_eigenstate, jz_apply
from .suites import run_suite

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "SUITE_NAMES",
    "RunConfig",
    "resolve_run_config",
    "PhysicalConstants",
    "MomentumState",
    "eigenspinor",
    "fitted_zbw_frequency",
    "hamiltonian",
    "spectrum",
    "zbw_closed_form",
    "zbw_trajectory",
    "ConfigError",
    "DomainError",
    "self_fields_commutator",
    "self_fields_matrix_maxwell",
    "self_potentials",
    "Grid3",
    "commutator_field_extract",
    "convergence_study",
    "make_preset",
    "Representation",
    "clifford_check",
    "generators",
    "VerificationReport",
    "report_json",
    "text_summary",
    "PlaneWave",
    "angular_eigenstate",
    "jz_apply",
    "run_suite",
    "__version__",
]
