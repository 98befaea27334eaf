"""Deterministic numerical checks for a Dirac-electron matrix model.

Matrix algebra for two generator sets, plane-wave and cylindrical spinor
states, closed-form trembling-motion dynamics, commutator-derived self
fields, and a lattice cross-check of the commutator field extraction.
Every identity in the check catalogue is compared against an independent
brute-force oracle; `run_suite` assembles the machine-readable report the
`diraclab` CLI writes.
"""

import importlib

# Public name -> the submodule that defines it.  Names resolve on first use
# (PEP 562), so `import diraclab` loads no submodule and no numpy; each
# access reads the submodule's current binding, never a copy kept here.
_EXPORTS = {
    "DEFAULT_SEED": "config",
    "SUITE_NAMES": "config",
    "RunConfig": "config",
    "resolve_run_config": "config",
    "PhysicalConstants": "constants",
    "MomentumState": "dynamics",
    "eigenspinor": "dynamics",
    "fitted_zbw_frequency": "dynamics",
    "spectrum": "dynamics",
    "zbw_closed_form": "dynamics",
    "zbw_trajectory": "dynamics",
    "ConfigError": "errors",
    "DomainError": "errors",
    "self_fields_commutator": "fields",
    "self_fields_matrix_maxwell": "fields",
    "self_potentials": "fields",
    "Grid3": "lattice",
    "commutator_field_extract": "lattice",
    "convergence_study": "lattice",
    "make_preset": "lattice",
    "Representation": "matrices",
    "generators": "matrices",
    "VerificationReport": "report",
    "report_json": "report",
    "text_summary": "report",
    "PlaneWave": "spinors",
    "angular_eigenstate": "spinors",
    "jz_apply": "spinors",
    "run_suite": "suites",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]
