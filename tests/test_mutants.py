"""Every check can fail: a table of semantic mutants, each of which must turn
named claims red at seed 137, with `verify` exiting 1 and its report written.

A mutant wraps one kernel that `suites` imports by name and perturbs what
it returns; it is applied by monkeypatching the `suites` name, so the
builders call it in place of the kernel.  A kernel the builders reach only
through another module is named by an (owner, attribute) pair and patched
there.  Each row records the CLAIMS rows
(claim ids, or the family prefixes that key them) whose checks then fail,
and no others.

Known survivors, left out until a claim can see them: a global phase on
`eigenspinor`, a scale on `eta_matrix` or on `SelfPotentials.a`, a scale on
the oscillating part of `zbw_trajectory`, and `fitted_zbw_frequency` x1.005
(inside its 1% tolerance).
"""

import dataclasses
import json

import numpy as np
import pytest

import diraclab.lattice as lattice_mod
import diraclab.suites as suites_mod
from diraclab import cli
from diraclab.matrices import Representation, generators
from diraclab.suites import CLAIMS

SEED = 137


def _scaled(name, factor):
    """The suites' `name`, its result multiplied by factor."""
    kernel = getattr(suites_mod, name)
    return lambda *args, **kwargs: kernel(*args, **kwargs) * factor


def _field_scaled(name, field, factor):
    """The suites' `name`, one field of its dataclass result multiplied by factor."""
    kernel = getattr(suites_mod, name)

    def mutant(*args, **kwargs):
        out = kernel(*args, **kwargs)
        return dataclasses.replace(out, **{field: getattr(out, field) * factor})
    return mutant


def _drift_scaled(factor):
    kernel = suites_mod.zbw_trajectory

    def mutant(*args, **kwargs):
        out = kernel(*args, **kwargs)
        drift = out.drift * factor
        return dataclasses.replace(out, drift=drift, total=drift + out.zbw)
    return mutant


def _maxwell_h_scaled(factor):
    kernel = suites_mod.classical_maxwell_reference

    def mutant(*args, **kwargs):
        out = kernel(*args, **kwargs)
        return dataclasses.replace(out, h=tuple(c * factor for c in out.h))
    return mutant


def _sign_negated():
    """eigenspinor with every energy sign negated, elementwise on a stack."""
    kernel = suites_mod.eigenspinor

    def mutant(state, energy_sign=1, *args, **kwargs):
        return kernel(state, -np.asarray(energy_sign), *args, **kwargs)
    return mutant


def _lattice_estimates_scaled(factor):
    """_DiscreteKernel.slab with every h_est and e_est multiplied by factor."""
    slab = lattice_mod._DiscreteKernel.slab

    def mutant(self, *args, **kwargs):
        return [(h_est * factor, e_est * factor) for h_est, e_est in slab(self, *args, **kwargs)]
    return mutant


def _jz_component_shifted():
    """jz_apply with its last component's value moved by hbar, so no state
    is an eigenstate; the report must still hold the finite deviation."""
    kernel = suites_mod.jz_apply

    def mutant(cyl):
        out = kernel(cyl)
        values = out.component_values
        return dataclasses.replace(out, is_eigenstate=False, eigenvalue=None,
                                   component_values=values[:3] + (values[3] + cyl.constants.hbar,))
    return mutant


def _beta_flipped(rep=Representation.PAULI_DIRAC):
    """The generator set with the Pauli-Dirac beta's first diagonal entry negated."""
    gens = generators(rep)
    if rep is Representation.PAULI_DIRAC:
        gens[3][0, 0] = -gens[3][0, 0]
    return gens


MUTANTS = {
    "zbw_trajectory drift x1.01": (
        "zbw_trajectory", lambda: _drift_scaled(1.01),
        {"dynamics.eigenstate_drift_linear"}),
    "classical_maxwell_reference H x1.01": (
        "classical_maxwell_reference", lambda: _maxwell_h_scaled(1.01),
        {"fields.classical_curl"}),
    "self_potentials phi x(1+1e-6)": (
        "self_potentials", lambda: _field_scaled("self_potentials", "phi", 1.0 + 1e-6),
        {"fields.self_potentials_rest"}),
    "velocity_operator x(1+1e-6)": (
        "velocity_operator", lambda: _scaled("velocity_operator", 1.0 + 1e-6),
        {"dynamics.velocity_at_zero", "fields.kinematic_from_velocity"}),
    "rest_energy x(1+1e-9)": (
        "rest_energy", lambda: _scaled("rest_energy", 1.0 + 1e-9),
        {"fields.rest_energy_isotropic"}),
    "gyromagnetic_ratio x(1+1e-9)": (
        "gyromagnetic_ratio", lambda: _scaled("gyromagnetic_ratio", 1.0 + 1e-9),
        {"fields.gyromagnetic_doubled"}),
    "anomalous_moment_ratio x1.01": (
        "anomalous_moment_ratio", lambda: _scaled("anomalous_moment_ratio", 1.01),
        {"fields.anomalous_ratio_physical"}),
    "fitted_zbw_frequency x1.02": (
        "fitted_zbw_frequency", lambda: _scaled("fitted_zbw_frequency", 1.02),
        {"dynamics.zbw_frequency_fft"}),
    "eigenspinor energy sign negated": (
        "eigenspinor", _sign_negated,
        {"dynamics.eigenspinor_residual", "dynamics.eigenstate_drift_linear",
         "fields.self_potentials_rest", "states.coupled_split_residual",
         "states.eigen_wave_residual"}),
    "jz_apply last component + hbar": (
        "jz_apply", _jz_component_shifted,
        {"states.angular_eigenvalue.plus", "states.angular_eigenvalue.minus"}),
    "lattice estimates x(1+1e-9)": (
        (lattice_mod._DiscreteKernel, "slab"), lambda: _lattice_estimates_scaled(1.0 + 1e-9),
        {"lattice.discrete_prediction"}),
    "Pauli-Dirac beta[0, 0] negated": (
        "generators", lambda: _beta_flipped,
        {"algebra.clifford.pauli_dirac.anticomm", "algebra.clifford.pauli_dirac.traceless",
         "algebra.clifford.pauli_dirac.eigenvalues",
         "states.component_rows_match_matrix_form"}),
}


def _row_key(claim_id: str) -> str:
    """The CLAIMS key that judges claim_id: itself, or its longest family prefix."""
    key = claim_id
    while key not in CLAIMS:
        key = key.rpartition(".")[0]
    return key


@pytest.mark.parametrize("mutant", MUTANTS)
def test_each_mutant_turns_exactly_its_claims_red(monkeypatch, tmp_path, capsys, mutant):
    target, build, killers = MUTANTS[mutant]
    owner, name = target if isinstance(target, tuple) else (suites_mod, target)
    monkeypatch.setattr(owner, name, build())
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--seed", str(SEED), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert {_row_key(c["claim_id"]) for c in checks if not c["pass"]} == killers

