"""Plane-wave residuals, two-component split, angular eigenstates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.constants import PhysicalConstants
from diraclab.dynamics import MomentumState, eigenspinor
from diraclab.errors import DomainError
from diraclab.matrices import Representation, generators
from diraclab.spinors import (
    BRANCH_MINUS,
    BRANCH_PLUS,
    CylindricalPlaneWave,
    CylindricalSpinor,
    PlaneWave,
    angular_eigenstate,
    component_residual,
    coupled_residual,
    cylindrical_residual,
    jz_apply,
    recompose,
    spin_coherent_expectation,
    spin_coherent_state,
    split_bispinor,
)

K = PhysicalConstants()


def random_wave(rng, omega=None):
    amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    p = 2.0 * rng.standard_normal(3)
    if omega is None:
        omega = float(rng.standard_normal())
    return PlaneWave(amplitude=amp, p=p, omega=omega, constants=K)


def matrix_form_residual(wave, points):
    """Independent oracle: i hbar d_t psi - H psi row by row."""
    a1, a2, a3, beta = generators(Representation.PAULI_DIRAC)
    rows = []
    for (x, y, z, t) in points:
        s = wave.sample(x, y, z, t)
        row = (1j * K.hbar * s.d_t
               + 1j * K.hbar * K.c * (a1 @ s.d_x + a2 @ s.d_y + a3 @ s.d_z)
               - K.mass * K.c**2 * (beta @ s.psi))
        rows.append(row)
    return np.array(rows)


def test_plane_wave_keeps_read_only_copies_of_its_arrays():
    amp = np.array([1.0, 0.5j, -0.25, 0.0], dtype=complex)
    p = np.array([0.3, -0.2, 0.5])
    wave = PlaneWave(amplitude=amp, p=p, omega=0.7, constants=K)
    before = wave.sample(0.1, 0.2, 0.3, 0.0)
    amp[0] = 5.0
    p[0] = 2.0
    after = wave.sample(0.1, 0.2, 0.3, 0.0)
    for name in ("psi", "d_t", "d_x", "d_y", "d_z"):
        assert np.array_equal(getattr(after, name), getattr(before, name)), name
    with pytest.raises(ValueError):
        wave.p[0] = 1.0
    with pytest.raises(ValueError):
        wave.amplitude[0] = 1.0


def test_component_rows_equal_matrix_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        wave = random_wave(rng)
        pts = [tuple(map(float, row)) for row in rng.standard_normal((5, 4))]
        got = component_residual(wave, pts)
        want = matrix_form_residual(wave, pts)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_on_shell_eigenvector_waves_have_zero_residual():
    rng = np.random.default_rng(12)
    for _ in range(6):
        p = rng.uniform(-2.0, 2.0, 3)
        state = MomentumState(p=p, constants=K)
        for sign in (1, -1):
            u = eigenspinor(state, sign, "down")
            wave = PlaneWave(amplitude=u, p=p, omega=sign * state.energy / K.hbar,
                             constants=K)
            pts = [tuple(map(float, row)) for row in rng.standard_normal((4, 4))]
            assert np.max(np.abs(component_residual(wave, pts))) <= 1e-12


def test_wrong_frequency_leaves_residual():
    # negative control: detuned omega must not satisfy the equations
    rng = np.random.default_rng(13)
    p = rng.uniform(-1.0, 1.0, 3)
    state = MomentumState(p=p, constants=K)
    u = eigenspinor(state, 1, "up")
    wave = PlaneWave(amplitude=u, p=p, omega=1.1 * state.energy / K.hbar, constants=K)
    res = component_residual(wave, [(0.0, 0.0, 0.0, 0.0)])
    assert np.max(np.abs(res)) > 1e-3


def test_scrambled_components_leave_residual():
    rng = np.random.default_rng(14)
    p = rng.uniform(-1.0, 1.0, 3)
    state = MomentumState(p=p, constants=K)
    u = eigenspinor(state, 1, "up")
    scrambled = u[[1, 0, 3, 2]]
    wave = PlaneWave(amplitude=scrambled, p=p, omega=state.energy / K.hbar, constants=K)
    res = component_residual(wave, [(0.3, -0.2, 0.5, 0.1)])
    assert np.max(np.abs(res)) > 1e-3


def test_split_stack_matches_component_rows_at_origin():
    rng = np.random.default_rng(15)
    for _ in range(8):
        wave = random_wave(rng)
        r_up, r_lo = coupled_residual(wave)
        row = component_residual(wave, [(0.0, 0.0, 0.0, 0.0)])[0]
        assert np.max(np.abs(np.concatenate([r_up, r_lo]) - row)) <= 1e-13


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=8, max_size=8))
def test_split_recompose_round_trip(vals):
    psi = np.array(vals[:4]) + 1j * np.array(vals[4:])
    assert np.array_equal(recompose(split_bispinor(psi)), psi)


def test_cylindrical_rows_match_cartesian():
    rng = np.random.default_rng(16)
    for _ in range(8):
        wave = random_wave(rng)
        cyl = CylindricalPlaneWave(wave)
        rho = float(rng.uniform(0.3, 2.0))
        phi = float(rng.uniform(-math.pi, math.pi))
        z = float(rng.standard_normal())
        t = float(rng.standard_normal())
        got = cylindrical_residual(cyl, [(rho, phi, z, t)])[0]
        want = component_residual(
            wave, [(rho * math.cos(phi), rho * math.sin(phi), z, t)])[0]
        assert np.max(np.abs(got - want)) <= 1e-10


def test_cylindrical_rejects_axis_points():
    wave = random_wave(np.random.default_rng(17))
    cyl = CylindricalPlaneWave(wave)
    with pytest.raises(DomainError):
        cylindrical_residual(cyl, [(0.0, 0.1, 0.2, 0.3)])
    with pytest.raises(DomainError):
        cylindrical_residual(cyl, [(-0.5, 0.1, 0.2, 0.3)])


@pytest.mark.parametrize("l", range(-5, 6))
@pytest.mark.parametrize("branch,offset", [(BRANCH_PLUS, 0.5), (BRANCH_MINUS, -0.5)])
def test_angular_eigenvalues_exact(l, branch, offset):
    cyl = angular_eigenstate(l, branch)
    res = jz_apply(cyl, K)
    assert res.is_eigenstate
    assert res.eigenvalue == K.hbar * (l + offset)


def test_angular_family_index_patterns():
    assert angular_eigenstate(2, BRANCH_PLUS).angular_indices == (2, 3, 2, 3)
    assert angular_eigenstate(2, BRANCH_MINUS).angular_indices == (1, 2, 1, 2)


def test_mixed_indices_not_an_eigenstate():
    cyl = CylindricalSpinor(angular_indices=(0, 2, 0, 1))
    res = jz_apply(cyl, K)
    assert not res.is_eigenstate
    assert res.eigenvalue is None
    assert len(set(res.component_values)) > 1


def test_jz_applied_through_samples():
    # numeric route: -i hbar d_phi + (hbar/2) sigma_z on sampled values
    rng = np.random.default_rng(18)
    cyl = angular_eigenstate(
        3, BRANCH_PLUS,
        weights=tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4)),
        profile_refs=("gaussian", "zwave", "unit", "gaussian"),
        omega=0.7,
    )
    res = jz_apply(cyl, K)
    sz = np.array([1.0, -1.0, 1.0, -1.0])
    for _ in range(5):
        rho = float(rng.uniform(0.3, 2.0))
        phi = float(rng.uniform(-math.pi, math.pi))
        s = cyl.sample_cyl(rho, phi, 0.4, -0.2)
        applied = -1j * K.hbar * s.d_phi + 0.5 * K.hbar * sz * s.psi
        assert np.max(np.abs(applied - res.eigenvalue * s.psi)) <= 1e-12


def test_angular_eigenstate_rejects_bad_input():
    with pytest.raises(DomainError):
        angular_eigenstate(1.5, BRANCH_PLUS)
    with pytest.raises(DomainError):
        angular_eigenstate(1, "l+3/2")
    with pytest.raises(DomainError):
        CylindricalSpinor(angular_indices=(0, 1, 2))
    with pytest.raises(DomainError):
        CylindricalSpinor(angular_indices=(0, 1, 0, 1), profile_refs=("nope",) * 4)


def test_spin_coherent_expectation_is_unit_direction():
    rng = np.random.default_rng(19)
    for _ in range(20):
        theta = math.acos(float(rng.uniform(-1.0, 1.0)))
        phi_s = float(rng.uniform(-math.pi, math.pi))
        s = spin_coherent_expectation(theta, phi_s)
        want = np.array([
            math.sin(theta) * math.cos(phi_s),
            math.sin(theta) * math.sin(phi_s),
            math.cos(theta),
        ])
        assert np.max(np.abs(s - want)) <= 1e-14
        assert abs(float(s @ s) - 1.0) <= 1e-14
        chi = spin_coherent_state(theta, phi_s)
        assert abs(float(np.real(chi.conj() @ chi)) - 1.0) <= 1e-14
