"""Spectrum, eigenspinors, trembling-motion closed forms."""

import hashlib
import io
import json
import math
import os
import platform
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diraclab import cli, dynamics, matrices
from diraclab.constants import PhysicalConstants
from diraclab.dynamics import (
    _BLOCK_ROWS,
    MomentumState,
    TRAJECTORY_HEADER,
    alpha_evolved_oracle,
    eigenspinor,
    eta_matrix,
    evolution_operator,
    fit_dominant_frequency,
    fitted_zbw_frequency,
    hamiltonian,
    max_mixing_state,
    spectrum,
    velocity_direction,
    velocity_operator,
    velocity_signal,
    write_trajectory_csv,
    zbw_closed_form,
    zbw_trajectory,
)
from diraclab.errors import DomainError
from diraclab.lattice import make_preset
from diraclab.matrices import (
    SIGMA_BLOCKS,
    GeneratorKind,
    dirac_generator,
    identity,
    mat_exp,
)
from diraclab.spinors import BRANCH_PLUS, CylindricalSpinor, angular_eigenstate

K = PhysicalConstants()
SI = PhysicalConstants(hbar=1.054571817e-34, c=299792458.0, mass=9.1093837015e-31,
                       charge=1.602176634e-19)

finite_momentum = st.tuples(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@settings(max_examples=60, deadline=None)
@given(finite_momentum, st.floats(0.4, 2.5), st.floats(0.4, 2.5))
def test_spectrum_matches_dispersion(p, mass, c):
    k = PhysicalConstants(hbar=1.0, c=c, mass=mass, charge=K.charge)
    state = MomentumState(p=np.array(p), constants=k)
    w = spectrum(state)
    e = math.sqrt(c**2 * float(np.dot(p, p)) + mass**2 * c**4)
    assert np.max(np.abs(w - np.array([-e, -e, e, e]))) / e <= 1e-12


def test_state_keeps_a_read_only_copy_of_its_momentum():
    arr = np.array([0.3, -0.2, 0.5])
    state = MomentumState(p=arr, constants=K)
    energy, h = state.energy, hamiltonian(state)
    arr[0] = 5.0
    assert state.p[0] == 0.3
    assert MomentumState(p=state.p, constants=K).energy == energy
    assert np.array_equal(hamiltonian(state), h)
    with pytest.raises(ValueError):
        state.p[0] = 5.0
    with pytest.raises(ValueError):
        state.h[0, 0] = 5.0
    copy = hamiltonian(state)
    copy[0, 0] = 5.0
    assert np.array_equal(hamiltonian(state), h)


def test_production_side_never_reaches_the_oracles_linear_algebra(monkeypatch):
    # H^-1, exp(-2 i t H / hbar) and the eigenspinors come from closed forms;
    # only the oracles may diagonalise, invert or exponentiate H.
    class Reached(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Reached()

    for owner, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np.linalg, "inv"),
                        (np.linalg, "solve"), (dynamics, "mat_exp"), (matrices, "mat_exp")):
        monkeypatch.setattr(owner, name, refuse)
    times = np.linspace(0.0, 3.0, 9)
    state = MomentumState(p=np.array([0.3, -0.2, 0.5]), constants=K)
    hamiltonian(state)
    for j in (1, 2, 3):
        eta_matrix(state, j)
        zbw_closed_form(state, j, 0.7)
        velocity_direction(state, j, 0.7)
    for sign in (1, -1):
        for spin in ("up", "down"):
            eigenspinor(state, sign, spin, (0.4, 1.1))
    psi = max_mixing_state(state)
    zbw_trajectory(state, psi, times)
    for oracle in (lambda: alpha_evolved_oracle(state, 1, 0.7),
                   lambda: spectrum(state),
                   lambda: velocity_signal(state, psi, times)):
        with pytest.raises(Reached):
            oracle()


def test_rest_hamiltonian_inverse_frozen():
    # H(p=0)^-1 = beta / (m C^2)
    state = MomentumState(p=np.zeros(3), constants=K)
    beta = dirac_generator(GeneratorKind.BETA)
    assert np.max(np.abs(np.linalg.inv(hamiltonian(state)) - beta)) <= 1e-14


def test_eigenspinor_residual_and_orthonormality():
    rng = np.random.default_rng(21)
    for _ in range(8):
        state = MomentumState(p=rng.uniform(-2, 2, 3), constants=K)
        h = hamiltonian(state)
        cols = []
        for sign in (1, -1):
            for spin in ("up", "down"):
                u = eigenspinor(state, sign, spin)
                assert np.max(np.abs(h @ u - sign * state.energy * u)) / state.energy <= 1e-12
                cols.append(u)
        g = np.stack(cols, axis=1)
        assert np.max(np.abs(g.conj().T @ g - identity(4))) <= 1e-12


def _eigh_eigenspinor(state, energy_sign, spin, axis):
    """Reference: diagonalise H, then Sigma.n restricted to the chosen
    eigenspace, with eigenspinor's phase rule.  Shares no code with the
    closed form."""
    w, v = np.linalg.eigh(hamiltonian(state))
    sub = v[:, [2, 3] if energy_sign == 1 else [0, 1]]
    theta, phi = axis
    n = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    spin_op = sum(n_j * s for n_j, s in zip(n, SIGMA_BLOCKS))
    sw, sv = np.linalg.eigh(sub.conj().T @ spin_op @ sub)
    u = sub @ sv[:, 1 if spin == "up" else 0]
    u = u / np.linalg.norm(u)
    lead = u[np.flatnonzero(np.abs(u) > 1e-12)[0]]
    return u * (lead.conjugate() / abs(lead))


def _assert_matches_reference(state, axis):
    for sign in (1, -1):
        for spin in ("up", "down"):
            u = eigenspinor(state, sign, spin, axis)
            ref = _eigh_eigenspinor(state, sign, spin, axis)
            lead = np.flatnonzero(np.abs(u) > 1e-12)[0]
            assert u[lead].real > 0.0 and abs(u[lead].imag) <= 1e-15 * abs(u[lead])
            overlap = np.vdot(ref, u)
            assert np.max(np.abs(u - ref * (overlap / abs(overlap)))) <= 1e-12
            if min(abs(u[lead]), abs(ref[lead])) > 1e-3:
                # The rule rotates by the phase of the leading component, which
                # eigh knows to about eps / |lead|: only a large one pins it
                # to 1e-12, and then the two vectors are the same.
                assert np.max(np.abs(u - ref)) <= 1e-12


@settings(max_examples=150, deadline=None)
@given(finite_momentum, st.floats(0.2, 5.0), st.floats(0.2, 5.0),
       st.floats(0.0, math.pi), st.floats(-math.pi, math.pi))
def test_eigenspinor_matches_eigh_reference(p, c, mass, theta, phi):
    k = PhysicalConstants(hbar=1.0, c=c, mass=mass, charge=K.charge)
    _assert_matches_reference(MomentumState(p=np.array(p), constants=k), (theta, phi))


@pytest.mark.parametrize("p_over_mc, axis", [
    ((0.7, -0.3, 0.0), (0.0, 0.0)),
    ((0.0, 0.0, 0.4), (math.pi / 2, 0.0)),
    ((0.0, 2.5, 0.0), (math.pi / 2, 0.0)),
    ((1e-3, 0.0, 0.0), (0.0, 0.0)),
], ids=["xy-vs-z", "z-vs-x", "fast-y-vs-x", "slow-x-vs-z"])
def test_eigenspinor_si_constants_momentum_across_spin_axis(p_over_mc, axis):
    # SI scales (m C^2 ~ 8e-14) with p perpendicular to n: the restricted
    # spin operator is then (2 m C^2 / (E + m C^2)) sigma.n, nothing cancels.
    mc = SI.mass * SI.c
    state = MomentumState(p=mc * np.array(p_over_mc), constants=SI)
    _assert_matches_reference(state, axis)
    for sign in (1, -1):
        u = eigenspinor(state, sign, "up", axis)
        assert np.max(np.abs(state.h @ u - sign * state.energy * u)) <= 1e-12 * state.energy


ROW_CONSTANTS = (K, PhysicalConstants(hbar=1.3, c=2.1, mass=0.7, charge=0.9),
                 PhysicalConstants(c=137.036, charge=1.0), SI)
momentum_component = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(st.tuples(momentum_component, momentum_component, momentum_component),
       st.sampled_from(ROW_CONSTANTS), st.sampled_from((1, -1)), st.sampled_from(("up", "down")),
       st.one_of(st.just(0.0), st.floats(0.0, math.pi)),
       st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)))
# zero momentum on the z axis; the a_z < 0 branch (spin down about z, and
# spin up about -z); the axis across a momentum along x
@example((0.0, 0.0, 0.0), K, 1, "up", 0.0, 0.0)
@example((0.0, 0.0, 0.0), ROW_CONSTANTS[1], -1, "down", 0.0, 0.0)
@example((0.4, -1.2, 0.3), ROW_CONSTANTS[2], 1, "up", math.pi, 0.0)
@example((2.5, 0.0, 0.0), ROW_CONSTANTS[1], -1, "down", math.pi / 2, 0.0)
def test_the_eigenspinor_row_kernel_gives_the_scalar_codes_bits(p, k, sign, spin, theta, phi):
    # tests/reference_kernels.py holds eigenspinor's scalar code before the
    # row kernel took it over
    import reference_kernels as ref

    state = MomentumState(p=np.array(p), constants=k)
    want = ref.eigenspinor(state, sign, spin, (theta, phi))
    row = dynamics._eigenspinor_row(*p, state.energy, k, sign, spin, theta, phi)
    assert ref.same_bits(np.array(row, dtype=complex), want)
    assert ref.same_bits(eigenspinor(state, sign, spin, (theta, phi)), want)


def test_eigenspinor_deterministic_and_phase_fixed():
    state = MomentumState(p=np.array([0.7, -0.3, 1.1]), constants=K)
    u1 = eigenspinor(state, 1, "up")
    u2 = eigenspinor(state, 1, "up")
    assert np.array_equal(u1, u2)
    lead = u1[np.flatnonzero(np.abs(u1) > 1e-12)[0]]
    # the phase rotation leaves at most rounding in the imaginary part
    assert abs(lead.imag) <= 1e-15 and lead.real > 0.0


def test_eigenspinor_rejects_bad_labels():
    state = MomentumState(p=np.zeros(3), constants=K)
    with pytest.raises(DomainError):
        eigenspinor(state, 0, "up")
    with pytest.raises(DomainError):
        eigenspinor(state, 1, "sideways")


def test_eta_anticommutes_with_hamiltonian():
    rng = np.random.default_rng(22)
    for _ in range(5):
        state = MomentumState(p=rng.uniform(-2, 2, 3), constants=K)
        h = hamiltonian(state)
        for j in (1, 2, 3):
            eta = eta_matrix(state, j)
            assert np.max(np.abs(eta @ h + h @ eta)) <= 1e-12
            assert abs(complex(np.trace(eta))) <= 1e-12


def test_velocity_direction_closed_form_vs_conjugation_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        state = MomentumState(p=rng.uniform(-2, 2, 3), constants=K)
        t = float(rng.uniform(-3, 3))
        j = int(rng.integers(1, 4))
        h = hamiltonian(state)
        closed = (K.c * state.p[j - 1] * np.linalg.inv(h)
                  + eta_matrix(state, j) @ mat_exp(-2j * t / K.hbar * h))
        assert np.max(np.abs(closed - alpha_evolved_oracle(state, j, t))) <= 1e-12


def test_position_rate_matches_conjugated_velocity():
    # d/dt (drift + zbw) against C U^dag alpha U by central difference
    rng = np.random.default_rng(24)
    step = 1e-5
    for _ in range(6):
        state = MomentumState(p=rng.uniform(-1.5, 1.5, 3), constants=K)
        t = float(rng.uniform(0.1, 3.0))
        j = int(rng.integers(1, 4))
        fwd = zbw_closed_form(state, j, t + step)
        bwd = zbw_closed_form(state, j, t - step)
        rate = ((fwd.drift_matrix + fwd.zbw_matrix)
                - (bwd.drift_matrix + bwd.zbw_matrix)) / (2.0 * step)
        want = K.c * alpha_evolved_oracle(state, j, t)
        assert np.max(np.abs(rate - want)) <= 1e-8


def test_position_rate_at_zero_is_velocity_operator():
    state = MomentumState(p=np.array([0.9, 0.1, -0.4]), constants=K)
    step = 1e-6
    for j in (1, 2, 3):
        fwd = zbw_closed_form(state, j, step)
        bwd = zbw_closed_form(state, j, -step)
        rate = ((fwd.drift_matrix + fwd.zbw_matrix)
                - (bwd.drift_matrix + bwd.zbw_matrix)) / (2.0 * step)
        assert np.max(np.abs(rate - velocity_operator(j, K))) <= 1e-8


def test_displacement_vanishes_at_time_zero():
    state = MomentumState(p=np.array([1.2, -0.8, 0.3]), constants=K)
    for j in (1, 2, 3):
        closed = zbw_closed_form(state, j, 0.0)
        assert np.max(np.abs(closed.drift_matrix)) == 0.0
        assert np.max(np.abs(closed.zbw_matrix)) <= 1e-13


def test_eigenstates_drift_without_oscillation():
    rng = np.random.default_rng(25)
    state = MomentumState(p=rng.uniform(-1.5, 1.5, 3), constants=K)
    period = 2.0 * math.pi * K.hbar / (2.0 * state.energy)
    times = np.linspace(0.0, 3.0 * period, 40)
    for sign in (1, -1):
        u = eigenspinor(state, sign, "up")
        slope = K.c**2 * state.p / (sign * state.energy)
        traj = zbw_trajectory(state, u, times)
        assert np.max(np.abs(traj.zbw)) <= 1e-12
        assert np.max(np.abs(traj.total - traj.t[:, None] * slope)) <= 1e-10


def test_mixed_state_oscillates_at_twice_energy():
    state = MomentumState(p=np.array([0.6, 0.0, 0.0]), constants=K)
    fitted = fitted_zbw_frequency(state)
    want = 2.0 * state.energy / K.hbar
    assert abs(fitted - want) <= 0.01 * want


def _mix(state, axis):
    """Equal-weight mix of the two energy signs, both spin up along axis."""
    return (eigenspinor(state, 1, "up", axis) + eigenspinor(state, -1, "up", axis)) / math.sqrt(2)


def test_trajectory_expectation_matches_direct_route():
    # two-component fast path against literal matrix expectations
    rng = np.random.default_rng(26)
    p = rng.uniform(-1, 1, 3)
    arbitrary = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    times = np.linspace(0.1, 2.0, 7)
    state = MomentumState(p=p, constants=K)
    for psi in (_mix(state, (1.1, -0.4)), arbitrary / np.linalg.norm(arbitrary)):
        traj = zbw_trajectory(state, psi, times)
        for i, t in enumerate(traj.t):
            for j in (1, 2, 3):
                closed = zbw_closed_form(state, j, t)
                drift = float(np.real(psi.conj() @ (closed.drift_matrix @ psi)))
                zbw = float(np.real(psi.conj() @ (closed.zbw_matrix @ psi)))
                assert abs(traj.drift[i, j - 1] - drift) <= 1e-12
                assert abs(traj.zbw[i, j - 1] - zbw) <= 1e-12


def test_trajectory_physical_zeros_are_exact():
    # An equal-weight mix does not drift and trembles only along its spin
    # axis; an eigenstate does not tremble.  Those cells are exact zeros,
    # not rounding residues.
    times = np.linspace(0.0, 12.0, 50)
    for p in ((0.3, -0.2, 0.5), (0.5, 0.0, 0.0), (-0.8, 0.5, 0.0), (0.14, -0.94, -0.73)):
        state = MomentumState(p=np.array(p), constants=K)
        mix = zbw_trajectory(state, max_mixing_state(state), times)
        assert not np.any(mix.drift)
        assert not np.any(mix.zbw[:, :2]) and not np.any(mix.total[:, :2])
        assert np.all(np.signbit(mix.zbw[:, :2]) == 0)
        assert np.max(np.abs(mix.zbw[:, 2])) > 0.1
        for sign in (1, -1):
            for spin in ("up", "down"):
                eig = zbw_trajectory(state, eigenspinor(state, sign, spin, (0.7, 2.0)), times)
                assert not np.any(eig.zbw)
                assert np.array_equal(eig.total, eig.drift)


def test_velocity_signal_matches_literal_conjugation():
    rng = np.random.default_rng(27)
    times = np.linspace(-1.0, 2.5, 6)
    state = MomentumState(p=rng.uniform(-1, 1, 3), constants=K)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = psi / np.linalg.norm(psi)
    got = velocity_signal(state, psi, times)
    for i, t in enumerate(times):
        for j in (1, 2, 3):
            want = K.c * np.vdot(psi, alpha_evolved_oracle(state, j, t) @ psi)
            assert abs(got[i, j - 1] - want.real) <= 1e-13


def test_velocity_signal_is_real_under_si_constants():
    state = MomentumState(p=np.array([0.3, -0.2, 0.5]) * SI.mass * SI.c, constants=SI)
    signal = velocity_signal(state, max_mixing_state(state),
                             np.linspace(0.0, 40.0, 200) * SI.hbar / state.energy)
    assert np.all(np.isfinite(signal)) and float(np.ptp(signal, axis=0).max()) > 1e-3 * SI.c


def test_velocity_signal_guard_trips_on_a_non_unitary_basis(monkeypatch):
    state = MomentumState(p=np.array([0.3, -0.2, 0.5]), constants=K)
    psi, times = max_mixing_state(state), np.linspace(0.0, 5.0, 50)
    velocity_signal(state, psi, times)
    eigh = np.linalg.eigh

    def inflated(h):
        w, v = eigh(h)
        return w, 1e4 * v  # orthogonal columns of norm 1e4

    monkeypatch.setattr(np.linalg, "eigh", inflated)
    with pytest.raises(ArithmeticError, match="non-real"):
        velocity_signal(state, psi, times)


def test_trajectory_columns_have_one_row_per_time():
    state = MomentumState(p=np.array([0.3, -0.2, 0.5]), constants=K)
    times = np.linspace(0.0, 4.0, 37)
    traj = zbw_trajectory(state, max_mixing_state(state), times)
    n = times.size
    assert len(traj) == n
    assert traj.t.shape == (n,)
    assert traj.drift.shape == traj.zbw.shape == traj.total.shape == (n, 3)
    assert np.array_equal(traj.t, times)
    assert np.array_equal(traj.total, traj.drift + traj.zbw)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 13, 50])
def test_blocked_kernels_match_one_block(monkeypatch, n):
    # Rows are independent, so splitting the times into blocks must not
    # change a bit; 5, 9 and 13 leave a lone last row, which must not go
    # through numpy's one-row product.
    state = MomentumState(p=np.array([0.3, -0.2, 0.5]), constants=K)
    times = np.linspace(0.0, 12.0, n)
    outputs = []
    for block in (4, 10**9):
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", block)
        blocks = dynamics._row_blocks(n)
        assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
        assert n == 1 or min(rows.stop - rows.start for rows in blocks) >= 2
        for psi in (max_mixing_state(state), cli._parse_state(SUPERPOSITION, state)):
            traj = zbw_trajectory(state, psi, times)
            outputs.append([traj.t, traj.drift, traj.zbw, traj.total,
                            velocity_signal(state, psi, times)])
    for blocked, whole in zip(outputs[:2], outputs[2:]):
        for got, want in zip(blocked, whole):
            assert np.array_equal(got, want)


def test_trajectory_rejects_bad_times():
    state = MomentumState(p=np.zeros(3), constants=K)
    psi = max_mixing_state(state)
    with pytest.raises(DomainError):
        zbw_trajectory(state, psi, [0.0, 0.5, 0.5])
    with pytest.raises(DomainError):
        zbw_trajectory(state, psi, [])


def test_trajectory_rejects_a_phase_that_overflows():
    # E t / hbar = 3 * 1e308 overflows even though every time is finite;
    # sin and cos of it would fill the zbw columns with NaN
    state = MomentumState(p=np.array([0.3, 0.0, 0.0]), constants=PhysicalConstants(c=10.0))
    psi = max_mixing_state(state)
    with pytest.raises(DomainError, match="overflows"):
        zbw_trajectory(state, psi, np.linspace(0.0, 1e308, 10))
    with pytest.raises(DomainError, match="overflows"):
        zbw_trajectory(state, psi, [-1e308, 0.0])
    zbw_trajectory(state, psi, np.linspace(0.0, 1e306, 10))  # phase 1e307 is finite


def test_evolution_operator_unitary():
    state = MomentumState(p=np.array([0.4, 0.7, -0.1]), constants=K)
    u = evolution_operator(state, 1.7)
    assert np.max(np.abs(u.conj().T @ u - identity(4))) <= 1e-13


def test_fit_dominant_frequency_on_synthetic_line():
    times = np.linspace(0.0, 40.0, 4096)
    omega = 1.37
    got = fit_dominant_frequency(times, np.cos(omega * times))
    assert abs(got - omega) <= 0.005 * omega


def test_fit_dominant_frequency_flat_signal_returns_zero():
    times = np.linspace(0.0, 1.0, 64)
    assert fit_dominant_frequency(times, np.ones(64)) == 0.0
    assert fit_dominant_frequency(times, np.zeros(64)) == 0.0
    # a constant that rounding moved by a few ulps is flat too
    eps = np.finfo(float).eps
    noisy = 0.447 * (1.0 + 3.0 * eps * np.cos(40.0 * times))
    assert np.ptp(noisy) > 0.0
    assert fit_dominant_frequency(times, noisy) == 0.0
    # a line well above rounding is not
    assert fit_dominant_frequency(times, 0.447 * (1.0 + 1e-9 * np.cos(40.0 * times))) > 0.0


# (p, C, energy sign, spin, spin axis).  The last three are eigenstates whose
# chosen velocity component is rounding noise with no sizeable mean, which
# only the spread against C (not against the component itself) calls flat.
EIGENSTATE_CASES = [
    ((0.5, 0.0, 0.0), 1.0, 1, "up", (0.0, 0.0)),
    ((0.3, 0.2, -0.1), 1.0, -1, "up", (0.0, 0.0)),
    ((5.0, 1.0, 2.0), 1.0, 1, "down", (1.0, 0.5)),
    ((0.0, 1e-3, 0.0), 1.0, -1, "up", (2.0, -1.0)),
    ((0.0, -0.24, 0.234), 9.28, -1, "up", (2.52, -1.94)),
    ((0.013, 0.0, -0.004), 0.32, -1, "up", (2.36, -1.38)),
    ((-0.352, 0.0, -0.004), 0.13, 1, "down", (2.55, 2.66)),
]


@pytest.mark.parametrize("p, c, sign, spin, axis", EIGENSTATE_CASES)
def test_eigenstates_fit_zero_and_mixes_fit_twice_the_energy(p, c, sign, spin, axis):
    state = MomentumState(p=np.array(p), constants=PhysicalConstants(c=c))
    assert fitted_zbw_frequency(state, eigenspinor(state, sign, spin, axis)) == 0.0
    want = 2.0 * state.energy / state.constants.hbar
    assert abs(fitted_zbw_frequency(state, _mix(state, axis)) - want) <= 0.01 * want


@pytest.mark.filterwarnings("error")
def test_fit_dominant_frequency_refuses_a_non_finite_sample():
    times = np.linspace(0.0, 10.0, 64)
    signal = np.cos(1.3 * times)
    for bad in (np.full(64, np.nan), np.where(times == times[5], np.inf, signal),
                np.where(times == times[40], -np.inf, signal),
                np.where(times == times[63], np.nan, signal)):
        with pytest.raises(DomainError, match="non-finite"):
            fit_dominant_frequency(times, bad)


def test_fit_dominant_frequency_rejects_bad_sampling():
    with pytest.raises(DomainError):
        fit_dominant_frequency(np.linspace(0, 1, 4), np.ones(4))
    with pytest.raises(DomainError):
        fit_dominant_frequency(np.array([0.0, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]),
                               np.ones(8))


@pytest.mark.filterwarnings("error")
def test_fit_dominant_frequency_refuses_times_that_do_not_increase():
    # reversed times used to fit sin(3 t) as -3.004, and equal times to
    # return inf after a division by zero
    times = np.linspace(0.0, 10.0, 64)
    signal = np.sin(3.0 * times)
    for bad in (times[::-1], np.full(64, 2.0)):
        with pytest.raises(DomainError, match="must increase"):
            fit_dominant_frequency(bad, signal)


def test_a_stack_of_spinors_is_refused_where_one_is_expected():
    state = MomentumState(p=np.array([0.3, -0.2, 0.5]), constants=K)
    stack = np.array([max_mixing_state(state), eigenspinor(state, 1, "up")])
    times = np.linspace(0.0, 1.0, 8)
    for call in (lambda: zbw_trajectory(state, stack, times),
                 lambda: velocity_signal(state, stack, times),
                 lambda: fitted_zbw_frequency(state, stack)):
        with pytest.raises(DomainError, match="one spinor"):
            call()


def _policy_rows() -> list:
    """(id, call, exception) rows of the input policy (diraclab.errors): each
    call must raise that exception, DomainError unless the entry point
    collects its problems into a ConfigError."""
    from diraclab.config import RunConfig, resolve_run_config
    from diraclab.errors import ConfigError
    from diraclab.fields import LinearPotentials, linear_scalar, symmetric_gauge
    from diraclab.lattice import Grid3, convergence_study, kinetic_momentum_apply
    from diraclab.matrices import pauli, sigma_block
    from diraclab.spinors import PlaneWave

    state = MomentumState(p=np.array([0.3, -0.2, 0.5]), constants=K)
    grid, amp = Grid3(n=9, h=0.2), np.ones(4) / 2.0
    psi = np.ones((9, 9, 9), dtype=complex)
    rows = [  # the boolean cases each site refused before the policy
        ("angular_eigenstate.l", lambda: angular_eigenstate(True, BRANCH_PLUS), DomainError),
        ("CylindricalSpinor.angular_indices",
         lambda: CylindricalSpinor(angular_indices=(True, 1, 0, 1)), DomainError),
        ("make_preset.b0", lambda: make_preset("uniform_b", True), DomainError),
        ("make_preset.e0", lambda: make_preset("linear_phi", e0=np.True_), DomainError),
        ("MomentumState.p-list", lambda: MomentumState(p=[True, 0, 0], constants=K), DomainError),
        ("MomentumState.p-array",
         lambda: MomentumState(p=np.array([True, False, True]), constants=K), DomainError),
    ]
    # where an integer is due: each site with a valid value, then a boolean,
    # a numpy boolean, the value as a string and the value as a float
    integer_sites = {
        "pauli": (2, pauli),
        "sigma_block": (3, sigma_block),
        "velocity_operator": (1, lambda j: velocity_operator(j, K)),
        "eta_matrix": (1, lambda j: eta_matrix(state, j)),
        "eta_matrix-list": (1, lambda j: eta_matrix(state, [2, j])),
        "kinetic_momentum_apply": (1, lambda j: kinetic_momentum_apply(
            j, make_preset("uniform_b"), grid, psi, K)),
        "Grid3.n": (9, lambda n: Grid3(n=n, h=0.2)),
        "angular_eigenstate": (1, lambda l: angular_eigenstate(l, BRANCH_PLUS)),
        "CylindricalSpinor.indices": (1, lambda l: CylindricalSpinor(angular_indices=(l, 2, 1, 2))),
        "eigenspinor.sign": (1, lambda sign: eigenspinor(state, sign, "up")),
        "RunConfig.seed": (1, lambda seed: RunConfig(seed=seed)),
    }
    for site, (good, call) in integer_sites.items():
        error = ConfigError if site.startswith("RunConfig") else DomainError
        for label, bad in (("bool", bool(good)), ("numpy-bool", np.bool_(good)),
                           ("string", str(good)), ("float", float(good))):
            rows.append((f"{site}-{label}", lambda call=call, bad=bad: call(bad), error))
    # where a finite real is due: a boolean, a numpy boolean, a numeric
    # string, nan and inf
    real_sites = {
        "PhysicalConstants": lambda v: PhysicalConstants(hbar=v),
        "RunConfig.tol_overrides": lambda v: RunConfig(tol_factors={"fields": v}),
        "MomentumState.p": lambda v: MomentumState(p=[v, 0.2, 0.3], constants=K),
        "Grid3.h": lambda v: Grid3(n=9, h=v),
        "convergence_study": lambda v: convergence_study(make_preset("uniform_b"), (v, 0.5, 0.25)),
        "make_preset": lambda v: make_preset("uniform_b", b0=v),
        "LinearPotentials": lambda v: LinearPotentials(grad_phi=(v, 0.0, 0.0)),
        "symmetric_gauge": symmetric_gauge,
        "linear_scalar": linear_scalar,
        "PlaneWave.p": lambda v: PlaneWave(amplitude=amp, p=[v, 0.0, 0.0], omega=1.0, constants=K),
        "PlaneWave.omega": lambda v: PlaneWave(amplitude=amp, p=[0.1, 0.0, 0.0], omega=v,
                                               constants=K),
        "CylindricalSpinor.weights": lambda v: CylindricalSpinor(angular_indices=(1, 2, 1, 2),
                                                                 weights=(v, 1.0, 1.0, 1.0)),
        "CylindricalSpinor.omega": lambda v: CylindricalSpinor(angular_indices=(1, 2, 1, 2),
                                                               omega=v),
        "eigenspinor.axis": lambda v: eigenspinor(state, 1, "up", (v, 0.0)),
    }
    for site, call in real_sites.items():
        error = ConfigError if site.startswith("RunConfig") else DomainError
        for label, bad in (("bool", True), ("numpy-bool", np.True_), ("string", "0.5"),
                           ("nan", math.nan), ("inf", math.inf)):
            rows.append((f"{site}-{label}", lambda call=call, bad=bad: call(bad), error))
    rows += [
        ("MomentumState.p-complex", lambda: MomentumState(p=[0.1j, 0.2, 0.3], constants=K),
         DomainError),
        ("PhysicalConstants-huge-int", lambda: PhysicalConstants(hbar=10**400), DomainError),
        ("Grid3.h-huge-int", lambda: Grid3(n=9, h=10**400), DomainError),
        ("RunConfig.tol_overrides-huge-int",
         lambda: RunConfig(tol_factors={"fields": 10**400}), ConfigError),
        ("MomentumState.p-huge-int", lambda: MomentumState(p=[10**400, 0, 0], constants=K),
         DomainError),
        ("MomentumState.p-complex-array",
         lambda: MomentumState(p=np.array([0.1j, 0.2, 0.3]), constants=K), DomainError),
        ("PlaneWave.p-complex", lambda: PlaneWave(amplitude=amp, p=np.array([0.1j, 0.0, 0.0]),
                                                  omega=1.0, constants=K), DomainError),
        ("eigenspinor.axis-one-angle", lambda: eigenspinor(state, 1, "up", (0.0,)), DomainError),
        ("eigenspinor.axis-three-angles",
         lambda: eigenspinor(state, 1, "up", (0.1, 0.2, 0.3)), DomainError),
        ("eigenspinor.axis-text", lambda: eigenspinor(state, 1, "up", "ab"), DomainError),
        ("eigenspinor.spin", lambda: eigenspinor(state, 1, ["up", "sideways"]), DomainError),
        ("cli.energy_sign-bool", lambda: cli._parse_state('{"energy_sign": true}', state),
         ConfigError),
        ("cli.weight-bool",
         lambda: cli._parse_state('{"superposition": [{"weight": true}]}', state), ConfigError),
        ("cli.spin_axis-bool", lambda: cli._parse_state('{"spin_axis": [true, 0]}', state),
         ConfigError),
    ]
    # the resolver passes its values on uncast, so RunConfig and
    # PhysicalConstants judge them as given
    rows += [(f"resolve_run_config.{key}-{label}",
              lambda flags={key: bad}: resolve_run_config(flags, env={}), ConfigError)
             for key, label, bad in (("seed", "float", 7.9), ("seed", "bool", True),
                                     ("hbar", "bool", True), ("tol.fields", "bool", True))]
    return rows


POLICY_ROWS = _policy_rows()


@pytest.mark.parametrize("call, error", [row[1:] for row in POLICY_ROWS],
                         ids=[row[0] for row in POLICY_ROWS])
def test_a_boolean_is_refused_where_a_number_is_due(call, error):
    # and so is any other value that the policy does not count as a number
    # of the kind due: a numeric string, a float where an integer is due,
    # nan or inf where a finite real is, a complex momentum, a misshapen axis
    with pytest.raises(error):
        call()


def test_a_numpy_integer_is_an_integer():
    from diraclab.config import RunConfig
    from diraclab.lattice import Grid3
    from diraclab.matrices import pauli, sigma_block

    state = MomentumState(p=np.array([0.3, -0.2, 0.5]), constants=K)
    two = np.int64(2)
    for got, want in ((pauli(two), pauli(2)), (sigma_block(two), sigma_block(2)),
                      (velocity_operator(two, K), velocity_operator(2, K)),
                      (eta_matrix(state, two), eta_matrix(state, 2)),
                      (eta_matrix(state, np.array([1, 2], dtype=np.int32)),
                       eta_matrix(state, [1, 2])),
                      (eigenspinor(state, np.int64(-1), "up"), eigenspinor(state, -1, "up"))):
        assert np.array_equal(got, want)
    assert Grid3(n=np.int64(9), h=0.2) == Grid3(n=9, h=0.2)
    assert angular_eigenstate(two, BRANCH_PLUS) == angular_eigenstate(2, BRANCH_PLUS)
    assert PhysicalConstants(hbar=two) == PhysicalConstants(hbar=2)
    assert type(PhysicalConstants(hbar=two).hbar) is float
    assert RunConfig(seed=np.int64(5)).seed == 5


def test_trajectory_csv_format():
    state = MomentumState(p=np.array([0.5, 0.0, 0.0]), constants=K)
    psi = max_mixing_state(state)
    traj = zbw_trajectory(state, psi, np.linspace(0.0, 1.0, 5))
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 6
    assert all(len(line.split(",")) == 10 for line in lines[1:])


def _reference_csv(traj) -> str:
    # Reference writer: one format() call per cell, sharing no code with the
    # chunked %-format of write_trajectory_csv.
    lines = [TRAJECTORY_HEADER]
    for i in range(len(traj)):
        cells = [traj.t[i], *traj.drift[i], *traj.zbw[i], *traj.total[i]]
        lines.append(",".join(format(float(v), ".15g") for v in cells))
    return "\n".join(lines) + "\n"


SUPERPOSITION = json.dumps({"superposition": [
    {"energy_sign": 1, "spin": "up"},
    {"energy_sign": -1, "spin": "down", "weight": [0, 1]}]})


@pytest.mark.parametrize("p, spec, rows", [
    ((0.3, -0.2, 0.5), "mix", _BLOCK_ROWS + 1),
    ((0.4, 0.0, -0.7), "mix", 3),
    ((0.5, 0.0, 0.0), "mix", 1),
    ((0.0, -0.6, 0.0), SUPERPOSITION, _BLOCK_ROWS),
    ((0.2, 0.1, 0.0), SUPERPOSITION, 2 * _BLOCK_ROWS + 5),
    ((0.5, 0.0, 0.0), "plus", 2 * _BLOCK_ROWS + 3),
    ((-0.3, 0.6, 0.2), "minus", _BLOCK_ROWS + 7),
    ((0.7, 0.0, -0.4), SUPERPOSITION, 2 * _BLOCK_ROWS + 1),
    ((0.0, 0.0, 0.9), SUPERPOSITION, 3 * _BLOCK_ROWS - 2),
    ((0.0, 0.0, 0.0), "mix", _BLOCK_ROWS + 2),
], ids=["no-zero-chunk+1", "one-zero", "two-zero-one-row", "superposition-chunk",
        "superposition-two-chunks", "plus-three-chunks", "minus-two-chunks",
        "superposition-one-zero", "superposition-two-zero", "mix-at-rest"])
def test_trajectory_csv_matches_per_cell_reference(p, spec, rows):
    state = MomentumState(p=np.array(p), constants=K)
    psi = cli._parse_state(spec, state)
    traj = zbw_trajectory(state, psi, np.linspace(0.0, 12.0, rows))
    _assert_writes_reference(traj)


def _assert_writes_reference(traj):
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    # Lines, not whole strings: pytest diffs two long strings very slowly.
    assert buf.getvalue().splitlines(True) == _reference_csv(traj).splitlines(True)


def test_trajectory_csv_matches_reference_on_mixed_columns():
    # Three blocks; each column is built so that the writer's reading of it
    # (a literal zero, a copy of an earlier column, or its own digits)
    # changes from block to block.
    n = 3 * _BLOCK_ROWS
    first, rest = slice(0, _BLOCK_ROWS), slice(_BLOCK_ROWS, None)
    t = np.linspace(-1.0, 2.0, n)
    drift = np.zeros((n, 3))
    drift[rest, 0] = t[rest] / 3.0  # zero in the first block only
    drift[:, 1] = -0.0  # -0 in every row
    drift[2 * _BLOCK_ROWS:, 2] = -0.0  # +0, +0, then -0 block by block
    zbw = np.column_stack((np.sin(t), np.cos(t), np.sin(3.0 * t)))
    zbw[7, 0], zbw[_BLOCK_ROWS + 5, 1], zbw[-3, 2] = np.nan, np.inf, -np.inf
    zbw[first, 2] = drift[first, 0]  # a zero column that follows an earlier zero column
    total = zbw.copy()
    total[_BLOCK_ROWS + 9, 0] = -0.0  # equal to zbw except one signed zero in one block
    zbw[_BLOCK_ROWS + 9, 0] = 0.0
    total[rest, 1] = t[rest]  # a copy of t, not of zbw, after the first block
    total[:, 2] = drift[:, 0]
    traj = dynamics.Trajectory(t=t, drift=drift, zbw=zbw, total=total)
    _assert_writes_reference(traj)
    cells = [line.split(",") for line in _reference_csv(traj).splitlines()[1:]]
    assert {row[2] for row in cells} == {"-0"}
    assert cells[_BLOCK_ROWS + 9][4] == "0" and cells[_BLOCK_ROWS + 9][7] == "-0"
    assert {"nan", "inf", "-inf"} <= {c for row in cells for c in row}


# 0 about one draw in three, as in the benchmark's momenta
_zero_or_component = st.one_of(st.just(0.0), st.floats(0.05, 1.0), st.floats(-1.0, -0.05))


@st.composite
def _state_spec(draw):
    kind = draw(st.sampled_from(("mix", "plus", "minus", "superposition")))
    if kind != "superposition":
        return kind
    spin = draw(st.sampled_from(("up", "down")))
    axis = [draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2.0 * math.pi))]
    weight = [draw(st.floats(0.5, 1.5)), draw(st.floats(-0.5, 0.5))]
    return json.dumps({"superposition": [
        {"energy_sign": 1, "spin": spin, "spin_axis": axis},
        {"energy_sign": -1, "spin": spin, "spin_axis": axis, "weight": weight}]})


@settings(max_examples=25, deadline=None)
@given(st.tuples(_zero_or_component, _zero_or_component, _zero_or_component),
       _state_spec(), st.integers(1, 3 * _BLOCK_ROWS))
def test_trajectory_csv_matches_reference_on_drawn_states(p, spec, rows):
    state = MomentumState(p=np.array(p), constants=K)
    traj = zbw_trajectory(state, cli._parse_state(spec, state), np.linspace(0.0, 12.0, rows))
    _assert_writes_reference(traj)


def test_trajectory_csv_keeps_signed_zero_cells():
    # p_y = p_z = 0: those drift columns are exact zeros, negative for a
    # negative-energy state, and both spellings must survive the writer.
    state = MomentumState(p=np.array([0.5, 0.0, 0.0]), constants=K)
    traj = zbw_trajectory(state, eigenspinor(state, -1, "up"), np.linspace(0.0, 1.0, 4))
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    cells = {c for line in buf.getvalue().splitlines()[1:] for c in line.split(",")}
    assert {"0", "-0"} <= cells
    assert buf.getvalue().splitlines(True) == _reference_csv(traj).splitlines(True)


def _cell_text(values) -> list:
    """The text the CSV writer gives each value: its cell words, NUL bytes dropped."""
    words = dynamics._cell_words(np.asarray(values, dtype=float))
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in words]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_any_bits = st.integers(0, 2**64 - 1).map(_from_bits)
# sign, a biased exponent from 2^-17 to 2^50 (the fixed-notation range and
# its edges) and any mantissa
_fixed_range_bits = st.builds(lambda sign, exp, mant: _from_bits(sign << 63 | exp << 52 | mant),
                              st.integers(0, 1), st.integers(1006, 1073),
                              st.integers(0, 2**52 - 1))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_any_bits, st.floats(), _fixed_range_bits), min_size=1, max_size=40))
def test_cell_words_print_every_float_as_15g(values):
    assert _cell_text(values) == [format(v, ".15g") for v in values]


_EDGE_VALUES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
    # the edges of fixed notation: 1e-4 and 1e15, and what rounds onto them
    1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e-4, 1.0), 0.000099999999999999995,
    0.00009999999999999949, 1e-5, math.nextafter(1e-5, 0.0),
    1e15, math.nextafter(1e15, 0.0), math.nextafter(1e15, math.inf),
    999999999999999.5, 999999999999999.4, 999999999999999.6, 999999999999999.0,
    # 15 nines that carry into the next decade, or just do not
    9.9999999999999995, 9.999999999999995, 0.99999999999999995, 99999.999999999995,
    99999999999999.95, 0.9999999999999999, 9.99999999999999,
    # exact decimal ties at the 16th digit: to even, up and down
    32769 / 32768, 1.000030517578125, 123456789012345.5, 123456789012344.5,
    12345678901234.25, 12345678901234.75, 0.1000000000000025, 2.5, 0.5,
    # powers of ten and their neighbours
    *(v for k in range(-6, 17) for v in (10.0 ** k, math.nextafter(10.0 ** k, 0.0),
                                          math.nextafter(10.0 ** k, math.inf))),
    1.0, -1.0, 100.0, 1234.5, -0.000123456789012345, 123456789012345.0, 1e300, -1e-300,
]


def test_cell_words_print_the_edge_values_as_15g():
    values = _EDGE_VALUES + [-v for v in _EDGE_VALUES]
    assert _cell_text(values) == [format(v, ".15g") for v in values]
    # one value at a time too: the kept groups then differ from cell to cell
    assert [_cell_text([v])[0] for v in values] == [format(v, ".15g") for v in values]


def _round15_reference(a: float) -> tuple:
    exact = Fraction(a)
    e = math.floor(math.log10(a))
    while Fraction(10) ** e > exact:
        e -= 1
    while Fraction(10) ** (e + 1) <= exact:
        e += 1
    d = round(exact * Fraction(10) ** (14 - e))  # Fraction rounds half to even
    return (10**14, e + 1) if d == 10**15 else (d, e)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(1e-5, 1e15, exclude_max=True),
                 _fixed_range_bits.map(abs).filter(lambda a: 1e-5 <= a < 1e15),
                 st.sampled_from([abs(v) for v in _EDGE_VALUES
                                  if math.isfinite(v) and 1e-5 <= abs(v) < 1e15])))
def test_round15_rounds_the_exact_value_half_to_even(a):
    d, e = dynamics._round15(np.array([a]))
    assert (int(d[0]), int(e[0])) == _round15_reference(a)


_FREED_HEAP_SCRIPT = """
import io
import numpy as np
from diraclab.constants import PhysicalConstants
from diraclab.dynamics import MomentumState, max_mixing_state, write_trajectory_csv, zbw_trajectory

def rss_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))

state = MomentumState(p=np.array([0.3, -0.2, 0.5]), constants=PhysicalConstants())
traj = zbw_trajectory(state, max_mixing_state(state), np.linspace(0.0, 1.0, 8))
big = bytes(24 << 20)  # mapped on its own; freeing it raises glibc's mmap threshold
del big
held = bytearray(16 << 20)  # so this one comes from the heap, written through
del held  # and stays resident after the free
before = rss_kib()
write_trajectory_csv(traj, io.StringIO())
print(before - rss_kib())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
def test_csv_export_returns_freed_heap_pages():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", _FREED_HEAP_SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert int(out) >= 12 << 10  # KiB, of the 16 MiB freed


@pytest.mark.parametrize("argv, digest, lines", [
    (["--p", "0.3,-0.2,0.5", "--t1", "12", "--steps", "400"],
     "95f75b24f3cbd29d13c21a6e1d76ac2c2871010088f1fa3b44afe8536174588c", 401),
    (["--p", "0.5,0,0", "--state", "plus", "--t1", "6", "--steps", "100"],
     "28c64e29527feeca2112194d733efb073ace5d7a2ba77dc5a741a6a9a7eaf12b", 101),
], ids=["mix", "plus"])
def test_readme_zbw_csv_bytes_are_locked(tmp_path, argv, digest, lines):
    out = tmp_path / "traj.csv"
    assert cli.main(["zbw", *argv, "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.filterwarnings("error")
def test_trajectory_refuses_a_drift_that_overflows():
    # the phase E t / hbar stays finite; t C^2 p / E does not
    state = MomentumState(p=np.array([1000.0, 0.0, 0.0]),
                          constants=PhysicalConstants(c=10.0, hbar=1e10))
    with pytest.raises(DomainError, match="drift"):
        zbw_trajectory(state, eigenspinor(state, 1, "up"), [0.0, 1e308])
    # an equal mix has no drift, so the same times are fine for it
    traj = zbw_trajectory(state, max_mixing_state(state), [0.0, 1e308])
    assert np.all(traj.drift == 0.0) and np.all(np.isfinite(traj.total))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("hbar", [1e307, 1e-308])
def test_fit_refuses_a_window_that_overflows_or_underflows(hbar):
    state = MomentumState(p=np.array([0.3, 0.0, 0.0]), constants=PhysicalConstants(hbar=hbar))
    with pytest.raises(DomainError, match="fit window"):
        fitted_zbw_frequency(state)


# --- stacks: a state of n momenta gives its single-momentum results bit for bit ---

def test_stacked_closed_forms_and_oracles_equal_their_single_rows():
    rng = np.random.default_rng(90)
    k = PhysicalConstants(hbar=1.2, c=0.8, mass=1.3, charge=0.5)
    momenta = rng.uniform(-2, 2, (9, 3))
    stack = MomentumState(p=momenta, constants=k)
    states = [MomentumState(p=p, constants=k) for p in momenta]
    js = [int(v) for v in rng.integers(1, 4, 9)]
    ts = rng.uniform(-3, 3, 9)
    stacked = {
        "eta": eta_matrix(stack, js),
        "direction": velocity_direction(stack, js, ts),
        "evolution": evolution_operator(stack, ts),
        "oracle": alpha_evolved_oracle(stack, js, ts),
        "drift": zbw_closed_form(stack, js, ts).drift_matrix,
        "zbw": zbw_closed_form(stack, js, ts).zbw_matrix,
        "h": stack.h,
    }
    singles = {
        "eta": [eta_matrix(s, j) for s, j in zip(states, js)],
        "direction": [velocity_direction(s, j, t) for s, j, t in zip(states, js, ts)],
        "evolution": [evolution_operator(s, t) for s, t in zip(states, ts)],
        "oracle": [alpha_evolved_oracle(s, j, t) for s, j, t in zip(states, js, ts)],
        "drift": [zbw_closed_form(s, j, t).drift_matrix for s, j, t in zip(states, js, ts)],
        "zbw": [zbw_closed_form(s, j, t).zbw_matrix for s, j, t in zip(states, js, ts)],
        "h": [s.h for s in states],
    }
    for name, got in stacked.items():
        assert got.shape == (9, 4, 4)
        assert np.array_equal(got, np.array(singles[name])), name
    assert stack.energy.tolist() == [s.energy for s in states]
    assert stack.energy_sq.tolist() == [s.energy_sq for s in states]
    assert type(states[0].energy) is float and type(states[0].energy_sq) is float
    # a scalar axis or time is shared by every row, and j and t broadcast
    # against the rows' leading axes
    assert np.array_equal(zbw_closed_form(stack, 2, 0.0).zbw_matrix,
                          np.array([zbw_closed_form(s, 2, 0.0).zbw_matrix for s in states]))
    grid = MomentumState(p=momenta.reshape(3, 3, 3), constants=k)
    assert np.array_equal(eta_matrix(grid, [1, 2, 3]),
                          np.array([[eta_matrix(states[3 * a + b], b + 1) for b in range(3)]
                                    for a in range(3)]))
    assert np.array_equal(velocity_direction(states[4], [1, 2, 3], ts[:3]),
                          np.array([velocity_direction(states[4], j, t)
                                    for j, t in zip((1, 2, 3), ts[:3])]))


def test_a_bad_row_inside_a_stack_of_states_is_refused():
    momenta = np.array([[0.1 * i, 0.2, -0.3] for i in range(4)])
    stack = MomentumState(p=momenta, constants=K)
    for fn in (lambda js: eta_matrix(stack, js), lambda js: zbw_closed_form(stack, js, 0.5),
               lambda js: velocity_direction(stack, js, 0.5),
               lambda js: alpha_evolved_oracle(stack, js, 0.5)):
        with pytest.raises(DomainError, match="axis must be"):
            fn([1, 2, 4, 3])
        with pytest.raises(DomainError, match="axis must be"):
            fn([1, 0, 2, 3])
    for row in range(4):  # a non-finite row inside a stack of momenta
        bad = momenta.copy()
        bad[row, row % 3] = (np.nan, np.inf, -np.inf, np.nan)[row]
        with pytest.raises(DomainError, match="momentum must be"):
            MomentumState(p=bad, constants=K)
    for shape in ((4, 2), (2, 3, 4), ()):
        with pytest.raises(DomainError, match="momentum must be"):
            MomentumState(p=np.zeros(shape), constants=K)
    states = [MomentumState(p=p, constants=K) for p in momenta]
    for seq in (states, tuple(states)):
        for fn in (lambda: eta_matrix(seq, 1), lambda: velocity_direction(seq, 1, 0.5),
                   lambda: zbw_closed_form(seq, 1, 0.5), lambda: evolution_operator(seq, 0.5),
                   lambda: alpha_evolved_oracle(seq, 1, 0.5)):
            with pytest.raises(DomainError, match="expected a MomentumState"):
                fn()


def test_the_single_momentum_forms_refuse_a_stack():
    stack = MomentumState(p=np.array([[0.3, -0.2, 0.5], [0.1, 0.0, 0.4]]), constants=K)
    one = MomentumState(p=stack.p[0], constants=K)
    psi = eigenspinor(one, 1, "up")
    times = np.linspace(0.0, 1.0, 16)
    for fn in (lambda: zbw_trajectory(stack, psi, times),
               lambda: velocity_signal(stack, psi, times), lambda: fitted_zbw_frequency(stack),
               lambda: max_mixing_state(stack)):
        with pytest.raises(DomainError, match="one momentum"):
            fn()


def test_an_eigenspinor_stack_gives_each_rows_bits():
    rng = np.random.default_rng(31)
    k = ROW_CONSTANTS[1]
    momenta = rng.uniform(-2.0, 2.0, (6, 3))
    momenta[0] = 0.0
    stack = MomentumState(p=momenta, constants=k)
    signs = np.array([1, -1, -1, 1, 1, -1])
    spins = ["up", "down", "up", "down", "down", "up"]
    axes = np.stack((rng.uniform(0.0, math.pi, 6), rng.uniform(-math.pi, math.pi, 6)), axis=-1)
    rows = [MomentumState(p=p, constants=k) for p in momenta]
    got = eigenspinor(stack, signs, spins, axes)
    assert got.shape == (6, 4)
    for i, state in enumerate(rows):
        assert np.array_equal(got[i].view(np.uint64),
                              eigenspinor(state, int(signs[i]), spins[i], axes[i]).view(np.uint64))
    # labels broadcast against the rows, and a (2, 3) stack keeps its shape
    assert np.array_equal(eigenspinor(stack, -1, "down"),
                          np.array([eigenspinor(s, -1, "down") for s in rows]))
    grid = eigenspinor(MomentumState(p=momenta.reshape(2, 3, 3), constants=k), signs.reshape(2, 3),
                       np.array(spins).reshape(2, 3), axes.reshape(2, 3, 2))
    assert np.array_equal(grid, got.reshape(2, 3, 4))
    # one momentum with a stack of labels gives one row per label
    both = eigenspinor(rows[2], np.array([1, -1]), "up")
    assert np.array_equal(both, [eigenspinor(rows[2], 1, "up"), eigenspinor(rows[2], -1, "up")])
    for bad in (lambda: eigenspinor(stack, signs[:4], "up"),
                lambda: eigenspinor(stack, 1, "up", axes[:4])):
        with pytest.raises(DomainError, match="do not broadcast"):
            bad()
    with pytest.raises(DomainError, match="expected a MomentumState"):
        eigenspinor(rows, 1, "up")
