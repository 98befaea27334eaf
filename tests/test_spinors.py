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
    FieldSample,
    PlaneWave,
    angular_eigenstate,
    component_residual,
    coupled_residual,
    cylindrical_residual,
    jz_apply,
    recompose,
    sample_separable,
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
    res = jz_apply(cyl)
    assert res.is_eigenstate
    assert res.eigenvalue == K.hbar * (l + offset)


def test_angular_family_index_patterns():
    assert angular_eigenstate(2, BRANCH_PLUS).angular_indices == (2, 3, 2, 3)
    assert angular_eigenstate(2, BRANCH_MINUS).angular_indices == (1, 2, 1, 2)


def test_mixed_indices_not_an_eigenstate():
    cyl = CylindricalSpinor(angular_indices=(0, 2, 0, 1))
    res = jz_apply(cyl)
    assert not res.is_eigenstate
    assert res.eigenvalue is None
    assert len(set(res.component_values)) > 1


def test_jz_reads_hbar_from_the_spinors_constants():
    res = jz_apply(angular_eigenstate(0, BRANCH_PLUS, constants=PhysicalConstants(hbar=2.0)))
    assert res.is_eigenstate
    assert res.eigenvalue == 1.0  # hbar (l + 1/2) with hbar = 2
    assert res.component_values == (1.0, 1.0, 1.0, 1.0)


def test_jz_applied_through_samples():
    # numeric route: -i hbar d_phi + (hbar/2) sigma_z on sampled values
    rng = np.random.default_rng(18)
    cyl = angular_eigenstate(
        3, BRANCH_PLUS,
        weights=tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4)),
        profile_refs=("gaussian", "zwave", "unit", "gaussian"),
        omega=0.7,
    )
    res = jz_apply(cyl)
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


# --- stacks: n points or samples in one call give the n single-row results ------

SAMPLE_FIELDS = ("psi", "d_t", "d_x", "d_y", "d_z")
CYL_FIELDS = ("psi", "d_t", "d_rho", "d_phi", "d_z")


def random_cyl_points(rng, n):
    return np.column_stack((rng.uniform(0.3, 2.0, n), rng.uniform(-math.pi, math.pi, n),
                            rng.standard_normal(n), rng.standard_normal(n)))


def assert_rows_match(stacked, singles, names):
    for name in names:
        want = np.array([getattr(s, name) for s in singles])
        assert np.array_equal(getattr(stacked, name), want), name


@pytest.mark.parametrize("seed", range(5))
def test_stacked_residuals_equal_their_single_rows(seed):
    rng = np.random.default_rng(seed)
    wave = random_wave(rng)
    pts = rng.standard_normal((9, 4))
    got = component_residual(wave, pts)
    assert got.shape == (9, 4)
    assert np.array_equal(got, np.array([component_residual(wave, pts[i:i + 1])[0]
                                         for i in range(9)]))
    cyl = CylindricalPlaneWave(wave)
    cpts = random_cyl_points(rng, 9)
    got = cylindrical_residual(cyl, cpts)
    assert np.array_equal(got, np.array([cylindrical_residual(cyl, cpts[i:i + 1])[0]
                                         for i in range(9)]))


@pytest.mark.parametrize("seed", range(5))
def test_stacked_samplers_equal_their_single_rows(seed):
    rng = np.random.default_rng(100 + seed)
    wave = random_wave(rng)
    pts = rng.standard_normal((7, 4))
    assert_rows_match(wave.sample(*pts.T), [wave.sample(*row) for row in pts], SAMPLE_FIELDS)
    cpts = random_cyl_points(rng, 7)
    cyl = CylindricalPlaneWave(wave)
    assert_rows_match(cyl.sample_cyl(*cpts.T), [cyl.sample_cyl(*row) for row in cpts],
                      CYL_FIELDS)
    spinor = angular_eigenstate(
        int(rng.integers(-5, 6)), BRANCH_MINUS,
        weights=tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4)),
        profile_refs=("gaussian", "zwave", "unit", "gaussian"), omega=float(rng.standard_normal()))
    assert_rows_match(spinor.sample_cyl(*cpts.T), [spinor.sample_cyl(*row) for row in cpts],
                      CYL_FIELDS)


def test_a_stack_of_waves_and_states_samples_each_at_its_row():
    rng = np.random.default_rng(7)
    waves = [random_wave(rng) for _ in range(5)]
    stack = PlaneWave(amplitude=np.array([w.amplitude for w in waves])[:, None],
                      p=np.array([w.p for w in waves])[:, None],
                      omega=np.array([w.omega for w in waves])[:, None], constants=K)
    pts = rng.standard_normal((5, 3, 4))
    got = component_residual(stack, pts)
    assert got.shape == (5, 3, 4)
    for w, rows, want in zip(waves, pts, got):
        assert np.array_equal(component_residual(w, rows), want)
    up, lo = coupled_residual(stack)
    for w, u, d in zip(waves, up[:, 0], lo[:, 0]):
        u1, d1 = coupled_residual(w)
        assert np.array_equal(u, u1) and np.array_equal(d, d1)
    states = [angular_eigenstate(l, BRANCH_PLUS, omega=0.1 * l, profile_refs=(
        "gaussian", "unit", "zwave", "gaussian"),
        weights=tuple(rng.standard_normal(4) + 1j)) for l in range(-2, 3)]
    cpts = random_cyl_points(rng, 10).reshape(5, 2, 4)
    stacked = sample_separable(
        np.array([s.angular_indices for s in states])[:, None],
        np.array([s.weights for s in states])[:, None],
        np.array([s.omega for s in states])[:, None],
        *np.moveaxis(cpts, -1, 0), profile_refs=states[0].profile_refs)
    for i, s in enumerate(states):
        one = s.sample_cyl(*cpts[i].T)
        for name in CYL_FIELDS:
            assert np.array_equal(getattr(stacked, name)[i], getattr(one, name)), name


def test_a_bad_row_inside_a_stack_is_refused():
    rng = np.random.default_rng(8)
    wave = random_wave(rng)
    pts = rng.standard_normal((6, 4))
    pts[3, 1] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        component_residual(wave, pts)
    cpts = random_cyl_points(rng, 6)
    cpts[2, 0] = 0.0
    with pytest.raises(DomainError, match="rho must be > 0"):
        cylindrical_residual(CylindricalPlaneWave(wave), cpts)
    cpts[2, 0], cpts[4, 3] = 0.5, np.inf
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="non-finite"):
        cylindrical_residual(CylindricalPlaneWave(wave), cpts)
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="non-finite"):
        CylindricalPlaneWave(wave).sample_cyl(*cpts.T)
    for misshapen in ([[0.1, 0.2, 0.3, 0.4], [0.1, 0.2, 0.3]], np.zeros((4, 3)), np.zeros(4)):
        with pytest.raises(DomainError):
            component_residual(wave, misshapen)
        with pytest.raises(DomainError):
            cylindrical_residual(CylindricalPlaneWave(wave), misshapen)
    psi = wave.sample(*pts[:2].T).psi
    bad = psi.copy()
    bad[1, 2] = complex(np.nan, 0.0)
    with pytest.raises(DomainError, match="non-finite"):
        FieldSample(psi=psi, d_t=psi, d_x=bad, d_y=psi, d_z=psi)
    with pytest.raises(DomainError):
        FieldSample(psi=psi, d_t=psi, d_x=psi[:1], d_y=psi, d_z=psi)
    with pytest.raises(DomainError):
        FieldSample(psi=psi[:, :3], d_t=psi[:, :3], d_x=psi[:, :3], d_y=psi[:, :3],
                    d_z=psi[:, :3])


@pytest.mark.parametrize("seed", range(4))
def test_stacked_kernels_give_the_per_point_loops_bits(seed):
    # tests/reference_kernels.py holds the scalar loops the stacks replaced
    import reference_kernels as ref

    rng = np.random.default_rng(300 + seed)
    k = PhysicalConstants(hbar=1.1, c=0.9, mass=1.2, charge=0.4)
    wave = PlaneWave(amplitude=rng.standard_normal(4) + 1j * rng.standard_normal(4),
                     p=2.0 * rng.standard_normal(3), omega=float(rng.standard_normal()),
                     constants=k)
    pts = rng.standard_normal((6, 4))
    assert np.array_equal(component_residual(wave, pts),
                          ref.component_residual(wave, [tuple(map(float, r)) for r in pts]))
    cpts = [tuple(map(float, r)) for r in random_cyl_points(rng, 6)]
    assert np.array_equal(
        cylindrical_residual(CylindricalPlaneWave(wave), cpts),
        ref.cylindrical_residual(lambda *c: ref.cylindrical_plane_wave_sample(wave, *c), k, cpts))
    spinor = angular_eigenstate(
        int(rng.integers(-5, 6)), BRANCH_PLUS,
        weights=tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4)),
        profile_refs=("gaussian", "unit", "zwave", "gaussian"),
        omega=float(rng.standard_normal()), constants=k)
    stacked = spinor.sample_cyl(*np.array(cpts).T)
    for i, point in enumerate(cpts):
        want = ref.separable_sample(spinor, *point)
        for name, w in zip(CYL_FIELDS, want):
            assert np.array_equal(getattr(stacked, name)[i], w), name
    assert np.array_equal(cylindrical_residual(spinor, cpts),
                          ref.cylindrical_residual(lambda *c: ref.separable_sample(spinor, *c),
                                                   k, cpts))
