"""Self fields from commutators, magnetic-moment bookkeeping, self action."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.constants import PhysicalConstants
from diraclab.dynamics import MomentumState, eigenspinor
from diraclab.errors import DomainError
from diraclab.fields import (
    LinearPotentials,
    anomalous_moment_ratio,
    classical_maxwell_reference,
    expected_self_h,
    gyromagnetic_ratio,
    kinematic_momenta,
    linear_scalar,
    magnetic_moment_matrices,
    rest_energy,
    self_action_reduction,
    self_fields_commutator,
    self_fields_matrix_maxwell,
    self_potentials,
    spin_matrices,
    symmetric_gauge,
)
from diraclab.matrices import Representation, commutator, generators, identity, sigma_block

K = PhysicalConstants()
REPS = (Representation.PAULI_DIRAC, Representation.STANDARD)

# frozen at the physical coupling e = sqrt(1/137.035999084), m = C = hbar = 1
FROZEN_SELF_H_SCALE = 23.412475228732223
FROZEN_ANOMALOUS_RATIO = 0.0011614097328858596
FROZEN_REST_PHI = -11.706237614366112


def test_kinematic_momenta_shapes_and_values():
    mom = kinematic_momenta(K)
    a1, a2, a3, _ = generators(Representation.PAULI_DIRAC)
    mc = K.mass * K.c
    assert np.array_equal(mom.p0, mc * identity(4))
    assert np.array_equal(mom.p[0], mc * a1)
    assert np.array_equal(mom.p[1], mc * a2)
    assert np.array_equal(mom.p[2], mc * a3)


@pytest.mark.parametrize("rep", REPS)
def test_commutator_route_matches_closed_form(rep):
    fields = self_fields_commutator(K, rep)
    for axis in (1, 2, 3):
        want = expected_self_h(K, axis)
        assert np.max(np.abs(fields.h[axis - 1] - want)) <= 1e-14
        # frozen magnitude: 2 m^2 C^3 / (e hbar) at defaults
        assert abs(np.max(np.abs(want)) - FROZEN_SELF_H_SCALE) <= 1e-10


@pytest.mark.parametrize("rep", REPS)
def test_time_commutators_and_electric_parts_exactly_zero(rep):
    mom = kinematic_momenta(K, rep)
    for j in range(3):
        assert np.max(np.abs(commutator(mom.p[j], mom.p0))) == 0.0
    assert all(np.max(np.abs(e)) == 0.0 for e in self_fields_commutator(K, rep).e)
    assert all(np.max(np.abs(e)) == 0.0 for e in self_fields_matrix_maxwell(K, rep).e)


@pytest.mark.parametrize("rep", REPS)
def test_two_routes_agree_entrywise(rep):
    via_comm = self_fields_commutator(K, rep)
    via_sub = self_fields_matrix_maxwell(K, rep)
    for axis in range(3):
        assert np.max(np.abs(via_comm.h[axis] - via_sub.h[axis])) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(st.floats(0.8, 1.2), st.floats(0.8, 1.2), st.floats(0.9, 1.5), st.floats(0.9, 1.5))
def test_routes_agree_over_random_constants(mass, c, charge, hbar):
    k = PhysicalConstants(hbar=hbar, c=c, mass=mass, charge=charge)
    via_comm = self_fields_commutator(k)
    via_sub = self_fields_matrix_maxwell(k)
    for axis in range(3):
        assert np.max(np.abs(via_comm.h[axis] - via_sub.h[axis])) <= 1e-14
        assert np.max(np.abs(via_comm.e[axis])) == 0.0
        assert np.max(np.abs(via_sub.e[axis])) == 0.0


def test_expected_self_h_is_sigma_block_multiple():
    want = expected_self_h(K, 3)
    scale = 2.0 * K.mass**2 * K.c**3 / (K.charge * K.hbar)
    assert np.array_equal(want, scale * sigma_block(3))


def test_a_sequence_of_constant_sets_stacks_each_sets_single_call():
    sets = [K, PhysicalConstants(hbar=1.3, c=2.1, mass=0.7, charge=0.9),
            PhysicalConstants(c=137.036, charge=1.0)]
    for rep in REPS:
        for route in (self_fields_commutator, self_fields_matrix_maxwell):
            for seq in (sets, tuple(sets)):
                stacked = route(seq, rep)
                assert stacked.e.shape == stacked.h.shape == (3, 3, 4, 4)
                for i, k in enumerate(sets):
                    one = route(k, rep)
                    assert one.e.shape == one.h.shape == (3, 4, 4)
                    assert np.array_equal(stacked.e[i], one.e)
                    assert np.array_equal(stacked.h[i], one.h)
    for axis in (1, 2, 3):
        stacked = expected_self_h(sets, axis)
        assert stacked.shape == (3, 4, 4)
        assert all(np.array_equal(stacked[i], expected_self_h(k, axis)) for i, k in enumerate(sets))


@pytest.mark.parametrize("bad", [[], [K, (1.0, 1.0, 1.0, 1.0)], "constants", 1.0],
                         ids=["empty", "tuple-row", "string", "number"])
def test_the_self_field_routes_refuse_what_is_not_constant_sets(bad):
    for call in (self_fields_commutator, self_fields_matrix_maxwell,
                 lambda k: expected_self_h(k, 1)):
        with pytest.raises(DomainError):
            call(bad)


@pytest.mark.parametrize("rep", ["standard", None, 0])
def test_both_self_field_routes_refuse_a_set_that_is_not_a_representation(rep):
    for route in (self_fields_commutator, self_fields_matrix_maxwell):
        with pytest.raises(DomainError, match="rep must be a Representation"):
            route(K, rep)


def test_classical_reference_uniform_field_gauges():
    gauge = symmetric_gauge(1.7)
    scalar = linear_scalar(0.9)
    for pt in ((0.0, 0.0, 0.0), (1.2, -0.4, 2.0)):
        ref = classical_maxwell_reference(gauge, pt)
        assert np.max(np.abs(np.array(ref.h) - np.array([0.0, 0.0, 1.7]))) <= 1e-14
        assert np.max(np.abs(np.array(ref.e))) == 0.0
        ref = classical_maxwell_reference(scalar, pt)
        assert np.max(np.abs(np.array(ref.e) - np.array([0.9, 0.0, 0.0]))) <= 1e-14
        assert np.max(np.abs(np.array(ref.h))) == 0.0
    grid = np.meshgrid(*[np.linspace(-1.0, 1.0, 3)] * 3, indexing="ij")
    ref = classical_maxwell_reference(gauge, grid)
    assert all(c.shape == (3, 3, 3) for c in (*ref.h, *ref.e))
    assert np.all(ref.h[2] == 1.7)


def test_linear_potentials_sample_only_their_nonzero_coefficients():
    x, y, z = np.meshgrid(*[np.linspace(-1.0, 1.0, 5)] * 3, indexing="ij")
    ax, ay, az = symmetric_gauge(1.3).a(x, y, z)
    assert ax.tobytes() == ((-0.5 * 1.3) * y).tobytes()
    assert ay.tobytes() == ((0.5 * 1.3) * x).tobytes()
    assert not az.any() and az.shape == x.shape
    assert linear_scalar(0.7).phi(x, y, z).tobytes() == ((-0.7) * x).tobytes()
    assert not symmetric_gauge(1.3).phi(x, y, z).any()
    zero = LinearPotentials()
    assert all(not c.any() and c.shape == x.shape for c in (*zero.a(x, y, z), zero.phi(x, y, z)))
    mixed = LinearPotentials(grad_phi=(1.5, -2.0, 0.25))
    assert np.array_equal(mixed.phi(x, y, z), 1.5 * x + (-2.0) * y + 0.25 * z)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", [(0, 1), (2, 2), (3, 0)])
def test_linear_potentials_refuse_a_non_finite_coefficient(bad, slot):
    # slot (k, l): grad_a[k][l] for k < 3, grad_phi[l] for k = 3
    rows = [[0.0, 0.0, 0.0] for _ in range(4)]
    rows[slot[0]][slot[1]] = bad
    with pytest.raises(DomainError, match="coefficients must be finite"):
        LinearPotentials(grad_a=tuple(map(tuple, rows[:3])), grad_phi=tuple(rows[3]))


def test_rest_energy_is_mass_energy_for_any_direction():
    rng = np.random.default_rng(31)
    for _ in range(50):
        theta = math.acos(float(rng.uniform(-1, 1)))
        phi_s = float(rng.uniform(-math.pi, math.pi))
        assert abs(rest_energy(theta, phi_s, K) - K.mc2) / K.mc2 <= 1e-14


def test_gyromagnetic_ratio_links_moment_and_spin():
    ratio = gyromagnetic_ratio(K)
    assert ratio == -K.charge / (K.mass * K.c)
    for mu, s in zip(magnetic_moment_matrices(K), spin_matrices(K)):
        assert np.max(np.abs(mu - ratio * s)) <= 1e-15


def test_anomalous_ratio_frozen_value():
    got = anomalous_moment_ratio(K)
    assert abs(got - FROZEN_ANOMALOUS_RATIO) <= 1e-18
    assert abs(got - 1.161410e-3) <= 1e-9


def test_anomalous_ratio_dimensionless():
    # invariant under rescalings preserving e^2 / (hbar C)
    base = anomalous_moment_ratio(K)
    scaled = PhysicalConstants(hbar=2.0, c=0.5, mass=3.0, charge=K.charge)
    assert abs(anomalous_moment_ratio(scaled) - base) <= 1e-17


def test_self_potentials_rest_state_frozen():
    state = MomentumState(p=np.zeros(3), constants=K)
    pots = self_potentials(eigenspinor(state, 1, "up"), K)
    assert abs(pots.phi - FROZEN_REST_PHI) <= 1e-12
    assert np.max(np.abs(pots.a)) <= 1e-14
    assert pots.imag_magnitude <= 1e-14


def test_self_potentials_requires_normalized_state():
    from diraclab.errors import DomainError
    with pytest.raises(DomainError):
        self_potentials(np.array([1.0, 1.0, 0.0, 0.0]), K)


def test_cross_sum_vanishes_on_eigenstates_only():
    rng = np.random.default_rng(32)
    for _ in range(20):
        state = MomentumState(p=rng.uniform(-2, 2, 3), constants=K)
        sign = 1 if rng.integers(0, 2) else -1
        spin = "up" if rng.integers(0, 2) else "down"
        u = eigenspinor(state, sign, spin)
        res = self_action_reduction(u, state)
        assert abs(res.norm_sq - 1.0) <= 1e-12
        assert abs(res.overlap_sum) <= 1e-12
        assert abs(res.coupled_value - res.reduced_value) <= 1e-12
        assert abs(res.reduced_value - res.hd_expectation) <= 1e-12
    # a generic component-basis state leaves a visibly nonzero cross sum
    state = MomentumState(p=np.array([1.0, -0.4, 0.7]), constants=K)
    psi = np.array([1.0, 0.5j, 0.25, -0.3 + 0.2j], dtype=complex)
    psi = psi / np.linalg.norm(psi)
    res = self_action_reduction(psi, state)
    assert abs(res.overlap_sum) > 1e-3


def test_self_action_expectation_equals_energy_on_eigenstates():
    state = MomentumState(p=np.array([0.8, -0.5, 0.2]), constants=K)
    for sign in (1, -1):
        u = eigenspinor(state, sign, "up")
        res = self_action_reduction(u, state)
        assert abs(res.hd_expectation - sign * state.energy) <= 1e-12


# --- stacks: n samples in one call give the n single-row results -------------

RESULT_FIELDS = ("norm_sq", "overlap_sum", "hd_expectation", "coupled_value", "reduced_value")


def test_stacked_self_action_equals_its_single_rows():
    rng = np.random.default_rng(40)
    states, psis = [], []
    for i in range(12):
        state = MomentumState(p=rng.uniform(-2, 2, 3), constants=K)
        if i % 3:
            psi = eigenspinor(state, 1 if i % 2 else -1, "up", (0.4 * i, 0.3 * i))
        else:  # away from the eigenstates, where the cross sum does not vanish
            psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi = psi / np.linalg.norm(psi)
        states.append(state)
        psis.append(psi)
    stack = MomentumState(p=[s.p for s in states], constants=K)
    stacked = self_action_reduction(np.array(psis), stack)
    singles = [self_action_reduction(psi, state) for psi, state in zip(psis, states)]
    for name in RESULT_FIELDS:
        got = getattr(stacked, name)
        assert got.shape == (12,)
        assert np.array_equal(got, np.array([getattr(s, name) for s in singles])), name
    assert type(singles[0].norm_sq) is float and type(singles[0].overlap_sum) is complex
    pots = self_potentials(np.array(psis), K)
    for i, psi in enumerate(psis):
        one = self_potentials(psi, K)
        assert np.array_equal(pots.a[i], one.a)
        assert pots.phi[i] == one.phi and pots.imag_magnitude[i] == one.imag_magnitude


def test_stacked_rest_energy_equals_its_single_directions():
    rng = np.random.default_rng(41)
    theta = np.arccos(rng.uniform(-1, 1, 30))
    phi = rng.uniform(-math.pi, math.pi, 30)
    k = PhysicalConstants(hbar=1.3, c=0.9, mass=1.1, charge=0.4)
    got = rest_energy(theta, phi, k)
    assert np.array_equal(got, np.array([rest_energy(a, b, k) for a, b in zip(theta, phi)]))


def test_a_bad_row_inside_a_self_action_stack_is_refused():
    rng = np.random.default_rng(42)
    momenta = rng.uniform(-2, 2, (5, 3))
    states = [MomentumState(p=p, constants=K) for p in momenta]
    stack = MomentumState(p=momenta, constants=K)
    psis = np.array([eigenspinor(s, 1, "up") for s in states])
    for row, value in ((2, np.nan), (4, 2.0)):  # non-finite, then not normalized
        bad = psis.copy()
        bad[row, 1] = value
        with pytest.raises(DomainError):
            self_action_reduction(bad, stack)
    with pytest.raises(DomainError):
        self_action_reduction(psis[:, :3], stack)
    with pytest.raises(DomainError, match="for momenta of shape"):
        self_action_reduction(psis, MomentumState(p=momenta[:4], constants=K))
    with pytest.raises(DomainError, match="for momenta of shape"):
        self_action_reduction(psis[0], stack)
    with pytest.raises(DomainError, match="for momenta of shape"):
        self_action_reduction(psis, states[0])
    for seq in (states, tuple(states)):  # a sequence of states is not a stack
        with pytest.raises(DomainError, match="expected a MomentumState"):
            self_action_reduction(psis, seq)


def test_stacked_self_action_and_rest_energy_give_the_scalar_bits():
    # tests/reference_kernels.py holds the per-state code the stacks replaced
    import reference_kernels as ref

    rng = np.random.default_rng(43)
    k = PhysicalConstants(hbar=0.9, c=1.3, mass=0.8, charge=0.6)
    momenta = rng.uniform(-2, 2, (40, 3))
    group = [MomentumState(p=p, constants=k) for p in momenta]
    psis = rng.standard_normal((len(group), 4)) + 1j * rng.standard_normal((len(group), 4))
    psis = psis / np.linalg.norm(psis, axis=1, keepdims=True)
    psis[::2] = [eigenspinor(s, 1, "down", (0.2, 1.0)) for s in group[::2]]
    got = self_action_reduction(psis, MomentumState(p=momenta, constants=k))
    for i, (psi, state) in enumerate(zip(psis, group)):
        want = ref.self_action_reduction(psi, state)
        assert [getattr(got, name)[i] for name in RESULT_FIELDS] == list(want)
        one = self_action_reduction(psi, state)
        assert [getattr(one, name) for name in RESULT_FIELDS] == list(want)
    theta, phi = np.arccos(rng.uniform(-1, 1, 25)), rng.uniform(-math.pi, math.pi, 25)
    assert rest_energy(theta, phi, k).tolist() == [ref.rest_energy(a, b, k)
                                                   for a, b in zip(theta.tolist(), phi.tolist())]
