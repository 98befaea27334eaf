"""Acceptance gate: the eleven headline guarantees, one test each.

Every test prints a single PASS/FAIL line (visible under pytest -s or on
failure) and then asserts.  Tolerances here are the promised ones, not the
tighter margins the unit tests use.
"""

import math

import numpy as np

from diraclab.config import RunConfig
from diraclab.constants import PhysicalConstants
from diraclab.dynamics import (
    MomentumState,
    alpha_evolved_oracle,
    eigenspinor,
    fitted_zbw_frequency,
    zbw_closed_form,
    zbw_trajectory,
)
from diraclab.fields import (
    anomalous_moment_ratio,
    expected_self_h,
    rest_energy,
    self_action_reduction,
    self_fields_commutator,
    self_fields_matrix_maxwell,
)
from diraclab.lattice import Grid3, commutator_field_extract, convergence_study, make_preset
from diraclab.matrices import Representation, generators
from diraclab.report import report_json
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
)
from diraclab.suites import run_suite

K = PhysicalConstants()


def _verdict(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {label}")
    assert ok, f"criterion {num}: {label}"


def _worst_anticommutator_error(gens):
    worst = 0.0
    eye = np.eye(4)
    for a in range(4):
        for b in range(4):
            got = gens[a] @ gens[b] + gens[b] @ gens[a]
            want = 2.0 * eye if a == b else np.zeros((4, 4))
            worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def test_criterion_01_clifford_relations():
    worst = max(
        _worst_anticommutator_error(generators(Representation.PAULI_DIRAC)),
        _worst_anticommutator_error(generators(Representation.STANDARD)),
    )
    bad = [g.copy() for g in generators(Representation.PAULI_DIRAC)]
    bad[3][0, 0] = -bad[3][0, 0]
    control = _worst_anticommutator_error(bad)
    ok = worst <= 1e-14 and control > 1e-14
    _verdict(1, f"32 anticommutator relations (max err {worst:.1e}, "
                f"tampered control err {control:.1e})", ok)


def test_criterion_02_spectrum():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        p = rng.uniform(-3.0, 3.0, 3)
        m = rng.uniform(0.4, 2.5)
        c = rng.uniform(0.4, 2.5)
        state = MomentumState(p=p, constants=PhysicalConstants(mass=m, c=c))
        vals = np.linalg.eigvalsh(state.h)
        e = math.sqrt(c**2 * float(p @ p) + m**2 * c**4)
        worst = max(worst, float(np.max(np.abs(vals - np.array([-e, -e, e, e])))) / e)
    ok = worst <= 1e-12
    _verdict(2, f"1000 random spectra doubly degenerate at +-E (rel err {worst:.1e})", ok)


def test_criterion_03_angular_eigenvalues():
    ok = True
    for l in range(-5, 6):
        for branch, offset in ((BRANCH_PLUS, 0.5), (BRANCH_MINUS, -0.5)):
            res = jz_apply(angular_eigenstate(l, branch))
            ok = ok and res.is_eigenstate and res.eigenvalue == K.hbar * (l + offset)
    mixed = jz_apply(CylindricalSpinor(angular_indices=(0, 2, 0, 1)))
    ok = ok and not mixed.is_eigenstate and mixed.eigenvalue is None
    _verdict(3, "axial angular momentum exactly hbar*(l +- 1/2) on both branches, "
                "mixed pattern rejected", ok)


def test_criterion_04_plane_wave_residuals():
    rng = np.random.default_rng(1004)
    worst_res = 0.0
    worst_match = 0.0
    for _ in range(6):
        p = rng.uniform(-2.0, 2.0, 3)
        sign = 1 if rng.uniform() < 0.5 else -1
        state = MomentumState(p=p, constants=K)
        u = eigenspinor(state, sign, "up")
        wave = PlaneWave(amplitude=u, p=p, omega=sign * state.energy / K.hbar, constants=K)
        r_up, r_lo = coupled_residual(wave)
        worst_res = max(worst_res, float(np.max(np.abs(r_up))), float(np.max(np.abs(r_lo))))
        pts = [tuple(rng.uniform(-1.0, 1.0, 3)) + (rng.uniform(0.0, 2.0),) for _ in range(4)]
        worst_res = max(worst_res, float(np.max(np.abs(component_residual(wave, pts)))))
        cpts = [(rng.uniform(0.2, 1.5), rng.uniform(-3.0, 3.0),
                 rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0)) for _ in range(4)]
        crows = cylindrical_residual(CylindricalPlaneWave(wave), cpts)
        cart = [(rho * math.cos(phi), rho * math.sin(phi), z, t) for rho, phi, z, t in cpts]
        rows = component_residual(wave, cart)
        worst_match = max(worst_match, float(np.max(np.abs(crows - rows))))
    ok = worst_res < 1e-12 and worst_match < 1e-10
    _verdict(4, f"eigen plane waves solve coupled and component forms "
                f"(residual {worst_res:.1e}), cylindrical rows match cartesian "
                f"at matched points ({worst_match:.1e})", ok)


def test_criterion_05_zitterbewegung():
    rng = np.random.default_rng(1005)
    step = 1e-5
    worst_fd = 0.0
    for _ in range(20):
        p = rng.uniform(-1.5, 1.5, 3)
        t = rng.uniform(0.1, 3.0)
        j = int(rng.integers(1, 4))
        state = MomentumState(p=p, constants=K)
        plus = zbw_closed_form(state, j, t + step)
        minus = zbw_closed_form(state, j, t - step)
        deriv = ((plus.drift_matrix + plus.zbw_matrix)
                 - (minus.drift_matrix + minus.zbw_matrix)) / (2.0 * step)
        want = K.c * alpha_evolved_oracle(state, j, t)
        worst_fd = max(worst_fd, float(np.max(np.abs(deriv - want))))

    worst_lin = 0.0
    for sign in (1, -1):
        state = MomentumState(p=np.array([0.7, -0.3, 0.4]), constants=K)
        psi = eigenspinor(state, sign, "down")
        period = 2.0 * math.pi * K.hbar / (2.0 * state.energy)
        traj = zbw_trajectory(state, psi, np.linspace(0.0, 3.0 * period, 48))
        slope = K.c**2 * state.p / (sign * state.energy)
        worst_lin = max(worst_lin,
                        float(np.max(np.abs(traj.total - traj.t[:, None] * slope))))

    state = MomentumState(p=np.array([0.9, 0.2, -0.5]), constants=K)
    fitted = fitted_zbw_frequency(state)
    reference = 2.0 * state.energy / K.hbar
    freq_off = abs(fitted - reference) / reference

    ok = worst_fd <= 1e-8 and worst_lin <= 1e-10 and freq_off <= 0.01
    _verdict(5, f"position rate matches evolved velocity (fd err {worst_fd:.1e}), "
                f"eigenstate drift linear ({worst_lin:.1e}), "
                f"fitted frequency off by {freq_off:.2%}", ok)


def test_criterion_06_self_fields_two_routes():
    rng = np.random.default_rng(1006)
    zeros_ok = True
    worst = 0.0
    for _ in range(100):
        k = PhysicalConstants(
            hbar=rng.uniform(0.9, 1.5), c=rng.uniform(0.8, 1.2),
            mass=rng.uniform(0.8, 1.2), charge=rng.uniform(0.9, 1.5),
        )
        commutator_route = self_fields_commutator(k)
        substitution_route = self_fields_matrix_maxwell(k)
        for j in range(3):
            zeros_ok = zeros_ok and bool(np.all(commutator_route.e[j] == 0.0))
            zeros_ok = zeros_ok and bool(np.all(substitution_route.e[j] == 0.0))
            want = expected_self_h(k, j + 1)
            worst = max(
                worst,
                float(np.max(np.abs(commutator_route.h[j] - want))),
                float(np.max(np.abs(substitution_route.h[j] - want))),
                float(np.max(np.abs(commutator_route.h[j] - substitution_route.h[j]))),
            )
    ok = zeros_ok and worst <= 1e-14
    _verdict(6, f"both routes: E identically zero, H matches the closed form "
                f"over 100 random constants (max err {worst:.1e})", ok)


def test_criterion_07_rest_energy():
    rng = np.random.default_rng(1007)
    want = K.mass * K.c**2
    worst = 0.0
    for _ in range(100):
        theta = math.acos(rng.uniform(-1.0, 1.0))
        phi_s = rng.uniform(-math.pi, math.pi)
        worst = max(worst, abs(rest_energy(theta, phi_s, K) - want) / want)
    ok = worst <= 1e-14
    _verdict(7, f"rest energy m*C^2 for 100 spin directions (rel err {worst:.1e})", ok)


def test_criterion_08_anomalous_moment():
    ratio = anomalous_moment_ratio(PhysicalConstants())
    off = abs(ratio - 1.161410e-3)
    ok = off <= 1e-9
    _verdict(8, f"anomalous moment ratio {ratio:.9e} within 1e-9 of 1.161410e-3", ok)


def test_criterion_09_self_action_reduction():
    rng = np.random.default_rng(1009)
    worst_cross = 0.0
    worst_eq = 0.0
    for _ in range(100):
        state = MomentumState(p=rng.uniform(-2.0, 2.0, 3), constants=K)
        sign = 1 if rng.uniform() < 0.5 else -1
        spin = "up" if rng.uniform() < 0.5 else "down"
        axis = (math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(-math.pi, math.pi))
        psi = eigenspinor(state, sign, spin, axis)
        res = self_action_reduction(psi, state)
        worst_cross = max(worst_cross, abs(res.overlap_sum))
        worst_eq = max(
            worst_eq,
            abs(res.coupled_value - res.reduced_value),
            abs(res.reduced_value - res.hd_expectation),
        )
    ok = worst_cross <= 1e-12 and worst_eq <= 1e-12
    _verdict(9, f"cross sum vanishes ({worst_cross:.1e}) and coupled = reduced = <H> "
                f"({worst_eq:.1e}) on 100 eigenspinors", ok)


def test_criterion_10_lattice_convergence():
    study = convergence_study(make_preset("uniform_b"), (0.2, 0.1, 0.05))
    order_ok = isinstance(study.order, float) and abs(study.order - 2.0) <= 0.15
    grid = Grid3(n=17, h=0.1)
    worst = 0.0
    for preset in ("uniform_b", "linear_phi"):
        res = commutator_field_extract(make_preset(preset), grid)
        worst = max(worst, res.prediction_error)
    ok = order_ok and worst <= 1e-12
    order_text = f"{study.order:.3f}" if isinstance(study.order, float) else str(study.order)
    _verdict(10, f"uniform-field extraction converges at order {order_text}, "
                 f"exact discrete prediction err {worst:.1e}", ok)


def test_criterion_11_deterministic_reports():
    config = RunConfig()
    first = report_json(run_suite(config))
    second = report_json(run_suite(config))
    ok = first.encode("utf-8") == second.encode("utf-8")
    _verdict(11, f"repeated runs byte-identical ({len(first)} bytes)", ok)
