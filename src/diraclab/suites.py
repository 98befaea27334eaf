"""Check suites: every claim in the catalogue grouped by subject area.

Each builder draws its randomness from a child generator seeded as
[run seed, suite index], so suite selection never shifts another suite's
samples and identical configs replay identical numbers.
"""

from __future__ import annotations

import math

import numpy as np

from . import lattice as lattice_mod
from .config import SUITE_NAMES, RunConfig
from .constants import PhysicalConstants
from .dynamics import (
    RESOLVED_OSCILLATION,
    MomentumState,
    alpha_evolved_oracle,
    eigenspinor,
    eta_matrix,
    fitted_zbw_frequency,
    hamiltonian,
    spectrum,
    velocity_operator,
    zbw_closed_form,
    zbw_trajectory,
)
from .errors import DomainError
from .fields import (
    EPS,
    U1_INDEX_NOTE,
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
    spin_coherent_expectation,
    spin_matrices,
    symmetric_gauge,
    zero_scalar_field,
    zero_vector_field,
)
from .matrices import (
    Representation,
    clifford_check,
    commutator,
    generator_spectrum_checks,
    generators,
    identity,
    mat_exp,
    pauli,
    sigma_block,
    taylor_exp_reference,
)
from .report import (
    TOOL_VERSION,
    VerificationReport,
    make_check,
    qualitative_check,
)
from .spinors import (
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
    split_bispinor,
)

CONVENTIONS = [
    "both generator sets are verified independently as printed; no basis change relates them here",
    "sigma_k inside 4x4 identities is read as blockdiag(sigma_k, sigma_k)",
    "plane waves are amplitude * exp(i p.r / hbar - i omega t); omega = E / hbar on the mass shell",
    "eigenspinor phase: first component above 1e-12 rotated real positive; spin labels from Sigma.n restricted to the energy eigenspace",
    RESOLVED_OSCILLATION,
    U1_INDEX_NOTE,
    lattice_mod.SIGN_CONVENTION,
    "pi_o applied statically: the time derivative drops and the operator is multiplication by (e/C) phi (signed electron charge reading)",
]


def tampered_generators(rep: Representation) -> list:
    """Deliberately corrupted set: scalar generator with one flipped entry."""
    gens = [g.copy() for g in generators(rep)]
    gens[3][0, 0] = -gens[3][0, 0]
    return gens


def _prefixed(suite: str, checks: list) -> list:
    for c in checks:
        c.claim_id = f"{suite}.{c.claim_id}"
    return checks


# --- algebra -----------------------------------------------------------------

def build_algebra_suite(config: RunConfig, rng) -> tuple:
    tol = config.tol("algebra", 1e-14)
    checks = []
    for rep in (Representation.PAULI_DIRAC, Representation.STANDARD):
        gens = None
        if config.tamper and rep is Representation.PAULI_DIRAC:
            gens = tampered_generators(rep)
        checks += _prefixed("algebra", clifford_check(rep, gens=gens, tol=tol))
        checks += _prefixed("algebra", generator_spectrum_checks(rep, tol=tol))

    dev = 0.0
    for j in (1, 2, 3):
        for l in (1, 2, 3):
            want = (1.0 if j == l else 0.0) * np.eye(2, dtype=complex)
            for k_ax in (1, 2, 3):
                want = want + 1j * EPS[j - 1, l - 1, k_ax - 1] * pauli(k_ax)
            dev = max(dev, float(np.max(np.abs(pauli(j) @ pauli(l) - want))))
    checks.append(make_check(
        "algebra.pauli_product_table", "plumbing",
        claimed=0.0, computed=dev, tol=tol,
        notes="sigma_j sigma_l = delta_jl I + i eps_jlk sigma_k, all nine pairs",
    ))

    for rep in (Representation.PAULI_DIRAC, Representation.STANDARD):
        a = generators(rep)[:3]
        dev = 0.0
        for (j, l, k_ax) in ((0, 1, 3), (1, 2, 1), (2, 0, 2)):
            got = commutator(a[j], a[l])
            want = 2j * sigma_block(k_ax)
            dev = max(dev, float(np.max(np.abs(got - want))))
        eq = "a2" if rep is Representation.PAULI_DIRAC else "b2"
        checks.append(make_check(
            f"algebra.block_spin_commutator.{rep.value}", eq,
            claimed=0.0, computed=dev, tol=tol,
            notes="[G_j, G_l] = 2 i eps_jlk blockdiag(sigma_k, sigma_k)",
        ))

    dev = 0.0
    for kind in ("hermitian", "skew", "general"):
        for _ in range(2):
            r = 0.4 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            if kind == "hermitian":
                m = r + r.conj().T
            elif kind == "skew":
                m = r - r.conj().T
            else:
                m = r
            got = mat_exp(m)
            want = taylor_exp_reference(m)
            scale = max(1.0, float(np.max(np.abs(want))))
            dev = max(dev, float(np.max(np.abs(got - want))) / scale)
    checks.append(make_check(
        "algebra.matrix_exponential_oracle", "plumbing",
        claimed=0.0, computed=dev, tol=1e-12,
        notes="eigendecomposition exponential against scaled Taylor summation",
    ))
    return checks, []


# --- states ------------------------------------------------------------------

def _random_wave(rng, constants) -> PlaneWave:
    amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    p = 2.0 * rng.standard_normal(3)
    omega = float(rng.standard_normal())
    return PlaneWave(amplitude=amp, p=p, omega=omega, constants=constants)


def build_states_suite(config: RunConfig, rng) -> tuple:
    tol = config.tol("states", 1e-12)
    k = config.constants
    a1, a2, a3, beta = generators(Representation.PAULI_DIRAC)
    checks = []

    dev_matrix = 0.0
    dev_stack = 0.0
    dev_cyl = 0.0
    for _ in range(12):
        wave = _random_wave(rng, k)
        pts = [tuple(float(v) for v in row) for row in rng.standard_normal((4, 4))]
        rows = component_residual(wave, pts)
        for i, (x, y, z, t) in enumerate(pts):
            s = wave.sample(x, y, z, t)
            matrix_row = (
                1j * k.hbar * s.d_t
                + 1j * k.hbar * k.c * (a1 @ s.d_x + a2 @ s.d_y + a3 @ s.d_z)
                - k.mc2 * (beta @ s.psi)
            )
            dev_matrix = max(dev_matrix, float(np.max(np.abs(rows[i] - matrix_row))))
        r_up, r_lo = coupled_residual(wave)
        origin_row = component_residual(wave, [(0.0, 0.0, 0.0, 0.0)])[0]
        dev_stack = max(dev_stack, float(np.max(np.abs(np.concatenate([r_up, r_lo]) - origin_row))))
        cyl = CylindricalPlaneWave(wave)
        cpts = [
            (float(rng.uniform(0.4, 2.0)), float(rng.uniform(-math.pi, math.pi)),
             float(rng.standard_normal()), float(rng.standard_normal()))
            for _ in range(4)
        ]
        crows = cylindrical_residual(cyl, cpts)
        for i, (rho, phi, z, t) in enumerate(cpts):
            cart = component_residual(
                wave, [(rho * math.cos(phi), rho * math.sin(phi), z, t)])[0]
            dev_cyl = max(dev_cyl, float(np.max(np.abs(crows[i] - cart))))
    checks.append(make_check(
        "states.component_rows_match_matrix_form", "aa1",
        claimed=0.0, computed=dev_matrix, tol=tol,
        notes="four scalar rows against the matrix equation, arbitrary plane waves",
    ))
    checks.append(make_check(
        "states.two_component_stack", "ab1",
        claimed=0.0, computed=dev_stack, tol=tol,
        notes="upper/lower residuals stacked equal the component rows at the origin",
    ))
    checks.append(make_check(
        "states.cylindrical_rows_match", "aa2",
        claimed=0.0, computed=dev_cyl, tol=100.0 * tol,
        notes="cylindrical rows against cartesian rows at matched points; "
              "tolerance 100x suite base (chain-rule amplification)",
    ))

    dev = 0.0
    for _ in range(5):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        dev = max(dev, float(np.max(np.abs(recompose(split_bispinor(psi)) - psi))))
    checks.append(make_check(
        "states.split_recompose", "ab3",
        claimed=0.0, computed=dev, tol=0.0,
        notes="(upper, lower) split loses nothing",
    ))

    dev_eigen = 0.0
    dev_coupled = 0.0
    for _ in range(4):
        p = rng.uniform(-2.0, 2.0, 3)
        state = MomentumState(p=p, constants=k)
        for sign in (1, -1):
            spin = "up" if rng.integers(0, 2) else "down"
            u = eigenspinor(state, sign, spin)
            wave = PlaneWave(amplitude=u, p=p, omega=sign * state.energy / k.hbar, constants=k)
            pts = [tuple(float(v) for v in row) for row in rng.standard_normal((3, 4))]
            dev_eigen = max(dev_eigen, float(np.max(np.abs(component_residual(wave, pts)))))
            r_up, r_lo = coupled_residual(wave)
            dev_coupled = max(dev_coupled, float(np.max(np.abs(np.concatenate([r_up, r_lo])))))
    checks.append(make_check(
        "states.eigen_wave_residual", "a1",
        claimed=0.0, computed=dev_eigen, tol=tol,
        notes="on-shell plane waves built from energy eigenvectors",
    ))
    checks.append(make_check(
        "states.coupled_split_residual", "ab1",
        claimed=0.0, computed=dev_coupled, tol=tol,
    ))

    for branch, eq, offset in ((BRANCH_PLUS, "aa8", 0.5), (BRANCH_MINUS, "aa9", -0.5)):
        dev_val = 0.0
        dev_op = 0.0
        indices_ok = True
        for l in range(-5, 6):
            weights = tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            cyl = angular_eigenstate(
                l, branch, weights=weights,
                profile_refs=("gaussian", "unit", "zwave", "gaussian"),
                omega=float(rng.standard_normal()), constants=k,
            )
            if branch == BRANCH_PLUS:
                indices_ok &= cyl.angular_indices == (l, l + 1, l, l + 1)
            else:
                indices_ok &= cyl.angular_indices == (l - 1, l, l - 1, l)
            res = jz_apply(cyl, k)
            if not res.is_eigenstate:
                dev_val = math.inf
                continue
            dev_val = max(dev_val, abs(res.eigenvalue - k.hbar * (l + offset)))
            pts = [
                (float(rng.uniform(0.4, 2.0)), float(rng.uniform(-math.pi, math.pi)),
                 float(rng.standard_normal()), float(rng.standard_normal()))
                for _ in range(2)
            ]
            for (rho, phi, z, t) in pts:
                s = cyl.sample_cyl(rho, phi, z, t)
                sz = np.array([1.0, -1.0, 1.0, -1.0])
                applied = -1j * k.hbar * s.d_phi + 0.5 * k.hbar * sz * s.psi
                dev_op = max(dev_op, float(np.max(np.abs(applied - res.eigenvalue * s.psi))))
        tag = "plus" if branch == BRANCH_PLUS else "minus"
        checks.append(make_check(
            f"states.angular_eigenvalue.{tag}", eq,
            claimed=0.0, computed=dev_val, tol=0.0,
            notes="index arithmetic eigenvalue, exact for l in [-5, 5]",
        ))
        checks.append(make_check(
            f"states.angular_operator.{tag}", eq,
            claimed=0.0, computed=dev_op, tol=1e-12,
            notes="operator applied through the sampled angular derivative",
        ))
        checks.append(qualitative_check(
            f"states.angular_family_indices.{tag}",
            "aa5" if branch == BRANCH_PLUS else "aa6",
            claimed="component exponents follow the printed family",
            computed="all patterns matched for l in [-5, 5]" if indices_ok else "pattern mismatch",
            passed=indices_ok,
        ))

    mixed = CylindricalSpinor(angular_indices=(0, 2, 0, 1), constants=k)
    res = jz_apply(mixed, k)
    checks.append(qualitative_check(
        "states.angular_mixed_rejected", "aa7",
        claimed="mismatched exponent pattern is not an eigenstate",
        computed=f"is_eigenstate={res.is_eigenstate}, component values {list(res.component_values)}",
        passed=not res.is_eigenstate,
        notes="reported as a result, not an error",
    ))

    nmc = [{
        "claim_id": "states.ab2_as_printed",
        "paper_eq": "ab2",
        "note": "as printed the reduction reuses one unknown on both sides of its "
                "first relation and overloads a second symbol in the other; "
                "inconsistent as written, so the first-order split it abbreviates "
                "is what gets checked",
    }]
    return checks, nmc


# --- dynamics ----------------------------------------------------------------

def build_dynamics_suite(config: RunConfig, rng) -> tuple:
    tol = config.tol("dynamics", 1e-12)
    k = config.constants
    checks = []

    dev_spec = 0.0
    dev_deg = 0.0
    for _ in range(200):
        p = rng.uniform(-3.0, 3.0, 3)
        kk = PhysicalConstants(
            hbar=k.hbar, c=float(rng.uniform(0.4, 2.5)),
            mass=float(rng.uniform(0.4, 2.5)), charge=k.charge,
        )
        state = MomentumState(p=p, constants=kk)
        w = spectrum(state)
        e = state.energy
        want = np.array([-e, -e, e, e])
        dev_spec = max(dev_spec, float(np.max(np.abs(w - want))) / e)
        dev_deg = max(dev_deg, max(abs(w[0] - w[1]), abs(w[2] - w[3])) / e)
    checks.append(make_check(
        "dynamics.energy_spectrum", "closing",
        claimed=0.0, computed=dev_spec, tol=tol,
        notes="relative deviation from +-sqrt(C^2 p^2 + m^2 C^4), 200 random draws",
    ))
    checks.append(make_check(
        "dynamics.spectrum_degeneracy", "closing",
        claimed=0.0, computed=dev_deg, tol=tol,
        notes="each energy doubly degenerate",
    ))

    states = [MomentumState(p=rng.uniform(-2.0, 2.0, 3), constants=k) for _ in range(6)]

    dev_anti = 0.0
    dev_trace = 0.0
    for state in states:
        h = hamiltonian(state)
        for j in (1, 2, 3):
            eta = eta_matrix(state, j)
            dev_anti = max(dev_anti, float(np.max(np.abs(eta @ h + h @ eta))))
            dev_trace = max(dev_trace, abs(complex(np.trace(eta))))
    checks.append(make_check(
        "dynamics.eta_anticommutes", "f",
        claimed=0.0, computed=dev_anti, tol=tol,
    ))
    checks.append(make_check(
        "dynamics.eta_traceless", "f",
        claimed=0.0, computed=dev_trace, tol=tol,
    ))

    step = 1e-6
    dev = 0.0
    for state in states[:3]:
        for j in (1, 2, 3):
            fwd = zbw_closed_form(state, j, step)
            bwd = zbw_closed_form(state, j, -step)
            rate = ((fwd.drift_matrix + fwd.zbw_matrix)
                    - (bwd.drift_matrix + bwd.zbw_matrix)) / (2.0 * step)
            dev = max(dev, float(np.max(np.abs(rate - velocity_operator(j, k, state.rep)))))
    checks.append(make_check(
        "dynamics.velocity_at_zero", "d",
        claimed=0.0, computed=dev, tol=1e-8,
        notes="position rate at t=0 equals C alpha_j (central difference)",
    ))

    dev = 0.0
    h_inv_cache = {}
    for _ in range(18):
        state = states[int(rng.integers(0, len(states)))]
        t = float(rng.uniform(-3.0, 3.0))
        j = int(rng.integers(1, 4))
        h = hamiltonian(state)
        key = id(state)
        if key not in h_inv_cache:
            h_inv_cache[key] = np.linalg.inv(h)
        closed = (k.c * state.p[j - 1] * h_inv_cache[key]
                  + eta_matrix(state, j) @ mat_exp(-2j * t / k.hbar * h))
        dev = max(dev, float(np.max(np.abs(closed - alpha_evolved_oracle(state, j, t)))))
    checks.append(make_check(
        "dynamics.velocity_direction_evolution", "e",
        claimed=0.0, computed=dev, tol=tol,
        notes="C p_j H^-1 + eta exp(-2 i t H / hbar) against direct conjugation",
    ))

    step = 1e-5
    dev = 0.0
    for _ in range(20):
        p = rng.uniform(-1.5, 1.5, 3)
        state = MomentumState(p=p, constants=k)
        t = float(rng.uniform(0.1, 3.0))
        j = int(rng.integers(1, 4))
        fwd = zbw_closed_form(state, j, t + step)
        bwd = zbw_closed_form(state, j, t - step)
        rate = ((fwd.drift_matrix + fwd.zbw_matrix)
                - (bwd.drift_matrix + bwd.zbw_matrix)) / (2.0 * step)
        want = k.c * alpha_evolved_oracle(state, j, t)
        dev = max(dev, float(np.max(np.abs(rate - want))))
    checks.append(make_check(
        "dynamics.position_rate_matches_velocity", "g",
        claimed=0.0, computed=dev, tol=1e-8,
        notes="d/dt of drift + oscillation against C times the conjugated generator, "
              "central difference step 1e-5, 20 random (p, t)",
    ))

    dev = 0.0
    for state in states[:3]:
        for j in (1, 2, 3):
            dev = max(dev, float(np.max(np.abs(zbw_closed_form(state, j, 0.0).zbw_matrix))))
    checks.append(make_check(
        "dynamics.zbw_vanishes_at_zero", "g",
        claimed=0.0, computed=dev, tol=1e-13,
    ))

    dev_osc = 0.0
    dev_lin = 0.0
    for state in states[:2]:
        period = 2.0 * math.pi * k.hbar / (2.0 * state.energy)
        times = np.linspace(0.0, 3.0 * period, 48)
        for sign in (1, -1):
            u = eigenspinor(state, sign, "up")
            samples = zbw_trajectory(state, u, times)
            slope = k.c**2 * state.p / (sign * state.energy)
            for s in samples:
                dev_osc = max(dev_osc, float(np.max(np.abs(s.zbw))))
                dev_lin = max(dev_lin, float(np.max(np.abs(s.total - slope * s.t))))
    checks.append(make_check(
        "dynamics.eigenstate_no_oscillation", "g",
        claimed=0.0, computed=dev_osc, tol=tol,
        notes="energy eigenstates carry no oscillatory displacement",
    ))
    checks.append(make_check(
        "dynamics.eigenstate_drift_linear", "g",
        claimed=0.0, computed=dev_lin, tol=1e-10,
        notes="uniform drift at C^2 p_j / E",
    ))

    state = MomentumState(p=rng.uniform(-1.0, 1.0, 3), constants=k)
    omega = 2.0 * state.energy / k.hbar
    fitted = fitted_zbw_frequency(state)
    checks.append(make_check(
        "dynamics.zbw_frequency_fft", "g",
        claimed=omega, computed=fitted, tol=0.01 * omega,
        notes="windowed FFT with parabolic peak refinement, 64 periods",
    ))

    dev_res = 0.0
    dev_orth = 0.0
    deterministic = True
    for state in states:
        h = hamiltonian(state)
        basis = []
        for sign in (1, -1):
            for spin_label in ("up", "down"):
                u = eigenspinor(state, sign, spin_label)
                again = eigenspinor(state, sign, spin_label)
                deterministic &= bool(np.array_equal(u, again))
                dev_res = max(dev_res, float(
                    np.max(np.abs(h @ u - sign * state.energy * u))) / state.energy)
                basis.append(u)
        g = np.stack(basis, axis=1)
        dev_orth = max(dev_orth, float(np.max(np.abs(g.conj().T @ g - identity(4)))))
    checks.append(make_check(
        "dynamics.eigenspinor_residual", "closing",
        claimed=0.0, computed=dev_res, tol=tol,
        notes="H u = sign E u, relative to E",
    ))
    checks.append(make_check(
        "dynamics.eigenbasis_orthonormal", "closing",
        claimed=0.0, computed=dev_orth, tol=tol,
    ))
    checks.append(qualitative_check(
        "dynamics.eigenspinor_deterministic", "plumbing",
        claimed="identical inputs give bit-identical eigenvectors",
        computed="reproduced exactly" if deterministic else "reproduction differed",
        passed=deterministic,
    ))

    nmc = [{
        "claim_id": "dynamics.g_printed_constants",
        "paper_eq": "g",
        "note": "printed oscillatory constants (exponent sign, prefactor) do not "
                "solve the printed equation of motion; the oracle-resolved "
                "constants recorded under conventions are what the position "
                "checks verify",
    }]
    return checks, nmc


# --- fields ------------------------------------------------------------------

def _random_route_constants(rng, base: PhysicalConstants) -> PhysicalConstants:
    # narrow ranges keep 2 m^2 C^3 / (e hbar) small enough that the two
    # routes, rounded independently, stay within 1e-14 of each other
    return PhysicalConstants(
        hbar=float(rng.uniform(0.9, 1.5)),
        c=float(rng.uniform(0.8, 1.2)),
        mass=float(rng.uniform(0.8, 1.2)),
        charge=float(rng.uniform(0.9, 1.5)),
    )


def random_eigen_sample(rng, constants: PhysicalConstants):
    """One deterministic random eigenspinor: (state, spinor)."""
    p = rng.uniform(-2.0, 2.0, 3)
    state = MomentumState(p=p, constants=constants)
    sign = 1 if rng.integers(0, 2) else -1
    spin = "up" if rng.integers(0, 2) else "down"
    axis = (math.acos(float(rng.uniform(-1.0, 1.0))),
            float(rng.uniform(-math.pi, math.pi)))
    return state, eigenspinor(state, sign, spin, axis)


def build_fields_suite(config: RunConfig, rng) -> tuple:
    tol = config.tol("fields", 1e-12)
    tol_exact = config.tol("fields", 1e-14)
    k = config.constants
    checks = []

    mom = kinematic_momenta(k)
    a_set = generators(Representation.PAULI_DIRAC)
    mc = k.mass * k.c
    dev = float(np.max(np.abs(mom.p0 - mc * identity(4))))
    for j in range(3):
        dev = max(dev, float(np.max(np.abs(mom.p[j] - mc * a_set[j]))))
    checks.append(make_check(
        "fields.kinematic_momenta_form", "m",
        claimed=0.0, computed=dev, tol=0.0,
        notes="m C I and m C alpha_j as printed",
    ))

    dev = 0.0
    for j in range(3):
        dev = max(dev, float(np.max(np.abs(
            k.mass * velocity_operator(j + 1, k) - mom.p[j]))))
    checks.append(make_check(
        "fields.kinematic_from_velocity", "h",
        claimed=0.0, computed=dev, tol=0.0,
        notes="m v_j with zero vector potential reproduces the kinematic momenta",
    ))

    for (j, l, kk_ax) in ((0, 1, 3), (1, 2, 1), (2, 0, 2)):
        got = commutator(mom.p[j], mom.p[l])
        want = 2j * (k.mass * k.c) ** 2 * sigma_block(kk_ax)
        checks.append(make_check(
            f"fields.momentum_commutator_h.axis{kk_ax}", "n1",
            claimed=want, computed=got, tol=tol_exact,
        ))

    dev = 0.0
    for j in range(3):
        dev = max(dev, float(np.max(np.abs(commutator(mom.p[j], mom.p0)))))
    checks.append(make_check(
        "fields.momentum_time_commutator_zero", "n2",
        claimed=0.0, computed=dev, tol=0.0,
        notes="time component is a multiple of the identity",
    ))

    dev_expected = 0.0
    dev_routes = 0.0
    dev_e_comm = 0.0
    dev_e_sub = 0.0
    for i in range(8):
        kc = k if i == 0 else _random_route_constants(rng, k)
        for rep in (Representation.PAULI_DIRAC, Representation.STANDARD):
            via_comm = self_fields_commutator(kc, rep)
            via_sub = self_fields_matrix_maxwell(kc, rep)
            for ax in range(3):
                want = expected_self_h(kc, ax + 1)
                dev_expected = max(dev_expected, float(np.max(np.abs(via_comm.h[ax] - want))))
                dev_routes = max(dev_routes, float(np.max(np.abs(via_comm.h[ax] - via_sub.h[ax]))))
                dev_e_comm = max(dev_e_comm, float(np.max(np.abs(via_comm.e[ax]))))
                dev_e_sub = max(dev_e_sub, float(np.max(np.abs(via_sub.e[ax]))))
    checks.append(make_check(
        "fields.self_h_matches_expected", "o",
        claimed=0.0, computed=dev_expected, tol=tol_exact,
        notes="commutator route against 2 (m^2 C^3 / (e hbar)) Sigma_k, both "
              "generator sets, random constants",
    ))
    checks.append(make_check(
        "fields.routes_agree", "u1",
        claimed=0.0, computed=dev_routes, tol=tol_exact,
        notes=U1_INDEX_NOTE,
    ))
    checks.append(make_check(
        "fields.self_e_zero_commutator", "n2",
        claimed=0.0, computed=dev_e_comm, tol=0.0,
    ))
    checks.append(make_check(
        "fields.self_e_zero_substitution", "u2",
        claimed=0.0, computed=dev_e_sub, tol=0.0,
    ))

    b0 = float(rng.uniform(0.5, 2.0))
    e0 = float(rng.uniform(0.5, 2.0))
    a_field = symmetric_gauge(b0)
    phi_field = linear_scalar(e0)
    dev_h = 0.0
    dev_e = 0.0
    for _ in range(10):
        pt = tuple(float(v) for v in rng.uniform(-2.0, 2.0, 3))
        ref_b = classical_maxwell_reference(a_field, zero_scalar_field(), pt, 0.0, k)
        got_h = np.array([ref_b.h[0], ref_b.h[1], ref_b.h[2]], dtype=float)
        dev_h = max(dev_h, float(np.max(np.abs(got_h - np.array([0.0, 0.0, b0])))))
        ref_e = classical_maxwell_reference(zero_vector_field(), phi_field, pt, 0.0, k)
        got_e = np.array([ref_e.e[0], ref_e.e[1], ref_e.e[2]], dtype=float)
        dev_e = max(dev_e, float(np.max(np.abs(got_e - np.array([e0, 0.0, 0.0])))))
    checks.append(make_check(
        "fields.classical_curl", "t1",
        claimed=0.0, computed=dev_h, tol=1e-13,
        notes="curl of the symmetric gauge potential is the uniform intensity",
    ))
    checks.append(make_check(
        "fields.classical_gradient", "t2",
        claimed=0.0, computed=dev_e, tol=1e-13,
        notes="static linear potential gives a constant gradient intensity",
    ))

    dev_rest = 0.0
    dev_norm = 0.0
    for _ in range(100):
        theta = math.acos(float(rng.uniform(-1.0, 1.0)))
        phi_s = float(rng.uniform(-math.pi, math.pi))
        e0_val = rest_energy(theta, phi_s, k)
        dev_rest = max(dev_rest, abs(e0_val - k.mc2) / k.mc2)
        s = spin_coherent_expectation(theta, phi_s)
        dev_norm = max(dev_norm, abs(float(s @ s) - 1.0))
    checks.append(make_check(
        "fields.rest_energy_isotropic", "p",
        claimed=0.0, computed=dev_rest, tol=1e-14,
        notes="-<mu_j><H_j> = m C^2 for 100 random spin directions, relative",
    ))
    checks.append(make_check(
        "fields.coherent_norm", "q",
        claimed=0.0, computed=dev_norm, tol=1e-14,
    ))

    ratio = gyromagnetic_ratio(k)
    dev = 0.0
    for mu, s in zip(magnetic_moment_matrices(k), spin_matrices(k)):
        dev = max(dev, float(np.max(np.abs(mu - ratio * s))))
    checks.append(make_check(
        "fields.gyromagnetic_doubled", "p",
        claimed=0.0, computed=dev, tol=1e-15,
        notes="moment equals -e/(m C) times spin, twice the classical ratio",
    ))

    physical = anomalous_moment_ratio(PhysicalConstants())
    checks.append(make_check(
        "fields.anomalous_ratio_physical", "r",
        claimed=1.161410e-3, computed=physical, tol=1e-9,
        notes="alpha / (2 pi) at the physical coupling",
    ))
    base = anomalous_moment_ratio(k)
    dev = 0.0
    for _ in range(8):
        lam_h = float(rng.uniform(0.5, 3.0))
        lam_c = float(rng.uniform(0.5, 3.0))
        scaled = PhysicalConstants(
            hbar=k.hbar * lam_h, c=k.c * lam_c,
            mass=float(rng.uniform(0.5, 3.0)),
            charge=k.charge * math.sqrt(lam_h * lam_c),
        )
        dev = max(dev, abs(anomalous_moment_ratio(scaled) - base))
    checks.append(make_check(
        "fields.anomalous_ratio_invariance", "r",
        claimed=0.0, computed=dev, tol=1e-17,
        notes="invariant under rescalings that preserve e^2 / (hbar C)",
    ))

    rest_state = MomentumState(p=np.zeros(3), constants=k)
    u_rest = eigenspinor(rest_state, 1, "up")
    pots = self_potentials(u_rest, k)
    checks.append(make_check(
        "fields.self_potentials_rest", "s",
        claimed=-k.mc2 / k.charge, computed=pots.phi, tol=1e-14 * k.mc2 / k.charge,
        notes="scalar potential at rest",
    ))
    dev_a = float(np.max(np.abs(pots.a)))
    for _ in range(20):
        _, u = random_eigen_sample(rng, k)
        dev_a = max(dev_a, float(np.max(np.abs(self_potentials(u, k).a))))
    checks.append(make_check(
        "fields.self_potentials_vector_real_part", "s",
        claimed=0.0, computed=dev_a, tol=tol,
        notes="the vector-potential operator is anti-Hermitian, so the real "
              "parts reported as components vanish to rounding",
    ))

    dev_cross = 0.0
    dev_vr = 0.0
    dev_rh = 0.0
    dev_n = 0.0
    for _ in range(100):
        state, u = random_eigen_sample(rng, k)
        res = self_action_reduction(u, state)
        dev_cross = max(dev_cross, abs(res.overlap_sum))
        dev_vr = max(dev_vr, abs(res.coupled_value - res.reduced_value))
        dev_rh = max(dev_rh, abs(res.reduced_value - res.hd_expectation))
        dev_n = max(dev_n, abs(res.norm_sq - 1.0))
    checks.append(make_check(
        "fields.eigenspinor_norm", "w",
        claimed=0.0, computed=dev_n, tol=tol,
    ))
    checks.append(make_check(
        "fields.cross_sum_eigenstates", "w",
        claimed=0.0, computed=dev_cross, tol=tol,
        notes="sum_j <alpha_j><beta alpha_j> on 100 random eigenspinors",
    ))
    checks.append(make_check(
        "fields.coupled_equals_reduced", "v",
        claimed=0.0, computed=dev_vr, tol=tol,
        notes="energy expectation with self potentials inserted collapses to "
              "the potential-free form",
    ))
    checks.append(make_check(
        "fields.reduced_equals_expectation", "ba1",
        claimed=0.0, computed=dev_rh, tol=tol,
    ))

    worst = 0.0
    for _ in range(20):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = psi / np.linalg.norm(psi)
        state = MomentumState(p=rng.uniform(-2.0, 2.0, 3), constants=k)
        worst = max(worst, abs(self_action_reduction(psi, state).overlap_sum))
    checks.append(qualitative_check(
        "fields.cross_sum_arbitrary_reported", "w",
        claimed="evaluated without assertion away from eigenstates",
        computed=f"max |sum_j <alpha_j><beta alpha_j>| = {worst:.6f} over 20 random states",
        passed=True,
        notes="the cross sum vanishes only on energy eigenvectors",
    ))

    nmc = [{
        "claim_id": "fields.r_derivation_narrative",
        "paper_eq": "r",
        "note": "the closed-form ratio is checked numerically; the "
                "kinetic-energy-ratio narrative that motivates it fixes no "
                "intermediate quantity to compare",
    }]
    return checks, nmc


# --- lattice -----------------------------------------------------------------

def build_lattice_suite(config: RunConfig, rng) -> tuple:
    tol = config.tol("lattice", 1e-12)
    k = config.constants
    checks = []
    spacings = (0.2, 0.1, 0.05)

    study_b = lattice_mod.convergence_study(lattice_mod.make_preset("uniform_b"), spacings, k)
    if isinstance(study_b.order, float):
        checks.append(make_check(
            "lattice.convergence_order.uniform_b", "l1",
            claimed=2.0, computed=study_b.order, tol=0.15,
            oracle=list(study_b.errors),
            notes="slope of log max error versus log spacing",
        ))
    else:
        checks.append(qualitative_check(
            "lattice.convergence_order.uniform_b", "l1",
            claimed="second order", computed=str(study_b.order), passed=False,
            notes=f"errors {list(study_b.errors)}",
        ))

    study_e = lattice_mod.convergence_study(lattice_mod.make_preset("linear_phi"), spacings, k)
    if isinstance(study_e.order, float):
        checks.append(make_check(
            "lattice.convergence_order.linear_phi", "l2",
            claimed=2.0, computed=study_e.order, tol=0.15,
            oracle=list(study_e.errors),
        ))
    else:
        checks.append(qualitative_check(
            "lattice.convergence_order.linear_phi", "l2",
            claimed="second order", computed=str(study_e.order), passed=False,
            notes=f"errors {list(study_e.errors)}",
        ))

    study_zero = lattice_mod.convergence_study(lattice_mod.make_preset("zero"), spacings, k)
    checks.append(qualitative_check(
        "lattice.zero_field_exact", "k1",
        claimed="all estimates below 1e-13",
        computed=f"order={study_zero.order!r}, errors={list(study_zero.errors)}",
        passed=study_zero.order == "exact",
        notes="bare central differences commute",
    ))

    grid = lattice_mod.Grid3(n=17, h=0.1)
    dev = 0.0
    for preset in ("uniform_b", "linear_phi"):
        res = lattice_mod.commutator_field_extract(
            lattice_mod.make_preset(preset), grid, constants=k, mode="analytic")
        dev = max(dev, res.h_error, res.e_error)
    checks.append(make_check(
        "lattice.analytic_identity", "l1",
        claimed=0.0, computed=dev, tol=tol,
        notes="caller-supplied exact derivatives recover both intensities; "
              "checks the operator identity free of discretization",
    ))

    res = lattice_mod.commutator_field_extract(
        lattice_mod.make_preset("uniform_b"), grid, constants=k, mode="discrete")
    bound = 10.0 * max(res.h_error, res.e_error) + 1e-13
    checks.append(make_check(
        "lattice.function_independence", "l1",
        claimed=0.0, computed=res.function_deviation, tol=bound,
        notes="estimates from different test functions agree to the "
              "truncation bound",
    ))
    inner = res.interior
    h3 = res.h_field[2][inner]
    spread = float(np.nanmax(h3) - np.nanmin(h3))
    checks.append(make_check(
        "lattice.uniform_intensity_flat", "l1",
        claimed=0.0, computed=spread, tol=bound,
        notes="extracted uniform intensity is spatially constant",
    ))

    zero_cfg = lattice_mod.make_preset("zero")
    kvec = (1.3, -0.7, 0.5)
    tf = lattice_mod.plane_wave_field(kvec)
    x, y, z = grid.meshgrid()
    psi = tf.values(x, y, z)
    dev = 0.0
    for j in (1, 2, 3):
        applied = lattice_mod.kinetic_momentum_apply(j, zero_cfg, grid, psi, k)
        symbol = k.hbar * math.sin(kvec[j - 1] * grid.h) / grid.h
        ratio = applied[inner] / psi[inner]
        dev = max(dev, float(np.max(np.abs(ratio - symbol))))
    checks.append(make_check(
        "lattice.discrete_symbol", "k1",
        claimed=0.0, computed=dev, tol=1e-12,
        notes="central difference of a plane wave gives (hbar/h) sin(k h) exactly",
    ))
    return checks, []


# --- orchestration -----------------------------------------------------------

_BUILDERS = {
    "algebra": build_algebra_suite,
    "states": build_states_suite,
    "dynamics": build_dynamics_suite,
    "fields": build_fields_suite,
    "lattice": build_lattice_suite,
}


def run_suite(config: RunConfig) -> VerificationReport:
    """Run every selected suite and assemble the deterministic report."""
    checks = []
    nmc = []
    for name in config.suites:
        builder = _BUILDERS.get(name)
        if builder is None:
            raise DomainError(f"unknown suite {name!r}")
        rng = np.random.default_rng([config.seed, SUITE_NAMES.index(name)])
        suite_checks, suite_nmc = builder(config, rng)
        checks.extend(suite_checks)
        nmc.extend(suite_nmc)
    return VerificationReport(
        tool_version=TOOL_VERSION,
        constants_used=config.constants.to_dict(),
        seed=config.seed,
        conventions=list(CONVENTIONS),
        suites_run=list(config.suites),
        checks=checks,
        not_machine_checkable=nmc,
    )
