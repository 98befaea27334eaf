"""Check suites: every claim in the catalogue grouped by subject area.

Each builder draws its randomness from a child generator seeded as
[run seed, suite index], so suite selection never shifts another suite's
samples and identical configs replay identical numbers.  Builders name
checks without the "<suite>." prefix, which run_suite adds.  An identity
claim collects one deviation per sample (_dev) and _zero makes them a check.
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
    velocity_direction,
    velocity_operator,
    zbw_closed_form,
    zbw_trajectory,
)
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


def _dev(got, want=0.0) -> float:
    """Largest entrywise |got - want|."""
    return float(np.abs(got - want).max())


def _zero(claim_id, eq, devs, tol, notes=""):
    """Check that every deviation in devs vanishes to within tol.

    A NaN deviation raises ArithmeticError: max() would silently drop it.
    """
    if any(math.isnan(d) for d in devs):
        raise ArithmeticError(f"{claim_id}: NaN deviation")
    return make_check(claim_id, eq, claimed=0.0, computed=max([0.0, *devs]),
                      tol=tol, notes=notes)


# --- algebra -----------------------------------------------------------------

def build_algebra_suite(config: RunConfig, rng) -> tuple:
    tol = config.tol("algebra", 1e-14)
    checks = []
    for rep in (Representation.PAULI_DIRAC, Representation.STANDARD):
        gens = None
        if config.tamper and rep is Representation.PAULI_DIRAC:
            gens = tampered_generators(rep)
        checks += clifford_check(rep, gens=gens, tol=tol)
        checks += generator_spectrum_checks(rep, tol=tol)

    devs = []
    for j in (1, 2, 3):
        for l in (1, 2, 3):
            want = (1.0 if j == l else 0.0) * np.eye(2, dtype=complex)
            for k_ax in (1, 2, 3):
                want = want + 1j * EPS[j - 1, l - 1, k_ax - 1] * pauli(k_ax)
            devs.append(_dev(pauli(j) @ pauli(l), want))
    checks.append(_zero("pauli_product_table", "plumbing", devs, tol,
                        "sigma_j sigma_l = delta_jl I + i eps_jlk sigma_k, all nine pairs"))

    for rep in (Representation.PAULI_DIRAC, Representation.STANDARD):
        a = generators(rep)[:3]
        devs = [_dev(commutator(a[j], a[l]), 2j * sigma_block(k_ax))
                for (j, l, k_ax) in ((0, 1, 3), (1, 2, 1), (2, 0, 2))]
        eq = "a2" if rep is Representation.PAULI_DIRAC else "b2"
        checks.append(_zero(f"block_spin_commutator.{rep.value}", eq, devs, tol,
                            "[G_j, G_l] = 2 i eps_jlk blockdiag(sigma_k, sigma_k)"))

    devs = []
    for kind in ("hermitian", "skew"):
        for _ in range(2):
            r = 0.4 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            m = r + r.conj().T if kind == "hermitian" else r - r.conj().T
            got = mat_exp(m)
            want = taylor_exp_reference(m)
            devs.append(_dev(got, want) / max(1.0, float(np.max(np.abs(want)))))
    checks.append(_zero("matrix_exponential_oracle", "plumbing", devs, 1e-12,
                        "eigendecomposition exponential against scaled Taylor summation"))
    return checks, []


# --- states ------------------------------------------------------------------

def _random_wave(rng, constants) -> PlaneWave:
    amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    p = 2.0 * rng.standard_normal(3)
    omega = float(rng.standard_normal())
    return PlaneWave(amplitude=amp, p=p, omega=omega, constants=constants)


def _random_cyl_points(rng, count: int) -> list:
    return [
        (float(rng.uniform(0.4, 2.0)), float(rng.uniform(-math.pi, math.pi)),
         float(rng.standard_normal()), float(rng.standard_normal()))
        for _ in range(count)
    ]


def build_states_suite(config: RunConfig, rng) -> tuple:
    tol = config.tol("states", 1e-12)
    k = config.constants
    a1, a2, a3, beta = generators(Representation.PAULI_DIRAC)
    checks = []

    dev_matrix, dev_stack, dev_cyl = [], [], []
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
            dev_matrix.append(_dev(rows[i], matrix_row))
        stacked = np.concatenate(coupled_residual(wave))
        dev_stack.append(_dev(stacked, component_residual(wave, [(0.0, 0.0, 0.0, 0.0)])[0]))
        cyl = CylindricalPlaneWave(wave)
        cpts = _random_cyl_points(rng, 4)
        crows = cylindrical_residual(cyl, cpts)
        for i, (rho, phi, z, t) in enumerate(cpts):
            cart = component_residual(
                wave, [(rho * math.cos(phi), rho * math.sin(phi), z, t)])[0]
            dev_cyl.append(_dev(crows[i], cart))
    checks.append(_zero("component_rows_match_matrix_form", "aa1", dev_matrix, tol,
                        "four scalar rows against the matrix equation, arbitrary plane waves"))
    checks.append(_zero("two_component_stack", "ab1", dev_stack, tol,
                        "upper/lower residuals stacked equal the component rows at the origin"))
    checks.append(_zero("cylindrical_rows_match", "aa2", dev_cyl, 100.0 * tol,
                        "cylindrical rows against cartesian rows at matched points; "
                        "tolerance 100x suite base (chain-rule amplification)"))

    devs = []
    for _ in range(5):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        devs.append(_dev(recompose(split_bispinor(psi)), psi))
    checks.append(_zero("split_recompose", "ab3", devs, 0.0,
                        "(upper, lower) split loses nothing"))

    dev_eigen, dev_coupled = [], []
    for _ in range(4):
        p = rng.uniform(-2.0, 2.0, 3)
        state = MomentumState(p=p, constants=k)
        for sign in (1, -1):
            spin = "up" if rng.integers(0, 2) else "down"
            u = eigenspinor(state, sign, spin)
            wave = PlaneWave(amplitude=u, p=p, omega=sign * state.energy / k.hbar, constants=k)
            pts = [tuple(float(v) for v in row) for row in rng.standard_normal((3, 4))]
            dev_eigen.append(_dev(component_residual(wave, pts)))
            dev_coupled.append(_dev(np.concatenate(coupled_residual(wave))))
    checks.append(_zero("eigen_wave_residual", "a1", dev_eigen, tol,
                        "on-shell plane waves built from energy eigenvectors"))
    checks.append(_zero("coupled_split_residual", "ab1", dev_coupled, tol))

    sz = np.array([1.0, -1.0, 1.0, -1.0])
    # (branch, tag, eigenvalue eq, family eq, l + 1/2 offset, exponent shifts)
    for branch, tag, eq, family_eq, offset, shifts in (
        (BRANCH_PLUS, "plus", "aa8", "aa5", 0.5, (0, 1, 0, 1)),
        (BRANCH_MINUS, "minus", "aa9", "aa6", -0.5, (-1, 0, -1, 0)),
    ):
        dev_val, dev_op = [], []
        indices_ok = True
        for l in range(-5, 6):
            weights = tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            cyl = angular_eigenstate(
                l, branch, weights=weights,
                profile_refs=("gaussian", "unit", "zwave", "gaussian"),
                omega=float(rng.standard_normal()), constants=k,
            )
            indices_ok &= cyl.angular_indices == tuple(l + d for d in shifts)
            res = jz_apply(cyl, k)
            if not res.is_eigenstate:
                dev_val.append(math.inf)
                continue
            dev_val.append(abs(res.eigenvalue - k.hbar * (l + offset)))
            for (rho, phi, z, t) in _random_cyl_points(rng, 2):
                s = cyl.sample_cyl(rho, phi, z, t)
                applied = -1j * k.hbar * s.d_phi + 0.5 * k.hbar * sz * s.psi
                dev_op.append(_dev(applied, res.eigenvalue * s.psi))
        checks.append(_zero(f"angular_eigenvalue.{tag}", eq, dev_val, 0.0,
                            "index arithmetic eigenvalue, exact for l in [-5, 5]"))
        checks.append(_zero(f"angular_operator.{tag}", eq, dev_op, 1e-12,
                            "operator applied through the sampled angular derivative"))
        checks.append(qualitative_check(
            f"angular_family_indices.{tag}", family_eq,
            claimed="component exponents follow the printed family",
            computed="all patterns matched for l in [-5, 5]" if indices_ok else "pattern mismatch",
            passed=indices_ok,
        ))

    mixed = CylindricalSpinor(angular_indices=(0, 2, 0, 1), constants=k)
    res = jz_apply(mixed, k)
    checks.append(qualitative_check(
        "angular_mixed_rejected", "aa7",
        claimed="mismatched exponent pattern is not an eigenstate",
        computed=f"is_eigenstate={res.is_eigenstate}, component values {list(res.component_values)}",
        passed=not res.is_eigenstate,
        notes="reported as a result, not an error",
    ))

    return checks, [(
        "ab2_as_printed", "ab2",
        "as printed the reduction reuses one unknown on both sides of its "
        "first relation and overloads a second symbol in the other; "
        "inconsistent as written, so the first-order split it abbreviates "
        "is what gets checked",
    )]


# --- dynamics ----------------------------------------------------------------

def _position_rate(state, j: int, t: float, step: float) -> np.ndarray:
    """Central difference of drift + oscillation at t."""
    fwd = zbw_closed_form(state, j, t + step)
    bwd = zbw_closed_form(state, j, t - step)
    return ((fwd.drift_matrix + fwd.zbw_matrix)
            - (bwd.drift_matrix + bwd.zbw_matrix)) / (2.0 * step)


def build_dynamics_suite(config: RunConfig, rng) -> tuple:
    tol = config.tol("dynamics", 1e-12)
    k = config.constants
    checks = []

    draws = []
    for _ in range(200):
        p = rng.uniform(-3.0, 3.0, 3)
        kk = PhysicalConstants(
            hbar=k.hbar, c=float(rng.uniform(0.4, 2.5)),
            mass=float(rng.uniform(0.4, 2.5)), charge=k.charge,
        )
        draws.append(MomentumState(p=p, constants=kk))
    w = np.linalg.eigvalsh(np.stack([state.h for state in draws]))  # ascending rows
    e = np.array([state.energy for state in draws])
    dev_spec = (np.abs(w - e[:, None] * [-1.0, -1.0, 1.0, 1.0]).max(axis=1) / e).tolist()
    dev_deg = (np.maximum(np.abs(w[:, 0] - w[:, 1]), np.abs(w[:, 2] - w[:, 3])) / e).tolist()
    checks.append(_zero("energy_spectrum", "closing", dev_spec, tol,
                        "relative deviation from +-sqrt(C^2 p^2 + m^2 C^4), 200 random draws"))
    checks.append(_zero("spectrum_degeneracy", "closing", dev_deg, tol,
                        "each energy doubly degenerate"))

    states = [MomentumState(p=rng.uniform(-2.0, 2.0, 3), constants=k) for _ in range(6)]

    dev_anti, dev_trace = [], []
    for state in states:
        h = state.h
        for j in (1, 2, 3):
            eta = eta_matrix(state, j)
            dev_anti.append(_dev(eta @ h + h @ eta))
            dev_trace.append(abs(complex(np.trace(eta))))
    checks.append(_zero("eta_anticommutes", "f", dev_anti, tol))
    checks.append(_zero("eta_traceless", "f", dev_trace, tol))

    devs = [_dev(_position_rate(state, j, 0.0, 1e-6), velocity_operator(j, k, state.rep))
            for state in states[:3] for j in (1, 2, 3)]
    checks.append(_zero("velocity_at_zero", "d", devs, 1e-8,
                        "position rate at t=0 equals C alpha_j (central difference)"))

    devs = []
    for _ in range(18):
        state = states[int(rng.integers(0, len(states)))]
        t = float(rng.uniform(-3.0, 3.0))
        j = int(rng.integers(1, 4))
        devs.append(_dev(velocity_direction(state, j, t), alpha_evolved_oracle(state, j, t)))
    checks.append(_zero("velocity_direction_evolution", "e", devs, tol,
                        "C p_j H^-1 + eta exp(-2 i t H / hbar) against direct conjugation"))

    devs = []
    for _ in range(20):
        state = MomentumState(p=rng.uniform(-1.5, 1.5, 3), constants=k)
        t = float(rng.uniform(0.1, 3.0))
        j = int(rng.integers(1, 4))
        devs.append(_dev(_position_rate(state, j, t, 1e-5),
                         k.c * alpha_evolved_oracle(state, j, t)))
    checks.append(_zero("position_rate_matches_velocity", "g", devs, 1e-8,
                        "d/dt of drift + oscillation against C times the conjugated generator, "
                        "central difference step 1e-5, 20 random (p, t)"))

    devs = [_dev(zbw_closed_form(state, j, 0.0).zbw_matrix)
            for state in states[:3] for j in (1, 2, 3)]
    checks.append(_zero("zbw_vanishes_at_zero", "g", devs, 1e-13))

    dev_osc, dev_lin = [], []
    for state in states[:2]:
        period = 2.0 * math.pi * k.hbar / (2.0 * state.energy)
        times = np.linspace(0.0, 3.0 * period, 48)
        for sign in (1, -1):
            u = eigenspinor(state, sign, "up")
            slope = k.c**2 * state.p / (sign * state.energy)
            traj = zbw_trajectory(state, u, times)
            dev_osc.append(_dev(traj.zbw))
            dev_lin.append(_dev(traj.total, traj.t[:, None] * slope))
    checks.append(_zero("eigenstate_no_oscillation", "g", dev_osc, tol,
                        "energy eigenstates carry no oscillatory displacement"))
    checks.append(_zero("eigenstate_drift_linear", "g", dev_lin, 1e-10,
                        "uniform drift at C^2 p_j / E"))

    state = MomentumState(p=rng.uniform(-1.0, 1.0, 3), constants=k)
    omega = 2.0 * state.energy / k.hbar
    checks.append(make_check(
        "zbw_frequency_fft", "g",
        claimed=omega, computed=fitted_zbw_frequency(state), tol=0.01 * omega,
        notes="windowed FFT with parabolic peak refinement, 64 periods",
    ))

    dev_res, dev_orth = [], []
    deterministic = True
    for state in states:
        h = state.h
        basis = []
        for sign in (1, -1):
            for spin_label in ("up", "down"):
                u = eigenspinor(state, sign, spin_label)
                again = eigenspinor(state, sign, spin_label)
                deterministic &= bool(np.array_equal(u, again))
                dev_res.append(_dev(h @ u, sign * state.energy * u) / state.energy)
                basis.append(u)
        g = np.stack(basis, axis=1)
        dev_orth.append(_dev(g.conj().T @ g, identity(4)))
    checks.append(_zero("eigenspinor_residual", "closing", dev_res, tol,
                        "H u = sign E u, relative to E"))
    checks.append(_zero("eigenbasis_orthonormal", "closing", dev_orth, tol))
    checks.append(qualitative_check(
        "eigenspinor_deterministic", "plumbing",
        claimed="identical inputs give bit-identical eigenvectors",
        computed="reproduced exactly" if deterministic else "reproduction differed",
        passed=deterministic,
    ))

    return checks, [(
        "g_printed_constants", "g",
        "printed oscillatory constants (exponent sign, prefactor) do not "
        "solve the printed equation of motion; the oracle-resolved "
        "constants recorded under conventions are what the position "
        "checks verify",
    )]


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
    devs = [_dev(mom.p0, mc * identity(4))] + [_dev(mom.p[j], mc * a_set[j]) for j in range(3)]
    checks.append(_zero("kinematic_momenta_form", "m", devs, 0.0,
                        "m C I and m C alpha_j as printed"))

    devs = [_dev(k.mass * velocity_operator(j + 1, k), mom.p[j]) for j in range(3)]
    checks.append(_zero("kinematic_from_velocity", "h", devs, 0.0,
                        "m v_j with zero vector potential reproduces the kinematic momenta"))

    for (j, l, kk_ax) in ((0, 1, 3), (1, 2, 1), (2, 0, 2)):
        got = commutator(mom.p[j], mom.p[l])
        want = 2j * (k.mass * k.c) ** 2 * sigma_block(kk_ax)
        checks.append(make_check(
            f"momentum_commutator_h.axis{kk_ax}", "n1",
            claimed=want, computed=got, tol=tol_exact,
        ))

    devs = [_dev(commutator(mom.p[j], mom.p0)) for j in range(3)]
    checks.append(_zero("momentum_time_commutator_zero", "n2", devs, 0.0,
                        "time component is a multiple of the identity"))

    dev_expected, dev_routes, dev_e_comm, dev_e_sub = [], [], [], []
    for i in range(8):
        kc = k if i == 0 else _random_route_constants(rng, k)
        for rep in (Representation.PAULI_DIRAC, Representation.STANDARD):
            via_comm = self_fields_commutator(kc, rep)
            via_sub = self_fields_matrix_maxwell(kc, rep)
            for ax in range(3):
                dev_expected.append(_dev(via_comm.h[ax], expected_self_h(kc, ax + 1)))
                dev_routes.append(_dev(via_comm.h[ax], via_sub.h[ax]))
                dev_e_comm.append(_dev(via_comm.e[ax]))
                dev_e_sub.append(_dev(via_sub.e[ax]))
    checks.append(_zero("self_h_matches_expected", "o", dev_expected, tol_exact,
                        "commutator route against 2 (m^2 C^3 / (e hbar)) Sigma_k, both "
                        "generator sets, random constants"))
    checks.append(_zero("routes_agree", "u1", dev_routes, tol_exact, U1_INDEX_NOTE))
    checks.append(_zero("self_e_zero_commutator", "n2", dev_e_comm, 0.0))
    checks.append(_zero("self_e_zero_substitution", "u2", dev_e_sub, 0.0))

    b0 = float(rng.uniform(0.5, 2.0))
    e0 = float(rng.uniform(0.5, 2.0))
    gauge = symmetric_gauge(b0)
    scalar = linear_scalar(e0)
    dev_h, dev_e = [], []
    for _ in range(10):
        pt = tuple(float(v) for v in rng.uniform(-2.0, 2.0, 3))
        ref_b = classical_maxwell_reference(gauge, pt)
        dev_h.append(_dev(np.array(ref_b.h, dtype=float), np.array([0.0, 0.0, b0])))
        ref_e = classical_maxwell_reference(scalar, pt)
        dev_e.append(_dev(np.array(ref_e.e, dtype=float), np.array([e0, 0.0, 0.0])))
    checks.append(_zero("classical_curl", "t1", dev_h, 1e-13,
                        "curl of the symmetric gauge potential is the uniform intensity"))
    checks.append(_zero("classical_gradient", "t2", dev_e, 1e-13,
                        "static linear potential gives a constant gradient intensity"))

    dev_rest, dev_norm = [], []
    for _ in range(100):
        theta = math.acos(float(rng.uniform(-1.0, 1.0)))
        phi_s = float(rng.uniform(-math.pi, math.pi))
        dev_rest.append(abs(rest_energy(theta, phi_s, k) - k.mc2) / k.mc2)
        s = spin_coherent_expectation(theta, phi_s)
        dev_norm.append(abs(float(s @ s) - 1.0))
    checks.append(_zero("rest_energy_isotropic", "p", dev_rest, 1e-14,
                        "-<mu_j><H_j> = m C^2 for 100 random spin directions, relative"))
    checks.append(_zero("coherent_norm", "q", dev_norm, 1e-14))

    ratio = gyromagnetic_ratio(k)
    devs = [_dev(mu, ratio * s) for mu, s in zip(magnetic_moment_matrices(k), spin_matrices(k))]
    checks.append(_zero("gyromagnetic_doubled", "p", devs, 1e-15,
                        "moment equals -e/(m C) times spin, twice the classical ratio"))

    checks.append(make_check(
        "anomalous_ratio_physical", "r",
        claimed=1.161410e-3, computed=anomalous_moment_ratio(PhysicalConstants()), tol=1e-9,
        notes="alpha / (2 pi) at the physical coupling",
    ))
    base = anomalous_moment_ratio(k)
    devs = []
    for _ in range(8):
        lam_h = float(rng.uniform(0.5, 3.0))
        lam_c = float(rng.uniform(0.5, 3.0))
        scaled = PhysicalConstants(
            hbar=k.hbar * lam_h, c=k.c * lam_c,
            mass=float(rng.uniform(0.5, 3.0)),
            charge=k.charge * math.sqrt(lam_h * lam_c),
        )
        devs.append(abs(anomalous_moment_ratio(scaled) - base))
    checks.append(_zero("anomalous_ratio_invariance", "r", devs, 1e-17,
                        "invariant under rescalings that preserve e^2 / (hbar C)"))

    pots = self_potentials(eigenspinor(MomentumState(p=np.zeros(3), constants=k), 1, "up"), k)
    checks.append(make_check(
        "self_potentials_rest", "s",
        claimed=-k.mc2 / k.charge, computed=pots.phi, tol=1e-14 * k.mc2 / k.charge,
        notes="scalar potential at rest",
    ))
    devs = [_dev(pots.a)]
    devs += [_dev(self_potentials(random_eigen_sample(rng, k)[1], k).a) for _ in range(20)]
    checks.append(_zero("self_potentials_vector_real_part", "s", devs, tol,
                        "the vector-potential operator is anti-Hermitian, so the real "
                        "parts reported as components vanish to rounding"))

    dev_cross, dev_vr, dev_rh, dev_n = [], [], [], []
    for _ in range(100):
        state, u = random_eigen_sample(rng, k)
        res = self_action_reduction(u, state)
        dev_cross.append(abs(res.overlap_sum))
        dev_vr.append(abs(res.coupled_value - res.reduced_value))
        dev_rh.append(abs(res.reduced_value - res.hd_expectation))
        dev_n.append(abs(res.norm_sq - 1.0))
    checks.append(_zero("eigenspinor_norm", "w", dev_n, tol))
    checks.append(_zero("cross_sum_eigenstates", "w", dev_cross, tol,
                        "sum_j <alpha_j><beta alpha_j> on 100 random eigenspinors"))
    checks.append(_zero("coupled_equals_reduced", "v", dev_vr, tol,
                        "energy expectation with self potentials inserted collapses to "
                        "the potential-free form"))
    checks.append(_zero("reduced_equals_expectation", "ba1", dev_rh, tol))

    worst = 0.0
    for _ in range(20):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = psi / np.linalg.norm(psi)
        state = MomentumState(p=rng.uniform(-2.0, 2.0, 3), constants=k)
        worst = max(worst, abs(self_action_reduction(psi, state).overlap_sum))
    checks.append(qualitative_check(
        "cross_sum_arbitrary_reported", "w",
        claimed="evaluated without assertion away from eigenstates",
        computed=f"max |sum_j <alpha_j><beta alpha_j>| = {worst:.6f} over 20 random states",
        passed=True,
        notes="the cross sum vanishes only on energy eigenvectors",
    ))

    return checks, [(
        "r_derivation_narrative", "r",
        "the closed-form ratio is checked numerically; the "
        "kinetic-energy-ratio narrative that motivates it fixes no "
        "intermediate quantity to compare",
    )]


# --- lattice -----------------------------------------------------------------

def build_lattice_suite(config: RunConfig, rng) -> tuple:
    tol = config.tol("lattice", 1e-12)
    k = config.constants
    checks = []
    spacings = (0.2, 0.1, 0.05)

    for preset, eq, notes in (
        ("uniform_b", "l1", "slope of log max error versus log spacing"),
        ("linear_phi", "l2", ""),
    ):
        study = lattice_mod.convergence_study(lattice_mod.make_preset(preset), spacings, k)
        if isinstance(study.order, float):
            checks.append(make_check(
                f"convergence_order.{preset}", eq,
                claimed=2.0, computed=study.order, tol=0.15,
                oracle=list(study.errors), notes=notes,
            ))
        else:
            checks.append(qualitative_check(
                f"convergence_order.{preset}", eq,
                claimed="second order", computed=str(study.order), passed=False,
                notes=f"errors {list(study.errors)}",
            ))

    study_zero = lattice_mod.convergence_study(lattice_mod.make_preset("zero"), spacings, k)
    checks.append(qualitative_check(
        "zero_field_exact", "k1",
        claimed="all estimates below 1e-13",
        computed=f"order={study_zero.order!r}, errors={list(study_zero.errors)}",
        passed=study_zero.order == "exact",
        notes="bare central differences commute",
    ))

    grid = lattice_mod.Grid3(n=17, h=0.1)
    devs = []
    for preset in ("uniform_b", "linear_phi"):
        res = lattice_mod.commutator_field_extract(
            lattice_mod.make_preset(preset), grid, constants=k, mode="analytic")
        devs += [res.h_error, res.e_error]
    checks.append(_zero("analytic_identity", "l1", devs, tol,
                        "caller-supplied exact derivatives recover both intensities; "
                        "checks the operator identity free of discretization"))

    res = lattice_mod.commutator_field_extract(
        lattice_mod.make_preset("uniform_b"), grid, constants=k, mode="discrete")
    bound = 10.0 * max(res.h_error, res.e_error) + 1e-13
    checks.append(make_check(
        "function_independence", "l1",
        claimed=0.0, computed=res.function_deviation, tol=bound,
        notes="estimates from different test functions agree to the "
              "truncation bound",
    ))
    inner = res.interior
    h3 = res.h_field[2][inner]
    checks.append(make_check(
        "uniform_intensity_flat", "l1",
        claimed=0.0, computed=float(np.nanmax(h3) - np.nanmin(h3)), tol=bound,
        notes="extracted uniform intensity is spatially constant",
    ))

    zero_cfg = lattice_mod.make_preset("zero")
    kvec = (1.3, -0.7, 0.5)
    psi = lattice_mod.plane_wave_field(kvec).values(*grid.meshgrid())
    devs = []
    for j in (1, 2, 3):
        applied = lattice_mod.kinetic_momentum_apply(j, zero_cfg, grid, psi, k)
        symbol = k.hbar * math.sin(kvec[j - 1] * grid.h) / grid.h
        devs.append(_dev(applied[inner] / psi[inner], symbol))
    checks.append(_zero("discrete_symbol", "k1", devs, 1e-12,
                        "central difference of a plane wave gives (hbar/h) sin(k h) exactly"))
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
        rng = np.random.default_rng([config.seed, SUITE_NAMES.index(name)])
        suite_checks, suite_nmc = _BUILDERS[name](config, rng)
        for c in suite_checks:
            c.claim_id = f"{name}.{c.claim_id}"
        checks.extend(suite_checks)
        nmc.extend({"claim_id": f"{name}.{claim_id}", "paper_eq": eq, "note": note}
                   for claim_id, eq, note in suite_nmc)
    return VerificationReport(
        tool_version=TOOL_VERSION,
        constants_used=config.constants.to_dict(),
        seed=config.seed,
        conventions=list(CONVENTIONS),
        suites_run=list(config.suites),
        checks=checks,
        not_machine_checkable=nmc,
    )
