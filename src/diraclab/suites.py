"""Check suites: every claim in the catalogue grouped by subject area.

Each builder draws its randomness from a child generator seeded as
[run seed, suite index], so suite selection never shifts another suite's
samples and identical configs replay identical numbers.  A builder returns
only what it measures, keyed by claim id without the "<suite>." prefix:
a list of deviations that should vanish (_dev), a (claimed, computed) pair,
or a Verdict.  run_suite adds the prefix and _judge turns each measurement
into a Check, reading the claim's eq, tolerance and notes from its row in
CLAIMS.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Any, NamedTuple

import numpy as np

from . import lattice as lattice_mod
from .config import SUITE_NAMES, RunConfig
from .constants import PhysicalConstants
from .dynamics import (
    RESOLVED_OSCILLATION,
    MomentumState,
    alpha_evolved_oracle,
    eigenspinor,
    energy_sq,
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
    anticommutator,
    commutator,
    generator_labels,
    generators,
    hamiltonians,
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
    sample_separable,
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


# --- the claim table ---------------------------------------------------------

class Base(NamedTuple):
    """Suite-base tolerance: tol.<suite> if set, else default; times factor."""

    default: float
    factor: float = 1.0


BOUND = "bound"  # the tolerance is Pair.bound, which the builder takes from a named bound


class Claim(NamedTuple):
    """One CLAIMS row.  tol is an absolute number, a Base or BOUND; claimed
    is the claim text of a row whose builder returns a Verdict."""

    eq: str
    tol: Any = None
    notes: str = ""
    claimed: str = ""


class Pair(NamedTuple):
    """A claimed value and the computed one; a plain 2- or 3-tuple also works."""

    claimed: Any
    computed: Any
    bound: float | None = None
    oracle: Any = None


class Verdict(NamedTuple):
    """A judgement that is not a distance; notes, if given, replace the row's."""

    text: str
    passed: bool
    notes: str | None = None


# Keyed by claim id, or by a dotted prefix naming a family of claim ids.
CLAIMS = {
    # algebra
    **{f"algebra.clifford.{rep}.{kind}": Claim(eq, Base(1e-14), notes)
       for rep, eq in (("pauli_dirac", "a2"), ("standard", "b2"))
       for kind, notes in (("anticomm", ""),
                           ("hermitian", "generator equals its own conjugate transpose"),
                           ("traceless", ""),
                           ("eigenvalues", "doubly degenerate +1/-1 spectrum"))},
    "algebra.pauli_product_table": Claim(
        "plumbing", Base(1e-14),
        "sigma_j sigma_l = delta_jl I + i eps_jlk sigma_k, all nine pairs"),
    **{f"algebra.block_spin_commutator.{rep}": Claim(
        eq, Base(1e-14), "[G_j, G_l] = 2 i eps_jlk blockdiag(sigma_k, sigma_k)")
       for rep, eq in (("pauli_dirac", "a2"), ("standard", "b2"))},
    "algebra.matrix_exponential_oracle": Claim(
        "plumbing", 1e-12, "eigendecomposition exponential against scaled Taylor summation"),
    # states
    "states.component_rows_match_matrix_form": Claim(
        "aa1", Base(1e-12), "four scalar rows against the matrix equation, arbitrary plane waves"),
    "states.two_component_stack": Claim(
        "ab1", Base(1e-12), "upper/lower residuals stacked equal the component rows at the origin"),
    "states.cylindrical_rows_match": Claim(
        "aa2", Base(1e-12, 100.0), "cylindrical rows against cartesian rows at matched points; "
        "tolerance 100x suite base (chain-rule amplification)"),
    "states.split_recompose": Claim("ab3", 0.0, "(upper, lower) split loses nothing"),
    "states.eigen_wave_residual": Claim(
        "a1", Base(1e-12), "on-shell plane waves built from energy eigenvectors"),
    "states.coupled_split_residual": Claim("ab1", Base(1e-12)),
    **{f"states.angular_eigenvalue.{tag}": Claim(
        eq, 0.0, "index arithmetic eigenvalue, exact for l in [-5, 5]")
       for tag, eq in (("plus", "aa8"), ("minus", "aa9"))},
    **{f"states.angular_operator.{tag}": Claim(
        eq, 1e-12, "operator applied through the sampled angular derivative")
       for tag, eq in (("plus", "aa8"), ("minus", "aa9"))},
    **{f"states.angular_family_indices.{tag}": Claim(
        eq, claimed="component exponents follow the printed family")
       for tag, eq in (("plus", "aa5"), ("minus", "aa6"))},
    "states.angular_mixed_rejected": Claim(
        "aa7", notes="reported as a result, not an error",
        claimed="mismatched exponent pattern is not an eigenstate"),
    # dynamics
    "dynamics.energy_spectrum": Claim(
        "closing", Base(1e-12),
        "relative deviation from +-sqrt(C^2 p^2 + m^2 C^4), 200 random draws"),
    "dynamics.spectrum_degeneracy": Claim("closing", Base(1e-12), "each energy doubly degenerate"),
    "dynamics.eta_anticommutes": Claim("f", Base(1e-12)),
    "dynamics.eta_traceless": Claim("f", Base(1e-12)),
    "dynamics.velocity_at_zero": Claim(
        "d", 1e-8, "position rate at t=0 equals C alpha_j (central difference)"),
    "dynamics.velocity_direction_evolution": Claim(
        "e", Base(1e-12), "C p_j H^-1 + eta exp(-2 i t H / hbar) against direct conjugation"),
    "dynamics.position_rate_matches_velocity": Claim(
        "g", 1e-8, "d/dt of drift + oscillation against C times the conjugated generator, "
        "central difference step 1e-5, 20 random (p, t)"),
    "dynamics.zbw_vanishes_at_zero": Claim("g", 1e-13),
    "dynamics.eigenstate_no_oscillation": Claim(
        "g", Base(1e-12), "energy eigenstates carry no oscillatory displacement"),
    "dynamics.eigenstate_drift_linear": Claim("g", 1e-10, "uniform drift at C^2 p_j / E"),
    "dynamics.zbw_frequency_fft": Claim(
        "g", BOUND, "windowed FFT with parabolic peak refinement, 64 periods"),
    "dynamics.eigenspinor_residual": Claim("closing", Base(1e-12), "H u = sign E u, relative to E"),
    "dynamics.eigenbasis_orthonormal": Claim("closing", Base(1e-12)),
    "dynamics.eigenspinor_deterministic": Claim(
        "plumbing", claimed="identical inputs give bit-identical eigenvectors"),
    # fields: two base defaults, 1e-12 and 1e-14, share the key tol.fields
    "fields.kinematic_momenta_form": Claim("m", 0.0, "m C I and m C alpha_j as printed"),
    "fields.kinematic_from_velocity": Claim(
        "h", 0.0, "m v_j with zero vector potential reproduces the kinematic momenta"),
    "fields.momentum_commutator_h": Claim("n1", Base(1e-14)),
    "fields.momentum_time_commutator_zero": Claim(
        "n2", 0.0, "time component is a multiple of the identity"),
    "fields.self_h_matches_expected": Claim(
        "o", Base(1e-14), "commutator route against 2 (m^2 C^3 / (e hbar)) Sigma_k, both "
        "generator sets, random constants"),
    "fields.routes_agree": Claim("u1", Base(1e-14), U1_INDEX_NOTE),
    "fields.self_e_zero_commutator": Claim("n2", 0.0),
    "fields.self_e_zero_substitution": Claim("u2", 0.0),
    "fields.classical_curl": Claim(
        "t1", 1e-13, "curl of the symmetric gauge potential is the uniform intensity"),
    "fields.classical_gradient": Claim(
        "t2", 1e-13, "static linear potential gives a constant gradient intensity"),
    "fields.rest_energy_isotropic": Claim(
        "p", 1e-14, "-<mu_j><H_j> = m C^2 for 100 random spin directions, relative"),
    "fields.coherent_norm": Claim("q", 1e-14),
    "fields.gyromagnetic_doubled": Claim(
        "p", 1e-15, "moment equals -e/(m C) times spin, twice the classical ratio"),
    "fields.anomalous_ratio_physical": Claim("r", 1e-9, "alpha / (2 pi) at the physical coupling"),
    "fields.anomalous_ratio_invariance": Claim(
        "r", 1e-17, "invariant under rescalings that preserve e^2 / (hbar C)"),
    "fields.self_potentials_rest": Claim("s", BOUND, "scalar potential at rest"),
    "fields.self_potentials_vector_real_part": Claim(
        "s", Base(1e-12), "the vector-potential operator is anti-Hermitian, so the real "
        "parts reported as components vanish to rounding"),
    "fields.eigenspinor_norm": Claim("w", Base(1e-12)),
    "fields.cross_sum_eigenstates": Claim(
        "w", Base(1e-12), "sum_j <alpha_j><beta alpha_j> on 100 random eigenspinors"),
    "fields.coupled_equals_reduced": Claim(
        "v", Base(1e-12), "energy expectation with self potentials inserted collapses to "
        "the potential-free form"),
    "fields.reduced_equals_expectation": Claim("ba1", Base(1e-12)),
    "fields.cross_sum_arbitrary_reported": Claim(
        "w", notes="the cross sum vanishes only on energy eigenvectors",
        claimed="evaluated without assertion away from eigenstates"),
    # lattice
    "lattice.convergence_order.uniform_b": Claim(
        "l1", 0.15, "slope of log max error versus log spacing", claimed="second order"),
    "lattice.convergence_order.linear_phi": Claim("l2", 0.15, claimed="second order"),
    "lattice.zero_field_exact": Claim(
        "k1", notes="bare central differences commute", claimed="all estimates below 1e-13"),
    "lattice.analytic_identity": Claim(
        "l1", Base(1e-12), "caller-supplied exact derivatives recover both intensities; "
        "checks the operator identity free of discretization"),
    "lattice.function_independence": Claim(
        "l1", BOUND, "estimates from different test functions agree to the truncation bound"),
    "lattice.uniform_intensity_flat": Claim(
        "l1", BOUND, "extracted uniform intensity is spatially constant"),
    "lattice.discrete_symbol": Claim(
        "k1", 1e-12, "central difference of a plane wave gives (hbar/h) sin(k h) exactly"),
}

# Claims the catalogue prints but no check can judge as printed.
NOT_MACHINE_CHECKABLE = (
    ("states.ab2_as_printed", "ab2",
     "as printed the reduction reuses one unknown on both sides of its first relation and "
     "overloads a second symbol in the other; inconsistent as written, so the first-order "
     "split it abbreviates is what gets checked"),
    ("dynamics.g_printed_constants", "g",
     "printed oscillatory constants (exponent sign, prefactor) do not solve the printed "
     "equation of motion; the oracle-resolved constants recorded under conventions are what "
     "the position checks verify"),
    ("fields.r_derivation_narrative", "r",
     "the closed-form ratio is checked numerically; the kinetic-energy-ratio narrative that "
     "motivates it fixes no intermediate quantity to compare"),
)


# Named bounds: the tolerances of BOUND rows, computed from the run.

def _fft_bound(omega: float) -> float:
    return 0.01 * omega


def _rest_potential_bound(k: PhysicalConstants) -> float:
    return 1e-14 * k.mc2 / k.charge


def _truncation_bound(res) -> float:
    """Ten times the extraction's worse discretization error, plus a rounding floor."""
    return 10.0 * max(res.h_error, res.e_error) + 1e-13


def _judge(claim_id: str, measured, config: RunConfig):
    """Build the Check of one claim from what its builder measured and its
    CLAIMS row: the row of the claim id, else of its longest family prefix.

    A NaN deviation raises ArithmeticError: max() would silently drop it.
    """
    key = claim_id
    while key and key not in CLAIMS:
        key = key.rpartition(".")[0]
    row = CLAIMS[key or claim_id]  # KeyError names a claim id without a row
    if isinstance(measured, Verdict):
        notes = row.notes if measured.notes is None else measured.notes
        return qualitative_check(claim_id, row.eq, row.claimed, measured.text,
                                 measured.passed, notes=notes)
    if isinstance(measured, list):
        if any(math.isnan(d) for d in measured):
            raise ArithmeticError(f"{claim_id}: NaN deviation")
        measured = (0.0, max([0.0, *measured]))
    claimed, computed, bound, oracle = Pair(*measured)
    tol = row.tol
    if isinstance(tol, Base):
        tol = config.tol(claim_id.split(".", 1)[0], tol.default) * tol.factor
    elif tol == BOUND:
        tol = bound
    return make_check(claim_id, row.eq, claimed, computed, tol, oracle=oracle, notes=row.notes)


def _dev(got, want=0.0) -> float:
    """Largest entrywise |got - want|."""
    return float(np.abs(got - want).max())


def _row_devs(got, want=0.0) -> list:
    """Largest entrywise |got - want| of each row (last axis), in row order."""
    return np.abs(got - want).max(axis=-1).ravel().tolist()


def _matrix_devs(got, want=0.0) -> list:
    """Largest entrywise |got - want| of each matrix of a stack, in order."""
    return np.abs(got - want).max(axis=(-2, -1)).ravel().tolist()


def _modulus(z) -> np.ndarray:
    """|z| rounded as the scalar abs(complex) rounds it, by libm hypot;
    numpy's complex absolute value can differ in the last bit."""
    return np.hypot(z.real, z.imag)


# --- algebra -----------------------------------------------------------------

def build_algebra_suite(config: RunConfig, rng) -> dict:
    m = {}
    eye2, zero = 2.0 * identity(4), np.zeros((4, 4), dtype=complex)
    spectrum = np.array([-1.0, -1.0, 1.0, 1.0])
    for rep in (Representation.PAULI_DIRAC, Representation.STANDARD):
        gens = generators(rep)  # fresh copies
        if config.tamper and rep is Representation.PAULI_DIRAC:
            gens[3][0, 0] = -gens[3][0, 0]  # a deliberately corrupted scalar generator
        labels = generator_labels(rep)
        family = f"clifford.{rep.value}"
        for j, l in product(range(4), repeat=2):
            m[f"{family}.anticomm.{labels[j]}.{labels[l]}"] = (
                eye2 if j == l else zero, anticommutator(gens[j], gens[l]))
        for g, label in zip(gens, labels):
            m[f"{family}.hermitian.{label}"] = (g.conj().T, g)
            m[f"{family}.traceless.{label}"] = (0.0, complex(np.trace(g)))
        for g, label in zip(generators(rep), labels):  # the spectra of the built-in set
            m[f"{family}.eigenvalues.{label}"] = (spectrum, np.sort(np.linalg.eigvalsh(g)))
        m[f"block_spin_commutator.{rep.value}"] = [
            _dev(commutator(gens[j], gens[l]), 2j * sigma_block(k_ax))
            for (j, l, k_ax) in ((0, 1, 3), (1, 2, 1), (2, 0, 2))]

    devs = []
    for j in (1, 2, 3):
        for l in (1, 2, 3):
            want = (1.0 if j == l else 0.0) * np.eye(2, dtype=complex)
            for k_ax in (1, 2, 3):
                want = want + 1j * EPS[j - 1, l - 1, k_ax - 1] * pauli(k_ax)
            devs.append(_dev(pauli(j) @ pauli(l), want))
    m["pauli_product_table"] = devs

    devs = []
    for kind in ("hermitian", "skew"):
        for _ in range(2):
            r = 0.4 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            a = r + r.conj().T if kind == "hermitian" else r - r.conj().T
            got = mat_exp(a)
            want = taylor_exp_reference(a)
            devs.append(_dev(got, want) / max(1.0, float(np.max(np.abs(want)))))
    m["matrix_exponential_oracle"] = devs
    return m


# --- states ------------------------------------------------------------------

def _random_cyl_points(rng, count: int) -> np.ndarray:
    """(count, 4) rows of (rho, phi, z, t), drawn one coordinate at a time."""
    return np.array([
        (float(rng.uniform(0.4, 2.0)), float(rng.uniform(-math.pi, math.pi)),
         float(rng.standard_normal()), float(rng.standard_normal()))
        for _ in range(count)
    ])


def _wave_stack(amplitudes, momenta, omegas, constants) -> PlaneWave:
    """One (n, 1) stack of waves: wave i is sampled at row i of (n, m) points."""
    return PlaneWave(amplitude=np.array(amplitudes)[:, None], p=np.array(momenta)[:, None],
                     omega=np.array(omegas)[:, None], constants=constants)


_ANGULAR_PROFILES = ("gaussian", "unit", "zwave", "gaussian")


def build_states_suite(config: RunConfig, rng) -> dict:
    k = config.constants
    a1, a2, a3, beta = generators(Representation.PAULI_DIRAC)
    m = {}

    # 12 random waves, each with 4 random points and 4 cylindrical points,
    # drawn wave by wave and sampled as one stack
    amps, ps, omegas, pts, cpts = [], [], [], [], []
    for _ in range(12):
        amps.append(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        ps.append(2.0 * rng.standard_normal(3))
        omegas.append(float(rng.standard_normal()))
        pts.append(rng.standard_normal((4, 4)))
        cpts.append(_random_cyl_points(rng, 4))
    waves = _wave_stack(amps, ps, omegas, k)
    pts, cpts = np.array(pts), np.array(cpts)
    rho, phi = cpts[..., :1], cpts[..., 1:2]
    cart = np.concatenate((rho * np.cos(phi), rho * np.sin(phi), cpts[..., 2:]), axis=-1)
    # per wave: its 4 points, the origin, and the cartesian forms of its cylindrical points
    rows = component_residual(waves, np.concatenate((pts, np.zeros((12, 1, 4)), cart), axis=1))
    s = waves.sample(*np.moveaxis(pts, -1, 0))
    matrix_rows = (
        1j * k.hbar * s.d_t
        + 1j * k.hbar * k.c * (s.d_x @ a1.T + s.d_y @ a2.T + s.d_z @ a3.T)
        - k.mc2 * (s.psi @ beta.T)
    )
    m["component_rows_match_matrix_form"] = _row_devs(rows[:, :4], matrix_rows)
    m["two_component_stack"] = _row_devs(np.concatenate(coupled_residual(waves), axis=-1),
                                         rows[:, 4:5])
    m["cylindrical_rows_match"] = _row_devs(
        cylindrical_residual(CylindricalPlaneWave(waves), cpts), rows[:, 5:])

    psis = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(5)]
    m["split_recompose"] = [_dev(recompose(split_bispinor(psi)), psi) for psi in psis]

    us, ps, omegas, pts = [], [], [], []
    for _ in range(4):
        p = rng.uniform(-2.0, 2.0, 3)
        state = MomentumState(p=p, constants=k)
        for sign in (1, -1):
            spin = "up" if rng.integers(0, 2) else "down"
            us.append(eigenspinor(state, sign, spin))
            ps.append(p)
            omegas.append(sign * state.energy / k.hbar)
            pts.append(rng.standard_normal((3, 4)))
    waves = _wave_stack(us, ps, omegas, k)
    m["eigen_wave_residual"] = _matrix_devs(component_residual(waves, np.array(pts)))
    m["coupled_split_residual"] = _matrix_devs(np.concatenate(coupled_residual(waves), axis=-1))

    sz = np.array([1.0, -1.0, 1.0, -1.0])
    # (branch, tag, l + 1/2 offset, exponent shifts)
    for branch, tag, offset, shifts in (
        (BRANCH_PLUS, "plus", 0.5, (0, 1, 0, 1)),
        (BRANCH_MINUS, "minus", -0.5, (-1, 0, -1, 0)),
    ):
        dev_val, sampled = [], []
        indices_ok = True
        for l in range(-5, 6):
            weights = tuple(rng.standard_normal(4) + 1j * rng.standard_normal(4))
            cyl = angular_eigenstate(l, branch, weights=weights, profile_refs=_ANGULAR_PROFILES,
                                     omega=float(rng.standard_normal()), constants=k)
            indices_ok &= cyl.angular_indices == tuple(l + d for d in shifts)
            res = jz_apply(cyl, k)
            if not res.is_eigenstate:
                dev_val.append(math.inf)
                continue
            dev_val.append(abs(res.eigenvalue - k.hbar * (l + offset)))
            sampled.append((cyl, res.eigenvalue, _random_cyl_points(rng, 2)))
        dev_op = []
        if sampled:  # every eigenstate of the family at its two points, in one call
            cyls, values, cpts = zip(*sampled)
            s = sample_separable(
                np.array([c.angular_indices for c in cyls])[:, None],
                np.array([c.weights for c in cyls])[:, None],
                np.array([c.omega for c in cyls])[:, None],
                *np.moveaxis(np.array(cpts), -1, 0), profile_refs=_ANGULAR_PROFILES)
            applied = -1j * k.hbar * s.d_phi + 0.5 * k.hbar * sz * s.psi
            dev_op = _row_devs(applied, np.array(values)[:, None, None] * s.psi)
        m[f"angular_eigenvalue.{tag}"] = dev_val
        m[f"angular_operator.{tag}"] = dev_op
        m[f"angular_family_indices.{tag}"] = Verdict(
            "all patterns matched for l in [-5, 5]" if indices_ok else "pattern mismatch",
            indices_ok)

    res = jz_apply(CylindricalSpinor(angular_indices=(0, 2, 0, 1), constants=k), k)
    m["angular_mixed_rejected"] = Verdict(
        f"is_eigenstate={res.is_eigenstate}, component values {list(res.component_values)}",
        not res.is_eigenstate)
    return m


# --- dynamics ----------------------------------------------------------------

def _position_rate(state, j, t, step: float) -> np.ndarray:
    """Central difference of drift + oscillation at t (stacks as zbw_closed_form)."""
    fwd = zbw_closed_form(state, j, t + step)
    bwd = zbw_closed_form(state, j, t - step)
    return ((fwd.drift_matrix + fwd.zbw_matrix)
            - (bwd.drift_matrix + bwd.zbw_matrix)) / (2.0 * step)


def build_dynamics_suite(config: RunConfig, rng) -> dict:
    k = config.constants
    m = {}

    # 200 momenta, each with its own C and mass, drawn one by one and
    # diagonalised as one stack
    ps, cs, masses = [], [], []
    for _ in range(200):
        ps.append(rng.uniform(-3.0, 3.0, 3))
        cs.append(float(rng.uniform(0.4, 2.5)))
        masses.append(float(rng.uniform(0.4, 2.5)))
    p, c, mass = np.array(ps), np.array(cs), np.array(masses)
    # m C^2 and E with the libm pow of the scalar mass * c**2 (np.float_power)
    w = np.linalg.eigvalsh(hamiltonians(p, c, mass * np.float_power(c, 2)))  # ascending rows
    p_sq = (p[:, None, :] @ p[:, :, None])[:, 0, 0].tolist()  # each p @ p
    e = np.array([math.sqrt(energy_sq(*row)) for row in zip(cs, masses, p_sq)])
    m["energy_spectrum"] = (
        np.abs(w - e[:, None] * [-1.0, -1.0, 1.0, 1.0]).max(axis=1) / e).tolist()
    m["spectrum_degeneracy"] = (
        np.maximum(np.abs(w[:, 0] - w[:, 1]), np.abs(w[:, 2] - w[:, 3])) / e).tolist()

    states = [MomentumState(p=rng.uniform(-2.0, 2.0, 3), constants=k) for _ in range(6)]

    # each closed form below runs once, on the stack of its family's states
    pairs = [(state, j) for state in states for j in (1, 2, 3)]
    paired, axes = zip(*pairs)
    etas = eta_matrix(paired, axes)
    hs = np.array([state.h for state in paired])
    m["eta_anticommutes"] = _matrix_devs(etas @ hs + hs @ etas)
    m["eta_traceless"] = _modulus(np.trace(etas, axis1=-2, axis2=-1)).tolist()

    first, first_axes = paired[:9], axes[:9]  # the first three states
    m["velocity_at_zero"] = _matrix_devs(
        _position_rate(first, first_axes, 0.0, 1e-6),
        np.array([velocity_operator(j, k, state.rep) for state, j in pairs[:9]]))

    picked, ts, js = [], [], []
    for _ in range(18):
        picked.append(states[int(rng.integers(0, len(states)))])
        ts.append(float(rng.uniform(-3.0, 3.0)))
        js.append(int(rng.integers(1, 4)))
    m["velocity_direction_evolution"] = _matrix_devs(
        velocity_direction(picked, js, ts), alpha_evolved_oracle(picked, js, ts))

    drawn, ts, js = [], [], []
    for _ in range(20):
        drawn.append(MomentumState(p=rng.uniform(-1.5, 1.5, 3), constants=k))
        ts.append(float(rng.uniform(0.1, 3.0)))
        js.append(int(rng.integers(1, 4)))
    ts = np.array(ts)
    m["position_rate_matches_velocity"] = _matrix_devs(
        _position_rate(drawn, js, ts, 1e-5), k.c * alpha_evolved_oracle(drawn, js, ts))

    m["zbw_vanishes_at_zero"] = _matrix_devs(zbw_closed_form(first, first_axes, 0.0).zbw_matrix)

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
    m["eigenstate_no_oscillation"] = dev_osc
    m["eigenstate_drift_linear"] = dev_lin

    state = MomentumState(p=rng.uniform(-1.0, 1.0, 3), constants=k)
    omega = 2.0 * state.energy / k.hbar
    m["zbw_frequency_fft"] = (omega, fitted_zbw_frequency(state), _fft_bound(omega))

    dev_res, dev_orth = [], []
    deterministic = True
    for state in states:
        basis = []
        for sign in (1, -1):
            for spin_label in ("up", "down"):
                u = eigenspinor(state, sign, spin_label)
                deterministic &= bool(np.array_equal(u, eigenspinor(state, sign, spin_label)))
                dev_res.append(_dev(state.h @ u, sign * state.energy * u) / state.energy)
                basis.append(u)
        g = np.stack(basis, axis=1)
        dev_orth.append(_dev(g.conj().T @ g, identity(4)))
    m["eigenspinor_residual"] = dev_res
    m["eigenbasis_orthonormal"] = dev_orth
    m["eigenspinor_deterministic"] = Verdict(
        "reproduced exactly" if deterministic else "reproduction differed", deterministic)
    return m


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


def _random_direction(rng) -> tuple:
    """(theta, phi) of a direction drawn uniformly on the sphere."""
    return math.acos(float(rng.uniform(-1.0, 1.0))), float(rng.uniform(-math.pi, math.pi))


def random_eigen_sample(rng, constants: PhysicalConstants):
    """One deterministic random eigenspinor: (state, spinor)."""
    p = rng.uniform(-2.0, 2.0, 3)
    state = MomentumState(p=p, constants=constants)
    sign = 1 if rng.integers(0, 2) else -1
    spin = "up" if rng.integers(0, 2) else "down"
    return state, eigenspinor(state, sign, spin, _random_direction(rng))


def build_fields_suite(config: RunConfig, rng) -> dict:
    k = config.constants
    m = {}

    mom = kinematic_momenta(k)
    a_set = generators(Representation.PAULI_DIRAC)
    mc = k.mass * k.c
    m["kinematic_momenta_form"] = (
        [_dev(mom.p0, mc * identity(4))] + [_dev(mom.p[j], mc * a_set[j]) for j in range(3)])
    m["kinematic_from_velocity"] = [
        _dev(k.mass * velocity_operator(j + 1, k), mom.p[j]) for j in range(3)]

    for (j, l, kk_ax) in ((0, 1, 3), (1, 2, 1), (2, 0, 2)):
        m[f"momentum_commutator_h.axis{kk_ax}"] = (
            2j * (k.mass * k.c) ** 2 * sigma_block(kk_ax), commutator(mom.p[j], mom.p[l]))

    m["momentum_time_commutator_zero"] = [_dev(commutator(mom.p[j], mom.p0)) for j in range(3)]

    dev_expected, dev_routes, dev_e_comm, dev_e_sub = [], [], [], []
    for i in range(8):
        kc = k if i == 0 else _random_route_constants(rng, k)
        expected = np.stack([expected_self_h(kc, ax) for ax in (1, 2, 3)])
        for rep in (Representation.PAULI_DIRAC, Representation.STANDARD):
            via_comm = self_fields_commutator(kc, rep)
            via_sub = self_fields_matrix_maxwell(kc, rep)
            dev_expected += _matrix_devs(via_comm.h, expected)
            dev_routes += _matrix_devs(via_comm.h, via_sub.h)
            dev_e_comm += _matrix_devs(via_comm.e)
            dev_e_sub += _matrix_devs(via_sub.e)
    m["self_h_matches_expected"] = dev_expected
    m["routes_agree"] = dev_routes
    m["self_e_zero_commutator"] = dev_e_comm
    m["self_e_zero_substitution"] = dev_e_sub

    b0 = float(rng.uniform(0.5, 2.0))
    e0 = float(rng.uniform(0.5, 2.0))
    gauge = symmetric_gauge(b0)
    scalar = linear_scalar(e0)
    pts = [tuple(float(v) for v in rng.uniform(-2.0, 2.0, 3)) for _ in range(10)]
    m["classical_curl"] = [_dev(np.array(classical_maxwell_reference(gauge, pt).h, dtype=float),
                                np.array([0.0, 0.0, b0])) for pt in pts]
    m["classical_gradient"] = [
        _dev(np.array(classical_maxwell_reference(scalar, pt).e, dtype=float),
             np.array([e0, 0.0, 0.0])) for pt in pts]

    theta, phi = np.array([_random_direction(rng) for _ in range(100)]).T
    m["rest_energy_isotropic"] = (np.abs(rest_energy(theta, phi, k) - k.mc2) / k.mc2).tolist()
    spins = spin_coherent_expectation(theta, phi)
    norms = (spins[:, None, :] @ spins[:, :, None])[:, 0, 0]  # each s @ s
    m["coherent_norm"] = np.abs(norms - 1.0).tolist()

    ratio = gyromagnetic_ratio(k)
    m["gyromagnetic_doubled"] = [
        _dev(mu, ratio * s) for mu, s in zip(magnetic_moment_matrices(k), spin_matrices(k))]

    m["anomalous_ratio_physical"] = (1.161410e-3, anomalous_moment_ratio(PhysicalConstants()))
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
    m["anomalous_ratio_invariance"] = devs

    pots = self_potentials(eigenspinor(MomentumState(p=np.zeros(3), constants=k), 1, "up"), k)
    m["self_potentials_rest"] = (-k.mc2 / k.charge, pots.phi, _rest_potential_bound(k))
    us = np.array([random_eigen_sample(rng, k)[1] for _ in range(20)])
    m["self_potentials_vector_real_part"] = [_dev(pots.a)] + _row_devs(self_potentials(us, k).a)

    states, us = zip(*(random_eigen_sample(rng, k) for _ in range(100)))
    r = self_action_reduction(np.array(us), states)
    m["eigenspinor_norm"] = np.abs(r.norm_sq - 1.0).tolist()
    m["cross_sum_eigenstates"] = _modulus(r.overlap_sum).tolist()
    m["coupled_equals_reduced"] = _modulus(r.coupled_value - r.reduced_value).tolist()
    m["reduced_equals_expectation"] = _modulus(r.reduced_value - r.hd_expectation).tolist()

    psis, states = [], []
    for _ in range(20):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psis.append(psi / np.linalg.norm(psi))
        states.append(MomentumState(p=rng.uniform(-2.0, 2.0, 3), constants=k))
    worst = float(_modulus(self_action_reduction(np.array(psis), states).overlap_sum).max())
    m["cross_sum_arbitrary_reported"] = Verdict(
        f"max |sum_j <alpha_j><beta alpha_j>| = {worst:.6f} over 20 random states", True)
    return m


# --- lattice -----------------------------------------------------------------

def build_lattice_suite(config: RunConfig, rng) -> dict:
    k = config.constants
    m = {}
    spacings = (0.2, 0.1, 0.05)

    for preset in ("uniform_b", "linear_phi"):
        study = lattice_mod.convergence_study(lattice_mod.make_preset(preset), spacings, k)
        if isinstance(study.order, float):
            m[f"convergence_order.{preset}"] = Pair(2.0, study.order, oracle=list(study.errors))
        else:
            m[f"convergence_order.{preset}"] = Verdict(
                str(study.order), False, f"errors {list(study.errors)}")

    study_zero = lattice_mod.convergence_study(lattice_mod.make_preset("zero"), spacings, k)
    m["zero_field_exact"] = Verdict(
        f"order={study_zero.order!r}, errors={list(study_zero.errors)}",
        study_zero.order == "exact")

    grid = lattice_mod.Grid3(n=17, h=0.1)
    devs = []
    for preset in ("uniform_b", "linear_phi"):
        res = lattice_mod.commutator_field_extract(
            lattice_mod.make_preset(preset), grid, constants=k, mode="analytic")
        devs += [res.h_error, res.e_error]
    m["analytic_identity"] = devs

    res = lattice_mod.commutator_field_extract(
        lattice_mod.make_preset("uniform_b"), grid, constants=k, mode="discrete")
    bound = _truncation_bound(res)
    m["function_independence"] = (0.0, res.function_deviation, bound)
    inner = grid.interior_mask()
    h3 = res.h_field[2][inner]
    m["uniform_intensity_flat"] = (0.0, float(np.nanmax(h3) - np.nanmin(h3)), bound)

    zero = lattice_mod.make_preset("zero")
    kvec = (1.3, -0.7, 0.5)
    psi = lattice_mod.plane_wave_field(kvec).values(*grid.meshgrid())
    devs = []
    for j in (1, 2, 3):
        applied = lattice_mod.kinetic_momentum_apply(j, zero, grid, psi, k)
        # judged in units of hbar: the symbol is hbar sin(k h) / h, and its
        # rounding is relative to it
        symbol = math.sin(kvec[j - 1] * grid.h) / grid.h
        devs.append(_dev(applied[inner] / (k.hbar * psi[inner]), symbol))
    m["discrete_symbol"] = devs
    return m


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
    for name in config.suites:
        rng = np.random.default_rng([config.seed, SUITE_NAMES.index(name)])
        # an overflow or an invalid operation raises FloatingPointError (an
        # ArithmeticError) where it happens instead of printing a warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                measured = _BUILDERS[name](config, rng)
            except ArithmeticError as exc:  # say which suite broke down
                raise type(exc)(f"{name} suite: {exc}") from exc
        checks += [_judge(f"{name}.{claim_id}", value, config)
                   for claim_id, value in measured.items()]
    return VerificationReport(
        tool_version=TOOL_VERSION,
        constants_used=config.constants.to_dict(),
        seed=config.seed,
        conventions=list(CONVENTIONS),
        suites_run=list(config.suites),
        checks=checks,
        not_machine_checkable=[
            {"claim_id": claim_id, "paper_eq": eq, "note": note}
            for claim_id, eq, note in NOT_MACHINE_CHECKABLE
            if claim_id.split(".", 1)[0] in config.suites],
    )
