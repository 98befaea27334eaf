"""Check suites: every claim in the catalogue grouped by subject area.

Each family of random samples draws from its own stream, keyed by the run
seed, the suite and the family's name (_stream); a new family names its own
stream.  So no family's draws move another's, and identical configs replay
identical numbers.  A builder returns only what it measures, keyed by claim
id without the "<suite>." prefix: a list of deviations that should vanish
(_dev), a (claimed, computed) pair, or a Verdict.  run_suite adds the prefix
and _judge turns each measurement into its report row, reading the claim's
eq, tolerance and notes from its row in CLAIMS.
"""

from __future__ import annotations

import math
import zlib
from functools import partial
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
    check_row,
    make_check,
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

BOUND = "bound"  # the tolerance is Pair.bound, which the builder takes from a named bound


class Claim(NamedTuple):
    """One CLAIMS row.  tol is an absolute number or BOUND; claimed
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
    **{f"algebra.clifford.{rep}.{kind}": Claim(eq, 1e-14, notes)
       for rep, eq in (("pauli_dirac", "a2"), ("standard", "b2"))
       for kind, notes in (("anticomm", ""),
                           ("hermitian", "generator equals its own conjugate transpose"),
                           ("traceless", ""),
                           ("eigenvalues", "doubly degenerate +1/-1 spectrum"))},
    "algebra.pauli_product_table": Claim(
        "plumbing", 1e-14,
        "sigma_j sigma_l = delta_jl I + i eps_jlk sigma_k, all nine pairs"),
    **{f"algebra.block_spin_commutator.{rep}": Claim(
        eq, 1e-14, "[G_j, G_l] = 2 i eps_jlk blockdiag(sigma_k, sigma_k)")
       for rep, eq in (("pauli_dirac", "a2"), ("standard", "b2"))},
    "algebra.matrix_exponential_oracle": Claim(
        "plumbing", 1e-12, "eigendecomposition exponential against scaled Taylor summation"),
    # states
    "states.component_rows_match_matrix_form": Claim(
        "aa1", 1e-12, "four scalar rows against the matrix equation, arbitrary plane waves"),
    "states.two_component_stack": Claim(
        "ab1", 1e-12, "upper/lower residuals stacked equal the component rows at the origin"),
    "states.cylindrical_rows_match": Claim(
        "aa2", 1e-10, "cylindrical rows against cartesian rows at matched points; "
        "tolerance 100x the cartesian rows' (chain-rule amplification)"),
    "states.split_recompose": Claim("ab3", 0.0, "(upper, lower) split loses nothing"),
    "states.eigen_wave_residual": Claim(
        "a1", 1e-12, "on-shell plane waves built from energy eigenvectors"),
    "states.coupled_split_residual": Claim("ab1", 1e-12),
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
        "closing", 1e-12,
        "relative deviation from +-sqrt(C^2 p^2 + m^2 C^4), 200 random draws"),
    "dynamics.spectrum_degeneracy": Claim("closing", 1e-12, "each energy doubly degenerate"),
    "dynamics.eta_anticommutes": Claim("f", 1e-12),
    "dynamics.eta_traceless": Claim("f", 1e-12),
    "dynamics.velocity_at_zero": Claim(
        "d", 1e-8, "position rate at t=0 equals C alpha_j (central difference)"),
    "dynamics.velocity_direction_evolution": Claim(
        "e", 1e-12, "C p_j H^-1 + eta exp(-2 i t H / hbar) against direct conjugation"),
    "dynamics.position_rate_matches_velocity": Claim(
        "g", 1e-8, "d/dt of drift + oscillation against C times the conjugated generator, "
        "central difference step 1e-5, 20 random (p, t)"),
    "dynamics.zbw_vanishes_at_zero": Claim("g", 1e-13),
    "dynamics.eigenstate_no_oscillation": Claim(
        "g", 1e-12, "energy eigenstates carry no oscillatory displacement"),
    "dynamics.eigenstate_drift_linear": Claim("g", 1e-10, "uniform drift at C^2 p_j / E"),
    "dynamics.zbw_frequency_fft": Claim(
        "g", BOUND, "windowed FFT with parabolic peak refinement, 64 periods"),
    "dynamics.eigenspinor_residual": Claim("closing", 1e-12, "H u = sign E u, relative to E"),
    "dynamics.eigenbasis_orthonormal": Claim("closing", 1e-12),
    "dynamics.eigenspinor_deterministic": Claim(
        "plumbing", claimed="identical inputs give bit-identical eigenvectors"),
    # fields
    "fields.kinematic_momenta_form": Claim("m", 0.0, "m C I and m C alpha_j as printed"),
    "fields.kinematic_from_velocity": Claim(
        "h", 0.0, "m v_j with zero vector potential reproduces the kinematic momenta"),
    "fields.momentum_commutator_h": Claim("n1", 1e-14),
    "fields.momentum_time_commutator_zero": Claim(
        "n2", 0.0, "time component is a multiple of the identity"),
    "fields.self_h_matches_expected": Claim(
        "o", 1e-14, "commutator route against 2 (m^2 C^3 / (e hbar)) Sigma_k, both "
        "generator sets, random constants"),
    "fields.routes_agree": Claim("u1", 1e-14, U1_INDEX_NOTE),
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
        "r", BOUND, "invariant under rescalings that preserve e^2 / (hbar C)"),
    "fields.self_potentials_rest": Claim("s", BOUND, "scalar potential at rest"),
    "fields.self_potentials_vector_real_part": Claim(
        "s", 1e-12, "the vector-potential operator is anti-Hermitian, so the real "
        "parts reported as components vanish to rounding"),
    "fields.eigenspinor_norm": Claim("w", 1e-12),
    "fields.cross_sum_eigenstates": Claim(
        "w", 1e-12, "sum_j <alpha_j><beta alpha_j> on 100 random eigenspinors"),
    "fields.coupled_equals_reduced": Claim(
        "v", 1e-12, "energy expectation with self potentials inserted collapses to "
        "the potential-free form"),
    "fields.reduced_equals_expectation": Claim("ba1", 1e-12),
    "fields.cross_sum_arbitrary_reported": Claim(
        "w", notes="the cross sum vanishes only on energy eigenvectors",
        claimed="evaluated without assertion away from eigenstates"),
    # lattice
    "lattice.convergence_order.uniform_b": Claim(
        "l1", 0.15, "slope of log max error versus log spacing", claimed="second order"),
    "lattice.convergence_order.linear_phi": Claim("l2", 0.15, claimed="second order"),
    "lattice.zero_field_exact": Claim(
        "k1", notes="bare central differences commute", claimed="all estimates below 1e-13"),
    "lattice.discrete_prediction": Claim(
        "l1", BOUND, "[pi_j, pi_l] and [pi_j, pi_o] on the grid equal their exact discrete value "
        "(product rule, closed-form stencil means) to rounding; uniform_b, linear_phi, n = 17"),
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


def _ratio_bound(base: float) -> float:
    """16 eps |base|, twice the first-order rounding bound of |ratio - base|:
    a rescaled ratio carries about 11 relative roundings of at most eps / 2
    (the rescaled charge's count twice through its square) and base 4, each
    from the same exact, rescaling-invariant e^2 / (2 pi C hbar)."""
    return 16.0 * np.finfo(float).eps * abs(base)


def _truncation_bound(res) -> float:
    """Ten times the extraction's worse discretization error, plus a rounding floor."""
    return 10.0 * max(res.h_error, res.e_error) + 1e-13


def _prediction_bound(potentials, grid) -> float:
    """16 eps (1 + A_max / h), A_max = potentials.box_max(w) bounding the
    potentials on the grid's box of half-width w: the rounding of four
    stencil terms of up to A_max / h each, which cancel down to the intensity."""
    a_max = potentials.box_max((grid.n - 1) // 2 * grid.h)
    return 16.0 * np.finfo(float).eps * (1.0 + a_max / grid.h)


def _judge(claim_id: str, measured, config: RunConfig):
    """Build the report row of one claim from what its builder measured and
    its CLAIMS row: the row of the claim id, else of its longest family
    prefix.  Its tolerance is the row's, times the run's factor for its suite.
    A list of deviations is judged by its largest, NaN if any is NaN, so
    check_row refuses it as it refuses an infinite one.
    """
    key = claim_id
    while key and key not in CLAIMS:
        key = key.rpartition(".")[0]
    row = CLAIMS[key or claim_id]  # KeyError names a claim id without a row
    if isinstance(measured, Verdict):
        notes = row.notes if measured.notes is None else measured.notes
        return check_row(claim_id, row.eq, row.claimed, measured.text, measured.passed,
                         notes=notes)
    if isinstance(measured, list):
        measured = (0.0, float(np.max(measured, initial=0.0)))
    claimed, computed, bound, oracle = Pair(*measured)
    factor = config.tol_factors.get(claim_id.split(".", 1)[0], 1.0)
    tol = (bound if row.tol == BOUND else row.tol) * factor
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


def _complex_normal(rng, shape: tuple) -> np.ndarray:
    """Complex numbers whose real and imaginary parts are standard normal."""
    re, im = rng.standard_normal((2, *shape))
    return re + 1j * im


# --- algebra -----------------------------------------------------------------

def build_algebra_suite(config: RunConfig, draw) -> dict:
    m = {}
    eye2, zero = 2.0 * identity(4), np.zeros((4, 4), dtype=complex)
    spectrum = np.array([-1.0, -1.0, 1.0, 1.0])
    for rep in (Representation.PAULI_DIRAC, Representation.STANDARD):
        gens = np.stack(generators(rep))  # a fresh (4, 4, 4) stack
        if config.tamper and rep is Representation.PAULI_DIRAC:
            gens[3, 0, 0] = -gens[3, 0, 0]  # a deliberately corrupted scalar generator
        labels = generator_labels(rep)
        family = f"clifford.{rep.value}"
        table = anticommutator(gens[:, None], gens[None, :])  # entry (j, l): {G_j, G_l}
        for j, l in product(range(4), repeat=2):
            m[f"{family}.anticomm.{labels[j]}.{labels[l]}"] = (
                eye2 if j == l else zero, table[j, l])
        for g, label in zip(gens, labels):
            m[f"{family}.hermitian.{label}"] = (g.conj().T, g)
            m[f"{family}.traceless.{label}"] = (0.0, complex(np.trace(g)))
        # the spectra of the built-in set, ascending
        spectra = np.sort(np.linalg.eigvalsh(np.stack(generators(rep))), axis=-1)
        for w, label in zip(spectra, labels):
            m[f"{family}.eigenvalues.{label}"] = (spectrum, w)
        # [G_j, G_l] = 2 i Sigma_k for the cyclic (j, l, k): (0, 1, 3), (1, 2, 1), (2, 0, 2)
        m[f"block_spin_commutator.{rep.value}"] = _matrix_devs(
            commutator(gens[[0, 1, 2]], gens[[1, 2, 0]]),
            2j * np.stack([sigma_block(k_ax) for k_ax in (3, 1, 2)]))

    devs = []
    for j in (1, 2, 3):
        for l in (1, 2, 3):
            want = (1.0 if j == l else 0.0) * np.eye(2, dtype=complex)
            for k_ax in (1, 2, 3):
                want = want + 1j * EPS[j - 1, l - 1, k_ax - 1] * pauli(k_ax)
            devs.append(_dev(pauli(j) @ pauli(l), want))
    m["pauli_product_table"] = devs

    devs = []
    rs = 0.4 * _complex_normal(draw("matrix_exponential"), (4, 4, 4))
    for kind, r in zip(("hermitian", "hermitian", "skew", "skew"), rs):
        a = r + r.conj().T if kind == "hermitian" else r - r.conj().T
        got = mat_exp(a)
        want = taylor_exp_reference(a)
        devs.append(_dev(got, want) / max(1.0, float(np.max(np.abs(want)))))
    m["matrix_exponential_oracle"] = devs
    return m


# --- states ------------------------------------------------------------------

def _random_cyl_points(rng, shape: tuple) -> np.ndarray:
    """shape + (4,) rows of (rho, phi, z, t)."""
    rho_phi = rng.uniform([0.4, -math.pi], [2.0, math.pi], (*shape, 2))
    return np.concatenate((rho_phi, rng.standard_normal((*shape, 2))), axis=-1)


def _wave_stack(amplitudes, momenta, omegas, constants) -> PlaneWave:
    """One (n, 1) stack of waves: wave i is sampled at row i of (n, m) points."""
    return PlaneWave(amplitude=np.array(amplitudes)[:, None], p=np.array(momenta)[:, None],
                     omega=np.array(omegas)[:, None], constants=constants)


_ANGULAR_PROFILES = ("gaussian", "unit", "zwave", "gaussian")


def build_states_suite(config: RunConfig, draw) -> dict:
    k = config.constants
    a1, a2, a3, beta = generators(Representation.PAULI_DIRAC)
    m = {}

    # 12 random waves, each with 4 random and 4 cylindrical points, sampled as one stack
    rng = draw("waves")
    waves = _wave_stack(_complex_normal(rng, (12, 4)), 2.0 * rng.standard_normal((12, 3)),
                        rng.standard_normal(12), k)
    pts, cpts = rng.standard_normal((12, 4, 4)), _random_cyl_points(rng, (12, 4))
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

    psis = _complex_normal(draw("bispinors"), (5, 4))
    m["split_recompose"] = _row_devs(recompose(split_bispinor(psis)), psis)

    # 4 momenta, each with both energy signs and a random spin: 8 waves at 3 points each
    rng = draw("eigen_waves")
    momenta, ups = np.repeat(rng.uniform(-2.0, 2.0, (4, 3)), 2, axis=0), rng.integers(0, 2, 8)
    stack, signs = MomentumState(p=momenta, constants=k), (1, -1) * 4
    us = eigenspinor(stack, signs, np.where(ups, "up", "down"))
    omegas = [sign * e / k.hbar for e, sign in zip(stack.energy.tolist(), signs)]
    waves = _wave_stack(us, momenta, omegas, k)
    m["eigen_wave_residual"] = _matrix_devs(
        component_residual(waves, rng.standard_normal((8, 3, 4))))
    m["coupled_split_residual"] = _matrix_devs(np.concatenate(coupled_residual(waves), axis=-1))

    sz = np.array([1.0, -1.0, 1.0, -1.0])
    # for each branch and each l in [-5, 5]: weights, omega and two cylindrical points
    rng = draw("angular")
    draws = zip(_complex_normal(rng, (2, 11, 4)), rng.standard_normal((2, 11)).tolist(),
                _random_cyl_points(rng, (2, 11, 2)))
    # (branch, tag, l + 1/2 offset, exponent shifts)
    for (branch, tag, offset, shifts), (weights, omegas, cyl_points) in zip((
        (BRANCH_PLUS, "plus", 0.5, (0, 1, 0, 1)),
        (BRANCH_MINUS, "minus", -0.5, (-1, 0, -1, 0)),
    ), draws):
        dev_val, cyls, claimed = [], [], []
        indices_ok = True
        for l, w, omega in zip(range(-5, 6), weights, omegas):
            cyl = angular_eigenstate(l, branch, weights=tuple(w), profile_refs=_ANGULAR_PROFILES,
                                     omega=omega, constants=k)
            indices_ok &= cyl.angular_indices == tuple(l + d for d in shifts)
            cyls.append(cyl)
            claimed.append(k.hbar * (l + offset))
            # every component's value against the claimed one: for an
            # eigenstate all four are the eigenvalue, bit for bit
            dev_val.append(max(abs(v - claimed[-1]) for v in jz_apply(cyl).component_values))
        # the operator on every state of the family at its two points, in one
        # call, against the claimed eigenvalue whatever jz_apply reports
        s = sample_separable(
            np.array([c.angular_indices for c in cyls])[:, None],
            np.array([c.weights for c in cyls])[:, None],
            np.array([c.omega for c in cyls])[:, None],
            *np.moveaxis(cyl_points, -1, 0), profile_refs=_ANGULAR_PROFILES)
        applied = -1j * k.hbar * s.d_phi + 0.5 * k.hbar * sz * s.psi
        m[f"angular_eigenvalue.{tag}"] = dev_val
        m[f"angular_operator.{tag}"] = _row_devs(applied, np.array(claimed)[:, None, None] * s.psi)
        m[f"angular_family_indices.{tag}"] = Verdict(
            "all patterns matched for l in [-5, 5]" if indices_ok else "pattern mismatch",
            indices_ok)

    res = jz_apply(CylindricalSpinor(angular_indices=(0, 2, 0, 1), constants=k))
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


def build_dynamics_suite(config: RunConfig, draw) -> dict:
    k = config.constants
    m = {}

    # 200 rows of (p, C, mass), drawn and diagonalised as one stack
    draws = draw("spectrum").uniform([-3.0, -3.0, -3.0, 0.4, 0.4], [3.0, 3.0, 3.0, 2.5, 2.5],
                                     (200, 5))
    p, c, mass = draws[:, :3], draws[:, 3], draws[:, 4]
    w = np.linalg.eigvalsh(hamiltonians(p, c, mass * c**2))  # ascending rows
    e = np.sqrt(c**2 * (p * p).sum(axis=1) + mass**2 * c**4)
    m["energy_spectrum"] = (
        np.abs(w - e[:, None] * [-1.0, -1.0, 1.0, 1.0]).max(axis=1) / e).tolist()
    m["spectrum_degeneracy"] = (
        np.maximum(np.abs(w[:, 0] - w[:, 1]), np.abs(w[:, 2] - w[:, 3])) / e).tolist()

    momenta = draw("momenta").uniform(-2.0, 2.0, (6, 3))
    states = MomentumState(p=momenta[:, None], constants=k)  # (6, 1, 3): a label axis to come

    # each closed form below runs once, on the stack of its family's states:
    # every state with each axis j, then the first three states with theirs
    pairs = MomentumState(p=np.repeat(momenta, 3, axis=0), constants=k)
    axes = np.tile([1, 2, 3], 6)
    etas = eta_matrix(pairs, axes)
    m["eta_anticommutes"] = _matrix_devs(etas @ pairs.h + pairs.h @ etas)
    m["eta_traceless"] = np.abs(np.trace(etas, axis1=-2, axis2=-1)).tolist()

    first = MomentumState(p=pairs.p[:9], constants=k)
    m["velocity_at_zero"] = _matrix_devs(
        _position_rate(first, axes[:9], 0.0, 1e-6),
        np.array([velocity_operator(j, k) for j in axes[:9].tolist()]))

    rng = draw("evolution")
    picked = MomentumState(p=momenta[rng.integers(0, len(momenta), 18)], constants=k)
    ts, js = rng.uniform(-3.0, 3.0, 18), rng.integers(1, 4, 18)
    m["velocity_direction_evolution"] = _matrix_devs(
        velocity_direction(picked, js, ts), alpha_evolved_oracle(picked, js, ts))

    rng = draw("position_rate")
    drawn = MomentumState(p=rng.uniform(-1.5, 1.5, (20, 3)), constants=k)
    ts, js = rng.uniform(0.1, 3.0, 20), rng.integers(1, 4, 20)
    m["position_rate_matches_velocity"] = _matrix_devs(
        _position_rate(drawn, js, ts, 1e-5), k.c * alpha_evolved_oracle(drawn, js, ts))

    m["zbw_vanishes_at_zero"] = _matrix_devs(zbw_closed_form(first, axes[:9], 0.0).zbw_matrix)

    dev_osc, dev_lin = [], []
    for state in (MomentumState(p=p, constants=k) for p in momenta[:2]):
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

    state = MomentumState(p=draw("fft_state").uniform(-1.0, 1.0, 3), constants=k)
    omega = 2.0 * state.energy / k.hbar
    m["zbw_frequency_fft"] = (omega, fitted_zbw_frequency(state), _fft_bound(omega))

    # each state's four eigenspinors, energy sign (+, +, -, -) by spin (up,
    # down, up, down), in one call, and in a second to see it reproduce
    signs, spins = np.array([1, 1, -1, -1]), ["up", "down"] * 2
    us = eigenspinor(states, signs, spins)  # (state, label, component)
    deterministic = bool(np.array_equal(us, eigenspinor(states, signs, spins)))
    energies = signs * states.energy  # (state, label)
    devs = _row_devs((states.h @ us[..., None])[..., 0], energies[..., None] * us)
    m["eigenspinor_residual"] = [d / e for d, e in zip(devs, np.abs(energies).ravel().tolist())]
    m["eigenbasis_orthonormal"] = [  # each basis as the columns of one matrix g
        _dev(g.conj().T @ g, identity(4)) for g in map(np.ascontiguousarray, us.swapaxes(1, 2))]
    m["eigenspinor_deterministic"] = Verdict(
        "reproduced exactly" if deterministic else "reproduction differed", deterministic)
    return m


# --- fields ------------------------------------------------------------------

def _random_directions(rng, count: int) -> tuple:
    """(theta, phi) arrays of count directions drawn uniformly on the sphere."""
    cos_theta, phi = rng.uniform([-1.0, -math.pi], [1.0, math.pi], (count, 2)).T
    return np.arccos(cos_theta), phi


def random_eigen_samples(rng, count: int, constants: PhysicalConstants):
    """count random eigenspinors, each of a random energy sign and of spin up
    or down along a random axis: ((count, 4) spinors, their count-row state)."""
    state = MomentumState(p=rng.uniform(-2.0, 2.0, (count, 3)), constants=constants)
    positive, ups = rng.integers(0, 2, (2, count))
    theta, phi = _random_directions(rng, count)
    return eigenspinor(state, 2 * positive - 1, np.where(ups, "up", "down"),
                       np.stack((theta, phi), axis=-1)), state


def build_fields_suite(config: RunConfig, draw) -> dict:
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

    # the run's constants, then 7 random sets (hbar, C, mass, charge); narrow
    # ranges keep 2 m^2 C^3 / (e hbar) small enough that the two routes,
    # rounded independently, stay within 1e-14 of each other
    routes = draw("route_constants").uniform([0.9, 0.8, 0.8, 0.9], [1.5, 1.2, 1.2, 1.5], (7, 4))
    sets = [k] + [PhysicalConstants(*row) for row in routes.tolist()]
    # each stack is (set, generator set, axis, 4, 4), in that order
    expected = np.stack([expected_self_h(sets, ax) for ax in (1, 2, 3)], axis=1)[:, None]
    reps = (Representation.PAULI_DIRAC, Representation.STANDARD)
    via_comm = [self_fields_commutator(sets, rep) for rep in reps]
    via_sub = [self_fields_matrix_maxwell(sets, rep) for rep in reps]
    comm_h, sub_h = (np.stack([f.h for f in via], axis=1) for via in (via_comm, via_sub))
    m["self_h_matches_expected"] = _matrix_devs(comm_h, expected)
    m["routes_agree"] = _matrix_devs(comm_h, sub_h)
    m["self_e_zero_commutator"] = _matrix_devs(np.stack([f.e for f in via_comm], axis=1))
    m["self_e_zero_substitution"] = _matrix_devs(np.stack([f.e for f in via_sub], axis=1))

    b0, e0 = draw("classical").uniform(0.5, 2.0, 2).tolist()
    m["classical_curl"] = _row_devs(
        np.array(classical_maxwell_reference(symmetric_gauge(b0)).h), np.array([0.0, 0.0, b0]))
    m["classical_gradient"] = _row_devs(
        np.array(classical_maxwell_reference(linear_scalar(e0)).e), np.array([e0, 0.0, 0.0]))

    theta, phi = _random_directions(draw("spin_directions"), 100)
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
    for lam_h, lam_c, mass in draw("rescalings").uniform(0.5, 3.0, (8, 3)).tolist():
        scaled = PhysicalConstants(hbar=k.hbar * lam_h, c=k.c * lam_c, mass=mass,
                                   charge=k.charge * math.sqrt(lam_h * lam_c))
        devs.append(abs(anomalous_moment_ratio(scaled) - base))
    m["anomalous_ratio_invariance"] = (0.0, float(np.max(devs)), _ratio_bound(base))

    pots = self_potentials(eigenspinor(MomentumState(p=np.zeros(3), constants=k), 1, "up"), k)
    m["self_potentials_rest"] = (-k.mc2 / k.charge, pots.phi, _rest_potential_bound(k))
    us, _ = random_eigen_samples(draw("vector_eigenspinors"), 20, k)
    m["self_potentials_vector_real_part"] = [_dev(pots.a)] + _row_devs(self_potentials(us, k).a)

    r = self_action_reduction(*random_eigen_samples(draw("reduction_eigenspinors"), 100, k))
    m["eigenspinor_norm"] = np.abs(r.norm_sq - 1.0).tolist()
    m["cross_sum_eigenstates"] = np.abs(r.overlap_sum).tolist()
    m["coupled_equals_reduced"] = np.abs(r.coupled_value - r.reduced_value).tolist()
    m["reduced_equals_expectation"] = np.abs(r.reduced_value - r.hd_expectation).tolist()

    rng = draw("arbitrary_states")
    psis = _complex_normal(rng, (20, 4))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    r = self_action_reduction(psis, MomentumState(p=rng.uniform(-2.0, 2.0, (20, 3)), constants=k))
    worst = float(np.abs(r.overlap_sum).max())
    m["cross_sum_arbitrary_reported"] = Verdict(
        f"max |sum_j <alpha_j><beta alpha_j>| = {worst:.6f} over 20 random states", True)
    return m


# --- lattice -----------------------------------------------------------------

def build_lattice_suite(config: RunConfig, draw) -> dict:
    k = config.constants
    m = {}
    spacings = (0.2, 0.1, 0.05)

    for preset in ("uniform_b", "linear_phi"):
        study = lattice_mod.convergence_study(lattice_mod.make_preset(preset), spacings)
        if isinstance(study.order, float):
            m[f"convergence_order.{preset}"] = Pair(2.0, study.order, oracle=list(study.errors))
        else:
            m[f"convergence_order.{preset}"] = Verdict(
                str(study.order), False, f"errors {list(study.errors)}")

    study_zero = lattice_mod.convergence_study(lattice_mod.make_preset("zero"), spacings)
    m["zero_field_exact"] = Verdict(
        f"order={study_zero.order!r}, errors={list(study_zero.errors)}",
        study_zero.order == "exact")

    grid = lattice_mod.Grid3(n=17, h=0.1)
    presets = [lattice_mod.make_preset(name) for name in ("uniform_b", "linear_phi")]
    extracted = [lattice_mod.commutator_field_extract(p, grid) for p in presets]
    # both presets judged against the tighter of their two bounds
    m["discrete_prediction"] = (0.0, max(r.prediction_error for r in extracted),
                                min(_prediction_bound(p, grid) for p in presets))
    res = extracted[0]  # uniform_b, reused for the next two claims
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


def _stream(seed: int, suite: str, family: str) -> np.random.Generator:
    """One family's generator; crc32 keys its name alike in every process, unlike hash()."""
    return np.random.default_rng([seed, SUITE_NAMES.index(suite), zlib.crc32(family.encode())])


def run_suite(config: RunConfig) -> VerificationReport:
    """Run every selected suite and assemble the deterministic report."""
    checks = []
    for name in config.suites:
        draw = partial(_stream, config.seed, name)  # draw(family) -> its generator
        # an overflow or an invalid operation raises FloatingPointError (an
        # ArithmeticError) where it happens instead of printing a warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                measured = _BUILDERS[name](config, draw)
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
