"""Commutator-derived self fields, self potentials and the scalar identities.

Two independent routes produce the matrix-valued self intensities: the
commutator route (kinematic momenta commuted, matched against the
i hbar (e/C) templates) and the substitution route (gradient and time
derivative replaced by i (m C / hbar) alpha_k and (m C / hbar) I acting on
the potential operators).  They must agree entrywise.

The substitution route's curl contraction is evaluated as
eps_jkl alpha_k alpha_l; the printed contraction reuses the free index and
is recorded as corrected in every check this route emits.

External fields are static potentials linear in position, held as their
constant coefficients (LinearPotentials).  Every number the package reads
from such a field comes from those coefficients: its classical intensities,
curl A and -grad phi, three floats each, and its largest value on a box
(LinearPotentials.box_max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError, number_array
from .matrices import (
    DIRAC_STACK,
    Representation,
    complex_product,
    generators,
    identity,
    pauli,
    sigma_block,
)
from .spinors import require_normalized, spin_coherent_expectation

EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS[_i, _j, _k] = 1.0
    EPS[_i, _k, _j] = -1.0


# (alpha_1, alpha_2, alpha_3, beta, beta alpha_1, beta alpha_2, beta alpha_3)
# of the Pauli-Dirac set, read-only.
EXPECTATIONS = np.concatenate((DIRAC_STACK, DIRAC_STACK[3] @ DIRAC_STACK[:3]))
EXPECTATIONS.setflags(write=False)


def _expectations(table: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """<psi| M |psi> for every M of a stacked (m, 4, 4) table: (m,) for one
    spinor, (..., m) for a (..., 4) stack.

    Every generator product has one entry per row, so table @ psi is exact;
    the sums over components then run in one fixed order per M, the same
    for every row of a stack.
    """
    return np.einsum("...i,...mi->...m", psi.conj(), (table @ psi[..., None, :, None])[..., 0])

U1_INDEX_NOTE = "curl contraction read as eps_jkl alpha_k alpha_l (printed form repeats the free index)"


@dataclass(frozen=True)
class KinematicMomenta:
    """Time component m C I and space components m C alpha_j."""

    p0: np.ndarray
    p: tuple


def kinematic_momenta(constants: PhysicalConstants) -> KinematicMomenta:
    mc = constants.mass * constants.c
    a1, a2, a3, _ = generators()
    return KinematicMomenta(p0=mc * identity(4), p=(mc * a1, mc * a2, mc * a3))


@dataclass(frozen=True)
class SelfFields:
    """Matrix-valued intensities: e[j] and h[k] for axes 1..3 (0-indexed),
    each a (3, 4, 4) array, or (sets, 3, 4, 4) for a list of constant sets."""

    e: np.ndarray
    h: np.ndarray


def _constant_sets(constants) -> tuple:
    """(sets, one): the constant sets of a PhysicalConstants or of a
    non-empty list or tuple of them, and whether a single set was given."""
    if isinstance(constants, PhysicalConstants):
        return (constants,), True
    sets = tuple(constants) if isinstance(constants, (list, tuple)) else ()
    if not sets or not all(isinstance(k, PhysicalConstants) for k in sets):
        raise DomainError(f"expected a PhysicalConstants or a non-empty list or tuple of them, "
                          f"got {constants!r}")
    return sets, False


def _per_set(values, ndim: int) -> np.ndarray:
    """One scalar per constant set, formed in Python, as an array with ndim
    trailing axes of length 1: a factor of each set's stack of matrices."""
    return np.array(values).reshape((-1,) + (1,) * ndim)


def self_fields_commutator(constants, rep: Representation = Representation.PAULI_DIRAC
                           ) -> SelfFields:
    """Intensities solved from the kinematic-momentum commutators.

    [p_j, p_l] = i hbar (e/C) eps_jlk H_k gives H_k for the cyclic pair
    (j, l); [p_j, p0] = i hbar (e/C) E_j gives E_j (identically zero since
    p0 is proportional to the identity), with p0 = m C I and p_j =
    m C alpha_j (kinematic_momenta).  The three commutators of each kind
    are formed as one stack.  A list of constant sets gives e and h of
    shape (sets, 3, 4, 4), each set's the bits of its single-set call.
    """
    sets, one = _constant_sets(constants)
    mc = _per_set([k.mass * k.c for k in sets], 3)
    factor = _per_set([k.c / (1j * k.hbar * k.charge) for k in sets], 3)
    p = mc * np.stack(generators(rep)[:3])
    p0 = mc * identity(4)
    # H_k from the cyclic pair (j, l) before it: (1, 2), (2, 0), (0, 1), 0-indexed
    pj, pl = p[:, [1, 2, 0]], p[:, [2, 0, 1]]
    e, h = factor * (p @ p0 - p0 @ p), factor * (pj @ pl - pl @ pj)
    return SelfFields(e=e[0], h=h[0]) if one else SelfFields(e=e, h=h)


# The nonzero eps_jkl as (j, k, l), j-major with (k, l) ascending: two per j.
_CURL_TERMS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


def self_fields_matrix_maxwell(constants, rep: Representation = Representation.PAULI_DIRAC
                               ) -> SelfFields:
    """Intensities from the substitution route.

    grad_k -> i (m C / hbar) alpha_k and (1/C) d/dt -> (m C / hbar) I act on
    the potential operators (m C^2 / -e) alpha_l (vector part) and
    (m C^2 / -e) I (scalar part); the curl and gradient analogues are then
    evaluated literally.  A list of constant sets stacks as in
    self_fields_commutator.
    """
    sets, one = _constant_sets(constants)
    a = np.stack(generators(rep)[:3])
    grad_factor = _per_set([1j * (k.mass * k.c / k.hbar) for k in sets], 1)
    pot_factor = _per_set([k.mass * k.c**2 / (-k.charge) for k in sets], 3)
    j, kk, ll = (list(axis) for axis in zip(*_CURL_TERMS))
    coef = (EPS[j, kk, ll] * grad_factor)[..., None, None]
    terms = (coef * a[kk]) @ (pot_factor * a[ll])  # eps_jkl grad_k acting on A_l
    h = np.zeros((len(sets), 3, 4, 4), dtype=complex) + terms[:, 0::2] + terms[:, 1::2]
    # time-gradient acting on the vector part minus space gradient acting on
    # the scalar part; elementwise scalar products keep the cancellation
    # exact in floating point
    grad_factor = grad_factor[..., None, None]
    e = grad_factor * (pot_factor * a) - grad_factor * (a * pot_factor)
    return SelfFields(e=e[0], h=h[0]) if one else SelfFields(e=e, h=h)


def expected_self_h(constants, k_axis: int) -> np.ndarray:
    """2 (m^2 C^3 / (e hbar)) Sigma_k: the claimed self intensity, (4, 4),
    or (sets, 4, 4) for a list of constant sets."""
    sets, one = _constant_sets(constants)
    h = _per_set([2.0 * kc.mass**2 * kc.c**3 / (kc.charge * kc.hbar) for kc in sets], 2
                 ) * sigma_block(k_axis)
    return h[0] if one else h


_ZERO3 = (0.0, 0.0, 0.0)


def _linear(coeffs, coords):
    """sum_k coeffs[k] coords[k] over the nonzero coefficients only.

    A single term keeps its bits (c * y, no 0 * x added to it); with no
    term the result is zeros shaped like the coordinates.
    """
    terms = [c * x for c, x in zip(coeffs, coords) if c != 0.0]
    if not terms:
        return np.zeros_like(np.asarray(coords[0], dtype=float))
    return sum(terms[1:], terms[0])


@dataclass(frozen=True)
class LinearPotentials:
    """Static potentials linear in position, given by their constant gradients.

    grad_a[k][l] = d_k A_l and grad_phi[k] = d_k phi, finite reals kept as
    floats, so that A_l = sum_k grad_a[k][l] x_k and phi = sum_k grad_phi[k]
    x_k.  a and phi broadcast over numpy arrays.  LinearPotentials() is the zero field.
    """

    grad_a: tuple = (_ZERO3, _ZERO3, _ZERO3)
    grad_phi: tuple = _ZERO3

    def __post_init__(self):
        grad_a = number_array(self.grad_a, "potential coefficients")
        grad_phi = number_array(self.grad_phi, "potential coefficients")
        if grad_a.shape != (3, 3) or grad_phi.shape != (3,):
            raise DomainError(f"grad_a must be 3 x 3 and grad_phi 3 long, got {grad_a.shape} "
                              f"and {grad_phi.shape}")
        object.__setattr__(self, "grad_a", tuple(map(tuple, grad_a.tolist())))
        object.__setattr__(self, "grad_phi", tuple(grad_phi.tolist()))

    def a(self, x, y, z) -> tuple:
        return tuple(_linear([row[l] for row in self.grad_a], (x, y, z)) for l in range(3))

    def phi(self, x, y, z):
        return _linear(self.grad_phi, (x, y, z))

    def box_max(self, half_width: float) -> float:
        """w (max_l sum_k |d_k A_l| + sum_k |d_k phi|), w = half_width: a bound
        on max_l |A_l| + |phi| over the box |x_k| <= w, so on each of them.
        A Python float, inf where it overflows."""
        slopes = [sum(abs(row[l]) for row in self.grad_a) for l in range(3)]
        return half_width * (max(slopes) + sum(map(abs, self.grad_phi)))


def symmetric_gauge(b0: float) -> LinearPotentials:
    """A = (-B0 y / 2, B0 x / 2, 0): uniform intensity (0, 0, B0)."""
    number_array(b0, "potential coefficients")  # a bool: 0.5 * True would hide it
    return LinearPotentials(grad_a=((0.0, 0.5 * b0, 0.0), (-0.5 * b0, 0.0, 0.0), _ZERO3))


def linear_scalar(e0: float) -> LinearPotentials:
    """phi = -E0 x: uniform static field (E0, 0, 0)."""
    number_array(e0, "potential coefficients")
    return LinearPotentials(grad_phi=(-e0, 0.0, 0.0))


@dataclass(frozen=True)
class MaxwellFields:
    e: tuple
    h: tuple


def classical_maxwell_reference(potentials: LinearPotentials) -> MaxwellFields:
    """Textbook intensities H = curl A and E = -grad phi of static potentials.

    Read from the constant gradients, so they are the same everywhere: three
    Python floats each, H_k = d_j A_l - d_l A_j for cyclic (j, l, k), added
    to +0 first, so an exact zero is +0 as in the sum over eps_jkl.  Used as
    ground truth by the lattice comparisons.
    """
    g = potentials.grad_a
    h = tuple(0.0 + g[j][l] - g[l][j] for j, l in ((1, 2), (2, 0), (0, 1)))
    return MaxwellFields(e=tuple(-v for v in potentials.grad_phi), h=h)


@dataclass(frozen=True)
class SelfPotentials:
    a: np.ndarray
    phi: float
    imag_magnitude: float


def self_potentials(psi, constants: PhysicalConstants) -> SelfPotentials:
    """Expectation potentials (m C^2 / -e) <beta alpha_j> and (m C^2 / -e) <beta>.

    psi is in the Pauli-Dirac set.  <beta alpha_j> is purely imaginary for
    any state (the operator is anti-Hermitian), so the reported vector
    components are the real parts with the imaginary magnitude recorded
    alongside.  A (..., 4) stack of
    states gives a of shape (..., 3) and arrays phi and imag_magnitude.
    """
    psi = require_normalized(psi)
    k = constants
    factor = k.mass * k.c**2 / (-k.charge)
    vals = factor * _expectations(EXPECTATIONS[3:], psi)  # beta, beta alpha_j
    phi, imag = vals[..., 0].real, np.abs(vals.imag).max(axis=-1)
    if psi.ndim == 1:
        phi, imag = float(phi), float(imag)
    return SelfPotentials(a=vals[..., 1:].real.copy(), phi=phi, imag_magnitude=imag)


def magnetic_moment_matrices(constants: PhysicalConstants) -> tuple:
    """mu_j = (-e hbar / (2 m C)) sigma_j."""
    k = constants
    factor = -k.charge * k.hbar / (2.0 * k.mass * k.c)
    return tuple(factor * pauli(j) for j in (1, 2, 3))


def spin_matrices(constants: PhysicalConstants) -> tuple:
    """S_j = (hbar / 2) sigma_j."""
    return tuple(0.5 * constants.hbar * pauli(j) for j in (1, 2, 3))


def gyromagnetic_ratio(constants: PhysicalConstants) -> float:
    """mu_j / S_j = -e / (m C), the doubled classical ratio."""
    return -constants.charge / (constants.mass * constants.c)


def rest_energy(theta, phi_s, constants: PhysicalConstants):
    """E_0 = -sum_j <mu_j><H_j> evaluated in a spin coherent state.

    The moment and intensity expectations each carry <sigma_j>, so the sum
    collapses to m C^2 independent of the spin direction.  Equal-shaped
    arrays of angles give an array, one energy per direction.
    """
    k = constants
    s = spin_coherent_expectation(theta, phi_s)
    mu = (-k.charge * k.hbar / (2.0 * k.mass * k.c)) * s
    h = (2.0 * k.mass**2 * k.c**3 / (k.charge * k.hbar)) * s
    e0 = -(mu[..., None, :] @ h[..., :, None])[..., 0, 0]  # one dot product per direction
    return float(e0) if e0.ndim == 0 else e0


def anomalous_moment_ratio(constants: PhysicalConstants) -> float:
    """delta_mu / mu = e^2 / (2 pi C hbar) = alpha / (2 pi)."""
    return constants.charge**2 / (2.0 * math.pi * constants.c * constants.hbar)


@dataclass(frozen=True)
class SelfActionResult:
    norm_sq: float
    overlap_sum: complex
    hd_expectation: float
    coupled_value: complex
    reduced_value: complex


def self_action_reduction(psi, state) -> SelfActionResult:
    """Expectation bookkeeping for the self-action identity.

    coupled_value inserts the self potentials into the energy expectation;
    reduced_value is C <alpha_j P_j> + m C^2 <beta>.  For eigenstates both
    equal <H> and the cross sum <alpha_j><beta alpha_j> vanishes.

    psi is one spinor and state its MomentumState of one momentum, or psi
    is an (n, 4) stack and state a MomentumState of n momenta; every field
    of the result is then an array of n values.  Each sum and each product
    of two complex expectations is formed as the scalar arithmetic of one
    state would form it (complex_product), so a stack gives its rows' bits.
    """
    from .dynamics import MomentumState  # here: the lattice CLI loads fields, not dynamics

    psi = require_normalized(psi)
    if not isinstance(state, MomentumState):
        raise DomainError(f"expected a MomentumState, got {type(state).__name__}")
    if psi.shape[:-1] != state.p.shape[:-1]:
        raise DomainError(f"spinors of shape {psi.shape} for momenta of shape {state.p.shape}")
    k = state.constants
    mc2 = k.mass * k.c**2
    bra = psi.conj()[..., None, :]
    norm_sq = (bra @ psi[..., :, None])[..., 0, 0].real
    vals = np.moveaxis(_expectations(EXPECTATIONS, psi), -1, 0)
    alpha_exp, beta_exp, beta_alpha_exp = vals[:3], vals[3], vals[4:]
    overlap_sum = sum(complex_product(ae, bae) for ae, bae in zip(alpha_exp, beta_alpha_exp))
    momentum_term = k.c * sum(pj * ae for pj, ae in zip(np.moveaxis(state.p, -1, 0), alpha_exp))
    coupled = (
        -k.charge * norm_sq * (mc2 / -k.charge) * beta_exp
        + sum(
            complex_product(k.charge * k.c * ae * (k.mass * k.c / k.charge), bae)
            for ae, bae in zip(alpha_exp, beta_alpha_exp)
        )
        + momentum_term
    )
    reduced = momentum_term + mc2 * beta_exp
    # <H> by its own route, H @ psi, so the check against reduced shares no code
    hd_exp = (bra @ (state.h @ psi[..., :, None]))[..., 0, 0].real
    values = (norm_sq, overlap_sum, hd_exp, coupled, reduced)
    if psi.ndim == 1:
        values = tuple(v.item() for v in values)
    return SelfActionResult(*values)
