"""Fixed-momentum 4x4 dynamics: spectrum, eigenspinors and trembling motion.

The position history splits into a linear drift plus an oscillatory term.
The oscillatory closed form used here was normalized against the
conjugation oracle U(t)^dag alpha_j U(t): the catalogue's printed
oscillatory factor is schematic, and the resolved constants are

    r_j(t) - r_j(0) = t C^2 p_j H^-1
                      + (i C hbar / 2) eta_j H^-1 (exp(-2 i t H / hbar) - 1)

i.e. exponent sign -, prefactor i C hbar / 2 with H^-1 on the right of
eta_j, and the t = 0 value subtracted so the oscillation starts at zero.

Production code never inverts, exponentiates or diagonalises H: the
algebra gives H^2 = E^2 I, so H^-1 = H / E^2,

    exp(-2 i t H / hbar) = cos(2 E t / hbar) I - i sin(2 E t / hbar) H / E,

and the energy eigenspinors have the two-component closed form of
eigenspinor (Bjorken & Drell, Relativistic Quantum Mechanics, ch. 3;
Thaller, The Dirac Equation, 1992, ch. 1).  Only the oracles, spectrum,
alpha_evolved_oracle (through evolution_operator) and velocity_signal,
use eigvalsh, eigh and mat_exp.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError, number_array
from .matrices import (
    DIRAC_STACK,
    PAULI_STACK,
    GeneratorKind,
    _axis,
    _read_only,
    dirac_generator,
    hamiltonians,
    mat_exp,
)
from .spinors import require_normalized

RESOLVED_OSCILLATION = (
    "oscillatory term resolved against the conjugation oracle: "
    "(i C hbar / 2) eta_j H^-1 (exp(-2 i t H / hbar) - 1); printed factor "
    "exp(+2 i t H / hbar) with prefactor i C hbar / H is not self-consistent"
)

_EYE4 = np.eye(4, dtype=complex)
_EYE4.setflags(write=False)


@dataclass(frozen=True)
class MomentumState:
    """Momentum eigenspaces of one set of constants, in the Pauli-Dirac set.

    p is one momentum (3,) or a stack (..., 3) of them, kept as a read-only
    copy, so the caller's array may change later without moving the state.
    energy_sq, energy and h are computed per row on first use and then
    kept: Python floats and one (4, 4) H for one momentum, arrays of the
    leading shape and a (..., 4, 4) stack for a stack, each row the bits
    of its single-momentum state.  A state whose energy overflows
    therefore raises only where something asks for it.
    """

    p: np.ndarray
    constants: PhysicalConstants

    def __post_init__(self):
        p = number_array(self.p, "momentum", width=3)
        object.__setattr__(self, "p", _read_only(np.array(p)))  # a copy of the caller's

    @cached_property
    def energy_sq(self):
        """E^2 = C^2 |p|^2 + m^2 C^4, summed directly rather than squared from energy;
        for one momentum in Python floats, so an overflowing m^2 C^4 raises OverflowError."""
        k, p = self.constants, self.p
        p_sq = (p[..., None, :] @ p[..., :, None])[..., 0, 0]  # each p @ p
        return k.c**2 * (float(p_sq) if p.ndim == 1 else p_sq) + k.mass**2 * k.c**4

    @cached_property
    def energy(self):
        """Positive branch energy sqrt(C^2 |p|^2 + m^2 C^4)."""
        return math.sqrt(self.energy_sq) if self.p.ndim == 1 else np.sqrt(self.energy_sq)

    @cached_property
    def h(self) -> np.ndarray:
        """C alpha_j p_j + m C^2 beta, read-only."""
        k = self.constants
        h = hamiltonians(self.p, k.c, k.mc2)
        h.setflags(write=False)
        return h


def _one_momentum(state) -> None:
    """Refuse all but a state of one momentum: the spinor and trajectory forms are per state."""
    if not (isinstance(state, MomentumState) and state.p.ndim == 1):
        raise DomainError("expected a MomentumState of one momentum, p of shape (3,)")


def _one_spinor(psi) -> np.ndarray:
    """psi checked to be one normalized spinor of shape (4,), not a stack."""
    psi = require_normalized(psi)
    if psi.ndim != 1:
        raise DomainError(f"expected one spinor of shape (4,), got shape {psi.shape}")
    return psi


def spectrum(state: MomentumState) -> np.ndarray:
    """The four energy eigenvalues, ascending: (-E, -E, +E, +E).  Oracle."""
    return np.sort(np.linalg.eigvalsh(state.h))


def _boost(state: MomentumState) -> np.ndarray:
    """q = C p / (E + m C^2), with |q| < 1."""
    k = state.constants
    return state.p * (k.c / (state.energy + k.mc2))


def _spin_up_along(ax: float, ay: float, az: float) -> tuple:
    """Unit +1 eigenvector of sigma.a for a nonzero real 3-vector a.

    (1 + a_z, a_x + i a_y) and (a_x - i a_y, 1 - a_z), for unit a, are both
    +1 eigenvectors of sigma.a; the branch on the sign of a_z keeps the
    normalizing factor away from 0.
    """
    r = math.hypot(ax, ay, az)
    ax, ay, az = ax / r, ay / r, az / r
    if az >= 0.0:
        f = 1.0 / math.sqrt(2.0 * (1.0 + az))
        return (1.0 + az) * f, complex(ax, ay) * f
    f = 1.0 / math.sqrt(2.0 * (1.0 - az))
    return complex(ax, -ay) * f, (1.0 - az) * f


def _eigenspinor_row(px: float, py: float, pz: float, energy: float,
                     constants: PhysicalConstants, energy_sign: int, spin: str,
                     theta: float, phi_s: float) -> list:
    """The four components of eigenspinor, as Python complex numbers, for
    the momentum (px, py, pz) of positive energy `energy` and the spin axis
    (theta, phi_s): the closed form on Python floats.

    The arguments are taken as checked: eigenspinor checks them and calls
    this once per row, with each row's energy from its MomentumState, so
    every row of a stack gets its single-state bits.
    """
    mc2 = constants.mc2
    scale = constants.c / (energy + mc2)
    qx, qy, qz = px * scale, py * scale, pz * scale  # q = C p / (E + m C^2)
    rest = 2.0 * mc2 / (energy + mc2)  # 1 - |q|^2, without the cancellation
    sin_theta = math.sin(theta)
    n = (sin_theta * math.cos(phi_s), sin_theta * math.sin(phi_s), math.cos(theta))
    qn = qx * n[0] + qy * n[1] + qz * n[2]
    along = 1.0 if spin == "up" else -1.0
    c0, c1 = _spin_up_along(*(along * (rest * ni + 2.0 * qn * qi)
                              for ni, qi in zip(n, (qx, qy, qz))))
    s0 = qz * c0 + complex(qx, -qy) * c1  # (sigma.q) chi
    s1 = complex(qx, qy) * c0 - qz * c1
    u = [c0, c1, s0, s1] if energy_sign == 1 else [-s0, -s1, c0, c1]
    norm = math.sqrt(sum(z.real * z.real + z.imag * z.imag for z in u))
    u = [z / norm for z in u]
    for comp in u:
        if abs(comp) > 1e-12:
            rot = comp.conjugate() / abs(comp)
            return [z * rot for z in u]
    return u


def eigenspinor(state: MomentumState, energy_sign=1, spin="up", axis=(0.0, 0.0)) -> np.ndarray:
    """Normalized energy eigenvector with a deterministic phase.

    energy_sign (the integer +1 or -1), spin ("up" or "down") and axis
    (theta, phi_s) broadcast against the state's rows: (4,) for one of
    each, else (..., 4), each row the bits of its single-momentum call.

    The two degenerate states of one energy sign are split by the spin
    operator Sigma.n restricted to that eigenspace; "up" takes the larger
    restricted eigenvalue.  The first component larger than 1e-12 in
    magnitude is rotated to be real positive.

    Closed form: with q = C p / (E + m C^2) and
    N = (1 + |q|^2)^-1/2, every state of energy +E is u_+(chi) =
    N (chi, (sigma.q) chi) and every state of energy -E is u_-(chi) =
    N (-(sigma.q) chi, chi), for a two-component chi, and chi -> u_+-(chi)
    preserves norms.  Sigma.n = blockdiag(sigma.n, sigma.n) restricted to
    either eigenspace is therefore, in chi,

        N^2 (sigma.n + (sigma.q)(sigma.n)(sigma.q)) = N^2 sigma.a,
        a = (1 - |q|^2) n + 2 (q.n) q,

    by (sigma.q)(sigma.n)(sigma.q) = 2 (q.n) sigma.q - |q|^2 sigma.n.
    1 - |q|^2 = 2 m C^2 / (E + m C^2) > 0 is computed in that form, with
    no cancellation, so a.n > 0 and a never vanishes.  "up" takes chi
    along +a, "down" along -a.  The spinor is divided by its computed
    norm, which stands for N.  The arithmetic is _eigenspinor_row's.
    """
    if not isinstance(state, MomentumState):
        raise DomainError(f"expected a MomentumState, got {type(state).__name__}")
    signs, spins = number_array(energy_sign, "energy_sign", "iu"), np.array(spin, dtype=object)
    if not (set(signs.ravel().tolist()) <= {1, -1}
            and all(map(("up", "down").__contains__, spins.ravel().tolist()))):
        raise DomainError(f"energy_sign must be +1 or -1 and spin 'up' or 'down', "
                          f"got {energy_sign!r} and {spin!r}")
    angles, k = number_array(axis, "spin axis", width=2), state.constants
    try:
        shape = np.broadcast(state.p[..., 0], signs, spins, angles[..., 0]).shape
    except ValueError:
        raise DomainError(f"sign, spin and axis do not broadcast with p {state.p.shape}") from None

    def columns(a, *width) -> list:  # a broadcast against the rows, as one list per column
        full = np.empty(shape + width, a.dtype)
        full[...] = a
        return full.reshape(-1, *width).T.tolist()

    rows = zip(*columns(state.p, 3), columns(np.asarray(state.energy)), columns(signs),
               columns(spins), *columns(angles, 2))
    return np.array([_eigenspinor_row(px, py, pz, e, k, sign, up, theta, phi_s)
                     for px, py, pz, e, sign, up, theta, phi_s in rows],
                    dtype=complex).reshape(shape + (4,))


def velocity_operator(j: int, constants: PhysicalConstants) -> np.ndarray:
    """C alpha_j: the velocity operator along axis j."""
    return constants.c * dirac_generator(GeneratorKind(_axis(j)))


def _per_matrix(x) -> np.ndarray:
    """x, one value per row, as a factor of each row's 4x4 matrix."""
    return np.asarray(x)[..., None, None]


def _axes(state, j, t=0.0) -> tuple:
    """(p_j, j, t) with the axis j and the time t broadcast against the
    state's rows: the closed forms below give a (4, 4) matrix for one
    momentum with a scalar j and t, and otherwise one matrix per row of the
    broadcast shape, each the bits of its single-momentum call."""
    if not isinstance(state, MomentumState):
        raise DomainError(f"expected a MomentumState, got {type(state).__name__}; "
                          "a stack of momenta is one state's p")
    axes = number_array(j, "axis", "iu")
    if not ((axes >= 1) & (axes <= 3)).all():
        raise DomainError(f"axis must be 1, 2 or 3, got {j!r}")
    shape = np.broadcast_shapes(state.p.shape[:-1], axes.shape, np.shape(t))
    j = np.broadcast_to(axes, shape)
    return (np.choose(j - 1, np.moveaxis(state.p, -1, 0)), j,
            np.broadcast_to(np.asarray(t, dtype=float), shape))


def _eta(state: MomentumState, p_j, j) -> np.ndarray:
    scale = state.constants.c * p_j / state.energy_sq  # C p_j / E^2
    return DIRAC_STACK[j - 1] - _per_matrix(scale) * state.h


def _double_evolution(state: MomentumState, t) -> np.ndarray:
    """exp(-2 i t H / hbar) = cos(2 E t / hbar) I - i sin(2 E t / hbar) H / E."""
    theta = 2.0 * t * state.energy / state.constants.hbar
    return (_per_matrix(np.cos(theta)) * _EYE4
            - _per_matrix(1j * (np.sin(theta) / state.energy)) * state.h)


def eta_matrix(state: MomentumState, j) -> np.ndarray:
    """alpha_j - C p_j H^-1: the part of alpha_j that anticommutes with H.

    H^-1 = H / E^2, since H^2 = E^2 I; E >= m C^2 > 0 because
    PhysicalConstants requires mass and C > 0.  Stacks as _axes says.
    """
    p_j, j, _ = _axes(state, j)
    return _eta(state, p_j, j)


def velocity_direction(state: MomentumState, j, t) -> np.ndarray:
    """Closed-form Heisenberg velocity direction C p_j H^-1 + eta_j exp(-2 i t H / hbar).

    The production side of alpha_evolved_oracle: the two share no code.
    Stacks as _axes says.
    """
    p_j, j, t = _axes(state, j, t)
    return (_per_matrix(state.constants.c * p_j / state.energy_sq) * state.h
            + _eta(state, p_j, j) @ _double_evolution(state, t))


def _evolution(state: MomentumState, t) -> np.ndarray:
    # -1j * t / hbar as the scalar forms it: (+-0, -t / hbar), purely imaginary
    return mat_exp(_per_matrix(-1j * (t / state.constants.hbar)) * state.h)


def evolution_operator(state: MomentumState, t) -> np.ndarray:
    """exp(-i H t / hbar), by the general matrix exponential.  Oracle.

    Stacks as _axes says."""
    return _evolution(state, _axes(state, 1, t)[2])


def alpha_evolved_oracle(state: MomentumState, j, t) -> np.ndarray:
    """Brute-force Heisenberg velocity direction: U(t)^dag alpha_j U(t).

    Stacks as _axes says."""
    _, j, t = _axes(state, j, t)
    u = _evolution(state, t)
    return u.conj().swapaxes(-1, -2) @ DIRAC_STACK[j - 1] @ u


@dataclass(frozen=True)
class ClosedFormPosition:
    """Matrix-valued drift and oscillation of the position displacement."""

    drift_matrix: np.ndarray
    zbw_matrix: np.ndarray


def zbw_closed_form(state: MomentumState, j, t) -> ClosedFormPosition:
    """Drift and oscillatory matrices of r_j(t) - r_j(0).

    d/dt (drift + zbw) reproduces C * alpha_evolved_oracle(state, j, t);
    the additive constant is fixed so both terms vanish at t = 0.
    H^-1 = H / E^2 (see eta_matrix).  Stacks as _axes says.
    """
    p_j, j, t = _axes(state, j, t)
    k = state.constants
    h_inv = state.h / _per_matrix(state.energy_sq)
    drift = _per_matrix(t * k.c**2 * p_j) * h_inv
    oscillation = _double_evolution(state, t) - _EYE4
    zbw = 0.5j * k.c * k.hbar * (_eta(state, p_j, j) @ h_inv @ oscillation)
    return ClosedFormPosition(drift_matrix=drift, zbw_matrix=zbw)


@dataclass(frozen=True)
class Trajectory:
    """Columnar position displacement: t (n,), drift, zbw and total (n, 3)."""

    t: np.ndarray
    drift: np.ndarray
    zbw: np.ndarray
    total: np.ndarray

    def __len__(self) -> int:
        return self.t.size


# Rows per block: the time-vectorized kernels and the CSV writer work on
# this many rows at a time, which bounds their temporaries (phase tables,
# Python floats) however many times are asked for.
_BLOCK_ROWS = 1024


def _row_blocks(n: int) -> list:
    """Slices of about _BLOCK_ROWS rows that cover range(n) in order.

    A lone last row joins the block before it: numpy multiplies a one-row
    matrix by a matrix-vector routine, which can round differently from the
    matrix-matrix routine that the other blocks, and the whole array at
    once, go through.
    """
    edges = list(range(0, n, _BLOCK_ROWS)) + [n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _energy_split(q: np.ndarray, psi: np.ndarray) -> tuple:
    """(chi_+, chi_-) with psi = u_+(chi_+) + u_-(chi_-), u_+- as in eigenspinor.

    The map (chi_+, chi_-) -> psi is N [[I, -sigma.q], [sigma.q, I]], which
    is unitary, so its inverse is its adjoint.
    """
    sq = np.tensordot(q, PAULI_STACK, axes=1)
    norm = 1.0 / math.sqrt(1.0 + float(q @ q))
    top, bottom = psi[:2], psi[2:]
    return norm * (top + sq @ bottom), norm * (bottom - sq @ top)


# Drift and oscillation amplitudes of zbw_trajectory at or below this many
# machine epsilons, times |psi|^2, are written as exact zeros.  The
# two-component split rounds each of its entries with an absolute error of a
# few epsilon times |psi|, and every amplitude is a sum of products of
# those entries with weights at most 2, so its rounding error stays below
# about 12 epsilon |psi|^2 (the largest residue seen over 20 000 random
# equal-weight mixes and eigenstates, SI constants included, was 3.5
# epsilon).  A value that small has no correct digit or sign, and where the
# physics gives an exact zero (the drift of an equal-weight mix, an
# eigenstate's oscillation, the axes across the spin axis of a mix) the
# rounding residue becomes that zero.
_RESIDUE_EPS = 16


def zbw_trajectory(state: MomentumState, psi, times) -> Trajectory:
    """Expectation trajectory of the closed-form position displacement.

    psi must be one normalized spinor; times strictly increasing, and small
    enough that the phase max|t| E / hbar and the displacement stay finite.
    Returns one Trajectory of arrays, one row per time.

    Works in the closed-form basis of eigenspinor, whose energies are
    exactly +-E: psi = u_+(chi_+) + u_-(chi_-) (_energy_split).  H^-1 is
    +-1/E on the two eigenspaces and eta_j = alpha_j - C p_j H^-1 has no
    part inside either of them, so with theta = 2 E t / hbar

        drift_j = t C^2 p_j (|chi_+|^2 - |chi_-|^2) / E,
        zbw_j   = (C hbar / E) (Re X_j sin theta - Im X_j (1 - cos theta)),

    where X_j = <u_+(chi_+)| alpha_j |u_-(chi_-)>
              = N^2 chi_+^dag (sigma_j - (sigma.q) sigma_j (sigma.q)) chi_-
              = chi_+^dag (sigma_j - 2 N^2 q_j sigma.q) chi_-,
    by (sigma.q) sigma_j (sigma.q) = 2 q_j sigma.q - |q|^2 sigma_j and
    N^2 (1 + |q|^2) = 1.  The same identity with n for sigma_j gives the
    spin vector a = (1 - |q|^2) n + 2 (q.n) q of eigenspinor.  Both rows
    are real by construction, and amplitudes within rounding of zero are
    exact zeros (_RESIDUE_EPS).
    """
    _one_momentum(state)
    psi = _one_spinor(psi)
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0:
        raise DomainError("times must be non-empty")
    if times.size > 1 and not np.all(np.diff(times) > 0.0):
        raise DomainError("times must be strictly increasing")
    k = state.constants
    e = state.energy
    t_max = float(np.max(np.abs(times)))
    if not math.isfinite(t_max * (e / k.hbar)):
        raise DomainError("the phase E t / hbar overflows at the largest |t|")
    q = _boost(state)
    chi_p, chi_m = _energy_split(q, psi)
    s = PAULI_STACK @ chi_m @ chi_p.conj()  # chi_+^dag sigma_j chi_-
    cross = s - (2.0 * (q @ s) / (1.0 + float(q @ q))) * q
    floor = _RESIDUE_EPS * sys.float_info.epsilon * float(np.vdot(psi, psi).real)
    weight = float(np.vdot(chi_p, chi_p).real - np.vdot(chi_m, chi_m).real)
    if abs(weight) <= floor:
        weight = 0.0
    scale = k.c * k.hbar / e
    amp_sin = np.where(np.abs(cross.real) <= floor, 0.0, scale * cross.real)
    amp_vers = np.where(np.abs(cross.imag) <= floor, 0.0, -scale * cross.imag)
    velocity = (k.c**2 * weight / e) * state.p
    # |total_j| <= |t| |velocity_j| + |amp_sin_j| + 2 |amp_vers_j| on every row
    bound = (t_max * float(np.max(np.abs(velocity)))
             + float(np.max(np.abs(amp_sin))) + 2.0 * float(np.max(np.abs(amp_vers))))
    if not math.isfinite(bound):
        raise DomainError("the drift C^2 p t / E overflows at the largest |t|")
    zbw = np.empty((times.size, 3))
    for rows in _row_blocks(times.size):
        half = times[rows] * (e / k.hbar)  # theta / 2
        sin_half = np.sin(half)
        zbw[rows] = (np.outer(2.0 * sin_half * np.cos(half), amp_sin)
                     + np.outer(2.0 * sin_half * sin_half, amp_vers))
    drift = times[:, None] * velocity
    return Trajectory(t=times.copy(), drift=drift, zbw=zbw, total=drift + zbw)


def max_mixing_state(state: MomentumState) -> np.ndarray:
    """Equal-weight superposition of the two energy signs, both spin up along z."""
    _one_momentum(state)
    plus, minus = eigenspinor(state, np.array([1, -1]), "up")
    return (plus + minus) / math.sqrt(2.0)


# A signal whose spread (max - min) is at most this many machine epsilons
# times the scale it was computed at is flat: rounding alone moves it that
# far, so no line in it can be told from noise.  For a signal given on its
# own the scale is its largest magnitude; velocity_signal sums 16 products
# whose sizes add up to at most 2 C |psi|^2, so its rounding is measured
# against C.  Over 1600 random eigenstates, momenta and constants an
# eigenstate's velocity spread at most 7.2 epsilon C, and the equal-weight
# mixes of the same momenta at least 8e-6 C.  The same bound caps the
# imaginary part of velocity_signal's expectations, which is rounding
# alone: over 1500 random states, momenta and times under five constant
# sets, SI among them, it reached 1.0 epsilon C |psi|^2.
_FLAT_EPS = 64


def velocity_signal(state: MomentumState, psi, times) -> np.ndarray:
    """Oracle velocity expectations C <psi| U^dag alpha_j U |psi>.

    Pure conjugation route in the eigh eigenbasis: with coefficients c_b
    and energies w_b, U |psi> has coefficients r_b = c_b e^{-i w_b t / hbar},
    and the expectation is sum_ab conj(r_a) (C alpha_j)_ab r_b: one product
    of the (t, 4) table r with all three generators per row block.
    Returns an (ntimes, 3) real array.  The expectation of a Hermitian
    form is real; an imaginary part above _FLAT_EPS epsilon C |psi|^2, more
    rounding than a unitary eigenbasis allows, raises ArithmeticError
    (require_normalized holds |psi|^2 to 1 within 1e-12).
    """
    _one_momentum(state)
    psi = _one_spinor(psi)
    times = np.asarray(times, dtype=float).reshape(-1)
    k = state.constants
    imag_bound = _FLAT_EPS * sys.float_info.epsilon * k.c
    w, v = np.linalg.eigh(state.h)
    coeff = v.conj().T @ psi
    a_eig = v.conj().T @ DIRAC_STACK[:3] @ v  # (j, a, b)
    # contract[b, 4 j + a] = C alpha_j[a, b] in the eigenbasis
    contract = (k.c * a_eig).transpose(2, 0, 1).reshape(4, 12)
    out = np.empty((times.size, 3))
    for rows in _row_blocks(times.size):
        r = coeff * np.exp(-1j * np.outer(times[rows], w / k.hbar))
        vals = np.einsum("tja,ta->tj", (r @ contract).reshape(-1, 3, 4), r.conj())
        if float(np.max(np.abs(vals.imag))) > imag_bound:
            raise ArithmeticError("velocity expectation grew a non-real part")
        out[rows] = vals.real
    return out


def _is_flat(spread: float, scale: float) -> bool:
    return spread <= _FLAT_EPS * sys.float_info.epsilon * scale


def fit_dominant_frequency(times, signal) -> float:
    """Angular frequency of the strongest nonzero line, by windowed FFT.

    The times must increase in uniform steps.  Hann window plus parabolic
    interpolation of the log-magnitude peak.  Returns 0.0 for a flat signal,
    one whose spread is within rounding of its largest magnitude
    (_FLAT_EPS).  A non-finite sample raises DomainError: it has no
    spectrum.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    x = number_array(signal, "the signal").reshape(-1)
    if times.size != x.size or times.size < 8:
        raise DomainError("need at least 8 uniformly spaced samples")
    dt = times[1] - times[0]
    if not dt > 0.0:
        raise DomainError(f"sample times must increase, got a first step of {dt!r}")
    if not np.allclose(np.diff(times), dt, rtol=1e-9, atol=0.0):
        raise DomainError("samples must be uniformly spaced")
    if _is_flat(float(np.ptp(x)), float(np.max(np.abs(x)))):
        return 0.0
    y = x - x.mean()
    spec = np.abs(np.fft.rfft(y * np.hanning(times.size)))
    kpk = int(np.argmax(spec[1:]) + 1)
    delta = 0.0
    if 1 <= kpk < spec.size - 1 and spec[kpk - 1] > 0 and spec[kpk + 1] > 0:
        la, lb, lc = np.log(spec[kpk - 1]), np.log(spec[kpk]), np.log(spec[kpk + 1])
        denom = la - 2.0 * lb + lc
        if denom != 0.0:
            delta = 0.5 * (la - lc) / denom
    return 2.0 * math.pi * (kpk + delta) / (times.size * dt)


# fitted_zbw_frequency samples the velocity this many times over this many
# periods 2 pi hbar / (2 E) of the trembling motion.
_FIT_SAMPLES = 10000
_FIT_PERIODS = 64


def fitted_zbw_frequency(state: MomentumState, psi=None) -> float:
    """FFT-fitted oscillation frequency of the oracle velocity signal.

    0.0 when every component is flat against C (_FLAT_EPS), as for an
    energy eigenstate, whose velocity is constant.  Raises DomainError when
    the constants make the sampled window overflow, or its sample step
    underflow to a subnormal.
    """
    _one_momentum(state)
    k = state.constants
    expected = 2.0 * state.energy / k.hbar
    window = _FIT_PERIODS * 2.0 * math.pi / expected if expected > 0.0 else math.inf
    if not (math.isfinite(window) and window / _FIT_SAMPLES >= sys.float_info.min):
        raise DomainError(f"the fit window of {_FIT_PERIODS} periods 2 pi hbar / (2 E) "
                          "overflows or underflows with these constants")
    times = np.linspace(0.0, window, _FIT_SAMPLES, endpoint=False)
    if psi is None:
        psi = max_mixing_state(state)
    signal = velocity_signal(state, psi, times)
    amps = signal.max(axis=0) - signal.min(axis=0)
    axis = int(np.argmax(amps))
    if _is_flat(float(amps[axis]), k.c):
        return 0.0
    return fit_dominant_frequency(times, signal[:, axis])


TRAJECTORY_HEADER = "t,drift_x,drift_y,drift_z,zbw_x,zbw_y,zbw_z,total_x,total_y,total_z"


def _release_freed_heap() -> None:
    """Give the C heap's free pages back to the OS, where glibc can (malloc_trim).

    By itself glibc returns free heap memory only from the top of the heap,
    and only past a threshold that grows with the largest block freed so
    far.  A process that exports trajectories one after another would keep
    each export's freed buffers resident, and its peak memory would depend
    on the order of the buffer sizes it has seen.  Elsewhere this does
    nothing.
    """
    import ctypes  # here, not at the top: only exports pay for loading it

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


# The CSV cells.  A cell is a row of little-endian uint32 words whose NUL
# bytes are dropped when its block is joined (_block_text).  In fixed
# notation the words are 3-digit groups aligned at the point: the integer
# part's groups "\0ddd", the first of which holds the sign in its free front
# byte; one word for the "0" of 0.ddd and the point; and the fraction's
# groups "ddd\0", the last of which takes the separator in its free back
# byte.  Each group table has two halves: all three digits, and the digits
# with the integer's leading or the fraction's trailing zeros made NUL.
def _group_words(front: bool) -> np.ndarray:
    def word(g: int, strip: bool) -> bytes:
        digits = b"%03d" % g
        if front:
            return b"\0" + (digits.lstrip(b"0").rjust(3, b"\0") if strip else digits)
        return (digits.rstrip(b"0").ljust(3, b"\0") if strip else digits) + b"\0"

    return np.frombuffer(b"".join(word(g, strip) for strip in (False, True) for g in range(1000)),
                         dtype="<u4")


# Built from Python numbers: a ufunc run here would page in its loop's code,
# 64-128 kB of resident memory each, in every process that imports this.
_INT_WORDS = _group_words(front=True)
_FRAC_WORDS = _group_words(front=False)
_SEPARATORS = np.array([ord(",") << 24] * 9 + [ord("\n") << 24], dtype="<u4")
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for 53-bit doubles
_POW10 = np.array([float(10**k) for k in range(21)])  # exact doubles
_POW10_HI = np.array([p * _SPLIT - (p * _SPLIT - p) for p in _POW10.tolist()])
_POW10_LO = np.array([p - hi for p, hi in zip(_POW10.tolist(), _POW10_HI.tolist())])
_POW10_INT = np.array([10**k for k in range(19)], dtype=np.int64)


def _round15(a: np.ndarray) -> tuple:
    """(d, e) with a ~ d 10^(e - 14): a in [1e-5, 1e15) to 15 significant digits.

    d is an int64 in [10^14, 10^15), a rounded to nearest with ties to even,
    as "%.15g" rounds (CPython formats floats with Gay's correctly rounded
    conversion: D. Gay, "Correctly rounded binary-decimal and
    decimal-binary conversions", 1990).

    e starts as floor(log10 a), at most 14, which can be one off next to
    a power of ten.  With k = 14 - e, 10^k is an exact double (0 <= k <=
    20), and one step on y = fl(a 10^k) moves e by one where y < 10^14 or
    y >= 10^15.  Where a 10^k lies within half an ulp below 10^14 or
    10^15, y rounds to that power and the step may leave e one off; such a
    value rounds to 10^15 at the lower exponent and to 10^14 at the higher,
    the same digits.

    Dekker's TwoProduct (a Veltkamp split of a by 2^27 + 1, the split of
    10^k from a table) gives the exact residual err = a 10^k - y (T. J.
    Dekker, "A floating-point technique for extending the available
    precision", Numer. Math. 18, 1971).  y < 2^50, so floor(y), frac(y)
    and frac(y) - 0.5 are exact, and |err| <= ulp(y) / 2 < 0.5: a 10^k
    rounds up exactly where frac(y) - 0.5 > -err, and on equality, an exact
    decimal tie, where floor(y) is odd.  A d of 10^15 carries into the next
    decade.
    """
    e = np.minimum(np.floor(np.log10(a)), 14).astype(np.int64)
    y = a * _POW10[14 - e]
    e += (y >= 1e15).astype(np.int64) - (y < 1e14)
    k = 14 - e
    y = a * _POW10[k]
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI[k], _POW10_LO[k]
    err = ((a_hi * p_hi - y) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    floor = np.floor(y)
    half = (y - floor) - 0.5
    d = floor.astype(np.int64)
    d += (half > -err) | ((half == -err) & (d & 1 == 1))
    carry = d == 10**15
    d[carry] = 10**14
    return d, e + carry


def _cell_words(x: np.ndarray) -> np.ndarray:
    """The words of "%.15g" % v for every v in x, one row of words a cell.

    A cell whose rounded exponent e lies in [-4, 14] prints in fixed
    notation and is built from _round15: its integer part d // 10^(14 - e)
    and its fraction become 3-digit groups, looked up in the group tables.
    Only the groups that some cell of x reaches are kept.  Every other cell
    (0, +-inf, nan, or below 10^-4 or from 10^15 up after rounding) is
    printed by "%-Ng" % v itself, at least 6 words wide, its space padding
    made NUL.
    """
    x = x.ravel()
    a = np.abs(x)
    live = (a >= 1e-5) & (a < 1e15)
    d, e = _round15(np.where(live, a, 1.0))
    fixed = live & (e >= -4) & (e <= 14)
    other = np.flatnonzero(~fixed)
    if other.size == x.size:
        return _print_into(np.zeros((x.size, 6), dtype="<u4"), x, other)
    lo, hi = int(e[fixed].min()), int(e[fixed].max())
    whole_groups, frac_groups = max(hi, 0) // 3 + 1, -(-(14 - lo) // 3)
    width = whole_groups + 1 + frac_groups
    out = np.zeros((x.size, max(width, 6) if other.size else width), dtype="<u4")
    point = 14 - np.clip(e, lo, hi)  # digits of d after the point
    whole = d // _POW10_INT[point]
    frac = (d - whole * _POW10_INT[point]) * _POW10_INT[3 * frac_groups - point]
    rest = whole
    for g in range(whole_groups):
        place = 1000 ** (whole_groups - 1 - g)
        group = rest // place
        rest = rest - group * place
        out[:, g] = _INT_WORDS.take(group + 1000 * (whole < 1000 * place))
    out[:, 0] |= np.signbit(x).astype("<u4") * ord("-")
    out[:, whole_groups] = (whole == 0) * ord("0") | (frac != 0) * (ord(".") << 8)
    rest = frac
    for g in range(frac_groups):
        place = 1000 ** (frac_groups - 1 - g)
        group = rest // place
        rest = rest - group * place
        out[:, whole_groups + 1 + g] = _FRAC_WORDS.take(group + 1000 * (rest == 0))
    return _print_into(out, x, other)


def _print_into(out: np.ndarray, x: np.ndarray, which: np.ndarray) -> np.ndarray:
    """out with the cells `which` of x printed by "%-Ng", N = 4 words a cell."""
    if which.size:
        text = ("%%-%d.15g" % (4 * out.shape[1]) * which.size % tuple(x[which].tolist()))
        out[which] = np.frombuffer(text.encode("ascii").replace(b" ", b"\0"),
                                   dtype="<u4").reshape(which.size, -1)
    return out


def _block_text(chunk: np.ndarray) -> str:
    """The CSV rows of one (n, 10) block, each cell as "%.15g" prints it.

    Columns are told apart by their bytes.  A column of only +0.0 or only
    -0.0 is written as the literal 0 or -0, one word a cell, and a column
    bit-identical to an earlier one shares its words, formatted once: equal
    bits print equal text.  The other columns go through _cell_words
    together.  Each cell's separator fills the free back byte of its last
    word, and the NUL bytes of the whole block are dropped at once.
    """
    n = len(chunk)
    zero, neg_zero = bytes(8 * n), np.full(n, -0.0).tobytes()
    first, picked, slots = {}, [], []  # slot: a literal, or a picked column
    for c, col in enumerate(chunk.T):
        key = col.tobytes()
        if key == zero or key == neg_zero:
            slots.append(b"0" if key == zero else b"-0")
            continue
        if key not in first:
            first[key] = len(picked)
            picked.append(c)
        slots.append(first[key])
    words = _cell_words(chunk[:, picked]).reshape(n, len(picked), -1) if picked else None
    widths = [1 if isinstance(s, bytes) else words.shape[2] for s in slots]
    ends = np.cumsum(widths)
    rows = np.empty((n, int(ends[-1])), dtype="<u4")
    for slot, end, width in zip(slots, ends, widths):
        rows[:, end - width:end] = (int.from_bytes(slot, "little") if isinstance(slot, bytes)
                                    else words[:, slot])
    rows[:, ends - 1] |= _SEPARATORS
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def write_trajectory_csv(trajectory: Trajectory, fh) -> None:
    """CSV with a fixed header and 15-significant-digit cells.

    Block by block (_block_text), a column of exact zeros (an eigenstate's
    oscillation, an equal mix's drift, both columns of a zero momentum
    component) is written as the literal 0 or -0, and a column
    bit-identical to an earlier one (a total equal to its drift or its
    oscillation) is formatted once and shares that text.  The other cells
    come from two sources (_cell_words): a cell in fixed notation is built
    in numpy from its exactly rounded 15-digit integer (_round15, Dekker's
    error-free product), and every other cell (zeros, infinities, nan,
    exponent notation) from "%.15g" itself.  The bytes are those of
    "%.15g" on every cell.
    """
    fh.write(TRAJECTORY_HEADER + "\n")
    for rows in _row_blocks(len(trajectory)):
        fh.write(_block_text(np.column_stack((trajectory.t[rows], trajectory.drift[rows],
                                              trajectory.zbw[rows], trajectory.total[rows]))))
    _release_freed_heap()
