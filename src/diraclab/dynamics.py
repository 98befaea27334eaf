"""Fixed-momentum 4x4 dynamics: spectrum, eigenspinors and trembling motion.

The position history splits into a linear drift plus an oscillatory term.
The oscillatory closed form used here was normalized against the
conjugation oracle U(t)^dag alpha_j U(t): the catalogue's printed
oscillatory factor is schematic, and the resolved constants are

    r_j(t) - r_j(0) = t C^2 p_j H^-1
                      + (i C hbar / 2) eta_j H^-1 (exp(-2 i t H / hbar) - 1)

i.e. exponent sign -, prefactor i C hbar / 2 with H^-1 on the right of
eta_j, and the t = 0 value subtracted so the oscillation starts at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError
from .matrices import (
    SIGMA_BLOCKS,
    GeneratorKind,
    Representation,
    dirac_generator,
    generators,
    identity,
    mat_exp,
)
from .spinors import require_normalized

RESOLVED_OSCILLATION = (
    "oscillatory term resolved against the conjugation oracle: "
    "(i C hbar / 2) eta_j H^-1 (exp(-2 i t H / hbar) - 1); printed factor "
    "exp(+2 i t H / hbar) with prefactor i C hbar / H is not self-consistent"
)


@dataclass(frozen=True)
class MomentumState:
    """One momentum eigenspace: fixed p vector, constants and generator set."""

    p: np.ndarray
    constants: PhysicalConstants
    rep: Representation = Representation.PAULI_DIRAC

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(-1)
        if p.shape != (3,) or not np.isfinite(p).all():
            raise DomainError(f"momentum must be 3 finite reals, got {self.p!r}")
        object.__setattr__(self, "p", p)
        if not isinstance(self.rep, Representation):
            raise DomainError(f"rep must be a Representation, got {self.rep!r}")

    @property
    def energy(self) -> float:
        """Positive branch energy sqrt(C^2 |p|^2 + m^2 C^4)."""
        k = self.constants
        return math.sqrt(k.c**2 * float(self.p @ self.p) + k.mass**2 * k.c**4)


def hamiltonian(state: MomentumState) -> np.ndarray:
    """C alpha_j p_j + m C^2 beta at the state's momentum."""
    k = state.constants
    a1, a2, a3, beta = generators(state.rep)
    return k.c * (state.p[0] * a1 + state.p[1] * a2 + state.p[2] * a3) + k.mc2 * beta


def spectrum(state: MomentumState) -> np.ndarray:
    """The four energy eigenvalues, ascending: (-E, -E, +E, +E)."""
    return np.sort(np.linalg.eigvalsh(hamiltonian(state)))


def _axis_vector(axis) -> np.ndarray:
    theta, phi_s = float(axis[0]), float(axis[1])
    if not (math.isfinite(theta) and math.isfinite(phi_s)):
        raise DomainError("spin axis angles must be finite")
    return np.array([
        math.sin(theta) * math.cos(phi_s),
        math.sin(theta) * math.sin(phi_s),
        math.cos(theta),
    ])


def eigenspinor(state: MomentumState, energy_sign: int = 1, spin: str = "up",
                axis=(0.0, 0.0)) -> np.ndarray:
    """Normalized energy eigenvector with a deterministic phase.

    The two degenerate states of one energy sign are split by the spin
    operator Sigma.n restricted to that eigenspace; "up" takes the larger
    restricted eigenvalue.  The first component larger than 1e-12 in
    magnitude is rotated to be real positive.
    """
    if energy_sign not in (1, -1):
        raise DomainError(f"energy_sign must be +1 or -1, got {energy_sign!r}")
    if spin not in ("up", "down"):
        raise DomainError(f"spin must be 'up' or 'down', got {spin!r}")
    h = hamiltonian(state)
    w, v = np.linalg.eigh(h)
    cols = (2, 3) if energy_sign == 1 else (0, 1)
    sub = v[:, list(cols)]
    n = _axis_vector(axis)
    s1, s2, s3 = SIGMA_BLOCKS
    spin_op = n[0] * s1 + n[1] * s2 + n[2] * s3
    restricted = sub.conj().T @ spin_op @ sub
    sw, sv = np.linalg.eigh(restricted)
    pick = 1 if spin == "up" else 0  # eigh sorts ascending
    u = sub @ sv[:, pick]
    u = u / np.linalg.norm(u)
    for comp in u:
        if abs(comp) > 1e-12:
            u = u * (comp.conjugate() / abs(comp))
            break
    return u


def velocity_operator(j: int, constants: PhysicalConstants,
                      rep: Representation = Representation.PAULI_DIRAC) -> np.ndarray:
    """C alpha_j: the velocity operator along axis j."""
    if j not in (1, 2, 3):
        raise DomainError(f"axis must be 1, 2 or 3, got {j!r}")
    return constants.c * dirac_generator(GeneratorKind(j), rep)


def eta_matrix(state: MomentumState, j: int) -> np.ndarray:
    """alpha_j - C p_j H^-1: the part of alpha_j that anticommutes with H.

    H is inverted without a condition estimate.  H is Hermitian and
    H^2 = E^2 I, so every singular value of H equals E and cond_2(H) = 1;
    E >= m C^2 > 0 because PhysicalConstants requires mass and C > 0.
    """
    if j not in (1, 2, 3):
        raise DomainError(f"axis must be 1, 2 or 3, got {j!r}")
    alpha = dirac_generator(GeneratorKind(j), state.rep)
    if state.p[j - 1] == 0.0:
        return alpha
    h_inv = np.linalg.inv(hamiltonian(state))
    return alpha - state.constants.c * state.p[j - 1] * h_inv


def evolution_operator(state: MomentumState, t: float) -> np.ndarray:
    """exp(-i H t / hbar)."""
    h = hamiltonian(state)
    return mat_exp(-1j * t / state.constants.hbar * h)


def alpha_evolved_oracle(state: MomentumState, j: int, t: float) -> np.ndarray:
    """Brute-force Heisenberg velocity direction: U(t)^dag alpha_j U(t)."""
    if j not in (1, 2, 3):
        raise DomainError(f"axis must be 1, 2 or 3, got {j!r}")
    alpha = dirac_generator(GeneratorKind(j), state.rep)
    u = evolution_operator(state, t)
    return u.conj().T @ alpha @ u


@dataclass(frozen=True)
class ClosedFormPosition:
    """Matrix-valued drift and oscillation of the position displacement."""

    drift_matrix: np.ndarray
    zbw_matrix: np.ndarray


def zbw_closed_form(state: MomentumState, j: int, t: float) -> ClosedFormPosition:
    """Drift and oscillatory matrices of r_j(t) - r_j(0).

    d/dt (drift + zbw) reproduces C * alpha_evolved_oracle(state, j, t);
    the additive constant is fixed so both terms vanish at t = 0.  H is
    inverted directly: cond_2(H) = 1 (see eta_matrix).
    """
    k = state.constants
    h = hamiltonian(state)
    h_inv = np.linalg.inv(h)
    drift = t * k.c**2 * state.p[j - 1] * h_inv
    eta = eta_matrix(state, j)
    osc = mat_exp(-2j * t / k.hbar * h)
    zbw = 0.5j * k.c * k.hbar * (eta @ h_inv @ (osc - identity(4)))
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
# this many rows at a time, which bounds their temporaries (complex phase
# tables, Python floats) however many times are asked for.
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


def _eigenbasis(state: MomentumState):
    h = hamiltonian(state)
    w, v = np.linalg.eigh(h)
    return w, v


def zbw_trajectory(state: MomentumState, psi, times) -> Trajectory:
    """Expectation trajectory of the closed-form position displacement.

    psi must be normalized; times strictly increasing.  Works in the energy
    eigenbasis so long windows stay cheap.  drift and zbw expectations are
    mathematically real; imaginary residue beyond 1e-10 aborts.  Returns one
    Trajectory of arrays, one row per time.
    """
    psi = require_normalized(psi)
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size == 0:
        raise DomainError("times must be non-empty")
    if times.size > 1 and not np.all(np.diff(times) > 0.0):
        raise DomainError("times must be strictly increasing")
    k = state.constants
    w, v = _eigenbasis(state)
    coeff = v.conj().T @ psi
    inv_w = 1.0 / w
    h_inv = (v * inv_w) @ v.conj().T
    drift_rate = np.array([
        k.c**2 * state.p[j] * float(np.real(np.sum(np.abs(coeff) ** 2 * inv_w)))
        for j in range(3)
    ])
    # g[j, b] collapses <psi| M_j exp(-2 i H t / hbar) |psi> to a phase sum
    g = np.empty((3, 4), dtype=complex)
    for j in (1, 2, 3):
        m = 0.5j * k.c * k.hbar * (eta_matrix(state, j) @ h_inv)
        m_eig = v.conj().T @ m @ v
        g[j - 1] = coeff.conj() @ m_eig * coeff
    g_sum = np.sum(g, axis=1)
    zbw = np.empty((times.size, 3))
    for rows in _row_blocks(times.size):
        phases = np.exp(-2j * np.outer(times[rows], w) / k.hbar)  # (rows, 4)
        zbw_c = phases @ g.T - g_sum  # (rows, 3)
        if float(np.max(np.abs(zbw_c.imag))) > 1e-10:
            raise ArithmeticError("zbw expectation grew a non-real part")
        zbw[rows] = zbw_c.real
    drift = times[:, None] * drift_rate
    return Trajectory(t=times.copy(), drift=drift, zbw=zbw, total=drift + zbw)


def max_mixing_state(state: MomentumState, axis=(0.0, 0.0)) -> np.ndarray:
    """Equal-weight superposition of the two energy signs (same spin label)."""
    plus = eigenspinor(state, 1, "up", axis)
    minus = eigenspinor(state, -1, "up", axis)
    return (plus + minus) / math.sqrt(2.0)


def velocity_signal(state: MomentumState, psi, times) -> np.ndarray:
    """Oracle velocity expectations C <psi| U^dag alpha_j U |psi>.

    Pure conjugation route, vectorized over times in the energy eigenbasis.
    Returns an (ntimes, 3) real array.
    """
    psi = require_normalized(psi)
    times = np.asarray(times, dtype=float).reshape(-1)
    k = state.constants
    w, v = _eigenbasis(state)
    coeff = v.conj().T @ psi
    freq = (w[:, None] - w[None, :]) / k.hbar  # (a, b)
    weights = []  # (a, b) per axis
    for j in (1, 2, 3):
        alpha = dirac_generator(GeneratorKind(j), state.rep)
        a_eig = v.conj().T @ alpha @ v
        weights.append(np.outer(coeff.conj(), coeff) * a_eig)
    out = np.empty((times.size, 3))
    for rows in _row_blocks(times.size):
        phase = np.exp(1j * np.einsum("t,ab->tab", times[rows], freq))
        for j, weight in enumerate(weights):
            vals = k.c * np.einsum("tab,ab->t", phase, weight)
            if float(np.max(np.abs(vals.imag))) > 1e-10:
                raise ArithmeticError("velocity expectation grew a non-real part")
            out[rows, j] = vals.real
    return out


def fit_dominant_frequency(times, signal) -> float:
    """Angular frequency of the strongest nonzero line, by windowed FFT.

    Uniform sampling assumed.  Hann window plus parabolic interpolation of
    the log-magnitude peak.  Returns 0.0 for a flat signal.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    x = np.asarray(signal, dtype=float).reshape(-1)
    if times.size != x.size or times.size < 8:
        raise DomainError("need at least 8 uniformly spaced samples")
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt, rtol=1e-9, atol=0.0):
        raise DomainError("samples must be uniformly spaced")
    y = x - x.mean()
    if float(np.max(np.abs(y))) < 1e-300:
        return 0.0
    spec = np.abs(np.fft.rfft(y * np.hanning(times.size)))
    if spec.size < 3:
        return 0.0
    kpk = int(np.argmax(spec[1:]) + 1)
    delta = 0.0
    if 1 <= kpk < spec.size - 1 and spec[kpk - 1] > 0 and spec[kpk + 1] > 0:
        la, lb, lc = np.log(spec[kpk - 1]), np.log(spec[kpk]), np.log(spec[kpk + 1])
        denom = la - 2.0 * lb + lc
        if denom != 0.0:
            delta = 0.5 * (la - lc) / denom
    return 2.0 * math.pi * (kpk + delta) / (times.size * dt)


def fitted_zbw_frequency(state: MomentumState, psi=None, n_samples: int = 10000,
                         periods: int = 64) -> float:
    """FFT-fitted oscillation frequency of the oracle velocity signal."""
    k = state.constants
    expected = 2.0 * state.energy / k.hbar
    window = periods * 2.0 * math.pi / expected
    times = np.linspace(0.0, window, n_samples, endpoint=False)
    if psi is None:
        psi = max_mixing_state(state)
    signal = velocity_signal(state, psi, times)
    amps = signal.max(axis=0) - signal.min(axis=0)
    axis = int(np.argmax(amps))
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


def write_trajectory_csv(trajectory: Trajectory, fh) -> None:
    """CSV with a fixed header and 15-significant-digit cells."""
    fh.write(TRAJECTORY_HEADER + "\n")
    row = ",".join(["%.15g"] * 10) + "\n"
    for rows in _row_blocks(len(trajectory)):
        chunk = np.column_stack((trajectory.t[rows], trajectory.drift[rows],
                                 trajectory.zbw[rows], trajectory.total[rows]))
        fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))
    _release_freed_heap()
