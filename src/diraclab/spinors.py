"""Four-component states, residual evaluators and angular-momentum labels.

The four coupled component equations are evaluated exactly as the check
catalogue prints them, in Cartesian and in cylindrical coordinates, so a
candidate state can be tested against the full system or against its
two-component split without rearranging anything by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError
from .matrices import pauli

BRANCH_PLUS = "l+1/2"
BRANCH_MINUS = "l-1/2"


def as_spinor(values) -> np.ndarray:
    psi = np.asarray(values, dtype=complex).reshape(-1)
    if psi.shape != (4,):
        raise DomainError(f"spinor must have 4 components, got shape {psi.shape}")
    if not np.isfinite(psi).all():
        raise DomainError("spinor has non-finite components")
    return psi


def spinor_norm(psi) -> float:
    return float(np.linalg.norm(as_spinor(psi)))


def require_normalized(psi) -> np.ndarray:
    psi = as_spinor(psi)
    n = float(np.linalg.norm(psi))
    if abs(n**2 - 1.0) > 1e-12:
        raise DomainError(f"state is not normalized: |psi|^2 = {n**2!r}")
    return psi


@dataclass(frozen=True)
class BispinorSplit:
    """Upper and lower component pairs of a four-component state."""

    upper: np.ndarray
    lower: np.ndarray


def split_bispinor(psi) -> BispinorSplit:
    psi = as_spinor(psi)
    return BispinorSplit(upper=psi[:2].copy(), lower=psi[2:].copy())


def recompose(split: BispinorSplit) -> np.ndarray:
    return np.concatenate([split.upper, split.lower]).astype(complex)


@dataclass(frozen=True)
class FieldSample:
    """State value and first partial derivatives at one spacetime point."""

    psi: np.ndarray
    d_t: np.ndarray
    d_x: np.ndarray
    d_y: np.ndarray
    d_z: np.ndarray

    def __post_init__(self):
        for name in ("psi", "d_t", "d_x", "d_y", "d_z"):
            v = getattr(self, name)
            if v is None:
                raise DomainError(f"missing derivative data: {name}")
            object.__setattr__(self, name, as_spinor(v))


@dataclass(frozen=True)
class CylindricalSample:
    """State value and cylindrical partial derivatives at one point."""

    psi: np.ndarray
    d_t: np.ndarray
    d_rho: np.ndarray
    d_phi: np.ndarray
    d_z: np.ndarray

    def __post_init__(self):
        for name in ("psi", "d_t", "d_rho", "d_phi", "d_z"):
            v = getattr(self, name)
            if v is None:
                raise DomainError(f"missing derivative data: {name}")
            object.__setattr__(self, name, as_spinor(v))


@dataclass(frozen=True)
class PlaneWave:
    """amplitude * exp(i p.r / hbar - i omega t) with constant amplitude.

    amplitude and p are kept as read-only copies, so the caller's arrays may
    change later without moving the wave.
    """

    amplitude: np.ndarray
    p: np.ndarray
    omega: float
    constants: PhysicalConstants

    def __post_init__(self):
        amplitude = as_spinor(self.amplitude).copy()
        amplitude.setflags(write=False)
        object.__setattr__(self, "amplitude", amplitude)
        p = np.array(self.p, dtype=float).reshape(-1)
        if p.shape != (3,) or not np.isfinite(p).all():
            raise DomainError(f"momentum must be 3 finite reals, got {self.p!r}")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)
        if not math.isfinite(self.omega):
            raise DomainError("omega must be finite")

    def phase(self, x, y, z, t) -> complex:
        hbar = self.constants.hbar
        return np.exp(
            1j * (self.p[0] * x + self.p[1] * y + self.p[2] * z) / hbar
            - 1j * self.omega * t
        )

    def sample(self, x, y, z, t) -> FieldSample:
        hbar = self.constants.hbar
        psi = self.amplitude * self.phase(x, y, z, t)
        return FieldSample(
            psi=psi,
            d_t=-1j * self.omega * psi,
            d_x=1j * self.p[0] / hbar * psi,
            d_y=1j * self.p[1] / hbar * psi,
            d_z=1j * self.p[2] / hbar * psi,
        )


@dataclass(frozen=True)
class CylindricalPlaneWave:
    """Cartesian plane wave re-expressed in cylindrical coordinates."""

    wave: PlaneWave

    @property
    def constants(self) -> PhysicalConstants:
        return self.wave.constants

    def sample_cyl(self, rho, phi, z, t) -> CylindricalSample:
        x = rho * math.cos(phi)
        y = rho * math.sin(phi)
        s = self.wave.sample(x, y, z, t)
        d_rho = math.cos(phi) * s.d_x + math.sin(phi) * s.d_y
        d_phi = -rho * math.sin(phi) * s.d_x + rho * math.cos(phi) * s.d_y
        return CylindricalSample(psi=s.psi, d_t=s.d_t, d_rho=d_rho, d_phi=d_phi, d_z=s.d_z)


def sigma_dot(p) -> np.ndarray:
    """2x2 contraction sigma_j p_j."""
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.shape != (3,):
        raise DomainError(f"need 3 momentum components, got shape {p.shape}")
    return p[0] * pauli(1) + p[1] * pauli(2) + p[2] * pauli(3)


def coupled_residual(wave: PlaneWave):
    """Residuals of the two-component split equations for a plane wave.

    Returns (upper residual, lower residual); both vanish exactly when the
    amplitude is an energy eigenvector and hbar*omega matches that energy.
    """
    k = wave.constants
    split = split_bispinor(wave.amplitude)
    sp = sigma_dot(wave.p)
    mc2 = k.mass * k.c**2
    e = k.hbar * wave.omega
    r_upper = e * split.upper - k.c * (sp @ split.lower) - mc2 * split.upper
    r_lower = e * split.lower - k.c * (sp @ split.upper) + mc2 * split.lower
    return r_upper, r_lower


def component_residual(field, points) -> np.ndarray:
    """Residuals of the four scalar component equations at each point.

    field must provide .sample(x, y, z, t) -> FieldSample and .constants.
    Returns an (npoints, 4) complex array; each row is LHS - RHS of the
    four printed equations.
    """
    k = field.constants
    ih = 1j * k.hbar
    ihc = 1j * k.hbar * k.c
    mc2 = k.mass * k.c**2
    rows = []
    for (x, y, z, t) in points:
        s = field.sample(x, y, z, t)
        r1 = ih * s.d_t[0] + ihc * (s.d_x[3] - 1j * s.d_y[3] + s.d_z[2]) - mc2 * s.psi[0]
        r2 = ih * s.d_t[1] + ihc * (s.d_x[2] + 1j * s.d_y[2] - s.d_z[3]) - mc2 * s.psi[1]
        r3 = ih * s.d_t[2] + ihc * (s.d_x[1] - 1j * s.d_y[1] + s.d_z[0]) + mc2 * s.psi[2]
        r4 = ih * s.d_t[3] + ihc * (s.d_x[0] + 1j * s.d_y[0] - s.d_z[1]) + mc2 * s.psi[3]
        rows.append([r1, r2, r3, r4])
    return np.array(rows, dtype=complex)


def cylindrical_residual(field, points) -> np.ndarray:
    """Residuals of the cylindrical-coordinate component equations.

    field must provide .sample_cyl(rho, phi, z, t) -> CylindricalSample and
    .constants.  points are (rho, phi, z, t) tuples with rho > 0; rho = 0
    sits on the coordinate singularity and is rejected.
    """
    k = field.constants
    ih = 1j * k.hbar
    ihc = 1j * k.hbar * k.c
    mc2 = k.mass * k.c**2
    rows = []
    for (rho, phi, z, t) in points:
        if rho <= 0.0:
            raise DomainError(f"rho must be > 0, got {rho!r}")
        s = field.sample_cyl(rho, phi, z, t)
        em = np.exp(-1j * phi)
        ep = np.exp(1j * phi)
        t1 = em * (s.d_rho[3] - 1j / rho * s.d_phi[3]) + s.d_z[2]
        t2 = ep * (s.d_rho[2] + 1j / rho * s.d_phi[2]) - s.d_z[3]
        t3 = em * (s.d_rho[1] - 1j / rho * s.d_phi[1]) + s.d_z[0]
        t4 = ep * (s.d_rho[0] + 1j / rho * s.d_phi[0]) - s.d_z[1]
        r1 = ih * s.d_t[0] + ihc * t1 - mc2 * s.psi[0]
        r2 = ih * s.d_t[1] + ihc * t2 - mc2 * s.psi[1]
        r3 = ih * s.d_t[2] + ihc * t3 + mc2 * s.psi[2]
        r4 = ih * s.d_t[3] + ihc * t4 + mc2 * s.psi[3]
        rows.append([r1, r2, r3, r4])
    return np.array(rows, dtype=complex)


def spin_coherent_state(theta: float, phi_s: float) -> np.ndarray:
    """Two-component unit spinor pointing along (theta, phi_s)."""
    if not (math.isfinite(theta) and math.isfinite(phi_s)):
        raise DomainError("angles must be finite")
    return np.array(
        [math.cos(theta / 2.0), np.exp(1j * phi_s) * math.sin(theta / 2.0)],
        dtype=complex,
    )


def spin_coherent_expectation(theta: float, phi_s: float) -> np.ndarray:
    """<sigma_j> in the coherent state, computed as a matrix expectation."""
    v = spin_coherent_state(theta, phi_s)
    out = np.empty(3)
    for j in (1, 2, 3):
        val = complex(v.conj() @ (pauli(j) @ v))
        out[j - 1] = val.real
    return out


# --- cylindrical angular families ------------------------------------------

def _unit_profile(rho, z):
    return 1.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j


def _gaussian_profile(rho, z):
    f = np.exp(-0.5 * (rho**2 + z**2))
    return f, -rho * f, -z * f


def _zwave_profile(rho, z):
    f = np.exp(1j * z)
    return f, 0.0 + 0.0j, 1j * f


PROFILES = {
    "unit": _unit_profile,
    "gaussian": _gaussian_profile,
    "zwave": _zwave_profile,
}


@dataclass(frozen=True)
class CylindricalSpinor:
    """Separable test state psi_k = w_k f_k(rho, z) exp(i l_k phi - i omega t).

    angular_indices carries one integer exponent per component.  branch and
    l tag states built by angular_eigenstate; hand-built index patterns
    leave them None.
    """

    angular_indices: tuple
    branch: str | None = None
    l: int | None = None
    amplitude: float = 1.0
    weights: tuple = (1.0, 1.0, 1.0, 1.0)
    profile_refs: tuple = ("unit", "unit", "unit", "unit")
    omega: float = 0.0
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self):
        idx = tuple(int(v) for v in self.angular_indices)
        if len(idx) != 4:
            raise DomainError("angular_indices must have 4 entries")
        object.__setattr__(self, "angular_indices", idx)
        if len(self.weights) != 4:
            raise DomainError("weights must have 4 entries")
        object.__setattr__(self, "weights", tuple(complex(w) for w in self.weights))
        refs = tuple(self.profile_refs)
        if len(refs) != 4:
            raise DomainError("profile_refs must have 4 entries")
        for ref in refs:
            if ref not in PROFILES:
                raise DomainError(f"unknown profile_ref {ref!r}")
        object.__setattr__(self, "profile_refs", refs)

    def sample_cyl(self, rho, phi, z, t) -> CylindricalSample:
        psi = np.zeros(4, dtype=complex)
        d_rho = np.zeros(4, dtype=complex)
        d_phi = np.zeros(4, dtype=complex)
        d_z = np.zeros(4, dtype=complex)
        tfac = np.exp(-1j * self.omega * t)
        for k in range(4):
            f, df_rho, df_z = PROFILES[self.profile_refs[k]](rho, z)
            base = self.amplitude * self.weights[k] * np.exp(1j * self.angular_indices[k] * phi) * tfac
            psi[k] = base * f
            d_rho[k] = base * df_rho
            d_phi[k] = 1j * self.angular_indices[k] * psi[k]
            d_z[k] = base * df_z
        return CylindricalSample(psi=psi, d_t=-1j * self.omega * psi, d_rho=d_rho, d_phi=d_phi, d_z=d_z)


def angular_eigenstate(l: int, branch: str, **kw) -> CylindricalSpinor:
    """Angular index family for one total-angular-momentum branch.

    branch "l+1/2" uses exponents (l, l+1, l, l+1); branch "l-1/2" uses
    (l-1, l, l-1, l).
    """
    if not isinstance(l, int):
        raise DomainError(f"l must be an integer, got {l!r}")
    if branch == BRANCH_PLUS:
        idx = (l, l + 1, l, l + 1)
    elif branch == BRANCH_MINUS:
        idx = (l - 1, l, l - 1, l)
    else:
        raise DomainError(f"branch must be {BRANCH_PLUS!r} or {BRANCH_MINUS!r}, got {branch!r}")
    return CylindricalSpinor(angular_indices=idx, branch=branch, l=l, **kw)


@dataclass(frozen=True)
class JzResult:
    is_eigenstate: bool
    eigenvalue: float | None
    component_values: tuple


def jz_apply(cyl: CylindricalSpinor, constants: PhysicalConstants) -> JzResult:
    """Apply the axial angular momentum operator -i hbar d/dphi + (hbar/2) Sigma_z.

    Each component k picks up hbar * (l_k + s_k / 2) with s = (+1,-1,+1,-1).
    If the four values coincide the state is an eigenstate with that
    eigenvalue; otherwise it is reported as not an eigenstate (no error).
    """
    s = (1, -1, 1, -1)
    doubled = [2 * lk + sk for lk, sk in zip(cyl.angular_indices, s)]
    values = tuple(constants.hbar * d / 2.0 for d in doubled)
    if all(d == doubled[0] for d in doubled):
        return JzResult(is_eigenstate=True, eigenvalue=values[0], component_values=values)
    return JzResult(is_eigenstate=False, eigenvalue=None, component_values=values)

