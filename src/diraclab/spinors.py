"""Four-component states, residual evaluators and angular-momentum labels.

The four coupled component equations are evaluated exactly as the check
catalogue prints them, in Cartesian and in cylindrical coordinates, so a
candidate state can be tested against the full system or against its
two-component split without rearranging anything by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import PhysicalConstants
from .errors import DomainError, is_integer, number_array, real
from .matrices import PAULI_STACK, _read_only, complex_product

BRANCH_PLUS = "l+1/2"
BRANCH_MINUS = "l-1/2"


def spinor_rows(values) -> np.ndarray:
    """values as a complex spinor (4,) or stack (..., 4), checked whole at once
    (errors.number_array): a misshapen or non-finite row anywhere is refused."""
    return number_array(values, "spinor", "iufc", width=4)


def require_normalized(psi) -> np.ndarray:
    """psi, one spinor or a stack of them, each with |psi|^2 within 1e-12 of 1."""
    psi = spinor_rows(psi)
    norm_sq = np.square(np.abs(psi)).sum(axis=-1)
    off = np.abs(norm_sq - 1.0) > 1e-12
    if off.any():
        raise DomainError(f"state is not normalized: |psi|^2 = {float(norm_sq[off].flat[0])!r}")
    return psi


@dataclass(frozen=True)
class BispinorSplit:
    """Upper and lower component pairs of a four-component state."""

    upper: np.ndarray
    lower: np.ndarray


def split_bispinor(psi) -> BispinorSplit:
    """(upper, lower) pairs of one spinor or of each row of a stack."""
    psi = spinor_rows(psi)
    return BispinorSplit(upper=psi[..., :2].copy(), lower=psi[..., 2:].copy())


def recompose(split: BispinorSplit) -> np.ndarray:
    return np.concatenate([split.upper, split.lower], axis=-1).astype(complex)


def _coordinates(*coords) -> tuple:
    """Equal-shaped finite float arrays, one per coordinate; scalars are shape ()."""
    return tuple(map(np.asarray, number_array(coords, "coordinates of one shape")))


def _point_columns(points) -> tuple:
    """The four coordinate arrays of a (..., 4) table of finite points."""
    table = number_array(points, "points", width=4)
    if table.ndim < 2:
        raise DomainError(f"points must have shape (npoints, 4), got {table.shape}")
    return tuple(np.moveaxis(table, -1, 0))


def _by_component(*stacks) -> tuple:
    """Views of (..., 4) stacks with the component axis first: a[k] is
    component k at every point."""
    return tuple(np.moveaxis(a, -1, 0) for a in stacks)


def _validated(sample, names: tuple):
    """Check a sample's stacks at once: numbers, one shape, 4 components, finite."""
    stacks = number_array([getattr(sample, name) for name in names], "sample stacks", "iufc", 4)
    for name, v in zip(names, stacks):
        object.__setattr__(sample, name, v)


@dataclass(frozen=True)
class FieldSample:
    """State value and first partial derivatives at one spacetime point, or
    at a stack of points: every field then has shape (..., 4)."""

    psi: np.ndarray
    d_t: np.ndarray
    d_x: np.ndarray
    d_y: np.ndarray
    d_z: np.ndarray

    def __post_init__(self):
        _validated(self, ("psi", "d_t", "d_x", "d_y", "d_z"))


@dataclass(frozen=True)
class CylindricalSample:
    """State value and cylindrical partial derivatives at one point, or at a
    stack of points: every field then has shape (..., 4)."""

    psi: np.ndarray
    d_t: np.ndarray
    d_rho: np.ndarray
    d_phi: np.ndarray
    d_z: np.ndarray

    def __post_init__(self):
        _validated(self, ("psi", "d_t", "d_rho", "d_phi", "d_z"))


@dataclass(frozen=True)
class PlaneWave:
    """amplitude * exp(i p.r / hbar - i omega t) with constant amplitude.

    amplitude (..., 4), p (..., 3) and omega (...) may carry leading axes: a
    stack of waves, whose leading shape broadcasts against the coordinates
    it is sampled at (a wave of shape (n, 1) at points of shape (n, m)
    samples wave i at row i of the points).  amplitude, p and an array
    omega are kept as read-only copies, so the caller's arrays may change
    later without moving the wave.
    """

    amplitude: np.ndarray
    p: np.ndarray
    omega: float
    constants: PhysicalConstants

    def __post_init__(self):
        object.__setattr__(self, "amplitude", _read_only(spinor_rows(self.amplitude).copy()))
        p = number_array(self.p, "momentum", width=3)
        object.__setattr__(self, "p", _read_only(np.array(p)))
        omega = number_array(self.omega, "omega")
        object.__setattr__(self, "omega", _read_only(omega.copy()) if omega.ndim else float(omega))

    def phase(self, x, y, z, t) -> np.ndarray:
        """The phase factor at equal-shaped coordinates (scalars or arrays)."""
        x, y, z, t = _coordinates(x, y, z, t)
        p = self.p
        arg = (p[..., 0] * x + p[..., 1] * y + p[..., 2] * z) / self.constants.hbar
        return np.exp(1j * (arg - self.omega * t))

    def sample(self, x, y, z, t) -> FieldSample:
        """Value and derivatives at equal-shaped coordinates: scalars give
        (4,) spinors, arrays of shape S give (*S, 4) stacks."""
        psi = self.amplitude * self.phase(x, y, z, t)[..., None]
        # i p_j / hbar and -i omega: the parts of the scalar 1j * p_j / hbar
        # and -1j * omega, both purely imaginary, so every product is exact
        i_p = 1j * (self.p / self.constants.hbar)
        return FieldSample(
            psi=psi,
            d_t=(-1j * np.asarray(self.omega))[..., None] * psi,
            d_x=i_p[..., 0:1] * psi,
            d_y=i_p[..., 1:2] * psi,
            d_z=i_p[..., 2:3] * psi,
        )


@dataclass(frozen=True)
class CylindricalPlaneWave:
    """Cartesian plane wave re-expressed in cylindrical coordinates."""

    wave: PlaneWave

    @property
    def constants(self) -> PhysicalConstants:
        return self.wave.constants

    def sample_cyl(self, rho, phi, z, t) -> CylindricalSample:
        """Value and cylindrical derivatives at equal-shaped coordinates."""
        rho, phi, z, t = _coordinates(rho, phi, z, t)
        cos, sin = np.cos(phi), np.sin(phi)
        s = self.wave.sample(rho * cos, rho * sin, z, t)
        rho, cos, sin = rho[..., None], cos[..., None], sin[..., None]
        d_rho = cos * s.d_x + sin * s.d_y
        d_phi = -rho * sin * s.d_x + rho * cos * s.d_y
        return CylindricalSample(psi=s.psi, d_t=s.d_t, d_rho=d_rho, d_phi=d_phi, d_z=s.d_z)


def sigma_dot(p) -> np.ndarray:
    """2x2 contraction sigma_j p_j, of one momentum (3,) or a stack (..., 3)."""
    p = number_array(p, "momentum", width=3)
    # each product is exact and each entry sums disjoint parts, so any
    # summation order gives the same bits
    return np.tensordot(p, PAULI_STACK, axes=1)


def coupled_residual(wave: PlaneWave):
    """Residuals of the two-component split equations for a plane wave, or
    for each wave of a stack.

    Returns (upper residual, lower residual), each of shape (..., 2); both
    vanish exactly when the amplitude is an energy eigenvector and
    hbar*omega matches that energy.
    """
    k = wave.constants
    split = split_bispinor(wave.amplitude)
    sp = sigma_dot(wave.p)
    mc2 = k.mass * k.c**2
    e = (k.hbar * np.asarray(wave.omega))[..., None]
    r_upper = e * split.upper - k.c * (sp @ split.lower[..., None])[..., 0] - mc2 * split.upper
    r_lower = e * split.lower - k.c * (sp @ split.upper[..., None])[..., 0] + mc2 * split.lower
    return r_upper, r_lower


def component_residual(field, points) -> np.ndarray:
    """Residuals of the four scalar component equations at each point.

    points is a table of (x, y, z, t) rows, of shape (npoints, 4) or, more
    generally, (..., 4).  field must provide .constants and
    .sample(x, y, z, t), which is called once, with the four coordinate
    columns as equal-shaped arrays of the table's leading shape, and must
    return a FieldSample whose fields are stacks of that shape plus a last
    axis of 4 (row i is the sample at point i).  Returns a complex array of
    the table's shape; each row is LHS - RHS of the four printed equations.
    """
    k = field.constants
    ih = 1j * k.hbar
    ihc = 1j * k.hbar * k.c
    mc2 = k.mass * k.c**2
    s = field.sample(*_point_columns(points))
    d_t, d_x, d_y, d_z, psi = _by_component(s.d_t, s.d_x, s.d_y, s.d_z, s.psi)
    r1 = ih * d_t[0] + ihc * (d_x[3] - 1j * d_y[3] + d_z[2]) - mc2 * psi[0]
    r2 = ih * d_t[1] + ihc * (d_x[2] + 1j * d_y[2] - d_z[3]) - mc2 * psi[1]
    r3 = ih * d_t[2] + ihc * (d_x[1] - 1j * d_y[1] + d_z[0]) + mc2 * psi[2]
    r4 = ih * d_t[3] + ihc * (d_x[0] + 1j * d_y[0] - d_z[1]) + mc2 * psi[3]
    return np.stack([r1, r2, r3, r4], axis=-1)


def cylindrical_residual(field, points) -> np.ndarray:
    """Residuals of the cylindrical-coordinate component equations.

    points is a table of (rho, phi, z, t) rows with rho > 0, of shape
    (npoints, 4) or (..., 4); rho = 0 sits on the coordinate singularity
    and is rejected.  field must provide .constants and
    .sample_cyl(rho, phi, z, t), which is called once, with the four
    coordinate columns as equal-shaped arrays of the table's leading shape,
    and must return a CylindricalSample whose fields are stacks of that
    shape plus a last axis of 4.  Returns a complex array of the table's
    shape, one row of residuals per point.
    """
    k = field.constants
    ih = 1j * k.hbar
    ihc = 1j * k.hbar * k.c
    mc2 = k.mass * k.c**2
    rho, phi, z, t = _point_columns(points)
    if not (rho > 0.0).all():
        raise DomainError(f"rho must be > 0, got {float(rho[~(rho > 0.0)][0])!r}")
    s = field.sample_cyl(rho, phi, z, t)
    d_t, d_rho, d_phi, d_z, psi = _by_component(s.d_t, s.d_rho, s.d_phi, s.d_z, s.psi)
    em = np.exp(-1j * phi)
    ep = np.exp(1j * phi)
    i_rho = 1j * (1.0 / rho)  # the parts of the scalar 1j / rho
    t1 = complex_product(em, d_rho[3] - i_rho * d_phi[3]) + d_z[2]
    t2 = complex_product(ep, d_rho[2] + i_rho * d_phi[2]) - d_z[3]
    t3 = complex_product(em, d_rho[1] - i_rho * d_phi[1]) + d_z[0]
    t4 = complex_product(ep, d_rho[0] + i_rho * d_phi[0]) - d_z[1]
    r1 = ih * d_t[0] + ihc * t1 - mc2 * psi[0]
    r2 = ih * d_t[1] + ihc * t2 - mc2 * psi[1]
    r3 = ih * d_t[2] + ihc * t3 + mc2 * psi[2]
    r4 = ih * d_t[3] + ihc * t4 + mc2 * psi[3]
    return np.stack([r1, r2, r3, r4], axis=-1)


def spin_coherent_state(theta, phi_s) -> np.ndarray:
    """Two-component unit spinor pointing along (theta, phi_s).

    Equal-shaped arrays of angles give a (..., 2) stack, one spinor per pair.
    """
    theta, phi_s = _coordinates(theta, phi_s)
    v = np.empty(theta.shape + (2,), dtype=complex)
    v[..., 0] = np.cos(theta / 2.0)
    v[..., 1] = np.exp(1j * phi_s) * np.sin(theta / 2.0)
    return v


def spin_coherent_expectation(theta, phi_s) -> np.ndarray:
    """<sigma_j> in the coherent state, computed as a matrix expectation:
    (3,) for one direction, (..., 3) for equal-shaped arrays of angles."""
    v = spin_coherent_state(theta, phi_s)
    # one matrix-vector product and one dot product per spinor and sigma_j,
    # as for a single spinor, so a stack rounds like its rows
    sv = PAULI_STACK @ v[..., None, :, None]
    return (v.conj()[..., None, None, :] @ sv)[..., 0, 0].real


# --- cylindrical angular families ------------------------------------------
#
# A profile maps equal-shaped rho and z arrays to (f, df/drho, df/dz), each
# an array of that shape or a scalar.  rho^2 is np.float_power, the libm
# pow of a Python rho**2, which can differ from numpy's rho * rho in the
# last bit.

def _unit_profile(rho, z):
    return 1.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j


def _gaussian_profile(rho, z):
    f = np.exp(-0.5 * (np.float_power(rho, 2) + np.float_power(z, 2)))
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

    angular_indices carries one integer exponent per component (1.5 is
    refused, not truncated), weights four numbers and omega a real.
    """

    angular_indices: tuple
    weights: tuple = (1.0, 1.0, 1.0, 1.0)
    profile_refs: tuple = ("unit", "unit", "unit", "unit")
    omega: float = 0.0
    constants: PhysicalConstants = field(default_factory=PhysicalConstants)

    def __post_init__(self):
        for name, kinds in (("angular_indices", "iu"), ("weights", "iufc")):
            values = number_array(getattr(self, name), name, kinds)
            if values.shape != (4,):
                raise DomainError(f"{name} must have 4 entries, got shape {values.shape}")
            object.__setattr__(self, name, tuple(values.tolist()))
        object.__setattr__(self, "omega", real(self.omega, "omega"))
        refs = tuple(self.profile_refs)
        if len(refs) != 4 or not all(ref in PROFILES for ref in refs):
            raise DomainError(f"profile_refs must be 4 of {list(PROFILES)}, got {refs!r}")
        object.__setattr__(self, "profile_refs", refs)

    def sample_cyl(self, rho, phi, z, t) -> CylindricalSample:
        """Value and cylindrical derivatives at equal-shaped coordinates:
        scalars give (4,) spinors, arrays of shape S give (*S, 4) stacks."""
        return sample_separable(self.angular_indices, self.weights, self.omega,
                                rho, phi, z, t, profile_refs=self.profile_refs)


def sample_separable(indices, weights, omega, rho, phi, z, t, *,
                     profile_refs=("unit", "unit", "unit", "unit")) -> CylindricalSample:
    """Samples of separable states w_k f_k(rho, z) exp(i l_k phi - i omega t).

    The stacked kernel of CylindricalSpinor.sample_cyl: indices (..., 4)
    integer exponents, weights (..., 4) and omega (...) describe one state
    or a stack of states whose leading shape broadcasts against the
    equal-shaped coordinates, so one call samples a whole family; the four
    profile_refs are shared.  Every product of two general complex factors
    is rounded as the scalar product (complex_product).
    """
    rho, phi, z, t = _coordinates(rho, phi, z, t)
    l = np.asarray(indices, dtype=float)
    omega = np.asarray(omega, dtype=float)
    refs = tuple(profile_refs)
    profile = np.empty((3,) + rho.shape + (4,), dtype=complex)  # f, df/drho, df/dz
    for ref in dict.fromkeys(refs):
        cols = [k for k, r in enumerate(refs) if r == ref]
        for out, v in zip(profile, PROFILES[ref](rho, z)):
            out[..., cols] = np.asarray(v)[..., None]
    angular = np.exp(1j * (l * phi[..., None]))
    tfac = np.exp((-1j * omega) * t)[..., None]
    base = complex_product(complex_product(np.asarray(weights, dtype=complex), angular), tfac)
    psi, d_rho, d_z = (complex_product(base, v) for v in profile)
    return CylindricalSample(psi=psi, d_t=(-1j * omega)[..., None] * psi, d_rho=d_rho,
                             d_phi=(1j * l) * psi, d_z=d_z)


def angular_eigenstate(l: int, branch: str, **kw) -> CylindricalSpinor:
    """Angular index family for one total-angular-momentum branch.

    branch "l+1/2" uses exponents (l, l+1, l, l+1); branch "l-1/2" uses
    (l-1, l, l-1, l).
    """
    if not is_integer(l):
        raise DomainError(f"l must be an integer, got {l!r}")
    if branch == BRANCH_PLUS:
        idx = (l, l + 1, l, l + 1)
    elif branch == BRANCH_MINUS:
        idx = (l - 1, l, l - 1, l)
    else:
        raise DomainError(f"branch must be {BRANCH_PLUS!r} or {BRANCH_MINUS!r}, got {branch!r}")
    return CylindricalSpinor(angular_indices=idx, **kw)


@dataclass(frozen=True)
class JzResult:
    is_eigenstate: bool
    eigenvalue: float | None
    component_values: tuple


def jz_apply(cyl: CylindricalSpinor) -> JzResult:
    """Apply the axial angular momentum operator -i hbar d/dphi + (hbar/2) Sigma_z.

    Each component k picks up hbar * (l_k + s_k / 2) with s = (+1,-1,+1,-1)
    and hbar from cyl.constants.  If the four values coincide the state is
    an eigenstate with that eigenvalue; otherwise it is reported as not an
    eigenstate (no error).
    """
    s = (1, -1, 1, -1)
    doubled = [2 * lk + sk for lk, sk in zip(cyl.angular_indices, s)]
    values = tuple(cyl.constants.hbar * d / 2.0 for d in doubled)
    if all(d == doubled[0] for d in doubled):
        return JzResult(is_eigenstate=True, eigenvalue=values[0], component_values=values)
    return JzResult(is_eigenstate=False, eigenvalue=None, component_values=values)

