"""Discrete minimal coupling on a cubic grid and the commutator field probe.

Kinetic momentum components are applied with symmetric central differences
(no periodic wrap: boundary cells are marked invalid).  The extraction works
on the interior block, the n - 4 cells per axis two layers inside the box,
and walks it in slabs of whole planes along axis 0, each sized to stay near
an L2 cache.  A slab samples the mesh, the potentials, the expected
intensities and every test function on its own planes plus the one-cell halo
the stencils reach, finishes its estimates, error maxima and mean, and is
dropped before the next starts, so no full-grid complex temporary is ever
built.  Every cell sees the same operations in the same order whatever the
slab size, so the results are bit-identical to a single whole-block pass.
Commuting the discrete components and dividing out the test function
recovers the external intensities to second order in the spacing; the same
extraction run with caller-supplied exact derivatives recovers them to
rounding.

Sign bookkeeping, fixed once: the charge symbol is the positive magnitude
and the operators describe the electron (signed charge -e), so

    pi_j = -i hbar D_j + (e/C) A_j        pi_o = (1/C)(i hbar d/dt) + (e/C) phi

and the intensities are solved from [pi_j, pi_l] = -i hbar (e/C) eps_jlk H_k
and [pi_j, pi_o] = +i hbar (e/C) E_j.  With e read as the signed charge both
templates match the catalogue's printed form; this choice makes the uniform
field configuration come out as H = +B.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import PRESET_NAMES
from .constants import PhysicalConstants
from .errors import DomainError
from .fields import (
    MaxwellFields,
    ScalarField,
    VectorField3,
    classical_maxwell_reference,
    linear_scalar,
    symmetric_gauge,
    zero_scalar_field,
    zero_vector_field,
)

SIGN_CONVENTION = (
    "kinetic pi_j = -i hbar D_j + (e/C) A_j with e > 0; intensities solved from "
    "[pi_j, pi_l] = -i hbar (e/C) eps_jlk H_k and [pi_j, pi_o] = +i hbar (e/C) E_j "
    "(printed templates with e read as the electron's signed charge); "
    "uniform-field probe then reports H = +B"
)

AMPLITUDE_FLOOR = 1e-8


def _check_spacing(h) -> None:
    """A spacing the stencils can divide by: finite, > 0, and large enough
    that the mixed-difference denominator 4 h^2 is a normal float."""
    if not (isinstance(h, (int, float)) and math.isfinite(h) and h > 0):
        raise DomainError(f"grid spacing must be finite and > 0, got {h!r}")
    if 4.0 * h * h < sys.float_info.min:
        raise DomainError(f"grid spacing {h!r} is too small: the stencil denominator "
                          f"4 h^2 underflows")


@dataclass(frozen=True)
class Grid3:
    """Origin-centered cubic grid: n points per axis (odd, >= 9), spacing h."""

    n: int
    h: float

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 9 or self.n % 2 == 0:
            raise DomainError(f"grid size must be an odd integer >= 9, got {self.n!r}")
        _check_spacing(self.h)

    @property
    def axis(self) -> np.ndarray:
        half = (self.n - 1) // 2
        return (np.arange(self.n) - half) * self.h

    def meshgrid(self, planes: slice = slice(None), inset: int = 0):
        """Coordinates of the planes selected along axis 0, leaving out the
        inset outermost cells on each face of the other two axes."""
        ax = self.axis
        across = ax[inset:self.n - inset]
        return np.meshgrid(ax[planes], across, across, indexing="ij")

    def interior_mask(self, layers: int = 2) -> np.ndarray:
        mask = np.zeros((self.n,) * 3, dtype=bool)
        sl = slice(layers, self.n - layers)
        mask[sl, sl, sl] = True
        return mask


@dataclass(frozen=True)
class FieldConfig:
    """Potential pair plus the intensities they must reproduce.

    a_field components are polynomials of degree <= 2 in the presets;
    b_expected/e_expected are closed forms checked against the curl and
    gradient of (a_field, phi_field) before any lattice work happens.
    """

    name: str
    a_field: VectorField3
    phi_field: ScalarField
    b_expected: Callable  # (X, Y, Z) -> 3 arrays
    e_expected: Callable


def _const_expected(values):
    def expected(x, y, z):
        x = np.asarray(x, dtype=float)
        return tuple(np.full_like(x, v) for v in values)
    return expected


def make_preset(name: str, b0: float = 1.0, e0: float = 1.0) -> FieldConfig:
    if name == "uniform_b":
        return FieldConfig(
            name=name,
            a_field=symmetric_gauge(b0),
            phi_field=zero_scalar_field(),
            b_expected=_const_expected((0.0, 0.0, b0)),
            e_expected=_const_expected((0.0, 0.0, 0.0)),
        )
    if name == "linear_phi":
        return FieldConfig(
            name=name,
            a_field=zero_vector_field(),
            phi_field=linear_scalar(e0),
            b_expected=_const_expected((0.0, 0.0, 0.0)),
            e_expected=_const_expected((e0, 0.0, 0.0)),
        )
    if name == "zero":
        return FieldConfig(
            name=name,
            a_field=zero_vector_field(),
            phi_field=zero_scalar_field(),
            b_expected=_const_expected((0.0, 0.0, 0.0)),
            e_expected=_const_expected((0.0, 0.0, 0.0)),
        )
    raise DomainError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def validate_config(config: FieldConfig, grid: Grid3, constants: PhysicalConstants,
                    tol: float = 1e-12) -> float:
    """Expected intensities must match curl/gradient of the potentials.

    Returns the largest deviation found over the whole grid.
    """
    return _validated(config, grid, constants, tol)


def _validated(config, grid, constants, tol=1e-12):
    """validate_config, evaluated one slab of whole planes at a time.

    Each of the six components keeps its own running maximum (NaN wins, as
    in one np.max over the whole grid), so the result and the error text do
    not depend on the slab size.
    """
    running = np.zeros(6)
    for s0, s1 in _slabs(0, grid.n, grid.n * grid.n):
        x, y, z = grid.meshgrid(slice(s0, s1))
        ref = classical_maxwell_reference(config.a_field, config.phi_field, (x, y, z), 0.0,
                                          constants)
        b_want = config.b_expected(x, y, z)
        e_want = config.e_expected(x, y, z)
        slab = [np.max(np.abs(got[j] - want[j]))
                for j in range(3) for got, want in ((ref.h, b_want), (ref.e, e_want))]
        running = np.maximum(running, slab)
    worst = 0.0
    for top in running:
        worst = max(worst, float(top))
    if worst > tol:
        raise DomainError(
            f"config {config.name!r}: stored intensities deviate from the "
            f"potentials by {worst:.3e} (tol {tol:.1e})"
        )
    return worst


# Interior cells per slab of the extraction: two planes at n = 65, the whole
# block in one slab at n <= 17.  A complex array of this many cells is
# 128 KiB, so the few dozen a slab keeps alive stay within a small multiple
# of a 2 MiB L2 cache; 4096 to 32768 cells timed within noise of each other,
# and peak memory grows with the size.
_SLAB_CELLS = 8192


def _slabs(start: int, stop: int, plane_cells: int) -> list:
    """Consecutive (s0, s1) plane ranges covering [start, stop) along axis 0,
    each about _SLAB_CELLS cells and never less than one plane."""
    step = max(1, _SLAB_CELLS // plane_cells)
    return [(s0, min(s0 + step, stop)) for s0 in range(start, stop, step)]


def _shift(window: tuple, axis: int, step: int) -> tuple:
    """The basic-slice window moved by step cells along axis."""
    moved = list(window)
    moved[axis] = slice(window[axis].start + step, window[axis].stop + step)
    return tuple(moved)


def _central_difference(values: np.ndarray, axis: int, h: float, window: tuple) -> np.ndarray:
    """Central difference along axis on the cells window selects.

    window holds explicit slice bounds at least one cell inside the box
    along axis; the result has the window's shape.
    """
    return (values[_shift(window, axis, 1)] - values[_shift(window, axis, -1)]) / (2.0 * h)


def _mixed_difference(values: np.ndarray, axis_a: int, axis_b: int, h: float,
                      window: tuple) -> np.ndarray:
    """Symmetric 4-point mixed second difference D_a D_b (= D_b D_a exactly)."""

    def at(da: int, db: int):
        return values[_shift(_shift(window, axis_a, da), axis_b, db)]

    return (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4.0 * h * h)


def kinetic_momentum_apply(j: int, config: FieldConfig, grid: Grid3, psi,
                           constants: PhysicalConstants) -> np.ndarray:
    """(-i hbar D_j + (e/C) A_j) psi on the grid.

    psi must be sampled on the full grid.  Cells whose central difference
    would reach outside the box come back NaN.
    """
    if j not in (1, 2, 3):
        raise DomainError(f"axis must be 1, 2 or 3, got {j!r}")
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (grid.n,) * 3:
        raise DomainError(f"psi shape {psi.shape} does not match grid {(grid.n,)*3}")
    x, y, z = grid.meshgrid()
    a_vals = config.a_field.value(x, y, z, 0.0)
    k = constants
    valid = tuple(slice(1, grid.n - 1) if axis == j - 1 else slice(0, grid.n) for axis in range(3))
    deriv = np.full(psi.shape, np.nan + 0.0j, dtype=complex)
    deriv[valid] = _central_difference(psi, j - 1, grid.h, valid)
    return -1j * k.hbar * deriv + (k.charge / k.c) * a_vals[j - 1] * psi


@dataclass(frozen=True)
class TestField:
    """Smooth scalar probe with analytic derivatives for the exact path."""

    name: str
    values: Callable    # (X, Y, Z) -> complex array
    gradient: Callable  # -> [3] arrays
    hessian: Callable   # -> [3][3] arrays


def plane_wave_field(k_vec) -> TestField:
    kx, ky, kz = (float(v) for v in k_vec)

    def values(x, y, z):
        return np.exp(1j * (kx * x + ky * y + kz * z))

    def gradient(x, y, z):
        f = values(x, y, z)
        return [1j * kx * f, 1j * ky * f, 1j * kz * f]

    def hessian(x, y, z):
        f = values(x, y, z)
        kk = (kx, ky, kz)
        return [[-kk[a] * kk[b] * f for b in range(3)] for a in range(3)]

    return TestField(name="plane_wave", values=values, gradient=gradient, hessian=hessian)


def gaussian_field(center=(0.05, -0.04, 0.03), width: float = 1.0) -> TestField:
    cx, cy, cz = (float(v) for v in center)
    w2 = float(width) ** 2

    def values(x, y, z):
        r2 = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2
        return np.exp(-0.5 * r2 / w2) + 0.0j

    def gradient(x, y, z):
        f = values(x, y, z)
        d = [(x - cx), (y - cy), (z - cz)]
        return [-d[a] / w2 * f for a in range(3)]

    def hessian(x, y, z):
        f = values(x, y, z)
        d = [(x - cx), (y - cy), (z - cz)]
        return [
            [
                (d[a] * d[b] / w2**2 - (1.0 / w2 if a == b else 0.0)) * f
                for b in range(3)
            ]
            for a in range(3)
        ]

    return TestField(name="gaussian", values=values, gradient=gradient, hessian=hessian)


def modulated_field(k_vec=(0.8, -0.5, 0.6), width: float = 1.2) -> TestField:
    pw = plane_wave_field(k_vec)
    ga = gaussian_field(center=(0.0, 0.0, 0.0), width=width)

    def values(x, y, z):
        return pw.values(x, y, z) * ga.values(x, y, z)

    def gradient(x, y, z):
        f1, f2 = pw.values(x, y, z), ga.values(x, y, z)
        g1, g2 = pw.gradient(x, y, z), ga.gradient(x, y, z)
        return [g1[a] * f2 + f1 * g2[a] for a in range(3)]

    def hessian(x, y, z):
        f1, f2 = pw.values(x, y, z), ga.values(x, y, z)
        g1, g2 = pw.gradient(x, y, z), ga.gradient(x, y, z)
        h1, h2 = pw.hessian(x, y, z), ga.hessian(x, y, z)
        return [
            [
                h1[a][b] * f2 + g1[a] * g2[b] + g1[b] * g2[a] + f1 * h2[a][b]
                for b in range(3)
            ]
            for a in range(3)
        ]

    return TestField(name="modulated", values=values, gradient=gradient, hessian=hessian)


def default_test_fields() -> list:
    return [
        plane_wave_field((1.3, -0.7, 0.5)),
        gaussian_field(),
        modulated_field(),
    ]


_CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


@dataclass(frozen=True)
class ExtractResult:
    h_field: np.ndarray        # (3, n, n, n) real, NaN where invalid
    e_field: np.ndarray
    h_error: float             # worst |estimate - expected| on the interior
    e_error: float
    function_deviation: float  # worst spread between test functions
    excluded_points: int
    interior: np.ndarray


def _discrete_estimates(config, tf, constants, h, mesh, window, alpha, po):
    """Apply each commutator to the sampled test function on one slab.

    mesh, alpha = (e/C) A and po = (e/C) phi are samples on the slab's cells
    plus a one-cell halo on every face; window holds the basic slices of the
    slab's own cells, so every estimate has the window's shape.

    The composition pi_j pi_l is distributed over the four operator terms
    (exact at the discrete level by linearity) and the mixed pure-derivative
    term uses one shared symmetric stencil for both orders, so the part
    that cancels algebraically also cancels in floating point.
    """
    k = constants
    psi = np.asarray(tf.values(*mesh), dtype=complex)
    psi_in = psi[window]
    weak = np.abs(psi_in) < AMPLITUDE_FLOOR
    psi_safe = np.where(weak, np.nan + 0.0j, psi_in)
    coupling = k.charge / k.c
    alpha_in = [a[window] for a in alpha]
    alpha_psi = [a * psi for a in alpha]
    d1 = {j: _central_difference(psi, j - 1, h, window) for j in (1, 2, 3)}
    pi1 = {j: -1j * k.hbar * d1[j] + alpha_in[j - 1] * psi_in for j in (1, 2, 3)}
    mixed = {}
    for a_ax, b_ax in ((0, 1), (1, 2), (0, 2)):
        mixed[(a_ax, b_ax)] = _mixed_difference(psi, a_ax, b_ax, h, window)

    def pi_pi(j, l):
        a_ax, b_ax = j - 1, l - 1
        s = mixed[(min(a_ax, b_ax), max(a_ax, b_ax))]
        return (
            -k.hbar**2 * s
            - 1j * k.hbar * _central_difference(alpha_psi[b_ax], a_ax, h, window)
            - 1j * k.hbar * (alpha_in[a_ax] * d1[l])
            + (alpha_in[a_ax] * alpha_in[b_ax]) * psi_in
        )

    h_est = np.empty((3,) + psi_in.shape, dtype=complex)
    e_est = np.empty((3,) + psi_in.shape, dtype=complex)
    po_in = po[window]
    with np.errstate(invalid="ignore", divide="ignore"):
        for (j, l, kk) in _CYCLIC:
            comm = pi_pi(j, l) - pi_pi(l, j)
            h_est[kk - 1] = comm / (-1j * k.hbar * coupling * psi_safe)
        po_psi = po * psi
        for j in (1, 2, 3):
            pi_j_po = -1j * k.hbar * _central_difference(po_psi, j - 1, h, window) \
                + alpha_in[j - 1] * po_psi[window]
            comm = pi_j_po - po_in * pi1[j]
            e_est[j - 1] = comm / (1j * k.hbar * coupling * psi_safe)
    return h_est, e_est, weak


def _analytic_estimates(config, tf, constants, h, mesh, window, alpha, po):
    """Same commutators, no grid differencing: every derivative is exact.

    Evaluated on the slab's own cells (window of mesh), like the discrete
    estimates.  All test-function derivatives cancel algebraically;
    carrying them through checks the operator identity rather than
    assuming it.
    """
    k = constants
    x, y, z = (axis[window] for axis in mesh)
    psi = np.asarray(tf.values(x, y, z), dtype=complex)
    grad = tf.gradient(x, y, z)
    hess = tf.hessian(x, y, z)
    a_jac = config.a_field.jacobian(x, y, z, 0.0)
    phi_grad = config.phi_field.gradient(x, y, z, 0.0)
    coupling = k.charge / k.c
    a = [alpha[i][window] for i in range(3)]
    da = [[coupling * a_jac[i][l] for l in range(3)] for i in range(3)]
    weak = np.abs(psi) < AMPLITUDE_FLOOR
    psi_safe = np.where(weak, np.nan + 0.0j, psi)

    def pi_pi(j, l):
        # pi_j pi_l psi expanded with exact derivatives
        return (
            -k.hbar**2 * hess[j][l]
            - 1j * k.hbar * (da[j][l] * psi + a[l] * grad[j])
            - 1j * k.hbar * a[j] * grad[l]
            + a[j] * a[l] * psi
        )

    h_est = np.empty((3,) + psi.shape, dtype=complex)
    e_est = np.empty((3,) + psi.shape, dtype=complex)
    po = po[window]
    dpo = [coupling * phi_grad[i] for i in range(3)]
    with np.errstate(invalid="ignore", divide="ignore"):
        for (j, l, kk) in _CYCLIC:
            comm = pi_pi(j - 1, l - 1) - pi_pi(l - 1, j - 1)
            h_est[kk - 1] = comm / (-1j * k.hbar * coupling * psi_safe)
        for j in (1, 2, 3):
            pi_j_po_psi = -1j * k.hbar * (dpo[j - 1] * psi + po * grad[j - 1]) + a[j - 1] * po * psi
            po_pi_j_psi = po * (-1j * k.hbar * grad[j - 1] + a[j - 1] * psi)
            e_est[j - 1] = (pi_j_po_psi - po_pi_j_psi) / (1j * k.hbar * coupling * psi_safe)
    return h_est, e_est, weak


def _worst(current: float, diffs: np.ndarray, *weak: np.ndarray) -> float:
    """max(current, largest non-NaN entry of diffs).

    A NaN entry is expected only on a cell where a test function is too weak
    to divide by (a True cell of one of the weak masks).  If every entry is
    NaN while some cell is weak in none of the masks, the estimates broke
    down, and that raises ArithmeticError instead of passing current on.
    """
    top = float(np.fmax.reduce(diffs, axis=None))
    if not math.isnan(top):
        return max(current, top)
    if not np.logical_or.reduce(weak).all():
        raise ArithmeticError("every lattice estimate on a slab of planes is NaN, "
                              "including cells where the test function is not weak")
    return current


def commutator_field_extract(config: FieldConfig, grid: Grid3, test_fields=None,
                             constants: PhysicalConstants | None = None,
                             mode: str = "discrete") -> ExtractResult:
    """Estimate the external intensities from kinetic-momentum commutators.

    mode "discrete" uses central differences; "analytic" uses the test
    fields' exact derivatives.  Estimates from every test function are
    compared pairwise and averaged on the interior block, one slab of
    planes at a time; the returned fields are NaN outside the block.
    """
    if mode not in ("discrete", "analytic"):
        raise DomainError(f"mode must be 'discrete' or 'analytic', got {mode!r}")
    constants = PhysicalConstants() if constants is None else constants
    test_fields = default_test_fields() if test_fields is None else list(test_fields)
    if len(test_fields) < 3:
        raise DomainError("need at least 3 test functions")
    _validated(config, grid, constants)
    coupling = constants.charge / constants.c
    estimator = _discrete_estimates if mode == "discrete" else _analytic_estimates
    n, m = grid.n, grid.n - 4
    h_field = np.full((3,) + (n,) * 3, np.nan)
    e_field = np.full((3,) + (n,) * 3, np.nan)
    h_error = 0.0
    e_error = 0.0
    spread = 0.0
    excluded = 0
    for s0, s1 in _slabs(2, n - 2, m * m):
        # the slab's interior cells and the one-cell halo the stencils reach
        mesh = grid.meshgrid(slice(s0 - 1, s1 + 1), inset=1)
        window = (slice(1, s1 - s0 + 1), slice(1, m + 1), slice(1, m + 1))
        alpha = [coupling * np.asarray(a) for a in config.a_field.value(*mesh, 0.0)]
        po = coupling * np.asarray(config.phi_field.value(*mesh, 0.0))
        cells = [axis[window] for axis in mesh]
        b_in = [np.asarray(b) for b in config.b_expected(*cells)]
        e_in = [np.asarray(e) for e in config.e_expected(*cells)]
        all_h, all_e, all_weak = [], [], []
        for tf in test_fields:
            h_est, e_est, weak = estimator(config, tf, constants, grid.h, mesh, window,
                                           alpha, po)
            excluded += int(np.count_nonzero(weak))
            all_h.append(h_est)
            all_e.append(e_est)
            all_weak.append(weak)
        for h_est, e_est, weak in zip(all_h, all_e, all_weak):
            for j in range(3):
                h_error = _worst(h_error, np.abs(h_est[j] - b_in[j]), weak)
                e_error = _worst(e_error, np.abs(e_est[j] - e_in[j]), weak)
        for a_idx in range(len(all_h)):
            for b_idx in range(a_idx + 1, len(all_h)):
                weak = (all_weak[a_idx], all_weak[b_idx])
                for j in range(3):
                    spread = _worst(spread, np.abs(all_h[a_idx][j] - all_h[b_idx][j]), *weak)
                    spread = _worst(spread, np.abs(all_e[a_idx][j] - all_e[b_idx][j]), *weak)
        out = (slice(None), slice(s0, s1), slice(2, n - 2), slice(2, n - 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            h_field[out] = np.nanmean(np.stack([h.real for h in all_h]), axis=0)
            e_field[out] = np.nanmean(np.stack([e.real for e in all_e]), axis=0)
    return ExtractResult(
        h_field=h_field,
        e_field=e_field,
        h_error=h_error,
        e_error=e_error,
        function_deviation=spread,
        excluded_points=excluded,
        interior=grid.interior_mask(),
    )


@dataclass(frozen=True)
class ConvergenceResult:
    spacings: tuple
    grid_sizes: tuple
    errors: tuple
    order: object  # float slope, "exact", or "no clean order"

    def to_dict(self) -> dict:
        return {
            "h": list(self.spacings),
            "n": list(self.grid_sizes),
            "max_err": list(self.errors),
            "order": self.order,
        }


EXACT_FLOOR = 1e-13


def _check_box_scale(config, half_width, constants, spacing) -> None:
    """Refuse a box whose coordinates or coupled potentials overflow when squared.

    The Gaussian test functions square the coordinates, and the kinetic
    momenta multiply (e/C) A and (e/C) phi by each other and by the
    samples, then difference and sum a few such products.  All of that
    stays finite when every coordinate and coupled potential on the box is
    at most sqrt(float max) / 8 in magnitude.  The preset potentials are
    linear, so their largest magnitude on the box is at a corner.
    """
    limit = math.sqrt(sys.float_info.max) / 8.0
    ends = np.array([-half_width, half_width])
    x, y, z = np.meshgrid(ends, ends, ends, indexing="ij")
    coupling = constants.charge / constants.c
    with np.errstate(over="ignore", invalid="ignore"):
        fields = (*config.a_field.value(x, y, z, 0.0), config.phi_field.value(x, y, z, 0.0))
        largest = max([half_width] + [float(np.max(np.abs(coupling * f))) for f in fields])
    if not largest <= limit:
        raise DomainError(f"grid spacing {spacing!r} is too large for these potentials and "
                          f"constants: a coordinate or an (e/C)-scaled potential on the box "
                          f"reaches {largest:.3g}, whose square overflows")


def convergence_study(config: FieldConfig, spacings, constants: PhysicalConstants | None = None,
                      test_fields=None) -> ConvergenceResult:
    """Error-versus-spacing fit for the discrete extraction.

    spacings must be at least three values, each half the previous and
    each a spacing Grid3 accepts.  The physical box is fixed by the coarsest
    spacing (nine points across), so finer grids refine the same volume.
    """
    constants = PhysicalConstants() if constants is None else constants
    spac = [float(h) for h in spacings]
    if len(spac) < 3:
        raise DomainError("need at least 3 spacings")
    for h in spac:
        _check_spacing(h)
    for a, b in zip(spac, spac[1:]):
        if not math.isclose(b, a / 2.0, rel_tol=1e-9):
            raise DomainError(f"each spacing must halve the previous; {b} does not halve {a}")
    half_width = 4.0 * spac[0]
    if not math.isfinite(2.0 * half_width):
        raise DomainError(f"grid spacing {spac[0]!r} is too large: the box width overflows")
    _check_box_scale(config, half_width, constants, spac[0])
    errors = []
    sizes = []
    for h in spac:
        n = int(round(2.0 * half_width / h)) + 1
        if n % 2 == 0:
            n += 1
        grid = Grid3(n=n, h=h)
        res = commutator_field_extract(config, grid, test_fields, constants, mode="discrete")
        errors.append(max(res.h_error, res.e_error))
        sizes.append(n)
    if all(err < EXACT_FLOOR for err in errors):
        order = "exact"
    elif all(b < a for a, b in zip(errors, errors[1:])):
        slope = np.polyfit(np.log(spac), np.log(errors), 1)[0]
        order = float(slope)
    else:
        order = "no clean order"
    return ConvergenceResult(
        spacings=tuple(spac), grid_sizes=tuple(sizes), errors=tuple(errors), order=order,
    )
