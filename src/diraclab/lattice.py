"""Discrete minimal coupling on a cubic grid and the commutator field probe.

An external field is a pair of static potentials linear in position, given
by their constant coefficients (fields.LinearPotentials).  The intensities
it should produce, H = curl A and E = -grad phi, are read once from those
coefficients (fields.classical_maxwell_reference), and every estimate's
error is its distance from them.

Kinetic momentum components are applied with symmetric central differences
(no periodic wrap: boundary cells are marked invalid).  The extraction
works on the interior block, the n - 4 cells per axis two layers inside the
box, and walks it in slabs of whole planes along axis 0, each sized to stay
near an L2 cache.  One generator builds every slab: it samples the test
functions and the potentials on the slab's own planes plus the one-cell halo
the stencils reach, on broadcast axes (x of shape (p, 1, 1), y (1, q, 1),
z (1, 1, q)) rather than full coordinate arrays, and yields the estimates,
which are dropped before the next slab is built, so no full-grid complex
temporary is ever made.  The discrete kernel behind it is made once per
grid.  It keeps each test function's samples from one slab to the next, so
the two planes neighbouring slabs share are sampled once; it evaluates the
operator terms into buffers reused for every slab and test function; and it
forms no term that cancels between the two orders of a commutator (the mixed
second difference, the products of two potentials), so the field terms are
never rounded against larger terms that drop out.  Every term left is
linear in hbar (e/C), the factor the intensities are solved by dividing
out, so the kernel never multiplies it in: it computes the estimates from
the potentials and the samples alone, and no constant can change them
(kinetic_momentum_apply, the physical operator, is the one place the
constants enter this module).  It skips every term whose potential is
identically zero (a component of A, or phi, whose coefficients are all
zero): such a term only adds or subtracts signed zeros, and x - (+-0) = x
for every nonzero x, so on finite samples only the sign of an exact-zero
estimate can differ, which the error magnitudes and the per-cell mean do
not see.
Commuting the discrete components and dividing out the test function
recovers the external intensities to second order in the spacing.  For
linear potentials the central difference obeys the exact product rule
D_j (a psi) = a D_j psi + (d_j a) M_j psi, M_j psi the mean of psi at
x +- h e_j, so hbar, C and e cancel and each estimate has an exact discrete
value built from M_j psi / psi, which each test function gives in closed
form.  commutator_field_extract folds the error maxima, the distance from
that value (rounding alone), the test-function spread and the per-cell
mean; convergence_study folds only the error maxima, so it holds one slab's
working set.  The error maxima take only the intensity components the field
can move: a dead one's estimate is 0 against an expected 0.  Every cell sees
the same operations in the same order whatever the slab size, so the
results are bit-identical to a single whole-block pass.

Sign bookkeeping, fixed once: the charge symbol is the positive magnitude
and the operators describe the electron (signed charge -e), so

    pi_j = -i hbar D_j + (e/C) A_j        pi_o = (1/C)(i hbar d/dt) + (e/C) phi

and the intensities are solved from [pi_j, pi_l] = -i hbar (e/C) eps_jlk H_k
and [pi_j, pi_o] = +i hbar (e/C) E_j.  With e read as the signed charge both
templates match the catalogue's printed form; this choice makes the uniform
field preset come out as H = +B.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import PRESET_NAMES
from .constants import PhysicalConstants
from .errors import DomainError, is_integer, real
from .fields import LinearPotentials, classical_maxwell_reference, linear_scalar, symmetric_gauge
from .matrices import _axis

SIGN_CONVENTION = (
    "kinetic pi_j = -i hbar D_j + (e/C) A_j with e > 0; intensities solved from "
    "[pi_j, pi_l] = -i hbar (e/C) eps_jlk H_k and [pi_j, pi_o] = +i hbar (e/C) E_j "
    "(printed templates with e read as the electron's signed charge); "
    "uniform-field probe then reports H = +B"
)

AMPLITUDE_FLOOR = 1e-8


def _check_spacing(h) -> float:
    """h as a float the stencils can divide by: a finite real > 0 whose stencil
    scale 1 / (2 h) is finite (h above about 2.8e-309)."""
    h = real(h, "grid spacing", positive=True)
    if not math.isfinite(1.0 / (2.0 * h)):
        raise DomainError(f"grid spacing {h!r} is too small: the stencil scale "
                          f"1 / (2 h) overflows")
    return h


@dataclass(frozen=True)
class Grid3:
    """Origin-centered cubic grid: n points per axis (odd, >= 9), spacing h."""

    n: int
    h: float

    def __post_init__(self):
        if not (is_integer(self.n) and self.n >= 9 and self.n % 2):
            raise DomainError(f"grid size must be an odd integer >= 9, got {self.n!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "h", _check_spacing(self.h))

    @property
    def axis(self) -> np.ndarray:
        half = (self.n - 1) // 2
        return (np.arange(self.n) - half) * self.h

    def meshgrid(self):
        """Coordinates of every grid point, one (n, n, n) array per axis."""
        ax = self.axis
        return np.meshgrid(ax, ax, ax, indexing="ij")

    def interior_mask(self) -> np.ndarray:
        """Cells at least two from every face: where the stencils reach no edge."""
        mask = np.zeros((self.n,) * 3, dtype=bool)
        sl = slice(2, self.n - 2)
        mask[sl, sl, sl] = True
        return mask


def make_preset(name: str, b0: float = 1.0, e0: float = 1.0) -> LinearPotentials:
    """The named field: a uniform H = (0, 0, b0), a uniform E = (e0, 0, 0), or none."""
    if name == "uniform_b":
        return symmetric_gauge(b0)
    if name == "linear_phi":
        return linear_scalar(e0)
    if name == "zero":
        return LinearPotentials()
    raise DomainError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


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


def _keep_slab_pages(halo_cells: int) -> None:
    """Let the C heap reuse one slab's freed pages for the next slab.

    glibc hands the top of its heap back to the OS once more than twice the
    largest block it has unmapped lies free there (its dynamic mmap and trim
    thresholds, mallopt(3)), and a slab frees a few dozen complex arrays of
    halo_cells cells at once.  Under the default thresholds every slab would
    unmap its working set and fault it back in: about 50 000 minor page
    faults per study over h = 0.2 ... 0.025.  Allocating and freeing one
    untouched block of 24 such arrays lifts both thresholds past the at most
    34 alive at once, for one mmap/munmap pair and no resident page, up to
    glibc's 32 MiB cap (reached near n = 170).  Under other allocators this
    is an ordinary short-lived allocation.
    """
    np.empty(24 * halo_cells, dtype=complex)


def _shift(window: tuple, axis: int, step: int) -> tuple:
    """The basic-slice window moved by step cells along axis."""
    moved = list(window)
    moved[axis] = slice(window[axis].start + step, window[axis].stop + step)
    return tuple(moved)


def _central_difference(values: np.ndarray, axis: int, inv_2h: float, window: tuple,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Central difference along axis on the cells window selects.

    window holds explicit slice bounds at least one cell inside the box
    along axis; the result has the window's shape.  inv_2h is 1 / (2 h):
    numpy divides a complex array by a real scalar as a complex division by
    (c + 0j), which Smith's method carries out as a multiplication by 1 / c,
    so on finite values the product has the quotient's bits, up to the sign
    of a zero component, without the cost of a complex division.
    """
    out = np.subtract(values[_shift(window, axis, 1)], values[_shift(window, axis, -1)], out=out)
    return np.multiply(out, inv_2h, out=out)


def kinetic_momentum_apply(j: int, potentials: LinearPotentials, grid: Grid3, psi,
                           constants: PhysicalConstants) -> np.ndarray:
    """(-i hbar D_j + (e/C) A_j) psi on the grid.

    psi must be sampled on the full grid.  Cells whose central difference
    would reach outside the box come back NaN.
    """
    j = _axis(j)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (grid.n,) * 3:
        raise DomainError(f"psi shape {psi.shape} does not match grid {(grid.n,)*3}")
    a_vals = potentials.a(*grid.meshgrid())
    k = constants
    valid = tuple(slice(1, grid.n - 1) if axis == j - 1 else slice(0, grid.n) for axis in range(3))
    deriv = np.full(psi.shape, np.nan + 0.0j, dtype=complex)
    deriv[valid] = _central_difference(psi, j - 1, 1.0 / (2.0 * grid.h), valid)
    return -1j * k.hbar * deriv + (k.charge / k.c) * a_vals[j - 1] * psi


@dataclass(frozen=True)
class TestField:
    """Smooth scalar probe psi and the closed form of M_j psi / psi, j = 1, 2, 3
    (module docstring), computed without a stencil.  Both take broadcast axes,
    x of shape (p, 1, 1), y (1, q, 1) and z (1, 1, q), and return arrays that
    broadcast to (p, q, q), with fewer cells where psi does not vary."""

    values: Callable      # (x, y, z) -> complex array
    mean_ratio: Callable  # (h, x, y, z) -> [3] arrays


def plane_wave_field(k_vec) -> TestField:
    kx, ky, kz = (float(v) for v in k_vec)

    def values(x, y, z):
        return np.exp(1j * (kx * x + ky * y + kz * z))

    def mean_ratio(h, x, y, z):
        return [np.cos(kj * h) for kj in (kx, ky, kz)]

    return TestField(values=values, mean_ratio=mean_ratio)


def gaussian_field(center=(0.05, -0.04, 0.03), width: float = 1.0) -> TestField:
    cx, cy, cz = (float(v) for v in center)
    w2 = float(width) ** 2

    def values(x, y, z):
        r2 = (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2
        return np.exp(-0.5 * r2 / w2) + 0.0j

    def mean_ratio(h, x, y, z):
        # exp(-h^2/2w^2) cosh(h (x_j - c_j)/w^2) as a mean of two shift ratios: no overflow
        return [0.5 * (np.exp(-h * (0.5 * h + d) / w2) + np.exp(-h * (0.5 * h - d) / w2))
                for d in (x - cx, y - cy, z - cz)]

    return TestField(values=values, mean_ratio=mean_ratio)


def modulated_field(k_vec=(0.8, -0.5, 0.6), width: float = 1.2) -> TestField:
    pw = plane_wave_field(k_vec)
    ga = gaussian_field(center=(0.0, 0.0, 0.0), width=width)
    w2 = float(width) ** 2

    def values(x, y, z):
        return pw.values(x, y, z) * ga.values(x, y, z)

    def mean_ratio(h, x, y, z):
        # exp(-h^2 / 2 w^2) cos(k_j h + i h x_j / w^2), summed as for the Gaussian
        return [0.5 * (np.exp(1j * kj * h - h * (0.5 * h + xj) / w2)
                       + np.exp(-1j * kj * h - h * (0.5 * h - xj) / w2))
                for kj, xj in zip(k_vec, (x, y, z))]

    return TestField(values=values, mean_ratio=mean_ratio)


def default_test_fields() -> list:
    return [plane_wave_field((1.3, -0.7, 0.5)), gaussian_field(), modulated_field()]


_CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


@dataclass(frozen=True)
class ExtractResult:
    h_field: np.ndarray        # (3, n, n, n) real, NaN where invalid
    e_field: np.ndarray
    h_error: float             # worst |estimate - expected| on the interior
    e_error: float
    prediction_error: float    # worst |estimate - exact discrete prediction|
    function_deviation: float  # worst spread between test functions
    excluded_points: int


def _live_terms(potentials: LinearPotentials) -> tuple:
    """(a_live, phi_live): whether each of A_1, A_2, A_3 and whether phi is
    not identically zero, i.e. has a nonzero coefficient."""
    a_live = tuple(any(row[l] != 0.0 for row in potentials.grad_a) for l in range(3))
    return a_live, any(g != 0.0 for g in potentials.grad_phi)


class _DiscreteKernel:
    """The discrete estimator on one grid, walked slab by slab.

    Made once per grid: the stencil scale, which potentials are live
    (_live_terms), and every buffer the commutators are evaluated into,
    sized for the grid's first slab (a shorter last slab uses their leading
    planes).  Each test function keeps its samples in a buffer of its own,
    so the two planes one slab shares with the next (its last own plane and
    its upper halo) are carried over instead of sampled again.
    """

    def __init__(self, h, halo_shape, test_fields, live):
        self.inv_2h = 1.0 / (2.0 * h)
        self.a_live, self.phi_live = live
        # D_a psi enters A_x D_a psi (x != a) and phi D_a psi of the E block
        self.d1_live = [self.phi_live or any(self.a_live[x] for x in range(3) if x != a)
                        for a in range(3)]
        self.test_fields = test_fields
        self.samples = [np.empty(halo_shape, dtype=complex) for _ in test_fields]
        self.halo = [np.empty(halo_shape, dtype=complex) for _ in range(3)]
        cells = tuple(size - 2 for size in halo_shape)
        self.cells = [np.empty(cells, dtype=complex) for _ in range(6)]
        self.carry = None  # first of the planes the next slab shares

    def _sample(self, mesh) -> list:
        x, y, z = mesh
        planes = x.shape[0]
        start = 0 if self.carry is None else 2
        for tf, psi in zip(self.test_fields, self.samples):
            if start:
                psi[:2] = psi[self.carry:self.carry + 2]
            psi[start:planes] = tf.values(x[start:], y, z)
        self.carry = planes - 2
        return [psi[:planes] for psi in self.samples]

    def slab(self, mesh, window, a_vals, phi_vals) -> list:
        """(h_est, e_est, weak) for every test function on the next slab.

        mesh holds the broadcast axes, a_vals = A and phi_vals = phi the
        samples, of the slab's cells plus a one-cell halo on every face;
        window holds the basic slices of the slab's own cells, so every
        estimate has the window's shape.  Slabs must come in order along
        axis 0.
        """
        samples = self._sample(mesh)
        planes = samples[0].shape[0]
        a_in = [a[window] for a in a_vals]
        halo = [buf[:planes] for buf in self.halo]
        work = [buf[:planes - 2] for buf in self.cells]
        return [self._estimate(psi, window, a_vals, a_in, phi_vals, halo, work)
                for psi in samples]

    def _estimate(self, psi, window, a_vals, a_in, phi_vals, halo, work) -> tuple:
        """Apply each commutator to one test function's samples psi.

        The composition pi_j pi_l is distributed over the four operator terms
        (exact at the discrete level by linearity).  Two of them are the same
        in both orders, -hbar^2 D_j D_l psi (the symmetric stencil has
        D_j D_l = D_l D_j) and (e/C)^2 A_j A_l psi, and so is the term
        (e/C)^2 A_j phi psi of [pi_j, pi_o]; they cancel in the commutator
        and are never formed.  Every term left is linear in hbar (e/C), the
        factor the intensities are solved by dividing out, so it is never
        multiplied in: the estimates are evaluated into the buffers in halo
        and work one operation at a time, grouped from left to right as in

            H_k = ((D_j (A_l psi) + A_j D_l psi) - (D_l (A_j psi) + A_l D_j psi)) / psi
            E_j = (phi D_j psi - D_j (phi psi)) / psi

        for cyclic (j, l, k), so which buffer holds a term does not change
        a bit, and no constant can change one.

        A term with a dead factor (A_l, A_j or phi identically zero) is left
        out: it is a signed zero, and adding or subtracting one leaves every
        nonzero value as it is.  An H estimate whose two A components are
        both dead has no term left, and with phi dead neither has any E
        estimate; those estimates are 0 times the denominator, which keeps
        it NaN where psi is too weak to divide by or not finite.
        """
        live = self.a_live
        psi_in = psi[window]
        weak = np.abs(psi_in) < AMPLITUDE_FLOOR
        den, p2, tmp, *d1 = work
        np.copyto(den, psi_in)
        np.copyto(den, np.nan + 0.0j, where=weak)  # psi, NaN where too weak to divide by
        a_psi = halo
        for a in range(3):
            if live[a]:
                np.multiply(a_vals[a], psi, out=a_psi[a])
            if self.d1_live[a]:
                _central_difference(psi, a, self.inv_2h, window, out=d1[a])
        h_est = np.empty((3,) + psi_in.shape, dtype=complex)
        e_est = np.empty((3,) + psi_in.shape, dtype=complex)
        with np.errstate(invalid="ignore", divide="ignore"):
            for j, l, kk in _CYCLIC:
                a, b = j - 1, l - 1
                est = h_est[kk - 1]
                if not (live[a] or live[b]):
                    np.multiply(0.0, den, out=est)
                    continue
                for out, (x, y) in ((est, (a, b)), (p2, (b, a))):
                    # D_x (A_y psi) + A_x D_y psi; A_x or A_y is live, so
                    # out is written
                    if live[y]:
                        _central_difference(a_psi[y], x, self.inv_2h, window, out=out)
                    if live[x] and live[y]:
                        np.add(out, np.multiply(a_in[x], d1[y], out=tmp), out=out)
                    elif live[x]:
                        np.multiply(a_in[x], d1[y], out=out)
                np.subtract(est, p2, out=est)
                np.divide(est, den, out=est)
            if not self.phi_live:
                for a in range(3):
                    np.multiply(0.0, den, out=e_est[a])
                return h_est, e_est, weak
            phi_psi = np.multiply(phi_vals, psi, out=halo[0])
            phi_in = phi_vals[window]
            for a in range(3):
                est = np.multiply(phi_in, d1[a], out=e_est[a])
                _central_difference(phi_psi, a, self.inv_2h, window, out=tmp)
                np.subtract(est, tmp, out=est)
                np.divide(est, den, out=est)
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


def _slab_estimates(potentials, grid):
    """Yield the interior block's estimates slab by slab.

    Each item is (s0, s1, estimates): the slab's planes [s0, s1) along
    axis 0 and one (h_est, e_est, weak) per test function of
    default_test_fields().  The generator keeps no reference to the
    estimates it yields, so a consumer that lets go of them before asking
    for the next slab holds one slab's working set at a time.
    """
    test_fields = default_test_fields()
    n, m = grid.n, grid.n - 4
    ax = grid.axis
    across = ax[1:n - 1]
    slabs = _slabs(2, n - 2, m * m)
    s0, s1 = slabs[0]
    halo_shape = (s1 - s0 + 2, m + 2, m + 2)
    _keep_slab_pages(math.prod(halo_shape))
    estimate = _DiscreteKernel(grid.h, halo_shape, test_fields, _live_terms(potentials)).slab

    def slab(s0, s1):
        # the slab's interior cells and the one-cell halo the stencils reach,
        # on broadcast axes; the potentials are full-shape views of theirs
        mesh = (ax[s0 - 1:s1 + 1, None, None], across[None, :, None], across[None, None, :])
        shape = (s1 - s0 + 2, m + 2, m + 2)
        window = (slice(1, s1 - s0 + 1), slice(1, m + 1), slice(1, m + 1))
        a_vals = [np.broadcast_to(a, shape) for a in potentials.a(*mesh)]
        return estimate(mesh, window, a_vals, np.broadcast_to(potentials.phi(*mesh), shape))

    for s0, s1 in slabs:
        yield s0, s1, slab(s0, s1)  # the mesh and potentials are gone by the yield


def _fold_errors(h_error: float, e_error: float, expected, estimates, live) -> tuple:
    """(h_error, e_error) raised to the worst deviation of one slab's estimates
    from expected, the constant MaxwellFields (curl A, -grad phi) of the field.

    Only the components the field can move are folded, as live (a mask from
    _live_terms) says: H_k where A_j or A_l is live for cyclic (j, l, k), E_j
    where phi is.  The discrete kernel makes a dead component's estimate 0
    times the denominator, and its expected value is exactly 0, so it can
    never raise a maximum.  All dead estimates are NaN on the same cells,
    those whose denominator is not finite, so _worst on one of them per test
    function keeps the all-NaN guard firing wherever folding them all would.
    Every difference and its magnitude go into the same two cell buffers.
    """
    a_live, phi_live = live
    h_live = [a_live[(k + 1) % 3] or a_live[(k + 2) % 3] for k in range(3)]
    h_dead = [k for k in range(3) if not h_live[k]]
    diff = np.empty_like(estimates[0][0][0])
    mag = np.empty(diff.shape)
    for h_est, e_est, weak in estimates:
        for j in range(3):
            if h_live[j]:
                np.subtract(h_est[j], expected.h[j], out=diff)
                h_error = _worst(h_error, np.abs(diff, out=mag), weak)
            if phi_live:
                np.subtract(e_est[j], expected.e[j], out=diff)
                e_error = _worst(e_error, np.abs(diff, out=mag), weak)
        if h_dead or not phi_live:
            dead = h_est[h_dead[0]] if h_dead else e_est[0]
            _worst(0.0, np.abs(dead, out=mag), weak)
    return h_error, e_error


def _fold_prediction(error: float, potentials, h, mesh, test_fields, estimates) -> float:
    """error raised to the worst distance of one slab's estimates from their exact
    discrete value: with r_j = M_j psi / psi from mean_ratio on mesh, the slab's
    cells, H_k = (d_j A_l) r_j - (d_l A_j) r_l for cyclic (j, l, k) and E_j =
    -(d_j phi) r_j.  r_j is undefined only where psi vanishes, on weak cells."""
    g, g_phi = potentials.grad_a, potentials.grad_phi
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for tf, (h_est, e_est, weak) in zip(test_fields, estimates):
            r = tf.mean_ratio(h, *mesh)
            pairs = [(h_est[k - 1], g[j - 1][l - 1] * r[j - 1] - g[l - 1][j - 1] * r[l - 1])
                     for j, l, k in _CYCLIC] + [(e_est[a], -g_phi[a] * r[a]) for a in range(3)]
            for est, want in pairs:
                error = _worst(error, np.abs(est - want), weak)
    return error


def _fold_spread(spread: float, estimates) -> float:
    """spread raised to the worst disagreement between two test functions on one slab."""
    for (h_a, e_a, weak_a), (h_b, e_b, weak_b) in itertools.combinations(estimates, 2):
        for j in range(3):
            spread = _worst(spread, np.abs(h_a[j] - h_b[j]), weak_a, weak_b)
            spread = _worst(spread, np.abs(e_a[j] - e_b[j]), weak_a, weak_b)
    return spread


def commutator_field_extract(potentials: LinearPotentials, grid: Grid3) -> ExtractResult:
    """Estimate the external intensities from kinetic-momentum commutators.

    Estimates from every test function of default_test_fields() are compared
    with curl A and -grad phi, with their exact discrete value and pairwise,
    and averaged on the interior block, one slab of planes at a time; the
    returned fields are NaN outside the block.  A grid whose coordinates or
    potentials overflow when squared raises DomainError, as in
    convergence_study.
    """
    n = grid.n
    _check_box_scale(potentials, (n - 1) // 2 * grid.h, grid.h)
    h_field = np.full((3,) + (n,) * 3, np.nan)
    e_field = np.full((3,) + (n,) * 3, np.nan)
    h_error = e_error = predicted = spread = 0.0
    excluded = 0
    expected = classical_maxwell_reference(potentials, (0.0, 0.0, 0.0))
    live = _live_terms(potentials)
    test_fields = default_test_fields()
    ax, across = grid.axis, grid.axis[2:n - 2]
    for s0, s1, estimates in _slab_estimates(potentials, grid):
        excluded += sum(int(np.count_nonzero(weak)) for _, _, weak in estimates)
        h_error, e_error = _fold_errors(h_error, e_error, expected, estimates, live)
        mesh = (ax[s0:s1, None, None], across[None, :, None], across[None, None, :])
        predicted = _fold_prediction(predicted, potentials, grid.h, mesh, test_fields, estimates)
        spread = _fold_spread(spread, estimates)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for j in range(3):  # one component at a time keeps nanmean's copies small
                out = (j, slice(s0, s1), slice(2, n - 2), slice(2, n - 2))
                h_field[out] = np.nanmean(np.stack([h[j].real for h, _, _ in estimates]), axis=0)
                e_field[out] = np.nanmean(np.stack([e[j].real for _, e, _ in estimates]), axis=0)
        del estimates  # freed before the generator builds the next slab
    return ExtractResult(
        h_field=h_field,
        e_field=e_field,
        h_error=h_error,
        e_error=e_error,
        prediction_error=predicted,
        function_deviation=spread,
        excluded_points=excluded,
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


def _check_box_scale(potentials, half_width, spacing) -> None:
    """Refuse a box whose coordinates or potentials overflow when squared.

    The Gaussian test functions square the coordinates, and the estimates
    multiply A and phi by the samples, then difference and sum a few such
    products.  All of that stays finite when every coordinate and potential
    on the box is at most sqrt(float max) / 8 in magnitude; one limit
    serves both.  The potentials are linear, so their largest magnitude on
    the box is at a corner.
    """
    limit = math.sqrt(sys.float_info.max) / 8.0
    ends = np.array([-half_width, half_width])
    x, y, z = np.meshgrid(ends, ends, ends, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        fields = (*potentials.a(x, y, z), potentials.phi(x, y, z))
        largest = max([half_width] + [float(np.max(np.abs(f))) for f in fields])
    if not largest <= limit:
        raise DomainError(f"grid spacing {spacing!r} is too large for these potentials: a "
                          f"coordinate or a potential on the box reaches {largest:.3g}, "
                          f"whose square overflows")


def convergence_study(potentials: LinearPotentials, spacings) -> ConvergenceResult:
    """Error-versus-spacing fit for the discrete extraction.

    spacings must be at least three values, each half the previous and
    each a spacing Grid3 accepts.  The physical box is fixed by the coarsest
    spacing (nine points across), so finer grids refine the same volume.
    """
    spac = [_check_spacing(h) for h in spacings]
    if len(spac) < 3:
        raise DomainError("need at least 3 spacings")
    for a, b in zip(spac, spac[1:]):
        if not math.isclose(b, a / 2.0, rel_tol=1e-9):
            raise DomainError(f"each spacing must halve the previous; {b} does not halve {a}")
    half_width = 4.0 * spac[0]
    if not math.isfinite(2.0 * half_width):
        raise DomainError(f"grid spacing {spac[0]!r} is too large: the box width overflows")
    _check_box_scale(potentials, half_width, spac[0])
    expected = classical_maxwell_reference(potentials, (0.0, 0.0, 0.0))
    live = _live_terms(potentials)
    errors = []
    sizes = []
    for h in spac:
        n = int(round(2.0 * half_width / h)) + 1
        if n % 2 == 0:
            n += 1
        h_error = e_error = 0.0
        for _, _, estimates in _slab_estimates(potentials, Grid3(n=n, h=h)):
            h_error, e_error = _fold_errors(h_error, e_error, expected, estimates, live)
            del estimates  # freed before the generator builds the next slab
        errors.append(max(h_error, e_error))
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
