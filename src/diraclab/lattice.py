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
never rounded against larger terms that drop out.  It skips every term
whose potential is identically zero (a component of A, or phi, whose
coefficients are all zero): such a term only adds or subtracts signed
zeros, and x - (+-0) = x for every nonzero x, so on finite samples only the
sign of an exact-zero estimate can differ, which the error magnitudes and
the per-cell mean do not see.
commutator_field_extract folds the error maxima, the test-function spread
and the per-cell mean into the two intensity grids it returns;
convergence_study folds only the error maxima and so holds one slab's
working set.  The error maxima take only the intensity components the
field can move: a dead one's estimate is 0 against an expected 0.  Every
cell sees the same operations in the same order whatever the slab size, so
the results are bit-identical to a single whole-block pass.
Commuting the discrete components and dividing out the test function
recovers the external intensities to second order in the spacing; the same
extraction run with the test functions' exact derivatives recovers them to
rounding.

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
from .errors import DomainError
from .fields import LinearPotentials, classical_maxwell_reference, linear_scalar, symmetric_gauge

SIGN_CONVENTION = (
    "kinetic pi_j = -i hbar D_j + (e/C) A_j with e > 0; intensities solved from "
    "[pi_j, pi_l] = -i hbar (e/C) eps_jlk H_k and [pi_j, pi_o] = +i hbar (e/C) E_j "
    "(printed templates with e read as the electron's signed charge); "
    "uniform-field probe then reports H = +B"
)

AMPLITUDE_FLOOR = 1e-8


def _check_spacing(h) -> None:
    """A spacing the stencils can divide by: finite, > 0, and large enough
    that the stencil scale 1 / (2 h) is finite (h above about 2.8e-309)."""
    if isinstance(h, bool) or not (isinstance(h, (int, float)) and math.isfinite(h) and h > 0):
        raise DomainError(f"grid spacing must be finite and > 0, got {h!r}")
    if not math.isfinite(1.0 / (2.0 * h)):
        raise DomainError(f"grid spacing {h!r} is too small: the stencil scale "
                          f"1 / (2 h) overflows")


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
    if isinstance(b0, (bool, np.bool_)) or isinstance(e0, (bool, np.bool_)):
        raise DomainError(f"b0 and e0 must be real numbers, got {b0!r} and {e0!r}")
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
    35 alive at once, for one mmap/munmap pair and no resident page, up to
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
    if not isinstance(j, int) or isinstance(j, bool) or j not in (1, 2, 3):
        raise DomainError(f"axis must be the int 1, 2 or 3, got {j!r}")
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
    """Smooth scalar probe with analytic derivatives for the exact path.

    values, gradient and hessian receive coordinates that broadcast against
    each other, not full grids: the extraction passes x of shape (p, 1, 1),
    y of shape (1, q, 1) and z of shape (1, 1, q).  Each returned array must
    broadcast to their common shape (p, q, q); it may have that shape, or
    fewer cells where the probe does not vary along an axis.  hessian[a][b]
    and hessian[b][a] must be equal to the bit, so that the analytic terms
    of a component the field cannot move cancel exactly.
    """

    values: Callable    # (x, y, z) -> complex array
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

    return TestField(values=values, gradient=gradient, hessian=hessian)


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

    return TestField(values=values, gradient=gradient, hessian=hessian)


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
        # the cross terms in one order for (a, b) and (b, a), so the
        # Hessian is symmetric to the last bit
        return [
            [
                h1[a][b] * f2 + g1[min(a, b)] * g2[max(a, b)] + g1[max(a, b)] * g2[min(a, b)]
                + f1 * h2[a][b]
                for b in range(3)
            ]
            for a in range(3)
        ]

    return TestField(values=values, gradient=gradient, hessian=hessian)


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


def _live_terms(potentials: LinearPotentials) -> tuple:
    """(a_live, phi_live): whether each of A_1, A_2, A_3 and whether phi is
    not identically zero, i.e. has a nonzero coefficient."""
    a_live = tuple(any(row[l] != 0.0 for row in potentials.grad_a) for l in range(3))
    return a_live, any(g != 0.0 for g in potentials.grad_phi)


class _DiscreteKernel:
    """The discrete estimator on one grid, walked slab by slab.

    Made once per grid: the stencil scale, the scalar factors of the
    operator terms, which potentials are live (_live_terms), and every
    buffer the commutators are evaluated into, sized for the grid's first
    slab (a shorter last slab uses their leading planes).  Each test
    function keeps its samples in a buffer of its own, so the two planes one
    slab shares with the next (its last own plane and its upper halo) are
    carried over instead of sampled again.
    """

    def __init__(self, constants, h, halo_shape, test_fields, live):
        k = constants
        coupling = k.charge / k.c
        self.inv_2h = 1.0 / (2.0 * h)
        self.a_live, self.phi_live = live
        self.neg_i_hbar = -1j * k.hbar
        self.h_scale = -1j * k.hbar * coupling
        self.e_scale = 1j * k.hbar * coupling
        # D_a psi enters alpha_x D_a psi (x != a) and po D_a psi of the E block
        self.d1_live = [self.phi_live or any(self.a_live[x] for x in range(3) if x != a)
                        for a in range(3)]
        self.test_fields = test_fields
        self.samples = [np.empty(halo_shape, dtype=complex) for _ in test_fields]
        self.halo = [np.empty(halo_shape, dtype=complex) for _ in range(3)]
        cells = tuple(size - 2 for size in halo_shape)
        self.cells = [np.empty(cells, dtype=complex) for _ in range(7)]
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

    def slab(self, mesh, window, alpha, po) -> list:
        """(h_est, e_est, weak) for every test function on the next slab.

        mesh holds the broadcast axes, alpha = (e/C) A and po = (e/C) phi
        the samples, of the slab's cells plus a one-cell halo on every face;
        window holds the basic slices of the slab's own cells, so every
        estimate has the window's shape.  Slabs must come in order along
        axis 0.
        """
        samples = self._sample(mesh)
        planes = samples[0].shape[0]
        alpha_in = [a[window] for a in alpha]
        halo = [buf[:planes] for buf in self.halo]
        work = [buf[:planes - 2] for buf in self.cells]
        return [self._estimate(psi, window, alpha, alpha_in, po, halo, work) for psi in samples]

    def _estimate(self, psi, window, alpha, alpha_in, po, halo, work) -> tuple:
        """Apply each commutator to one test function's samples psi.

        The composition pi_j pi_l is distributed over the four operator terms
        (exact at the discrete level by linearity).  Two of them are the same
        in both orders, -hbar^2 D_j D_l psi (the symmetric stencil has
        D_j D_l = D_l D_j) and (alpha_j alpha_l) psi, and so is the term
        alpha_j po psi of [pi_j, pi_o]; they cancel in the commutator and are
        never formed, so the field terms are not rounded against them.  What
        is left is evaluated into the buffers in halo and work one operation
        at a time, grouped from left to right as in

            [pi_j, pi_l] psi = -i hbar ((D_j (alpha_l psi) + alpha_j D_l psi)
                                        - (D_l (alpha_j psi) + alpha_l D_j psi))
            [pi_j, po] psi = -i hbar (D_j (po psi) - po D_j psi)

        and divided by -i hbar (e/C) psi for H, +i hbar (e/C) psi for E, so
        which buffer holds a term does not change a bit.

        A term with a dead factor (alpha_l, alpha_j or po identically zero)
        is left out: it is a signed zero, and adding or subtracting one
        leaves every nonzero value as it is.  A commutator whose two alphas
        are both dead has no term left, and with po dead neither has any E
        commutator; those estimates are 0 times the denominator, which keeps
        it NaN where psi is too weak to divide by or not finite.
        """
        live = self.a_live
        psi_in = psi[window]
        weak = np.abs(psi_in) < AMPLITUDE_FLOOR
        den_h, den_e, p2, tmp, *d1 = work
        np.copyto(den_e, psi_in)
        np.copyto(den_e, np.nan + 0.0j, where=weak)  # psi, NaN where too weak to divide by
        np.multiply(self.h_scale, den_e, out=den_h)
        np.multiply(self.e_scale, den_e, out=den_e)
        alpha_psi = halo
        for a in range(3):
            if live[a]:
                np.multiply(alpha[a], psi, out=alpha_psi[a])
            if self.d1_live[a]:
                _central_difference(psi, a, self.inv_2h, window, out=d1[a])
        h_est = np.empty((3,) + psi_in.shape, dtype=complex)
        e_est = np.empty((3,) + psi_in.shape, dtype=complex)
        with np.errstate(invalid="ignore", divide="ignore"):
            for j, l, kk in _CYCLIC:
                a, b = j - 1, l - 1
                est = h_est[kk - 1]
                if not (live[a] or live[b]):
                    np.multiply(0.0, den_h, out=est)
                    continue
                for out, (x, y) in ((est, (a, b)), (p2, (b, a))):
                    # D_x (alpha_y psi) + alpha_x D_y psi; alpha_x or alpha_y
                    # is live, so out is written
                    if live[y]:
                        _central_difference(alpha_psi[y], x, self.inv_2h, window, out=out)
                    if live[x] and live[y]:
                        np.add(out, np.multiply(alpha_in[x], d1[y], out=tmp), out=out)
                    elif live[x]:
                        np.multiply(alpha_in[x], d1[y], out=out)
                np.subtract(est, p2, out=est)
                np.multiply(self.neg_i_hbar, est, out=est)
                np.divide(est, den_h, out=est)
            if not self.phi_live:
                for a in range(3):
                    np.multiply(0.0, den_e, out=e_est[a])
                return h_est, e_est, weak
            po_psi = np.multiply(po, psi, out=halo[0])
            po_in = po[window]
            for a in range(3):
                est = _central_difference(po_psi, a, self.inv_2h, window, out=e_est[a])
                np.multiply(po_in, d1[a], out=tmp)
                np.subtract(est, tmp, out=est)
                np.multiply(self.neg_i_hbar, est, out=est)
                np.divide(est, den_e, out=est)
        return h_est, e_est, weak


def _analytic_estimates(potentials, tf, constants, mesh, window, alpha, po):
    """Same commutators, no grid differencing: every derivative is exact.

    Evaluated on the slab's own cells (window of mesh), like the discrete
    estimates.  All test-function derivatives cancel algebraically;
    carrying them through checks the operator identity rather than
    assuming it.  Each term of pi_j pi_l is subtracted from its twin in
    pi_l pi_j before the terms are summed, and hbar multiplies the Hessian
    pair one factor at a time, so no field term is rounded against an
    O(hbar^2) one and hbar^2 is never formed.  As in the discrete kernel,
    the products of two potentials, equal in both orders, are not formed.
    """
    k = constants
    x, y, z = mesh[0][window[0]], mesh[1][:, window[1]], mesh[2][:, :, window[2]]
    a = [alpha[i][window] for i in range(3)]
    psi = np.asarray(np.broadcast_to(tf.values(x, y, z), a[0].shape), dtype=complex)
    grad = tf.gradient(x, y, z)
    hess = tf.hessian(x, y, z)
    coupling = k.charge / k.c
    da = [[coupling * g for g in row] for row in potentials.grad_a]
    weak = np.abs(psi) < AMPLITUDE_FLOOR
    psi_safe = np.where(weak, np.nan + 0.0j, psi)
    h_est = np.empty((3,) + psi.shape, dtype=complex)
    e_est = np.empty((3,) + psi.shape, dtype=complex)
    po = po[window]
    dpo = [coupling * g for g in potentials.grad_phi]
    with np.errstate(invalid="ignore", divide="ignore"):
        for (j, l, kk) in _CYCLIC:
            j, l = j - 1, l - 1
            comm = (-k.hbar * (k.hbar * (hess[j][l] - hess[l][j]))
                    - 1j * k.hbar * ((da[j][l] - da[l][j]) * psi)
                    - 1j * k.hbar * (a[l] * grad[j] - a[l] * grad[j])
                    - 1j * k.hbar * (a[j] * grad[l] - a[j] * grad[l]))
            h_est[kk - 1] = comm / (-1j * k.hbar * coupling * psi_safe)
        for j in range(3):
            comm = (-1j * k.hbar * (dpo[j] * psi)
                    - 1j * k.hbar * (po * grad[j] - po * grad[j]))
            e_est[j] = comm / (1j * k.hbar * coupling * psi_safe)
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


def _slab_estimates(potentials, grid, constants, mode):
    """Validate the mode and yield the interior block's estimates slab by slab.

    Each item is (s0, s1, estimates): the slab's planes [s0, s1) along
    axis 0 and one (h_est, e_est, weak) per test function of
    default_test_fields().  The generator keeps no reference to the
    estimates it yields, so a consumer that lets go of them before asking
    for the next slab holds one slab's working set at a time.
    """
    if mode not in ("discrete", "analytic"):
        raise DomainError(f"mode must be 'discrete' or 'analytic', got {mode!r}")
    test_fields = default_test_fields()
    coupling = constants.charge / constants.c
    n, m = grid.n, grid.n - 4
    ax = grid.axis
    across = ax[1:n - 1]
    slabs = _slabs(2, n - 2, m * m)
    s0, s1 = slabs[0]
    halo_shape = (s1 - s0 + 2, m + 2, m + 2)
    _keep_slab_pages(math.prod(halo_shape))
    if mode == "discrete":
        estimate = _DiscreteKernel(constants, grid.h, halo_shape, test_fields,
                                   _live_terms(potentials)).slab
    else:
        def estimate(mesh, window, alpha, po):
            return [_analytic_estimates(potentials, tf, constants, mesh, window, alpha, po)
                    for tf in test_fields]

    def slab(s0, s1):
        # the slab's interior cells and the one-cell halo the stencils reach,
        # on broadcast axes; the potentials are full-shape views of theirs
        mesh = (ax[s0 - 1:s1 + 1, None, None], across[None, :, None], across[None, None, :])
        shape = (s1 - s0 + 2, m + 2, m + 2)
        window = (slice(1, s1 - s0 + 1), slice(1, m + 1), slice(1, m + 1))
        alpha = [np.broadcast_to(coupling * a, shape) for a in potentials.a(*mesh)]
        po = np.broadcast_to(coupling * potentials.phi(*mesh), shape)
        return estimate(mesh, window, alpha, po)

    for s0, s1 in slabs:
        yield s0, s1, slab(s0, s1)  # the mesh and potentials are gone by the yield


def _fold_errors(h_error: float, e_error: float, expected, estimates, live) -> tuple:
    """(h_error, e_error) raised to the worst deviation of one slab's estimates
    from expected, the constant MaxwellFields (curl A, -grad phi) of the field.

    Only the components the field can move are folded, as live (a mask from
    _live_terms) says: H_k where A_j or A_l is live for cyclic (j, l, k), E_j
    where phi is.  The discrete kernel makes a dead component's estimate 0
    times the denominator, and the analytic route a difference of equal
    terms over it (the Hessian of every default test function is symmetric
    to the bit).  Its expected value is exactly 0, so it can never raise a
    maximum.  All dead estimates are NaN on the same cells,
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


def _fold_spread(spread: float, estimates) -> float:
    """spread raised to the worst disagreement between two test functions on one slab."""
    for (h_a, e_a, weak_a), (h_b, e_b, weak_b) in itertools.combinations(estimates, 2):
        for j in range(3):
            spread = _worst(spread, np.abs(h_a[j] - h_b[j]), weak_a, weak_b)
            spread = _worst(spread, np.abs(e_a[j] - e_b[j]), weak_a, weak_b)
    return spread


def commutator_field_extract(potentials: LinearPotentials, grid: Grid3,
                             constants: PhysicalConstants | None = None,
                             mode: str = "discrete") -> ExtractResult:
    """Estimate the external intensities from kinetic-momentum commutators.

    mode "discrete" uses central differences; "analytic" uses the exact
    derivatives of default_test_fields().  Estimates from every test
    function are compared pairwise and averaged on the interior block, one
    slab of planes at a time; the returned fields are NaN outside the
    block.  A grid whose coordinates or (e/C)-scaled potentials overflow
    when squared raises DomainError, as in convergence_study.
    """
    constants = PhysicalConstants() if constants is None else constants
    n = grid.n
    _check_box_scale(potentials, (n - 1) // 2 * grid.h, constants, grid.h)
    h_field = np.full((3,) + (n,) * 3, np.nan)
    e_field = np.full((3,) + (n,) * 3, np.nan)
    h_error = e_error = spread = 0.0
    excluded = 0
    expected = classical_maxwell_reference(potentials, (0.0, 0.0, 0.0))
    live = _live_terms(potentials)
    for s0, s1, estimates in _slab_estimates(potentials, grid, constants, mode):
        excluded += sum(int(np.count_nonzero(weak)) for _, _, weak in estimates)
        h_error, e_error = _fold_errors(h_error, e_error, expected, estimates, live)
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


def _check_box_scale(potentials, half_width, constants, spacing) -> None:
    """Refuse a box whose coordinates or coupled potentials overflow when squared.

    The Gaussian test functions square the coordinates, and the kinetic
    momenta multiply (e/C) A and (e/C) phi by the samples, then difference
    and sum a few such products.  All of that stays finite when every
    coordinate and coupled potential on the box is at most
    sqrt(float max) / 8 in magnitude; one limit serves both.  The
    potentials are linear, so their largest magnitude on the box is at a
    corner.
    """
    limit = math.sqrt(sys.float_info.max) / 8.0
    ends = np.array([-half_width, half_width])
    x, y, z = np.meshgrid(ends, ends, ends, indexing="ij")
    coupling = constants.charge / constants.c
    with np.errstate(over="ignore", invalid="ignore"):
        fields = (*potentials.a(x, y, z), potentials.phi(x, y, z))
        largest = max([half_width] + [float(np.max(np.abs(coupling * f))) for f in fields])
    if not largest <= limit:
        raise DomainError(f"grid spacing {spacing!r} is too large for these potentials and "
                          f"constants: a coordinate or an (e/C)-scaled potential on the box "
                          f"reaches {largest:.3g}, whose square overflows")


def convergence_study(potentials: LinearPotentials, spacings,
                      constants: PhysicalConstants | None = None) -> ConvergenceResult:
    """Error-versus-spacing fit for the discrete extraction.

    spacings must be at least three values, each half the previous and
    each a spacing Grid3 accepts.  The physical box is fixed by the coarsest
    spacing (nine points across), so finer grids refine the same volume.
    """
    constants = PhysicalConstants() if constants is None else constants
    spac = [h if isinstance(h, (bool, np.bool_)) else float(h) for h in spacings]
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
    _check_box_scale(potentials, half_width, constants, spac[0])
    expected = classical_maxwell_reference(potentials, (0.0, 0.0, 0.0))
    live = _live_terms(potentials)
    errors = []
    sizes = []
    for h in spac:
        n = int(round(2.0 * half_width / h)) + 1
        if n % 2 == 0:
            n += 1
        h_error = e_error = 0.0
        for _, _, estimates in _slab_estimates(potentials, Grid3(n=n, h=h), constants,
                                               "discrete"):
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
