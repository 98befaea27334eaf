"""Discrete minimal coupling on a cubic grid and the commutator field probe.

An external field is a pair of static potentials linear in position, given
by their constant coefficients (LinearPotentials, built by name in
make_preset).  The intensities it should produce, H = curl A and
E = -grad phi, are read once from those coefficients
(classical_maxwell_reference), and every estimate's error is its distance
from them; so is the bound on the potentials over the box
(LinearPotentials.box_max) that refuses a box where they could overflow.

Kinetic momentum components are applied with symmetric central differences
(no periodic wrap: boundary cells are marked invalid), all through one
stencil (_difference); central_difference applies it on the full grid.
Commuting the discrete components and dividing out the test function
recovers the external intensities to second order in the spacing.  For
linear potentials the central difference obeys the exact product rule
D_j (a psi) = a D_j psi + (d_j a) M_j psi, M_j psi the mean of psi at
x +- h e_j, so hbar, C and e cancel and each estimate has an exact discrete
value built from M_j psi / psi, which each test function gives in closed
form.

The extraction works on the interior block, the n - 4 cells per axis two
layers inside the box, and walks it in slabs of whole planes along axis 0,
each sized to stay near an L2 cache.  One generator (_slab_estimates)
builds every slab on broadcast axes (x of shape (p, 1, 1), y (1, q, 1),
z (1, 1, q)) rather than full coordinate arrays, through one discrete
kernel per grid (_DiscreteKernel), and yields its estimates, which are
dropped before the next slab is built, so no full-grid complex temporary
is ever made.  commutator_field_extract folds the error maxima, the
distance from the exact discrete value (rounding alone), the test-function
spread and the per-cell mean; convergence_study folds only the error
maxima, so it holds one slab's working set.  The error maxima take only the
intensity components the field can move: a dead one's estimate is 0
against an expected 0.

One rule decides a breakdown: a test-function sample that is NaN or
infinite raises ArithmeticError where it is taken.  On finite samples every
stencil term is finite (_check_box_scale) and the denominator psi is at
least AMPLITUDE_FLOOR in magnitude, so an estimate is NaN exactly where it
is not divided out, on weak cells and the gutter, and every fold is a plain
NaN-skipping maximum.  The closed-form prediction is the one input not
computed from the samples, so a prediction that is NaN where its estimate
is not raises as well.  Every interior cell sees the same operations in the
same order whatever the slab size, so every result, a refusal included, is
the one a single whole-block pass gives, bit for bit.

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
from .errors import DomainError, _axis, is_integer, number_array, real

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


def make_preset(name: str, b0: float = 1.0, e0: float = 1.0) -> LinearPotentials:
    """The named field: a uniform H = (0, 0, b0) from A = (-b0 y / 2, b0 x / 2, 0),
    a uniform E = (e0, 0, 0) from phi = -e0 x, or none."""
    if name == "uniform_b":
        number_array(b0, "potential coefficients")  # a bool: 0.5 * True would hide it
        return LinearPotentials(grad_a=((0.0, 0.5 * b0, 0.0), (-0.5 * b0, 0.0, 0.0), _ZERO3))
    if name == "linear_phi":
        number_array(e0, "potential coefficients")
        return LinearPotentials(grad_phi=(-e0, 0.0, 0.0))
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
    thresholds, mallopt(3)), and a slab frees a few dozen arrays of at most
    halo_cells complex cells at once.  Under the default thresholds every
    slab would unmap its working set and fault it back in: about 50 000
    minor page faults per study over h = 0.2 ... 0.025.  Allocating and
    freeing one untouched block of 24 such arrays lifts both thresholds past
    the at most 37 alive at once, for one mmap/munmap pair and no
    resident page, up to glibc's 32 MiB cap (reached near n = 170).  Under
    other allocators this is an ordinary short-lived allocation.
    """
    np.empty(24 * halo_cells, dtype=complex)


def _difference(values, first, step, inv_2h, out) -> np.ndarray:
    """Central difference of the flat run values along the axis whose
    neighbours lie step cells apart: out's length of cells from cell first on.

    inv_2h is 1 / (2 h): numpy multiplies a complex array by a real
    scalar as a complex product with (c + 0j), so on finite values the
    product has the quotient's bits, up to the sign of a zero component,
    without the cost of a complex division.
    """
    cells = out.shape[0]
    np.subtract(values[first + step:first + step + cells],
                values[first - step:first - step + cells], out=out)
    return np.multiply(out, inv_2h, out=out)


def central_difference(j: int, grid: Grid3, psi) -> np.ndarray:
    """D_j psi, the central difference along axis j, on the full grid.

    psi must be sampled on the full grid.  The first and last cells along
    axis j, where the stencil would leave the box, come back NaN.
    """
    j = _axis(j)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (grid.n,) * 3:
        raise DomainError(f"psi shape {psi.shape} does not match grid {(grid.n,)*3}")
    step = grid.n ** (3 - j)
    out = np.empty(psi.size, dtype=complex)
    _difference(psi.reshape(-1), step, step, 1.0 / (2.0 * grid.h), out[step:-step])
    out = out.reshape(psi.shape)
    # the flat run wraps into the next row or plane there
    np.moveaxis(out, j - 1, 0)[[0, -1]] = np.nan
    return out


@dataclass(frozen=True)
class TestField:
    """Smooth scalar probe psi and the closed form of M_j psi / psi, j = 1, 2, 3
    (module docstring), computed without a stencil.  Both take broadcast axes,
    x of shape (p, 1, 1), y (1, q, 1) and z (1, 1, q), and return arrays that
    broadcast to (p, q, q), with fewer cells where psi does not vary."""

    values: Callable      # (x, y, z) -> complex array
    mean_ratio: Callable  # (h, x, y, z) -> [3] arrays


def _unit_phasor(theta) -> np.ndarray:
    """exp(1j * theta) for real theta, as cos and sin written into the real
    and imaginary parts: the bits of the complex exponential (cexp(0 + i t)
    is (cos t, sin t)) at half its cost.  theta must not be -0, whose sine
    the complex exponential reads as +0."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def plane_wave_field(k_vec) -> TestField:
    kx, ky, kz = (float(v) for v in k_vec)

    def values(x, y, z):
        # + 0.0 turns a -0 first term into +0, so the phase is never -0
        return _unit_phasor((kx * x + 0.0) + ky * y + kz * z)

    def mean_ratio(h, x, y, z):
        return [np.cos(kj * h) for kj in (kx, ky, kz)]

    return TestField(values=values, mean_ratio=mean_ratio)


def _gaussian(x, y, z, center, w2):
    """The real envelope exp(-r^2 / 2 w^2) about center."""
    cx, cy, cz = center
    return np.exp(-0.5 * ((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2) / w2)


def gaussian_field() -> TestField:
    cx, cy, cz = center = (0.05, -0.04, 0.03)
    w2 = 1.0

    def values(x, y, z):
        return _gaussian(x, y, z, center, w2) + 0.0j

    def mean_ratio(h, x, y, z):
        # exp(-h^2/2w^2) cosh(h (x_j - c_j)/w^2) as a mean of two shift ratios: no overflow
        return [0.5 * (np.exp(-h * (0.5 * h + d) / w2) + np.exp(-h * (0.5 * h - d) / w2))
                for d in (x - cx, y - cy, z - cz)]

    return TestField(values=values, mean_ratio=mean_ratio)


def modulated_field() -> TestField:
    k_vec = (0.8, -0.5, 0.6)
    wave = plane_wave_field(k_vec).values
    w2 = 1.2 ** 2

    def values(x, y, z):
        # (c + i s) g, g real, part by part: the complex product with
        # (g + 0i) adds only the exact zeros s * 0 and c * 0, which leave a
        # nonzero part as it is
        out = wave(x, y, z)
        g = _gaussian(x, y, z, (0.0, 0.0, 0.0), w2)
        np.multiply(out.real, g, out=out.real)
        np.multiply(out.imag, g, out=out.imag)
        return out

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


def _h_live(a_live) -> list:
    """Whether each H_k can move: A_j or A_l is live for cyclic (j, l, k)."""
    return [a_live[(k + 1) % 3] or a_live[(k + 2) % 3] for k in range(3)]


# The interior block's cells of a slab's (..., p, n - 2, n - 2) planes; the
# rest is the one-cell gutter round each plane.
_WINDOW = (Ellipsis, slice(1, -1), slice(1, -1))


class _DiscreteKernel:
    """The discrete estimator on one grid, walked slab by slab on flat planes.

    A slab's samples cover its own planes and one plane on either side, each
    plane the full (n - 2)^2 cross-section of grid points 1 ... n - 2 per
    axis, and are kept as one flat run in C order.  A cell's neighbour along
    axis 0, 1 or 2 is then (n - 2)^2, n - 2 or 1 cells away, so every
    stencil operand is one contiguous slice of the run, and every estimate
    is computed on the own planes whole.  The one-cell gutter round each
    plane's (n - 4)^2 window of interior cells, where the axis-1 and axis-2
    stencils reach into the next row or plane, gets a NaN denominator, as
    do the cells where psi is too weak to divide by: every estimate there is
    NaN, which every fold skips.  A gutter stencil spans a whole row or
    plane where an interior one spans two cells, so its terms can be larger
    than any interior term, but no larger than the bound _check_box_scale
    keeps finite.

    Made once per grid: the stencil offsets and scale, which potentials are
    live (_live_terms), and every buffer the commutators are evaluated into,
    sized for the grid's first slab (a shorter last slab uses their leading
    cells).  The live potentials are copied into flat runs once per slab,
    shared by every test function.  Each test function keeps its samples in
    a buffer of its own, so the two planes one slab shares with the next
    (its last own plane and its upper halo) are carried over instead of
    sampled again; every plane is checked finite once, when it is sampled.
    """

    def __init__(self, h, n, planes, test_fields, live):
        q = n - 2
        self.inv_2h = 1.0 / (2.0 * h)
        self.plane = q * q
        self.offsets = (q * q, q, 1)
        self.a_live, self.phi_live = live
        # D_a psi enters A_x D_a psi (x != a) and phi D_a psi of the E block
        self.d1_live = [self.phi_live or any(self.a_live[x] for x in range(3) if x != a)
                        for a in range(3)]
        self.test_fields = test_fields
        halo = (planes + 2) * self.plane
        cells = planes * self.plane
        self.samples = [np.empty(halo, dtype=complex) for _ in test_fields]
        self.potentials = [np.empty(halo) if on else None for on in (*self.a_live, self.phi_live)]
        self.a_psi = [np.empty(halo, dtype=complex) for _ in range(3)]
        self.work = [np.empty(cells, dtype=complex) for _ in range(6)]
        self.carry = None  # first of the planes the next slab shares

    def _sample(self, mesh, halo, shape) -> list:
        x, y, z = mesh
        start = 0 if self.carry is None else 2
        for tf, psi in zip(self.test_fields, self.samples):
            if start:
                psi[:2 * self.plane] = psi[self.carry * self.plane:(self.carry + 2) * self.plane]
            new = psi[:halo].reshape(shape)[start:]
            new[...] = tf.values(x[start:], y, z)
            if not np.isfinite(new).all():
                raise ArithmeticError("a test function sample is NaN or infinite")
        self.carry = shape[0] - 2
        return [psi[:halo] for psi in self.samples]

    def slab(self, mesh, potentials) -> list:
        """(h_est, e_est) for every test function on the next slab.

        mesh holds the broadcast axes of the slab's p own planes plus one
        plane on either side, across the full (n - 2)^2 cross-section;
        slabs must come in order along axis 0.  h_est and e_est are shaped
        (3, p, n - 2, n - 2), NaN on the gutter and where psi is too weak to
        divide by; _WINDOW selects the interior cells.
        """
        shape = np.broadcast_shapes(*(axis.shape for axis in mesh))
        halo = math.prod(shape)
        for buf, values in zip(self.potentials, (*potentials.a(*mesh), potentials.phi(*mesh))):
            if buf is not None:
                np.copyto(buf[:halo].reshape(shape), values)
        pots = [None if buf is None else buf[:halo] for buf in self.potentials]
        a_psi = [buf[:halo] for buf in self.a_psi]
        work = [buf[:halo - 2 * self.plane] for buf in self.work]
        planes = (shape[0] - 2,) + shape[1:]
        return [self._estimate(psi, pots, a_psi, work, planes)
                for psi in self._sample(mesh, halo, shape)]

    def _estimate(self, psi, pots, a_psi, work, planes) -> tuple:
        """Apply each commutator to one test function's samples psi.

        The composition pi_j pi_l is distributed over the four operator terms
        (exact at the discrete level by linearity).  Two of them are the same
        in both orders, -hbar^2 D_j D_l psi (the symmetric stencil has
        D_j D_l = D_l D_j) and (e/C)^2 A_j A_l psi, and so is the term
        (e/C)^2 A_j phi psi of [pi_j, pi_o]; they cancel in the commutator
        and are never formed.  Every term left is linear in hbar (e/C), the
        factor the intensities are solved by dividing out, so it is never
        multiplied in: the estimates are evaluated on the flat own planes,
        into the buffers in a_psi and work one operation at a time,
        grouped from left to right as in

            H_k = ((D_j (A_l psi) + A_j D_l psi) - (D_l (A_j psi) + A_l D_j psi)) / psi
            E_j = (phi D_j psi - D_j (phi psi)) / psi

        for cyclic (j, l, k), so which buffer holds a term does not change
        a bit, and no constant can change one.

        A term with a dead factor (A_l, A_j or phi identically zero) is left
        out: it is a signed zero, and adding or subtracting one leaves every
        nonzero value as it is, so only the sign of an exact-zero estimate
        can differ, which no fold sees.  An H estimate whose two A
        components are both dead has no term left, and with phi dead neither
        has any E estimate; those estimates are 0 times the denominator,
        which keeps them NaN where it is.  A block with no live component is
        one such array broadcast to (3, ...).
        """
        live = self.a_live
        h_live = _h_live(live)
        first, offsets = self.plane, self.offsets
        den, p2, tmp, *d1 = work
        own = slice(first, first + den.shape[0])
        weak = np.abs(psi[own]) < AMPLITUDE_FLOOR
        cells = weak.reshape(planes)
        cells[:, 0] = cells[:, -1] = cells[:, :, 0] = cells[:, :, -1] = True  # the gutter
        np.copyto(den, psi[own])
        np.copyto(den, np.nan + 0.0j, where=weak)  # psi, NaN where not divided by
        for a in range(3):
            if live[a]:
                np.multiply(pots[a], psi, out=a_psi[a])
            if self.d1_live[a]:
                _difference(psi, first, offsets[a], self.inv_2h, d1[a])
        a_in = [None if pot is None else pot[own] for pot in pots]
        block = (3,) + planes
        with np.errstate(invalid="ignore", divide="ignore"):
            dead = None
            if not (any(h_live) and self.phi_live):
                dead = np.multiply(0.0, den).reshape(planes)
            h_est = e_est = None
            if any(h_live):
                h_est = np.empty(block, dtype=complex)
                for j, l, kk in _CYCLIC:
                    a, b = j - 1, l - 1
                    est = h_est[kk - 1].reshape(-1)
                    if not h_live[kk - 1]:
                        np.multiply(0.0, den, out=est)
                        continue
                    for out, (x, y) in ((est, (a, b)), (p2, (b, a))):
                        # D_x (A_y psi) + A_x D_y psi; A_x or A_y is live, so
                        # out is written
                        if live[y]:
                            _difference(a_psi[y], first, offsets[x], self.inv_2h, out)
                        if live[x] and live[y]:
                            np.add(out, np.multiply(a_in[x], d1[y], out=tmp), out=out)
                        elif live[x]:
                            np.multiply(a_in[x], d1[y], out=out)
                    np.subtract(est, p2, out=est)
                    np.divide(est, den, out=est)
            if self.phi_live:
                e_est = np.empty(block, dtype=complex)
                phi_psi = np.multiply(pots[3], psi, out=a_psi[0])
                for a in range(3):
                    est = np.multiply(a_in[3], d1[a], out=e_est[a].reshape(-1))
                    _difference(phi_psi, first, offsets[a], self.inv_2h, tmp)
                    np.subtract(est, tmp, out=est)
                    np.divide(est, den, out=est)
        return (np.broadcast_to(dead, block) if h_est is None else h_est,
                np.broadcast_to(dead, block) if e_est is None else e_est)


def _worst(current: float, diffs: np.ndarray) -> float:
    """max(current, largest non-NaN entry of diffs)."""
    return float(np.fmax.reduce(diffs, axis=None, initial=current))


def _slab_estimates(potentials, grid):
    """Yield the interior block's estimates slab by slab.

    Each item is (s0, s1, estimates): the slab's planes [s0, s1) along
    axis 0 and one (h_est, e_est) per test function of
    default_test_fields(), on the planes' full (n - 2)^2 cross-section
    (_DiscreteKernel.slab).  The generator keeps no reference to the
    estimates it yields, so a consumer that lets go of them before asking
    for the next slab holds one slab's working set at a time.
    """
    n, m = grid.n, grid.n - 4
    ax = grid.axis
    across = ax[1:n - 1]
    slabs = _slabs(2, n - 2, m * m)
    s0, s1 = slabs[0]
    _keep_slab_pages((s1 - s0 + 2) * (n - 2) ** 2)
    kernel = _DiscreteKernel(grid.h, n, s1 - s0, default_test_fields(), _live_terms(potentials))
    for s0, s1 in slabs:
        # the slab's planes and the one-plane halo the stencils reach, on
        # broadcast axes; the mesh is gone by the yield
        mesh = (ax[s0 - 1:s1 + 1, None, None], across[None, :, None], across[None, None, :])
        yield s0, s1, kernel.slab(mesh, potentials)


def _deviation(est: np.ndarray, want, diff: np.ndarray, mag: np.ndarray) -> np.ndarray:
    """|est - want| into mag, through diff; where want is 0 the subtraction
    is skipped, since x - 0 keeps every bit of |x|, NaN and -0 included."""
    if want == 0.0:
        return np.abs(est, out=mag)
    return np.abs(np.subtract(est, want, out=diff), out=mag)


def _fold_errors(h_error: float, e_error: float, expected, estimates, live) -> tuple:
    """(h_error, e_error) raised to the worst deviation of one slab's estimates
    from expected, the constant MaxwellFields (curl A, -grad phi) of the field.

    Each estimate is folded on its slab's whole planes, skipping its NaN
    cells (the gutter and the weak cells).  Only the components the field
    can move are folded, as live (a mask from _live_terms) says: H_k where
    A_j or A_l is live for cyclic (j, l, k), E_j where phi is; a dead
    component's estimate is 0 against an expected 0.  An expected value of
    exactly 0 is not subtracted (_deviation).  Every difference and its
    magnitude go into the same two cell buffers.
    """
    a_live, phi_live = live
    h_live = _h_live(a_live)
    diff = np.empty_like(estimates[0][0][0])
    mag = np.empty(diff.shape)
    for h_est, e_est in estimates:
        for j in range(3):
            if h_live[j]:
                h_error = _worst(h_error, _deviation(h_est[j], expected.h[j], diff, mag))
            if phi_live:
                e_error = _worst(e_error, _deviation(e_est[j], expected.e[j], diff, mag))
    return h_error, e_error


def _fold_prediction(error: float, potentials, h, mesh, test_fields, estimates) -> float:
    """error raised to the worst distance of one slab's estimates from their exact
    discrete value: with r_j = M_j psi / psi from mean_ratio on mesh, the slab's
    cells, H_k = (d_j A_l) r_j - (d_l A_j) r_l for cyclic (j, l, k) and E_j =
    -(d_j phi) r_j.  r_j may be undefined only where psi vanishes, on weak
    cells, whose estimates are NaN; a prediction that is NaN where its
    estimate is not raises ArithmeticError."""
    g, g_phi = potentials.grad_a, potentials.grad_phi
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for tf, (h_est, e_est) in zip(test_fields, estimates):
            r = tf.mean_ratio(h, *mesh)
            pairs = [(h_est[k - 1], g[j - 1][l - 1] * r[j - 1] - g[l - 1][j - 1] * r[l - 1])
                     for j, l, k in _CYCLIC] + [(e_est[a], -g_phi[a] * r[a]) for a in range(3)]
            for est, want in pairs:
                if (np.isnan(want) & ~np.isnan(est)).any():
                    raise ArithmeticError("the discrete prediction is NaN where its estimate "
                                          "is not")
                error = _worst(error, np.abs(est - want))
    return error


def _fold_spread(spread: float, estimates) -> float:
    """spread raised to the worst disagreement between two test functions on one slab."""
    for (h_a, e_a), (h_b, e_b) in itertools.combinations(estimates, 2):
        for j in range(3):
            spread = _worst(spread, np.abs(h_a[j] - h_b[j]))
            spread = _worst(spread, np.abs(e_a[j] - e_b[j]))
    return spread


def commutator_field_extract(potentials: LinearPotentials, grid: Grid3) -> ExtractResult:
    """Estimate the external intensities from kinetic-momentum commutators.

    Estimates from every test function of default_test_fields() are compared
    with curl A and -grad phi, with their exact discrete value and pairwise,
    and averaged on the interior block, one slab of planes at a time; the
    returned fields are NaN outside the block.  A grid on which the
    estimates could overflow raises DomainError, as in convergence_study
    (_check_box_scale).
    """
    n = grid.n
    _check_box_scale(potentials, (n - 1) // 2 * grid.h, grid.h)
    h_field = np.full((3,) + (n,) * 3, np.nan)
    e_field = np.full((3,) + (n,) * 3, np.nan)
    h_error = e_error = predicted = spread = 0.0
    excluded = 0
    expected = classical_maxwell_reference(potentials)
    live = _live_terms(potentials)
    test_fields = default_test_fields()
    ax, across = grid.axis, grid.axis[2:n - 2]
    for s0, s1, estimates in _slab_estimates(potentials, grid):
        h_error, e_error = _fold_errors(h_error, e_error, expected, estimates, live)
        spread = _fold_spread(spread, estimates)
        inner = [tuple(v[_WINDOW] for v in est) for est in estimates]
        excluded += sum(int(np.count_nonzero(np.isnan(h[0]))) for h, _ in inner)
        mesh = (ax[s0:s1, None, None], across[None, :, None], across[None, None, :])
        predicted = _fold_prediction(predicted, potentials, grid.h, mesh, test_fields, inner)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for j in range(3):  # one component at a time keeps nanmean's copies small
                out = (j, slice(s0, s1), slice(2, n - 2), slice(2, n - 2))
                h_field[out] = np.nanmean(np.stack([h[j].real for h, _ in inner]), axis=0)
                e_field[out] = np.nanmean(np.stack([e[j].real for _, e in inner]), axis=0)
        del estimates, inner  # freed before the generator builds the next slab
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
    """Refuse a box of this half-width where the estimates could overflow at
    grid spacings down to spacing.

    The Gaussian test functions square the coordinates, and the estimates
    multiply A and phi by the samples (|psi| <= 1), then difference and sum
    a few such products.  A_max = potentials.box_max(half_width) bounds
    |A_l| and |phi| on the box.  The squares stay finite when A_max and every
    coordinate are at most sqrt(float max) / 8.  Every stencil term stays
    finite when 4 A_max / h does, on the gutter too: a difference of A psi
    or phi psi over 2 h is at most A_max / h, a sum adds two, and an
    estimate takes one difference of two sums.
    """
    limit = math.sqrt(sys.float_info.max) / 8.0
    a_max = potentials.box_max(half_width)
    largest = max(half_width, a_max)
    if not largest <= limit:
        raise DomainError(f"grid spacing {spacing!r} is too large for these potentials: a "
                          f"coordinate or a potential on the box of half-width "
                          f"{half_width:.3g} reaches {largest:.3g}, whose square overflows")
    if not math.isfinite(4.0 * a_max / spacing):
        raise DomainError(f"grid spacing {spacing!r} is too small for these potentials: the "
                          f"stencil terms on the box, up to 4 A_max / h with A_max = "
                          f"{a_max:.3g}, overflow")


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
    _check_box_scale(potentials, half_width, spac[-1])
    expected = classical_maxwell_reference(potentials)
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
