"""Grid extraction of field intensities from kinetic-momentum commutators."""

import functools
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diraclab.lattice as lattice_mod
from diraclab.config import RunConfig
from diraclab.constants import PhysicalConstants
from diraclab.errors import DomainError
from diraclab.lattice import (
    AMPLITUDE_FLOOR,
    Grid3,
    LinearPotentials,
    PRESET_NAMES,
    central_difference,
    classical_maxwell_reference,
    commutator_field_extract,
    convergence_study,
    default_test_fields,
    gaussian_field,
    make_preset,
    plane_wave_field,
)
from diraclab.report import report_json
from diraclab.suites import _prediction_bound, run_suite

# frozen: sin(k h) / h for k = 1.3, h = 0.1
FROZEN_SYMBOL = 1.2963414261969486


def test_grid_geometry():
    grid = Grid3(n=9, h=0.25)
    assert grid.axis[0] == -1.0 and grid.axis[-1] == 1.0
    assert grid.axis[4] == 0.0
    inner = grid.interior_mask()
    assert inner.shape == (9, 9, 9)
    assert not inner[0].any() and not inner[-1].any()
    assert inner[4, 4, 4]


def test_grid_rejects_bad_parameters():
    with pytest.raises(DomainError):
        Grid3(n=8, h=0.1)
    with pytest.raises(DomainError):
        Grid3(n=7, h=0.1)
    with pytest.raises(DomainError):
        Grid3(n=9, h=-0.1)
    assert Grid3(n=lattice_mod.MAX_GRID_SIZE, h=0.1).n == 1025
    with pytest.raises(DomainError, match="from 9 to 1025, got 1027"):
        Grid3(n=1027, h=0.1)


def _intensities(potentials):
    """(H, E) as floats: curl A and -grad phi of the coefficients."""
    ref = classical_maxwell_reference(potentials)
    assert all(type(v) is float for v in (*ref.h, *ref.e))
    return ref.h, ref.e


def test_presets_and_validation():
    zero = (0.0, 0.0, 0.0)
    for b0, e0 in ((1.0, 1.0), (1.3, 0.7), (-2.1, 3.3)):
        assert _intensities(make_preset("uniform_b", b0, e0)) == ((0.0, 0.0, b0), zero)
        assert _intensities(make_preset("linear_phi", b0, e0)) == (zero, (e0, 0.0, 0.0))
        assert _intensities(make_preset("zero", b0, e0)) == (zero, zero)
    with pytest.raises(DomainError):
        make_preset("sideways")
    # a non-finite amplitude is refused where its potentials are built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, amplitudes in (("uniform_b", {"b0": math.nan}), ("linear_phi", {"e0": math.inf})):
            with pytest.raises(DomainError, match="coefficients must be finite"):
                make_preset(name, **amplitudes)


def test_discrete_symbol_frozen():
    # central difference of exp(i k x) multiplies by (i / h) sin(k h)
    grid = Grid3(n=17, h=0.1)
    psi = plane_wave_field((1.3, 0.0, 0.0)).values(*grid.meshgrid())
    inner = grid.interior_mask()
    ratio = -1j * central_difference(1, grid, psi)[inner] / psi[inner]
    assert np.max(np.abs(ratio - FROZEN_SYMBOL)) <= 1e-12
    assert abs(math.sin(1.3 * 0.1) / 0.1 - FROZEN_SYMBOL) == 0.0
    # NaN exactly on the first and last cells along the axis, where the
    # flat run wraps and the stencil would leave the box
    for j in (1, 2, 3):
        edge = np.zeros((17,) * 3, dtype=bool)
        np.moveaxis(edge, j - 1, 0)[[0, -1]] = True
        assert np.array_equal(np.isnan(central_difference(j, grid, psi)), edge)


@settings(max_examples=20, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2))
def test_kinetic_momentum_linear(a, b):
    # central_difference is the stencil of the kinetic momentum -i hbar D_j
    grid = Grid3(n=9, h=0.2)
    x, y, z = grid.meshgrid()
    f = plane_wave_field((0.9, -0.3, 0.4)).values(x, y, z)
    g = gaussian_field().values(x, y, z)
    lhs = central_difference(2, grid, a * f + b * g)
    rhs = a * central_difference(2, grid, f) + b * central_difference(2, grid, g)
    inner = grid.interior_mask()
    assert np.nanmax(np.abs(lhs[inner] - rhs[inner])) <= 1e-12


@pytest.mark.parametrize("axis", [True, False, 1.0, 2.0, "1", None, 0, 4])
def test_kinetic_momentum_rejects_an_axis_that_is_not_the_int_1_2_or_3(axis):
    grid = Grid3(n=9, h=0.2)
    psi = np.ones((9, 9, 9), dtype=complex)
    with pytest.raises(DomainError, match="axis must be"):
        central_difference(axis, grid, psi)


def test_extracted_uniform_intensity_coarse_grid():
    # even the coarse grid lands near the exact value, on every cell
    res = commutator_field_extract(make_preset("uniform_b"), Grid3(n=9, h=0.2))
    assert res.h_error <= 0.05
    assert math.isfinite(res.h_range[2]) and res.h_range[2] <= 2.0 * res.h_error


def test_extraction_discrete_uniform_b():
    grid = Grid3(n=17, h=0.1)
    res = commutator_field_extract(make_preset("uniform_b"), grid)
    assert res.h_error <= 0.01
    assert res.e_error <= 0.01
    assert res.function_deviation <= 2.0 * max(res.h_error, res.e_error) + 1e-13
    assert res.h_range[2] <= 2.0 * res.h_error + 1e-13


@pytest.mark.parametrize("n, h", [(9, 0.2), (17, 0.1)])
def test_mean_ratios_match_the_sampled_stencil_mean(n, h):
    # each probe's closed form against (psi(x + h e_j) + psi(x - h e_j)) / (2 psi)
    grid = Grid3(n=n, h=h)
    ax = grid.axis
    x, y, z = ax[1:-1, None, None], ax[None, 1:-1, None], ax[None, None, 1:-1]
    inner = (slice(1, -1),) * 3
    for tf in default_test_fields():
        psi = tf.values(*grid.meshgrid())
        ratio = tf.mean_ratio(h, x, y, z)
        for j in range(3):
            up, down = list(inner), list(inner)
            up[j], down[j] = slice(2, None), slice(None, -2)
            sampled = (psi[tuple(up)] + psi[tuple(down)]) / (2.0 * psi[inner])
            assert np.max(np.abs(np.broadcast_to(ratio[j], sampled.shape) - sampled)) <= 1e-14


_COEFFICIENT = st.floats(-2.0, 2.0)
_TRIPLE = st.tuples(_COEFFICIENT, _COEFFICIENT, _COEFFICIENT)


@settings(max_examples=50, deadline=None)
@given(st.tuples(_TRIPLE, _TRIPLE, _TRIPLE), _TRIPLE, st.booleans(),
       st.sampled_from([(9, 0.2), (17, 0.1)]))
def test_discrete_prediction_holds_for_any_linear_field(grad_a, grad_phi, symmetric, grid):
    # A symmetric grad_a is a pure gauge (curl A = 0); every draw with a
    # nonzero A_z coefficient or with A and phi both live runs a kernel
    # branch the presets leave idle.
    if symmetric:
        grad_a = tuple(tuple(grad_a[min(k, l)][max(k, l)] for l in range(3)) for k in range(3))
    potentials = LinearPotentials(grad_a=grad_a, grad_phi=grad_phi)
    grid = Grid3(*grid)
    res = commutator_field_extract(potentials, grid)
    assert res.prediction_error <= _prediction_bound(potentials, grid)


def test_extraction_zero_preset_exact_zero():
    grid = Grid3(n=17, h=0.05)
    res = commutator_field_extract(make_preset("zero"), grid)
    assert res.h_error == 0.0
    assert res.e_error == 0.0


def test_convergence_second_order_uniform_b():
    study = convergence_study(make_preset("uniform_b"), (0.2, 0.1, 0.05))
    assert study.grid_sizes == (9, 17, 33)
    assert isinstance(study.order, float)
    assert abs(study.order - 2.0) <= 0.15
    assert study.errors[0] > study.errors[1] > study.errors[2]


def test_convergence_second_order_linear_phi():
    study = convergence_study(make_preset("linear_phi"), (0.2, 0.1, 0.05))
    assert isinstance(study.order, float)
    assert abs(study.order - 2.0) <= 0.15


def test_convergence_zero_preset_reports_exact():
    study = convergence_study(make_preset("zero"), (0.2, 0.1, 0.05))
    assert study.order == "exact"
    assert all(err == 0.0 for err in study.errors)


def test_convergence_rejects_bad_spacings():
    cfg = make_preset("uniform_b")
    with pytest.raises(DomainError):
        convergence_study(cfg, (0.2,))
    with pytest.raises(DomainError):
        convergence_study(cfg, (0.2, 0.15, 0.1))


@pytest.mark.parametrize("spacings, match", [
    ((0.0, 0.0, 0.0), "finite and > 0"),
    ((math.inf, math.inf, math.inf), "finite and > 0"),
    ((math.nan, math.nan, math.nan), "finite and > 0"),
    ((0.2, 0.1, -0.05), "finite and > 0"),
    ((1e-310, 5e-311, 2.5e-311), "1 / \\(2 h\\) overflows"),
    ((1e-308, 5e-309, 2.5e-309), "2.5e-309 is too small"),
    ((1e308, 5e307, 2.5e307), "box width overflows"),
    ((1e300, 5e299, 2.5e299), "square overflows"),
])
def test_convergence_rejects_unusable_spacings_before_any_grid(spacings, match, monkeypatch):
    def no_extraction(*args, **kwargs):
        raise AssertionError("extraction ran on an unusable ladder")

    monkeypatch.setattr(lattice_mod, "_slab_estimates", no_extraction)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            convergence_study(make_preset("uniform_b"), spacings)


# 0.2 halved eight times: the finest grid would have 2049 points per axis
NINE_SPACINGS = tuple(0.2 / 2**i for i in range(9))


def test_eight_spacings_reach_the_largest_grid(monkeypatch):
    # no slab is built: the study's grids are what is checked
    monkeypatch.setattr(lattice_mod, "_slab_estimates", lambda potentials, grid: iter(()))
    study = convergence_study(make_preset("uniform_b"), NINE_SPACINGS[:8])
    assert study.grid_sizes == tuple(8 * 2**i + 1 for i in range(8))
    assert study.grid_sizes[-1] == lattice_mod.MAX_GRID_SIZE


def test_a_ladder_past_the_largest_grid_is_refused_before_any_slab(monkeypatch, tmp_path, capsys):
    from diraclab import cli

    def no_slab(*args, **kwargs):
        raise AssertionError("a slab was built")

    monkeypatch.setattr(lattice_mod, "_slab_estimates", no_slab)
    with pytest.raises(DomainError, match="from 9 to 1025, got 2049"):
        convergence_study(make_preset("uniform_b"), NINE_SPACINGS)
    out = tmp_path / "table.json"
    assert cli.main(["lattice", "--preset", "uniform_b", "--h", ",".join(map(repr, NINE_SPACINGS)),
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert not out.exists()


def test_largest_accepted_box_runs_without_overflow():
    # Half the box is 4 h; coordinates and potentials may reach
    # sqrt(float max) / 8, and every preset then extracts without a warning.
    limit = math.sqrt(sys.float_info.max) / 8.0
    top = limit / 4.0
    for preset in ("uniform_b", "linear_phi", "zero"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            convergence_study(make_preset(preset), (top, top / 2, top / 4))
            with pytest.raises(DomainError, match="square overflows"):
                convergence_study(make_preset(preset), (1.01 * top, 1.01 * top / 2,
                                                        1.01 * top / 4))


_LIMIT = math.sqrt(sys.float_info.max) / 8.0


def _column(*coefficients):
    """A_1 = sum_k c_k x_k and nothing else: grad_a with one live column."""
    return LinearPotentials(grad_a=tuple((c, 0.0, 0.0) for c in coefficients))


# (potentials, half-width, refused) on a box of half-width w at spacing w / 4:
# a coordinate, A or phi on the box may reach sqrt(float max) / 8 = _LIMIT.
BOX_SCALE_ROWS = {
    "coordinates below": (LinearPotentials(), 0.99 * _LIMIT, False),
    "coordinates above": (LinearPotentials(), 1.01 * _LIMIT, True),
    "A one coefficient below": (_column(0.99 * _LIMIT, 0.0, 0.0), 1.0, False),
    "A one coefficient above": (_column(0.0, 0.0, -1.01 * _LIMIT), 1.0, True),
    "A one column summed below": (_column(0.5 * _LIMIT, -0.49 * _LIMIT, 0.0), 1.0, False),
    "A one column summed above": (_column(0.5 * _LIMIT, 0.0, -0.51 * _LIMIT), 1.0, True),
    "A two columns each below": (LinearPotentials(
        grad_a=((0.99 * _LIMIT, -0.99 * _LIMIT, 0.0), (0.0,) * 3, (0.0,) * 3)), 1.0, False),
    "A scaled by the half-width below": (_column(2.0, 0.0, 0.0), 0.49 * _LIMIT, False),
    "A scaled by the half-width above": (_column(2.0, 0.0, 0.0), 0.51 * _LIMIT, True),
    "phi one coefficient below": (LinearPotentials(grad_phi=(0.0, 0.99 * _LIMIT, 0.0)), 1.0,
                                  False),
    "phi one coefficient above": (LinearPotentials(grad_phi=(-1.01 * _LIMIT, 0.0, 0.0)), 1.0,
                                  True),
    "phi summed below": (LinearPotentials(grad_phi=(0.33 * _LIMIT,) * 3), 1.0, False),
    "phi summed above": (LinearPotentials(grad_phi=(0.34 * _LIMIT, -0.34 * _LIMIT, 0.34 * _LIMIT)),
                         1.0, True),
    "A and phi each below, summed below": (LinearPotentials(
        grad_a=make_preset("uniform_b", b0=0.8 * _LIMIT).grad_a,
        grad_phi=(0.0, 0.0, 0.4 * _LIMIT)), 1.0, False),
    "A and phi, one above": (LinearPotentials(
        grad_a=make_preset("uniform_b", b0=2.02 * _LIMIT).grad_a,
        grad_phi=(0.0, 0.0, 0.01 * _LIMIT)), 1.0, True),
    # refused since A_max adds the larger |A_l| and the larger |phi| on the box
    "A and phi each below, summed above": (LinearPotentials(
        grad_a=make_preset("uniform_b", b0=1.2 * _LIMIT).grad_a,
        grad_phi=(0.0, 0.0, 0.6 * _LIMIT)), 1.0, True),
}


@pytest.mark.parametrize("row", BOX_SCALE_ROWS)
def test_box_scale_refusal_table(row):
    potentials, half_width, refused = BOX_SCALE_ROWS[row]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused:
            with pytest.raises(DomainError, match="square overflows"):
                lattice_mod._check_box_scale(potentials, half_width, half_width / 4.0)
        else:
            lattice_mod._check_box_scale(potentials, half_width, half_width / 4.0)


@pytest.mark.parametrize("potentials", [_column(0.0, 1e150, 0.0),
                                        LinearPotentials(grad_phi=(0.0, 0.0, -1e150))],
                         ids=["A", "phi"])
def test_box_scale_refuses_stencil_terms_that_could_overflow(potentials):
    # 4 A_max / h, with A_max = 1e150 on a box of half-width 1, may not overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lattice_mod._check_box_scale(potentials, 1.0, 1e-157)  # 4e307
        with pytest.raises(DomainError, match="spacing 1e-158 is too small"):
            lattice_mod._check_box_scale(potentials, 1.0, 1e-158)  # 4e308


def test_a_potential_that_overflowed_on_the_gutter_is_refused_before_any_grid():
    # A_1 = 1e308 z: every interior term is finite, but a gutter stencil
    # pairs cells a plane apart, where (A psi) / (2 h) overflowed
    potentials = LinearPotentials(grad_a=((0, 0, 0), (0, 0, 0), (1e308, 0, 0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="grid spacing 2.5e-157 is too small"):
            convergence_study(potentials, (1e-156, 5e-157, 2.5e-157))
        with pytest.raises(DomainError, match="grid spacing 2.5e-157 is too small"):
            commutator_field_extract(potentials, Grid3(33, 2.5e-157))


def test_potentials_scaled_past_the_float_range_are_refused():
    # An amplitude of 1e160 makes A, and with it A psi, overflow when
    # squared on an ordinary box.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="square overflows"):
            convergence_study(make_preset("uniform_b", 1e160), (0.2, 0.1, 0.05))


def test_extraction_refuses_a_grid_whose_square_overflows():
    # A single extraction applies the same box check as a convergence study:
    # at h = 1e160 the half width 4e160 overflows when squared.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="square overflows"):
            commutator_field_extract(make_preset("uniform_b"), Grid3(9, 1e160))
        with pytest.raises(DomainError, match="square overflows"):
            commutator_field_extract(make_preset("uniform_b", 1e160), Grid3(9, 0.2))
    limit = math.sqrt(sys.float_info.max) / 8.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = commutator_field_extract(make_preset("zero"), Grid3(9, limit / 4.0))
    assert res.h_error == res.e_error == res.prediction_error == 0.0


# The constants reach the lattice suite only through the physical operator
# of discrete_symbol; the studies and extractions never see them.  Run at a
# set of constants, the suite must keep the default run's bits in every
# other row, also where hbar^2 overflows (hbar above sqrt(float max), about
# 1.34e154) or e/C is subnormal, and under constants scaled by powers of 4
# (exact) in every row.

@functools.lru_cache(maxsize=None)
def _lattice_rows(*flags) -> dict:
    """{claim_id: (computed, abs_err, tol, pass)} of `verify --suite lattice`
    with these flags, which must exit 0; every float as its bits (computed as
    its JSON text)."""
    from diraclab import cli

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["verify", "--suite", "lattice", *flags, "--out", str(out)]) == 0
        checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    return {c["claim_id"]: tuple(v.hex() if isinstance(v, float) else v for v in (
        json.dumps(c["computed"]), c["abs_err"], c["tol"], c["pass"])) for c in checks}


def _assert_rows_kept(rows):
    want = _lattice_rows()
    assert sorted(rows) == sorted(want) and len(want) == 7
    assert all(row[3] for row in want.values())
    assert {cid: rows[cid] for cid in want if rows[cid] != want[cid]} == {}


@pytest.mark.parametrize("hbar", [1e160, 1e200, 1e300])
def test_zero_field_is_exact_at_an_hbar_whose_square_overflows(hbar):
    row = _lattice_rows("--hbar", repr(hbar))["lattice.zero_field_exact"]
    assert row == _lattice_rows()["lattice.zero_field_exact"] and row[3]


@pytest.mark.parametrize("hbar", [1e160, 1e200, 1e300])
def test_linear_phi_converges_at_an_hbar_whose_square_overflows(hbar):
    cid = "lattice.convergence_order.linear_phi"
    assert _lattice_rows("--hbar", repr(hbar))[cid] == _lattice_rows()[cid]


@pytest.mark.parametrize("hbar", [1e160, 1e200, 1e300])
def test_uniform_b_converges_at_an_hbar_whose_square_overflows(hbar):
    cid = "lattice.convergence_order.uniform_b"
    assert _lattice_rows("--hbar", repr(hbar))[cid] == _lattice_rows()[cid]


# (hbar, c, mass, charge) as powers of 4 times the defaults
POWER_OF_4_SCALINGS = [(1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 3, 0), (0, 0, 0, -2),
                       (2, -3, 1, 4), (-5, 5, -2, 1), (40, -40, 40, -40)]


@pytest.mark.parametrize("powers", POWER_OF_4_SCALINGS, ids=str)
def test_constants_scaled_by_powers_of_4_keep_every_lattice_row(powers):
    base = PhysicalConstants()
    flags = [arg for name, p in zip(("hbar", "c", "mass", "charge"), powers)
             for arg in (f"--{name}", repr(getattr(base, name) * 4.0**p))]
    _assert_rows_kept(_lattice_rows(*flags))


SI_FLAGS = ("--hbar", "1.054571817e-34", "--c", "299792458",
            "--mass", "9.1093837015e-31", "--charge", "1.602176634e-19")


@pytest.mark.parametrize("flags", [("--charge", "1e-308"), ("--c", "1e308"),
                                   ("--hbar", "1e200"), ("--hbar", "1e-3"),
                                   ("--c", "137.036", "--charge", "1"), SI_FLAGS],
                         ids=["charge-1e-308", "c-1e308", "hbar-1e200", "hbar-1e-3",
                              "gaussian", "SI"])
def test_extreme_constants_keep_every_lattice_row(flags):
    # e/C is subnormal in the first two; no lattice row reads a constant
    _assert_rows_kept(_lattice_rows(*flags))


def test_grid_rejects_a_spacing_whose_stencil_denominator_underflows():
    # refused once 2 h is below 1 / float max, where the stencil scale
    # 1 / (2 h) overflows; larger subnormal spacings are accepted
    Grid3(n=9, h=1e-308)
    for h in (1e-310, 5e-324):
        with pytest.raises(DomainError, match="1 / \\(2 h\\) overflows"):
            Grid3(n=9, h=h)


@pytest.mark.parametrize("top", [1e-154, 1e-300, 1e-307])
def test_tiny_spacings_run_and_are_exact(top):
    # Without a mixed stencil nothing scales with 1 / h^2, so spacings far
    # below sqrt(float min) run warning-free; the O(h^2) truncation is far
    # below rounding there.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in PRESET_NAMES:
            study = convergence_study(make_preset(name), (top, top / 2, top / 4))
            assert study.order == "exact", (name, study)


def _use_test_fields(monkeypatch, fields):
    """Make the extraction walk fields in place of default_test_fields()."""
    monkeypatch.setattr(lattice_mod, "default_test_fields", lambda: list(fields))


def test_convergence_study_never_asks_for_the_discrete_prediction(monkeypatch):
    # the study folds the error maxima only; the exact discrete value is the
    # extraction's business, so a mean_ratio that raises must not be reached
    def no_prediction(h, x, y, z):
        raise AssertionError("convergence_study evaluated mean_ratio")

    cfg = make_preset("uniform_b", 1.3, 0.7)
    spacings = (0.2, 0.1, 0.05)
    want = [err.hex() for err in convergence_study(cfg, spacings).errors]
    _use_test_fields(monkeypatch, [lattice_mod.TestField(values=tf.values, mean_ratio=no_prediction)
                                   for tf in default_test_fields()])
    assert [err.hex() for err in convergence_study(cfg, spacings).errors] == want
    with pytest.raises(AssertionError, match="mean_ratio"):
        commutator_field_extract(cfg, Grid3(n=9, h=0.2))


def test_convergence_to_dict_layout():
    study = convergence_study(make_preset("zero"), (0.2, 0.1, 0.05))
    d = study.to_dict()
    assert list(d.keys()) == ["h", "n", "max_err", "order"]
    assert d["order"] == "exact"


# --- full-box reference ------------------------------------------------------
#
# An independent implementation of the discrete extraction that works on the
# whole box: every stencil writes into a NaN-filled full-grid array and the
# comparison reaches the interior through a boolean mask.  It applies the same
# operations per cell in the same order as the production code, so the two
# agree to the last bit; ORACLE_ULPS only leaves room for a reassociated
# three-term mean (at most 2 ulp), with a factor 2 to spare.

ORACLE_ULPS = 4


def _full_box_difference(v, axis, h):
    out = np.full(v.shape, np.nan + 0.0j)
    hi, lo, mid = [slice(None)] * 3, [slice(None)] * 3, [slice(None)] * 3
    hi[axis], lo[axis], mid[axis] = slice(2, None), slice(0, -2), slice(1, -1)
    out[tuple(mid)] = (v[tuple(hi)] - v[tuple(lo)]) / (2.0 * h)
    return out


def _full_box_extract(potentials, grid, fields):
    """(h_error, e_error, function_deviation, h_range, h_scale): h_scale[k] is
    the largest |per-cell mean| of H_k, the scale of its range's rounding."""
    x, y, z = grid.meshgrid()
    inner = grid.interior_mask()
    a_vals = potentials.a(x, y, z)
    phi = potentials.phi(x, y, z)
    want = classical_maxwell_reference(potentials)
    b_want, e_want = (tuple(np.full(x.shape, v) for v in want.h),
                      tuple(np.full(x.shape, v) for v in want.e))
    all_h, all_e = [], []
    for tf in fields:
        psi = np.asarray(tf.values(x, y, z), dtype=complex)
        weak = np.abs(psi) < AMPLITUDE_FLOOR
        psi_safe = np.where(weak, np.nan + 0.0j, psi)
        d1 = [_full_box_difference(psi, a, grid.h) for a in range(3)]

        def pi_pi(a, b):
            # pi_a pi_b psi less what pi_b pi_a has too (-hbar^2 D_a D_b psi,
            # (e/C)^2 A_a A_b psi), over -i hbar (e/C)
            return _full_box_difference(a_vals[b] * psi, a, grid.h) + a_vals[a] * d1[b]

        h_est = np.empty((3,) + psi.shape, dtype=complex)
        e_est = np.empty((3,) + psi.shape, dtype=complex)
        with np.errstate(invalid="ignore", divide="ignore"):
            for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                h_est[c] = (pi_pi(a, b) - pi_pi(b, a)) / psi_safe
            phi_psi = phi * psi
            for a in range(3):
                # pi_a pi_o psi - pi_o pi_a psi less (e/C)^2 A_a phi psi, which
                # both have, over +i hbar (e/C)
                e_est[a] = (phi * d1[a] - _full_box_difference(phi_psi, a, grid.h)) / psi_safe
        all_h.append(h_est)
        all_e.append(e_est)

    def worst(pairs):
        top = 0.0
        for got, want in pairs:
            d = np.abs(got[inner] - want[inner])
            d = d[np.isfinite(d)]
            if d.size:
                top = max(top, float(d.max()))
        return top

    comps = range(3)
    h_error = worst((h[j], b_want[j]) for h in all_h for j in comps)
    e_error = worst((e[j], e_want[j]) for e in all_e for j in comps)
    pairs = [(a, b) for a in range(len(fields)) for b in range(a + 1, len(fields))]
    spread = max(
        worst((all_h[a][j], all_h[b][j]) for a, b in pairs for j in comps),
        worst((all_e[a][j], all_e[b][j]) for a, b in pairs for j in comps),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN border cells
        h_field = np.nanmean(np.stack([h.real for h in all_h]), axis=0)
    h_range = tuple(float(np.nanmax(h[inner]) - np.nanmin(h[inner])) for h in h_field)
    h_scale = tuple(float(np.nanmax(np.abs(h[inner]))) for h in h_field)
    return h_error, e_error, spread, h_range, h_scale


def _assert_within_ulps(got, want):
    assert abs(got - want) <= ORACLE_ULPS * np.spacing(abs(want)), (got, want)


def _assert_range_within_ulps(got, want, scale):
    # a difference of two means, each within ORACLE_ULPS of scale's ulp
    assert abs(got - want) <= 2 * ORACLE_ULPS * np.spacing(scale), (got, want, scale)


# No preset has a live A_3, or A and phi live together; these two fields
# run every operator term of the discrete kernel.
LIVE_CONFIGS = {
    "all_live": LinearPotentials(
        grad_a=((0.3, 0.7, -0.2), (-0.4, 0.1, 0.9), (0.6, -0.8, 0.25)),
        grad_phi=(-0.5, 0.35, 0.45)),
    "symmetric_gauge_and_phi": LinearPotentials(
        grad_a=make_preset("uniform_b", b0=1.3).grad_a,
        grad_phi=make_preset("linear_phi", e0=0.7).grad_phi),
}


def _config(name):
    """A preset at amplitudes (1.3, 0.7), or one of LIVE_CONFIGS."""
    return LIVE_CONFIGS[name] if name in LIVE_CONFIGS else make_preset(name, b0=1.3, e0=0.7)


def test_live_configs_are_valid_and_live_everywhere():
    # H = curl A by hand: (d_2 A_3 - d_3 A_2, d_3 A_1 - d_1 A_3, d_1 A_2 - d_2 A_1)
    assert _intensities(LIVE_CONFIGS["all_live"]) == (
        (0.9 - (-0.8), 0.6 - (-0.2), 0.7 - (-0.4)), (0.5, -0.35, -0.45))
    assert _intensities(LIVE_CONFIGS["symmetric_gauge_and_phi"]) == (
        (0.0, 0.0, 1.3), (0.7, 0.0, 0.0))
    assert lattice_mod._live_terms(LIVE_CONFIGS["all_live"]) == ((True,) * 3, True)
    assert (lattice_mod._live_terms(LIVE_CONFIGS["symmetric_gauge_and_phi"])
            == ((True, True, False), True))
    assert lattice_mod._live_terms(make_preset("linear_phi")) == ((False,) * 3, True)
    assert lattice_mod._live_terms(make_preset("zero")) == ((False,) * 3, False)


# curl A and -grad phi as float.hex, signed zeros included: H then E of each
# preset at amplitudes (1, 1) and (1.3, 0.7), and of LIVE_CONFIGS.
_Z, _NZ = "0x0.0p+0", "-0x0.0p+0"
INTENSITY_HEX = {
    ("uniform_b", 1.0): ((_Z, _Z, "0x1.0000000000000p+0"), (_NZ, _NZ, _NZ)),
    ("uniform_b", 1.3): ((_Z, _Z, "0x1.4cccccccccccdp+0"), (_NZ, _NZ, _NZ)),
    ("linear_phi", 1.0): ((_Z, _Z, _Z), ("0x1.0000000000000p+0", _NZ, _NZ)),
    ("linear_phi", 1.3): ((_Z, _Z, _Z), ("0x1.6666666666666p-1", _NZ, _NZ)),
    ("zero", 1.0): ((_Z, _Z, _Z), (_NZ, _NZ, _NZ)),
    ("zero", 1.3): ((_Z, _Z, _Z), (_NZ, _NZ, _NZ)),
    ("all_live", None): (("0x1.b333333333334p+0", "0x1.999999999999ap-1", "0x1.199999999999ap+0"),
                         ("0x1.0000000000000p-1", "-0x1.6666666666666p-2", "-0x1.ccccccccccccdp-2")),
    ("symmetric_gauge_and_phi", None): ((_Z, _Z, "0x1.4cccccccccccdp+0"),
                                        ("0x1.6666666666666p-1", _NZ, _NZ)),
}


def _assert_eps_sum_bits(potentials):
    """Each intensity equals every entry of the eps-sum reference's arrays, bit for bit."""
    import reference_kernels

    h, e = _intensities(potentials)
    want_h, want_e = reference_kernels.classical_maxwell_arrays(potentials, (np.zeros(10),) * 3)
    for got, want in zip((*h, *e), (*want_h, *want_e)):
        assert {float(w).hex() for w in want} == {got.hex()}


@pytest.mark.parametrize("name, amplitude", INTENSITY_HEX)
def test_intensities_of_the_presets_and_live_configs_keep_their_bits(name, amplitude):
    cfg = LIVE_CONFIGS[name] if amplitude is None else make_preset(
        name, b0=amplitude, e0={1.0: 1.0, 1.3: 0.7}[amplitude])
    h, e = _intensities(cfg)
    assert (tuple(v.hex() for v in h), tuple(v.hex() for v in e)) == INTENSITY_HEX[name, amplitude]
    _assert_eps_sum_bits(cfg)


# no pair of coefficients whose difference overflows
_ANY_COEFFICIENT = st.floats(-1e307, 1e307)
_ANY_TRIPLE = st.tuples(_ANY_COEFFICIENT, _ANY_COEFFICIENT, _ANY_COEFFICIENT)


@settings(max_examples=200, deadline=None)
@given(st.tuples(_ANY_TRIPLE, _ANY_TRIPLE, _ANY_TRIPLE), _ANY_TRIPLE)
def test_intensities_of_any_linear_field_keep_the_bits_of_the_eps_sum(grad_a, grad_phi):
    _assert_eps_sum_bits(LinearPotentials(grad_a=grad_a, grad_phi=grad_phi))


@pytest.mark.parametrize("name", [*PRESET_NAMES, *LIVE_CONFIGS])
@pytest.mark.parametrize("n, h", [(17, 0.1), (33, 0.05)])
def test_extraction_matches_full_box_reference(name, n, h):
    cfg = _config(name)
    grid = Grid3(n=n, h=h)
    res = commutator_field_extract(cfg, grid)
    h_error, e_error, spread, h_range, h_scale = _full_box_extract(
        cfg, grid, default_test_fields())
    _assert_within_ulps(res.h_error, h_error)
    _assert_within_ulps(res.e_error, e_error)
    _assert_within_ulps(res.function_deviation, spread)
    for got, want, scale in zip(res.h_range, h_range, h_scale):
        _assert_range_within_ulps(got, want, scale)


def _vanishing_on_plane(x0, k_vec):
    """(x - x0) exp(i k.r): exactly zero on the grid plane x = x0."""
    kx, ky, kz = k_vec

    def values(x, y, z):
        return (x - x0) * np.exp(1j * (kx * x + ky * y + kz * z))

    def mean_ratio(h, x, y, z):
        # undefined on the plane itself, whose cells are weak
        return [np.cos(kx * h) + 1j * h * np.sin(kx * h) / (x - x0),
                np.cos(ky * h), np.cos(kz * h)]

    return lattice_mod.TestField(values=values, mean_ratio=mean_ratio)


WEAK_PLANE = 10  # an interior plane of the n = 17 grid: 10 lies between 2 and n - 3


def _weak_plane_fields(x0):
    return [_vanishing_on_plane(x0, kv)
            for kv in ((1.3, -0.7, 0.5), (0.4, 0.9, -0.6), (-0.8, 0.2, 1.1))]


def test_weak_amplitude_points_are_excluded(monkeypatch):
    grid = Grid3(n=17, h=0.1)
    _use_test_fields(monkeypatch, _weak_plane_fields(grid.axis[WEAK_PLANE]))
    cfg = make_preset("uniform_b")
    res = commutator_field_extract(cfg, grid)
    assert math.isfinite(res.h_error) and math.isfinite(res.e_error)
    assert res.prediction_error <= _prediction_bound(cfg, grid)
    # the weak plane's per-cell means are NaN and skipped; every other cell counts
    assert all(math.isfinite(r) for r in res.h_range)


def _raw_estimates(cfg, grid):
    """Every estimate _slab_estimates yields, slabs joined along axis 0:
    shaped (test function, H or E, component, n - 4, n - 2, n - 2)."""
    slabs = [np.stack([np.stack(est) for est in estimates])
             for _, estimates in lattice_mod._slab_estimates(cfg, grid)]
    return np.concatenate(slabs, axis=3)


@pytest.mark.parametrize("name", [*PRESET_NAMES, *LIVE_CONFIGS])
def test_raw_estimates_are_nan_exactly_on_the_gutter_and_weak_cells(monkeypatch, name):
    # the per-cell rule, read where no fold has touched it: the same bytes at
    # every slab setting, NaN on the one-cell gutter round each plane and on
    # the plane where every test function vanishes, finite elsewhere
    grid = Grid3(n=17, h=0.1)
    cfg = _config(name)
    _use_test_fields(monkeypatch, _weak_plane_fields(grid.axis[WEAK_PLANE]))
    want = _raw_estimates(cfg, grid)
    nan = np.zeros(want.shape[3:], dtype=bool)
    nan[:, [0, -1], :] = nan[:, :, [0, -1]] = True
    nan[WEAK_PLANE - 2] = True
    assert np.array_equal(np.isnan(want), np.broadcast_to(nan, want.shape))
    for cells in _slab_settings(grid.n):
        monkeypatch.setattr(lattice_mod, "_SLAB_CELLS", cells)
        assert _raw_estimates(cfg, grid).tobytes() == want.tobytes(), cells
    # every term evaluated: a dead term only adds a signed zero, so it can
    # flip the sign of an exact-zero estimate and nothing else
    monkeypatch.setattr(lattice_mod, "_live_terms", _all_live)
    assert np.array_equal(_raw_estimates(cfg, grid), want, equal_nan=True)


# --- slabs -------------------------------------------------------------------
#
# The extraction walks the interior block in slabs of planes along axis 0.
# Every cell goes through the same operations whatever the slab size, so the
# outputs must match the default setting bit for bit, not within ulps.


def _extraction_bits(res):
    return [v.hex() for v in (res.h_error, res.e_error, res.prediction_error,
                              res.function_deviation, *res.h_range)]


def _slab_settings(n):
    """One plane per slab, three planes (a short last slab), one slab for the block."""
    m = n - 4
    assert m % 3 != 0
    return (1, 3 * m * m, m**3)


def _extract_at_each_setting(monkeypatch, n, extract):
    want = _extraction_bits(extract())
    for cells in _slab_settings(n):
        monkeypatch.setattr(lattice_mod, "_SLAB_CELLS", cells)
        assert _extraction_bits(extract()) == want, cells


def test_slabs_cover_the_block_in_order(monkeypatch):
    for n in (9, 17, 33, 65):
        m = n - 4
        for cells in (*_slab_settings(n), lattice_mod._SLAB_CELLS):
            monkeypatch.setattr(lattice_mod, "_SLAB_CELLS", cells)
            slabs = lattice_mod._slabs(2, n - 2, m * m)
            assert [p for s0, s1 in slabs for p in range(s0, s1)] == list(range(2, n - 2))
            assert all(s1 - s0 == max(1, cells // (m * m)) for s0, s1 in slabs[:-1])
    monkeypatch.setattr(lattice_mod, "_SLAB_CELLS", 3 * 29 * 29)
    assert lattice_mod._slabs(2, 31, 29 * 29)[-1] == (29, 31)


@pytest.mark.parametrize("n", [9, 17, 33])
@pytest.mark.parametrize("name", [*PRESET_NAMES, *LIVE_CONFIGS])
def test_slab_size_does_not_change_a_bit(monkeypatch, name, n):
    cfg = _config(name)
    grid = Grid3(n=n, h=1.6 / (n - 1))
    _extract_at_each_setting(
        monkeypatch, n, lambda: commutator_field_extract(cfg, grid))


@pytest.mark.parametrize("n", [9, 17, 33])
def test_weak_plane_on_a_slab_boundary_does_not_change_a_bit(monkeypatch, n):
    # with three planes per slab, slabs start at 2, 5, 8, ...: put the zero
    # plane on the last plane of one slab and on the first plane of the next
    grid = Grid3(n=n, h=0.1)
    cfg = make_preset("uniform_b")
    for plane in (4, 5):
        _use_test_fields(monkeypatch, _weak_plane_fields(grid.axis[plane]))
        _extract_at_each_setting(
            monkeypatch, n, lambda: commutator_field_extract(cfg, grid))


# --- dead terms --------------------------------------------------------------
#
# The kernel leaves out the operator terms of identically zero potentials.
# Evaluating them anyway, with every potential marked live, must give the
# same bytes.


def _all_live(potentials):
    return (True, True, True), True


@pytest.mark.parametrize("amplitudes", [(1.0, 1.0), (1.3, 0.7)])
@pytest.mark.parametrize("n", [17, 33])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_leaving_out_dead_terms_does_not_change_a_bit(monkeypatch, name, n, amplitudes):
    cfg = make_preset(name, *amplitudes)
    grid = Grid3(n=n, h=1.6 / (n - 1))
    pruned = _extraction_bits(commutator_field_extract(cfg, grid))
    monkeypatch.setattr(lattice_mod, "_live_terms", _all_live)
    assert _extraction_bits(commutator_field_extract(cfg, grid)) == pruned


@pytest.mark.parametrize("name", [*PRESET_NAMES, *LIVE_CONFIGS])
def test_prediction_fold_does_not_change_a_bit_with_every_term_live(monkeypatch, name):
    # the prediction fold takes every component, so a dead one's estimate, 0
    # times the denominator against a prediction of 0 times the ratios, must
    # read the same when the kernel evaluates its terms
    cfg = _config(name)
    grid = Grid3(n=17, h=0.1)
    pruned = _extraction_bits(commutator_field_extract(cfg, grid))
    monkeypatch.setattr(lattice_mod, "_live_terms", _all_live)
    assert _extraction_bits(commutator_field_extract(cfg, grid)) == pruned


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_leaving_out_dead_terms_does_not_change_the_n65_study(monkeypatch, name):
    # all-live also makes the study fold every component, dead ones included
    cfg = make_preset(name, 1.3, 0.7)
    spacings = (0.2, 0.1, 0.05, 0.025)
    pruned = [err.hex() for err in convergence_study(cfg, spacings).errors]
    monkeypatch.setattr(lattice_mod, "_live_terms", _all_live)
    assert [err.hex() for err in convergence_study(cfg, spacings).errors] == pruned


# --- one breakdown rule ------------------------------------------------------
#
# A NaN or infinite test-function sample raises ArithmeticError where it is
# sampled, so the outcome is one and the same at every slab size, for every
# field, through both entry points, with no warning on the way.  The samples
# below sit on the middle plane x = 0 of the n = 9 grid both entry points
# start with.


def _raises_at_every_slab_setting(monkeypatch, cfg, fields):
    _use_test_fields(monkeypatch, fields)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cells in (*_slab_settings(9), lattice_mod._SLAB_CELLS):
            monkeypatch.setattr(lattice_mod, "_SLAB_CELLS", cells)
            with pytest.raises(ArithmeticError, match="sample is NaN or infinite"):
                commutator_field_extract(cfg, Grid3(n=9, h=0.2))
            with pytest.raises(ArithmeticError, match="sample is NaN or infinite"):
                convergence_study(cfg, (0.2, 0.1, 0.05))


def _wave_replaced_where(where, value):
    """Three plane waves, with value on the cells where where(x, y, z)."""
    def field(k_vec):
        wave = plane_wave_field(k_vec)

        def values(x, y, z):
            v = wave.values(x, y, z)
            return np.where(np.broadcast_to(where(x, y, z), np.shape(v)), value, v)

        return lattice_mod.TestField(values=values, mean_ratio=wave.mean_ratio)

    return [field(kv) for kv in ((1.3, -0.7, 0.5), (0.4, 0.9, -0.6), (-0.8, 0.2, 1.1))]


_ALL_NAN = _wave_replaced_where(lambda x, y, z: True, np.nan + 0.0j)


def test_all_nan_estimates_raise_instead_of_reading_zero(monkeypatch):
    # NaN samples are not weak (|NaN| < floor is False); a reduction that
    # skipped every NaN estimate once reported 0 here
    for cfg in (make_preset("uniform_b"), *LIVE_CONFIGS.values()):
        _raises_at_every_slab_setting(monkeypatch, cfg, _ALL_NAN)


@pytest.mark.parametrize("name", ["linear_phi", "zero"])
def test_all_nan_estimates_raise_where_a_whole_block_is_dead(monkeypatch, name):
    # linear_phi's H estimates and all of zero's are 0 times the
    # denominator: no stencil reads the samples, but they are still checked
    _raises_at_every_slab_setting(monkeypatch, make_preset(name), _ALL_NAN)


@pytest.mark.parametrize("name", [*PRESET_NAMES, *LIVE_CONFIGS])
def test_a_nan_sample_raises_at_every_slab_setting(monkeypatch, name):
    # a single NaN cell: under the old per-slab guard its NaN estimates were
    # skipped without a word, whatever the field
    fields = _wave_replaced_where(lambda x, y, z: (x == 0.0) & (y == 0.0) & (z == 0.0),
                                  np.nan + 0.0j)
    _raises_at_every_slab_setting(monkeypatch, _config(name), fields)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("name", [*PRESET_NAMES, *LIVE_CONFIGS])
def test_a_plane_of_infinite_samples_keeps_its_outcome(monkeypatch, name, sign):
    # the old per-slab guard raised here at one plane per slab and returned
    # finite errors with one slab for the whole block
    fields = _wave_replaced_where(lambda x, y, z: x == 0.0, sign * np.inf + 0.0j)
    _raises_at_every_slab_setting(monkeypatch, _config(name), fields)


def test_a_prediction_that_is_nan_where_its_estimate_is_not_raises(monkeypatch):
    # finite samples, so every estimate off the gutter is finite; the first
    # probe's closed-form mean_ratio is NaN on the one cell x = y = z = 0,
    # which a NaN-skipping fold would pass over
    fields = default_test_fields()

    def nan_at_center(h, x, y, z):
        center = (x == 0.0) & (y == 0.0) & (z == 0.0)
        return [np.where(center, np.nan, r) for r in fields[0].mean_ratio(h, x, y, z)]

    _use_test_fields(monkeypatch, [lattice_mod.TestField(fields[0].values, nan_at_center),
                                   *fields[1:]])
    for cells in (*_slab_settings(9), lattice_mod._SLAB_CELLS):
        monkeypatch.setattr(lattice_mod, "_SLAB_CELLS", cells)
        with pytest.raises(ArithmeticError, match="prediction is NaN"):
            commutator_field_extract(make_preset("uniform_b"), Grid3(n=9, h=0.2))


# numpy reports its buffers to tracemalloc, so the traced peak of a call is
# deterministic.  A "slab array" is one complex array over a slab's planes and
# their one-plane halo, each plane the full (n - 2)^2 cross-section; every
# slab-sized array of a discrete extraction is at most that large.  Counted
# from the code, at most 34 are alive at once while the third test function
# is estimated: the 12 estimates of the first two (2 intensities x 3
# components each; a block with no live component is one array broadcast),
# the third's 6, the kernel's 12 reused buffers (3 test-function samples
# carried from slab to slab, 3 products of A with psi and 6 cell buffers), the
# one buffer numpy casts a real operand into for a complex product, and the
# kernel's flat runs of the live potentials with the one weak mask being
# built (at most 4 real arrays and 1 boolean one, less than 3 slab arrays).
# The expected intensities are constants and take no array.  Folding the 18
# finished estimates afterwards keeps the buffers and the potentials and
# adds less than 5 for one H component's per-cell mean (its stacked real
# parts, nanmean's NaN-free copy, sums and counts), 37 at most.  No
# full-grid array is kept.  The bound allows
# 39, two to spare.
LIVE_SLAB_ARRAYS = 39


def test_extraction_memory_is_bounded_by_the_slab(monkeypatch):
    import tracemalloc

    n = 65
    grid = Grid3(n=n, h=0.025)
    cfg = make_preset("uniform_b")
    m = n - 4
    planes = max(1, lattice_mod._SLAB_CELLS // (m * m))
    slab_bytes = (planes + 2) * (n - 2) ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        commutator_field_extract(cfg, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= LIVE_SLAB_ARRAYS * slab_bytes, (peak, slab_bytes)


def test_convergence_study_memory_is_one_slab():
    # The study folds the errors slab by slab and keeps no intensity grid,
    # so the n = 65 grid costs one slab's working set and nothing per cell
    # of the full grid (its two float grids alone would be 13.2 MB).
    import tracemalloc

    n = 65
    m = n - 4
    planes = max(1, lattice_mod._SLAB_CELLS // (m * m))
    slab_bytes = (planes + 2) * (n - 2) ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        study = convergence_study(make_preset("uniform_b"), (0.2, 0.1, 0.05, 0.025))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert study.grid_sizes[-1] == n
    assert peak <= LIVE_SLAB_ARRAYS * slab_bytes, (peak, slab_bytes)


STUDY_PAGE_FAULTS = """
import resource
from diraclab.lattice import convergence_study, make_preset
cfg = make_preset("uniform_b")
convergence_study(cfg, (0.2, 0.1, 0.05))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
convergence_study(cfg, (0.2, 0.1, 0.05))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap thresholds")
def test_repeated_study_reuses_the_slab_pages():
    # A fresh process, so no earlier test has raised the heap thresholds.
    # With the slab's freed pages handed back to the OS after every slab,
    # the second study takes about 5400 minor page faults; reused, a few.
    import platform
    import subprocess

    if platform.libc_ver()[0] != "glibc":
        pytest.skip("glibc heap thresholds")
    src = str(Path(lattice_mod.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", STUDY_PAGE_FAULTS], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert int(out.stdout) < 500, out.stdout


@pytest.mark.parametrize("amplitudes", [(1.0, 1.0), (1.3, 0.7)])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_convergence_errors_equal_the_extraction_bit_for_bit(monkeypatch, name, amplitudes):
    # Both consumers fold the same slabs through the same helper; check it at
    # the default slab size and at one plane per slab.
    cfg = make_preset(name, *amplitudes)
    spacings = (0.2, 0.1, 0.05)
    for cells in (lattice_mod._SLAB_CELLS, 1):
        monkeypatch.setattr(lattice_mod, "_SLAB_CELLS", cells)
        want = []
        for n, h in zip((9, 17, 33), spacings):
            res = commutator_field_extract(cfg, Grid3(n=n, h=h))
            want.append(max(res.h_error, res.e_error))
        with monkeypatch.context() as patch:
            patch.setattr(lattice_mod, "commutator_field_extract", None)
            study = convergence_study(cfg, spacings)
        assert study.grid_sizes == (9, 17, 33)
        assert [err.hex() for err in study.errors] == [err.hex() for err in want], cells


# convergence_study(make_preset(name, 1.3, 0.7), (0.2, 0.1, 0.05, 0.025)).errors
# as float.hex(), recorded before the discrete kernel carried halo samples,
# hoisted its slab invariants and evaluated into reused buffers; uniform_b's
# last error re-recorded (one ulp lower) when the commutators stopped forming
# the terms both orders share, and all but uniform_b's last two re-recorded
# (rounding level) when the kernel stopped multiplying hbar (e/C) in and
# dividing it back out.  The other bit-identity tests stop at n = 33; this
# one reaches the benchmark's n = 65.
N65_ERRORS_HEX = {
    "uniform_b": ["0x1.e0653547c6cc0p-6", "0x1.e421ae3f4ff00p-8",
                  "0x1.e51243051f000p-10", "0x1.e54e7fbad6000p-12"],
    "linear_phi": ["0x1.81777453e8b40p-6", "0x1.83198d5fe6980p-8",
                   "0x1.83824c3b9ee00p-10", "0x1.839c7f7d3a000p-12"],
    "zero": ["0x0.0p+0"] * 4,
}


# One plane per slab, the default, and one slab for the whole block at any n.
SLAB_CELLS = (1, lattice_mod._SLAB_CELLS, 10**9)


def _study_at_every_slab_size(monkeypatch, cfg, want):
    for cells in SLAB_CELLS:
        monkeypatch.setattr(lattice_mod, "_SLAB_CELLS", cells)
        study = convergence_study(cfg, (0.2, 0.1, 0.05, 0.025))
        assert study.grid_sizes == (9, 17, 33, 65)
        assert [err.hex() for err in study.errors] == want, cells


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_convergence_errors_down_to_n65_are_locked(monkeypatch, name):
    _study_at_every_slab_size(monkeypatch, make_preset(name, 1.3, 0.7), N65_ERRORS_HEX[name])


# The same for LIVE_CONFIGS, the only fields that run the A_z terms and A
# and phi together; recorded before the kernel moved to flat planes.
# symmetric_gauge_and_phi's maxima are its H errors, uniform_b's at b0 = 1.3.
N65_LIVE_ERRORS_HEX = {
    "all_live": ["0x1.136a1011169e0p-5", "0x1.157b0fc468f00p-7",
                 "0x1.1649726930200p-9", "0x1.16776a6e71800p-11"],
    "symmetric_gauge_and_phi": N65_ERRORS_HEX["uniform_b"],
}


@pytest.mark.parametrize("name", LIVE_CONFIGS)
def test_live_config_errors_down_to_n65_are_locked(monkeypatch, name):
    _study_at_every_slab_size(monkeypatch, LIVE_CONFIGS[name], N65_LIVE_ERRORS_HEX[name])


def test_lattice_suite_report_keeps_its_bytes_at_every_slab_size(monkeypatch):
    reports = set()
    for cells in SLAB_CELLS:
        monkeypatch.setattr(lattice_mod, "_SLAB_CELLS", cells)
        reports.add(report_json(run_suite(RunConfig(suites=("lattice",)))))
    assert len(reports) == 1


def _reference_values():
    """default_test_fields()'s values as first written, with complex exp."""
    def plane_wave(x, y, z):
        return np.exp(1j * (1.3 * x + -0.7 * y + 0.5 * z))

    def gaussian(x, y, z, center=(0.05, -0.04, 0.03), w2=1.0):
        cx, cy, cz = center
        return np.exp(-0.5 * ((x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2) / w2) + 0.0j

    def modulated(x, y, z):
        wave = np.exp(1j * (0.8 * x + -0.5 * y + 0.6 * z))
        return wave * gaussian(x, y, z, center=(0.0, 0.0, 0.0), w2=1.2 ** 2)

    return [plane_wave, gaussian, modulated]


def _bits(values):
    v = np.asarray(values, dtype=complex)
    return v.real.view(np.uint64), v.imag.view(np.uint64)


def test_test_function_samples_keep_their_bits_on_every_slab():
    # every slab of the study ladder, on the broadcast axes the kernel
    # samples: the probes' values, sign bits included, are the first formulas'
    for n, h in ((9, 0.2), (17, 0.1), (33, 0.05), (65, 0.025)):
        ax = Grid3(n=n, h=h).axis
        across = ax[1:n - 1]
        for s0, s1 in lattice_mod._slabs(2, n - 2, (n - 4) ** 2):
            mesh = (ax[s0 - 1:s1 + 1, None, None], across[None, :, None], across[None, None, :])
            shape = (s1 - s0 + 2, n - 2, n - 2)
            for tf, reference in zip(default_test_fields(), _reference_values()):
                got, want = _bits(tf.values(*mesh)), _bits(reference(*mesh))
                assert got[0].shape == got[1].shape == shape
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (n, s0)


# sha256 of the JSON table written by the README invocation
# `diraclab lattice --preset <name> --h 0.2,0.1,0.05`, re-recorded when the
# standard library's encoder took over the text (floats as repr), which
# left every parsed value as it was, and again when the estimates stopped
# carrying hbar (e/C), which moved errors and orders at rounding level.
@pytest.mark.parametrize("preset, digest", [
    ("uniform_b", "bbcdddf5bb8c55321572535c887db2acd39a8437eeb5a902ff512b8049271b55"),
    ("linear_phi", "960bdd050605987b06a43b4320ac2f65f4a28fa0d45b4e872d910cb2aad35f44"),
], ids=["uniform_b", "linear_phi"])
def test_readme_lattice_table_bytes_are_locked(tmp_path, preset, digest):
    import hashlib

    from diraclab import cli

    out = tmp_path / "table.json"
    assert cli.main(["lattice", "--preset", preset, "--h", "0.2,0.1,0.05",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
