"""Suite orchestration: seed sweep, and independence of suite selection and of sample families."""

import dataclasses
import json
import zlib

import numpy as np
import pytest

import diraclab.suites as suites_mod
from diraclab.config import DEFAULT_SEED, SUITE_NAMES, RunConfig
from diraclab.lattice import LinearPotentials
from diraclab.report import ANCHORS, render_json, report_json
from diraclab.suites import BOUND, CLAIMS, NOT_MACHINE_CHECKABLE, _dev, _judge, run_suite

SEEDED_SUITES = ("algebra", "states", "dynamics", "fields")


@pytest.mark.parametrize("seed", range(50))
def test_seeded_suites_pass_at_every_seed(seed):
    # the suites sample whole families as stacks; every seed must pass, and
    # a second run must render to the same bytes
    report = run_suite(RunConfig(seed=seed, suites=SEEDED_SUITES))
    failed = [c["claim_id"] for c in report.checks if not c["pass"]]
    assert not failed, f"seed {seed}: {failed}"
    text = report_json(report)
    assert json.loads(text)["summary"]["failed"] == 0
    if seed < 40:
        assert report_json(run_suite(RunConfig(seed=seed, suites=SEEDED_SUITES))) == text


@pytest.mark.parametrize("seed", range(50))
def test_the_stacked_families_give_the_per_state_and_per_set_bits(seed):
    # tests/reference_kernels.py holds the loops the stacks replaced: one
    # MomentumState per eigenspinor, one constant set per self-field route
    import reference_kernels as ref

    assert ref.stacked_path_mismatches(seed) == []


# The claims each sample family feeds, by (suite, family name).  Claims that
# measure an exact zero keep their bytes under any draw.
FAMILY_CLAIMS = {
    ("algebra", "matrix_exponential"): "matrix_exponential_oracle",
    ("states", "waves"): "component_rows_match_matrix_form two_component_stack "
                         "cylindrical_rows_match",
    ("states", "bispinors"): "split_recompose",
    ("states", "eigen_waves"): "eigen_wave_residual coupled_split_residual",
    ("states", "angular"): "angular_eigenvalue.plus angular_eigenvalue.minus "
                           "angular_operator.plus angular_operator.minus "
                           "angular_family_indices.plus angular_family_indices.minus",
    ("dynamics", "spectrum"): "energy_spectrum spectrum_degeneracy",
    ("dynamics", "momenta"): "eta_anticommutes eta_traceless velocity_at_zero "
                             "velocity_direction_evolution zbw_vanishes_at_zero "
                             "eigenstate_no_oscillation eigenstate_drift_linear "
                             "eigenspinor_residual eigenbasis_orthonormal "
                             "eigenspinor_deterministic",
    ("dynamics", "evolution"): "velocity_direction_evolution",
    ("dynamics", "position_rate"): "position_rate_matches_velocity",
    ("dynamics", "fft_state"): "zbw_frequency_fft",
    ("fields", "route_constants"): "self_h_matches_expected routes_agree "
                                   "self_e_zero_commutator self_e_zero_substitution",
    ("fields", "classical"): "classical_curl classical_gradient",
    ("fields", "spin_directions"): "rest_energy_isotropic coherent_norm",
    ("fields", "rescalings"): "anomalous_ratio_invariance",
    ("fields", "vector_eigenspinors"): "self_potentials_vector_real_part",
    ("fields", "reduction_eigenspinors"): "eigenspinor_norm cross_sum_eigenstates "
                                          "coupled_equals_reduced reduced_equals_expectation",
    ("fields", "arbitrary_states"): "cross_sum_arbitrary_reported",
}


def _streams_asked(monkeypatch, reseeded=None) -> list:
    """Patch suites._stream to record each (suite, family) asked for; the
    family `reseeded` draws from the next run seed's stream."""
    asked, real = [], suites_mod._stream

    def stream(seed, suite, family):
        asked.append((suite, family))
        return real(seed + ((suite, family) == reseeded), suite, family)
    monkeypatch.setattr(suites_mod, "_stream", stream)
    return asked


def test_each_family_of_a_run_names_its_own_stream(monkeypatch):
    asked = _streams_asked(monkeypatch)
    run_suite(RunConfig(seed=DEFAULT_SEED))
    assert len(set(asked)) == len(asked)
    for suite in SUITE_NAMES:
        names = [family for s, family in asked if s == suite]
        assert len({zlib.crc32(name.encode()) for name in names}) == len(names), suite
    assert sorted(asked) == sorted(FAMILY_CLAIMS)


@pytest.mark.parametrize("family", FAMILY_CLAIMS, ids="/".join)
def test_reseeding_one_family_moves_only_the_claims_it_feeds(monkeypatch, full_run, family):
    suite = family[0]
    asked = _streams_asked(monkeypatch, reseeded=family)
    before = {c["claim_id"]: render_json(c) for c in full_run.to_dict()["checks"]}
    after = run_suite(RunConfig(seed=DEFAULT_SEED, suites=(suite,))).to_dict()["checks"]
    moved = {c["claim_id"] for c in after if render_json(c) != before[c["claim_id"]]}
    assert family in asked
    assert moved <= {f"{suite}.{name}" for name in FAMILY_CLAIMS[family].split()}


# A wrong preset gauge or scalar potential no longer fails a lattice
# validation step; the t1 and t2 rows of the fields suite must catch it.
def _curl_one_and_a_half(b0=1.0):
    return LinearPotentials(grad_a=((0.0, 0.75 * b0, 0.0), (-0.75 * b0, 0.0, 0.0),
                                    (0.0, 0.0, 0.0)))


def _gradient_one_and_a_half(e0=1.0):
    return LinearPotentials(grad_phi=(-1.5 * e0, 0.0, 0.0))


@pytest.mark.parametrize("preset, wrong, claim_id", [
    ("uniform_b", _curl_one_and_a_half, "fields.classical_curl"),
    ("linear_phi", _gradient_one_and_a_half, "fields.classical_gradient"),
])
def test_a_wrong_preset_potential_fails_its_classical_row(monkeypatch, preset, wrong, claim_id):
    make_preset = suites_mod.make_preset

    def wrong_for_one(name, **amplitude):
        return wrong(**amplitude) if name == preset else make_preset(name, **amplitude)

    monkeypatch.setattr(suites_mod, "make_preset", wrong_for_one)
    report = run_suite(RunConfig(suites=("fields",)))
    assert [c["claim_id"] for c in report.checks if not c["pass"]] == [claim_id]


def test_the_angular_operator_is_judged_on_every_state_whatever_jz_apply_reports(monkeypatch):
    # jz_apply reports no eigenstate (its component values kept), and the
    # sampled angular derivative is 1% off: the operator rows must still
    # apply the operator to all 11 states of each family and turn red
    jz_apply, sample_separable = suites_mod.jz_apply, suites_mod.sample_separable

    def no_eigenstate(cyl):
        return dataclasses.replace(jz_apply(cyl), is_eigenstate=False, eigenvalue=None)

    def d_phi_scaled(*args, **kwargs):
        s = sample_separable(*args, **kwargs)
        assert s.psi.shape[0] == 11
        return dataclasses.replace(s, d_phi=s.d_phi * 1.01)

    monkeypatch.setattr(suites_mod, "jz_apply", no_eigenstate)
    monkeypatch.setattr(suites_mod, "sample_separable", d_phi_scaled)
    report = run_suite(RunConfig(seed=DEFAULT_SEED, suites=("states",)))
    assert [c["claim_id"] for c in report.checks if not c["pass"]] == [
        "states.angular_operator.plus", "states.angular_operator.minus"]


def _rendered_checks(report, suite):
    return [render_json(c) for c in report.to_dict()["checks"]
            if c["claim_id"].startswith(f"{suite}.")]


@pytest.fixture(scope="module")
def full_run():
    return run_suite(RunConfig(seed=DEFAULT_SEED))


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_alone_matches_its_slice_of_the_full_run(full_run, suite):
    alone = run_suite(RunConfig(seed=DEFAULT_SEED, suites=(suite,)))
    assert {c["claim_id"].split(".", 1)[0] for c in alone.checks} == {suite}
    assert _rendered_checks(alone, suite) == _rendered_checks(full_run, suite)


def test_zero_raises_on_nan_deviation():
    # the largest deviation of a list keeps a NaN wherever it stands, and an
    # infinite one is refused alike: the report could not hold either
    for devs in ([_dev(np.array([np.nan, 1.0])), 0.0], [1.0, _dev(np.array([np.nan]))],
                 [0.0, np.inf]):
        with pytest.raises(ArithmeticError,
                           match="algebra.pauli_product_table: non-finite deviation"):
            _judge("algebra.pauli_product_table", devs, RunConfig())


def _rows_of(claim_id):
    return [key for key in CLAIMS if claim_id == key or claim_id.startswith(key + ".")]


def test_every_check_has_one_claim_row_and_every_row_is_used(full_run):
    tampered = run_suite(RunConfig(seed=DEFAULT_SEED, tamper=True))
    assert not tampered.all_passed()
    used = set()
    for report in (full_run, tampered):
        for c in report.checks:
            rows = _rows_of(c["claim_id"])
            assert len(rows) == 1, (c["claim_id"], rows)
            assert c["paper_eq"] == CLAIMS[rows[0]].eq
            used.update(rows)
    assert used == set(CLAIMS)
    assert {row.eq for row in CLAIMS.values()} <= set(ANCHORS)
    assert {eq for _, eq, _ in NOT_MACHINE_CHECKABLE} <= set(ANCHORS)


def test_a_claim_id_without_a_row_is_refused():
    with pytest.raises(KeyError, match="algebra.no_such_claim"):
        _judge("algebra.no_such_claim", [0.0], RunConfig())


def test_every_claim_tol_is_a_number_or_bound():
    assert all(row.tol in (None, BOUND) or type(row.tol) is float for row in CLAIMS.values())


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_tol_override_moves_exactly_the_mapped_claims(full_run, suite):
    # tol.<suite> = F multiplies the tol of every check of its suite, BOUND
    # rows included, and of no other; F is a power of two, so F * tol is exact
    factor = 2.0**-20
    moved = run_suite(RunConfig(seed=DEFAULT_SEED, tol_factors={suite: factor}))
    assert [c["claim_id"] for c in moved.checks] == [c["claim_id"] for c in full_run.checks]
    assert [c["tol"] for c in moved.checks] == [
        factor * c["tol"] if c["claim_id"].startswith(suite + ".") else c["tol"]
        for c in full_run.checks]
    assert any(a["tol"] != b["tol"] for a, b in zip(moved.checks, full_run.checks))
