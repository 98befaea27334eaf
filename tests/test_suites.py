"""Suite orchestration: seed sweep and independence of suite selection."""

import json
import math

import numpy as np
import pytest

import diraclab.suites as suites_mod
from diraclab.config import DEFAULT_SEED, SUITE_NAMES, RunConfig
from diraclab.fields import LinearPotentials
from diraclab.report import ANCHORS, render_json, report_json
from diraclab.suites import CLAIMS, NOT_MACHINE_CHECKABLE, _dev, _judge, run_suite

SEEDED_SUITES = ("algebra", "states", "dynamics", "fields")


@pytest.mark.parametrize("seed", range(50))
def test_seeded_suites_pass_at_every_seed(seed):
    # the suites sample whole families as stacks; every seed must pass, and
    # a second run must render to the same bytes
    report = run_suite(RunConfig(seed=seed, suites=SEEDED_SUITES))
    failed = [c.claim_id for c in report.checks if not c.passed]
    assert not failed, f"seed {seed}: {failed}"
    text = report_json(report)
    assert json.loads(text)["summary"]["failed"] == 0
    if seed < 40:
        assert report_json(run_suite(RunConfig(seed=seed, suites=SEEDED_SUITES))) == text


# Every family the seeded suites draw in one call, as (batched draw, the
# per-sample draws it replaced).  uniform with per-column bounds and
# standard_normal fill element by element in C order, so the two must give
# the same doubles and leave the generator in the same state.
DRAW_FAMILIES = {
    "algebra.matrix_exponential_oracle": (
        lambda rng: rng.standard_normal((4, 2, 4, 4)),
        lambda rng: [[rng.standard_normal((4, 4)) for _ in range(2)] for _ in range(4)]),
    "states.split_recompose": (
        lambda rng: rng.standard_normal((5, 2, 4)),
        lambda rng: [[rng.standard_normal(4) for _ in range(2)] for _ in range(5)]),
    "dynamics.energy_spectrum": (
        lambda rng: rng.uniform([-3.0, -3.0, -3.0, 0.4, 0.4], [3.0, 3.0, 3.0, 2.5, 2.5],
                                (200, 5)),
        lambda rng: [[*rng.uniform(-3.0, 3.0, 3), rng.uniform(0.4, 2.5), rng.uniform(0.4, 2.5)]
                     for _ in range(200)]),
    "dynamics.states": (
        lambda rng: rng.uniform(-2.0, 2.0, (6, 3)),
        lambda rng: [rng.uniform(-2.0, 2.0, 3) for _ in range(6)]),
    "fields.route_constants": (
        lambda rng: rng.uniform([0.9, 0.8, 0.8, 0.9], [1.5, 1.2, 1.2, 1.5], (7, 4)),
        lambda rng: [[rng.uniform(0.9, 1.5), rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2),
                      rng.uniform(0.9, 1.5)] for _ in range(7)]),
    "fields.classical_points": (
        lambda rng: rng.uniform(-2.0, 2.0, (10, 3)),
        lambda rng: [rng.uniform(-2.0, 2.0, 3) for _ in range(10)]),
    "fields.spin_directions": (
        lambda rng: rng.uniform([-1.0, -math.pi], [1.0, math.pi], (100, 2)),
        lambda rng: [[rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi)]
                     for _ in range(100)]),
    "fields.rescalings": (
        lambda rng: rng.uniform(0.5, 3.0, (8, 3)),
        lambda rng: [[rng.uniform(0.5, 3.0) for _ in range(3)] for _ in range(8)]),
}


@pytest.mark.parametrize("family", DRAW_FAMILIES)
def test_a_family_drawn_in_one_call_equals_its_per_sample_draws(family):
    batched, per_sample = DRAW_FAMILIES[family]
    for seed in range(25):
        one, many = (np.random.default_rng([seed, 2]) for _ in range(2))
        got, want = batched(one), np.array(per_sample(many), dtype=float)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (family, seed)
        assert one.bit_generator.state == many.bit_generator.state, (family, seed)


def test_the_spectrum_family_energies_match_the_scalar_formula():
    # np.float_power is libm pow, as a Python c**2, and np.sqrt is math.sqrt
    draws = DRAW_FAMILIES["dynamics.energy_spectrum"][0](np.random.default_rng(11))
    p, c, mass = draws[:, :3], draws[:, 3], draws[:, 4]
    p_sq = (p[:, None, :] @ p[:, :, None])[:, 0, 0]
    got = np.sqrt(np.float_power(c, 2) * p_sq + np.float_power(mass, 2) * np.float_power(c, 4))
    assert got.tolist() == [math.sqrt(cc**2 * float(pp @ pp) + mm**2 * cc**4)
                            for pp, cc, mm in zip(p, c.tolist(), mass.tolist())]


# A wrong preset gauge or scalar potential no longer fails a lattice
# validation step; the t1 and t2 rows of the fields suite must catch it.
def _curl_one_and_a_half(b0):
    return LinearPotentials(grad_a=((0.0, 0.75 * b0, 0.0), (-0.75 * b0, 0.0, 0.0),
                                    (0.0, 0.0, 0.0)))


def _gradient_one_and_a_half(e0):
    return LinearPotentials(grad_phi=(-1.5 * e0, 0.0, 0.0))


@pytest.mark.parametrize("name, wrong, claim_id", [
    ("symmetric_gauge", _curl_one_and_a_half, "fields.classical_curl"),
    ("linear_scalar", _gradient_one_and_a_half, "fields.classical_gradient"),
])
def test_a_wrong_preset_potential_fails_its_classical_row(monkeypatch, name, wrong, claim_id):
    monkeypatch.setattr(suites_mod, name, wrong)
    report = run_suite(RunConfig(suites=("fields",)))
    assert [c.claim_id for c in report.checks if not c.passed] == [claim_id]


def _rendered_checks(report, suite):
    return [render_json(c) for c in report.to_dict()["checks"]
            if c["claim_id"].startswith(f"{suite}.")]


@pytest.fixture(scope="module")
def full_run():
    return run_suite(RunConfig(seed=DEFAULT_SEED))


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_suite_alone_matches_its_slice_of_the_full_run(full_run, suite):
    alone = run_suite(RunConfig(seed=DEFAULT_SEED, suites=(suite,)))
    assert {c.claim_id.split(".", 1)[0] for c in alone.checks} == {suite}
    assert _rendered_checks(alone, suite) == _rendered_checks(full_run, suite)


def test_zero_raises_on_nan_deviation():
    with pytest.raises(ArithmeticError, match="algebra.pauli_product_table: NaN deviation"):
        _judge("algebra.pauli_product_table", [_dev(np.array([np.nan, 1.0])), 0.0], RunConfig())


def _rows_of(claim_id):
    return [key for key in CLAIMS if claim_id == key or claim_id.startswith(key + ".")]


def test_every_check_has_one_claim_row_and_every_row_is_used(full_run):
    tampered = run_suite(RunConfig(seed=DEFAULT_SEED, tamper=True))
    assert not tampered.all_passed()
    used = set()
    for report in (full_run, tampered):
        for c in report.checks:
            rows = _rows_of(c.claim_id)
            assert len(rows) == 1, (c.claim_id, rows)
            assert c.paper_eq == CLAIMS[rows[0]].eq
            used.update(rows)
    assert used == set(CLAIMS)
    assert {row.eq for row in CLAIMS.values()} <= set(ANCHORS)
    assert {eq for _, eq, _ in NOT_MACHINE_CHECKABLE} <= set(ANCHORS)


def test_a_claim_id_without_a_row_is_refused():
    with pytest.raises(KeyError, match="algebra.no_such_claim"):
        _judge("algebra.no_such_claim", [0.0], RunConfig())


# Claims whose tol follows tol.<suite>, keyed by claim id or by a dotted
# prefix of it, with the factor between the override and the tol.  Every
# other claim keeps its tol under every override.
TOL_OVERRIDE_FACTORS = {
    "algebra": {
        "algebra.clifford": 1.0,
        "algebra.pauli_product_table": 1.0,
        "algebra.block_spin_commutator": 1.0,
    },
    "states": {
        "states.component_rows_match_matrix_form": 1.0,
        "states.two_component_stack": 1.0,
        "states.cylindrical_rows_match": 100.0,
        "states.eigen_wave_residual": 1.0,
        "states.coupled_split_residual": 1.0,
    },
    "dynamics": {
        "dynamics.energy_spectrum": 1.0,
        "dynamics.spectrum_degeneracy": 1.0,
        "dynamics.eta_anticommutes": 1.0,
        "dynamics.eta_traceless": 1.0,
        "dynamics.velocity_direction_evolution": 1.0,
        "dynamics.eigenstate_no_oscillation": 1.0,
        "dynamics.eigenspinor_residual": 1.0,
        "dynamics.eigenbasis_orthonormal": 1.0,
    },
    "fields": {
        "fields.momentum_commutator_h": 1.0,
        "fields.self_h_matches_expected": 1.0,
        "fields.routes_agree": 1.0,
        "fields.self_potentials_vector_real_part": 1.0,
        "fields.eigenspinor_norm": 1.0,
        "fields.cross_sum_eigenstates": 1.0,
        "fields.coupled_equals_reduced": 1.0,
        "fields.reduced_equals_expectation": 1.0,
    },
    "lattice": {
        "lattice.analytic_identity": 1.0,
    },
}


def _override_factor(suite, claim_id):
    for key, factor in TOL_OVERRIDE_FACTORS[suite].items():
        if claim_id == key or claim_id.startswith(key + "."):
            return factor
    return None


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_tol_override_moves_exactly_the_mapped_claims(full_run, suite):
    override = 2.0**-20  # a power of two, so factor * override is exact
    moved = run_suite(RunConfig(seed=DEFAULT_SEED, tol_overrides={suite: override}))
    base_tols = {c.claim_id: c.tol for c in full_run.checks}
    assert [c.claim_id for c in moved.checks] == list(base_tols)
    seen = set()
    for c in moved.checks:
        factor = _override_factor(suite, c.claim_id)
        if factor is None:
            assert c.tol == base_tols[c.claim_id], c.claim_id
        else:
            assert c.tol == factor * override, c.claim_id
            seen.update(k for k in TOL_OVERRIDE_FACTORS[suite]
                        if c.claim_id == k or c.claim_id.startswith(k + "."))
    assert seen == set(TOL_OVERRIDE_FACTORS[suite])
