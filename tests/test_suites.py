"""Suite orchestration: seed sweep and independence of suite selection."""

import json

import numpy as np
import pytest

from diraclab.config import DEFAULT_SEED, SUITE_NAMES, RunConfig
from diraclab.report import render_json, report_json
from diraclab.suites import _dev, _zero, run_suite

SEEDED_SUITES = ("algebra", "states", "dynamics", "fields")


@pytest.mark.parametrize("seed", range(50))
def test_seeded_suites_pass_at_every_seed(seed):
    report = run_suite(RunConfig(seed=seed, suites=SEEDED_SUITES))
    failed = [c.claim_id for c in report.checks if not c.passed]
    assert not failed, f"seed {seed}: {failed}"
    assert json.loads(report_json(report))["summary"]["failed"] == 0


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
    with pytest.raises(ArithmeticError, match="x: NaN deviation"):
        _zero("x", "plumbing", [_dev(np.array([np.nan, 1.0]))], 1e-12)
