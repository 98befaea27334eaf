"""The tracer sees every call: known counts from the package itself."""

import pytest

import spantrace
import diraclab
from diraclab import RunConfig, dynamics, matrices, report, suites

# Calls go through module attributes, as the workloads make them, so that
# they reach the wrappers the tracer installs.


@pytest.fixture
def tracer():
    t = spantrace.Tracer().install()
    t.begin_op(0)
    try:
        yield t
    finally:
        t.uninstall()


def metrics(t):
    ops = spantrace.per_op(t.dump())
    return ops[0]


def test_dirac_generator_count_for_three_suites(tracer):
    diraclab.run_suite(RunConfig(seed=137, suites=("states", "dynamics", "fields")))
    assert metrics(tracer)["matrices.dirac_generator.calls"] == 3904


def test_full_catalogue_has_118_checks(tracer):
    rep = diraclab.run_suite(RunConfig(seed=137))
    diraclab.report_json(rep)
    m = metrics(tracer)
    assert m["suites.checks"] == 118
    for suite in ("algebra", "states", "dynamics", "fields", "lattice"):
        assert m[f"suites.{suite}.calls"] == 1
        assert m[f"suites.{suite}.total_s"] > 0
    assert m["lattice.meshgrid.calls"] > 0
    assert m["lattice.grid_points"] > 0


def test_render_json_spans_only_its_outermost_call(tracer):
    rep = diraclab.run_suite(RunConfig(seed=137, suites=("algebra",)))
    text = diraclab.report_json(rep)
    m = metrics(tracer)
    assert m["report.report_json.calls"] == 1
    assert m["report.render_json.calls"] == 1
    assert m["report.bytes"] == len(text.encode("utf-8"))


def test_from_imports_are_rebound_and_restored():
    original = matrices.dirac_generator
    assert dynamics.dirac_generator is original
    t = spantrace.Tracer().install()
    try:
        assert dynamics.dirac_generator is not original
        assert dynamics.dirac_generator is matrices.dirac_generator
        assert suites._BUILDERS["algebra"] is not suites.build_algebra_suite
    finally:
        t.uninstall()
    assert dynamics.dirac_generator is original
    assert matrices.dirac_generator is original
    assert suites._BUILDERS["algebra"] is suites.build_algebra_suite
    assert report.render_json.__module__ == "diraclab.report"
