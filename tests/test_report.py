"""Report assembly, JSON rendering, determinism plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.report import (
    ANCHORS,
    TOOL_VERSION,
    VerificationReport,
    make_check,
    matrix_to_json,
    qualitative_check,
    render_json,
    report_json,
    text_summary,
)


def small_report(checks=None, nmc=None):
    return VerificationReport(
        tool_version=TOOL_VERSION,
        constants_used={"hbar": 1.0},
        seed=0,
        conventions=["none"],
        suites_run=["algebra"],
        checks=checks or [],
        not_machine_checkable=nmc or [],
    )


def test_make_check_scalar_pass_and_fail():
    ok = make_check("algebra.x", "plumbing", claimed=1.0, computed=1.0 + 1e-15, tol=1e-12)
    assert ok.passed and ok.abs_err <= 1e-12
    assert ok.rel_err is not None
    bad = make_check("algebra.y", "plumbing", claimed=1.0, computed=1.5, tol=1e-12)
    assert not bad.passed and bad.abs_err == 0.5


def test_make_check_matrix_entrywise():
    a = np.eye(2, dtype=complex)
    b = a.copy()
    b[0, 1] = 1e-3
    c = make_check("algebra.z", "plumbing", claimed=a, computed=b, tol=1e-6)
    assert not c.passed
    assert abs(c.abs_err - 1e-3) <= 1e-18
    assert c.claimed == matrix_to_json(a) == {
        "dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
    assert c.computed == {
        "dim": 2, "entries": [[1.0, 0.0], [1e-3, 0.0], [0.0, 0.0], [1.0, 0.0]]}


def test_make_check_requires_known_anchor():
    with pytest.raises(KeyError):
        make_check("x", "zz9", claimed=0.0, computed=0.0, tol=1.0)


def test_every_check_carries_quote():
    c = make_check("x.y", "a1", claimed=0.0, computed=0.0, tol=1.0)
    assert c.quote == ANCHORS["a1"]
    q = qualitative_check("x.q", "plumbing", claimed="a", computed="a", passed=True)
    assert q.quote == "plumbing"


def test_summary_counts_match_checks():
    checks = [
        make_check("a.1", "plumbing", claimed=0.0, computed=0.0, tol=1.0),
        make_check("a.2", "plumbing", claimed=0.0, computed=5.0, tol=1.0),
        qualitative_check("a.3", "plumbing", claimed="x", computed="x", passed=True),
    ]
    rep = small_report(checks=checks)
    assert rep.summary["total"] == 3
    assert rep.summary["passed"] == 2
    assert rep.summary["failed"] == 1
    assert not rep.all_passed()


def test_report_checks_sorted_by_claim_id():
    checks = [
        make_check("b.2", "plumbing", claimed=0.0, computed=0.0, tol=1.0),
        make_check("a.1", "plumbing", claimed=0.0, computed=0.0, tol=1.0),
    ]
    d = small_report(checks=checks).to_dict()
    assert [c["claim_id"] for c in d["checks"]] == ["a.1", "b.2"]
    assert set(d["checks"][0].keys()) == {
        "claim_id", "paper_eq", "quote", "claimed", "computed", "oracle",
        "abs_err", "rel_err", "tol", "pass", "notes",
    }


def test_render_json_deterministic_and_17_digits():
    payload = {"x": 1.0 / 3.0, "n": 3, "s": "abc", "v": [1.5, None, True]}
    a = render_json(payload)
    assert a == render_json(payload)
    assert "0.33333333333333331" in a


def test_render_json_rejects_non_finite():
    with pytest.raises(ValueError):
        render_json({"x": float("nan")})
    with pytest.raises(ValueError):
        render_json({"x": float("inf")})


@settings(max_examples=50, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_rendered_floats_round_trip(x):
    import json as stdlib_json
    text = render_json({"x": x})
    assert stdlib_json.loads(text)["x"] == x


def test_report_json_ends_with_newline_and_round_trips():
    import json as stdlib_json
    rep = small_report(checks=[
        make_check("a.1", "plumbing", claimed=0.5, computed=0.5, tol=1e-12),
    ])
    text = report_json(rep)
    assert text.endswith("\n")
    data = stdlib_json.loads(text)
    assert data["tool_version"] == TOOL_VERSION
    assert data["summary"]["total"] == 1
    assert data["checks"][0]["pass"] is True


def test_text_summary_flags_failures_and_skips():
    checks = [
        make_check("algebra.good", "plumbing", claimed=0.0, computed=0.0, tol=1.0),
        make_check("algebra.bad", "plumbing", claimed=0.0, computed=9.0, tol=1.0),
    ]
    nmc = [{"claim_id": "states.skipme", "paper_eq": "ab2", "note": "cannot check"}]
    out = text_summary(small_report(checks=checks, nmc=nmc))
    assert "[FAIL] algebra.bad" in out
    assert "[SKIP] states.skipme" in out
    assert "1/2" in out
