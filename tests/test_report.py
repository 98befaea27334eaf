"""Report assembly, JSON rendering, determinism plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_json  # tests/reference_json.py, the renderer before its fast paths
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


# --- rendering against a per-element reference ---------------------------------
#
# The reference below renders one character and one element at a time, as
# report.py did before its fast paths; it is kept here, not imported, so the
# production renderer is checked against code it does not share.

def _ref_float(x):
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        return repr(float(x))
    return format(x, ".17g")


def _ref_string(s):
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def _ref_jsonable(v):
    if isinstance(v, np.ndarray):
        if v.ndim == 2:
            a = np.asarray(v, dtype=complex)
            return {"dim": int(a.shape[0]),
                    "entries": [[float(z.real), float(z.imag)] for z in a.ravel()]}
        return [_ref_jsonable(x) for x in v.tolist()]
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    if isinstance(v, (complex, np.complexfloating)):
        z = complex(v)
        return z.real if z.imag == 0.0 else [z.real, z.imag]
    return v


def _ref_render(value, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _ref_float(float(value))
    if isinstance(value, str):
        return _ref_string(value)
    if isinstance(value, (np.ndarray, complex, np.complexfloating)):
        return _ref_render(_ref_jsonable(value), indent)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [f"{inner}{_ref_string(str(k))}: {_ref_render(v, indent + 1)}"
                for k, v in value.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        parts = [_ref_render(v, indent + 1) for v in value]
        if all(len(p) <= 24 and "\n" not in p for p in parts) and sum(map(len, parts)) <= 72:
            return "[" + ", ".join(parts) + "]"
        rows = [f"{inner}{p}" for p in parts]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


AWKWARD_STRINGS = [
    "", "plain", 'say "hi"', "back\\slash", "line\nbreak", "tab\there",
    "nul\x00", "unit\x1f", "del\x7f", "space \x20", "caf\u00e9 \u03c3_j \u2202\u03c8",
    "\U0001d6fc emoji \U0001f600", '\\"\n\t\x00\x1f\x7f\u00e9', "\r\x0b\x0c\x1b",
]


@pytest.mark.parametrize("s", AWKWARD_STRINGS)
def test_render_string_matches_reference(s):
    assert render_json(s) == _ref_string(s)
    assert render_json({s: [s, {s: s}]}) == _ref_render({s: [s, {s: s}]})


def test_render_json_mixed_lists_match_reference():
    values = [
        [1.0, 2, True, False, None, np.float64(0.1), np.int64(-3), [0.5, [-0.0]]],
        [0.0, -0.0, 1e16, -1e16, 1e-300, 5e-324, 1.7976931348623157e308, 0.1],
        [np.float64(-0.0), np.float32(0.25), 3, 1.0 / 3.0, "s", 1j, 2 + 0j],
        [[1.0, -0.0]] * 4 + [[]] + [{}] + [()],
        (1.5, (2.5, [3.5, (4.5,)])),
        [1.0] * 12 + [123456789.123456789] * 3,
        np.array([[1 + 2j, -0.0], [0.0 - 0.0j, 3.0]]),
        np.array([0.1, -0.0, 2.0]),
        {"nested": {"deep": [[-0.0, 0.0], [np.float64(1e-17)], []]}},
    ]
    for v in values:
        assert render_json(v) == _ref_render(v)
        assert render_json(v, 3) == _ref_render(v, 3)


def test_matrix_to_json_matches_per_entry_reference():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m[0, 0] = complex(-0.0, 0.0)
    m[1, 2] = complex(0.0, -0.0)
    m[3, 3] = complex(-0.0, -0.0)
    got = matrix_to_json(m)
    want = _ref_jsonable(m)
    assert got["dim"] == want["dim"]
    assert [[repr(x) for x in e] for e in got["entries"]] == \
        [[repr(x) for x in e] for e in want["entries"]]
    assert all(type(x) is float for e in got["entries"] for x in e)


def test_seed137_report_renders_like_reference():
    from diraclab.config import RunConfig
    from diraclab.suites import run_suite

    data = run_suite(RunConfig(seed=137)).to_dict()
    assert render_json(data) == _ref_render(data)


# --- against the reference renderer -------------------------------------------
#
# tests/reference_json.py is render_json as it was before its type dispatch,
# string cache and [re, im] fast path; every value must render to the same
# bytes through both.

SPECIAL_FLOATS = [
    0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 9999999999999998.0, -9999999999999998.0,
    1.0000000000000002e16, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
    0.1, 1.0 / 3.0, 0.30000000000000004, 123456789.12345679, -2.2250738585072014e-308,
    1.7976931348623157e308, 1e22, 4503599627370497.5,
]
_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(SPECIAL_FLOATS),
                    st.integers(-2**60, 2**60).map(float))
_strings = st.text(alphabet=st.one_of(st.characters(max_codepoint=0x1f),
                                      st.sampled_from('"\\ab éσ\U0001f600'),
                                      st.characters()), max_size=12)
_scalars = st.one_of(
    _floats, st.integers(-10**20, 10**20), st.booleans(), st.none(), _strings,
    _floats.map(np.float64), _floats.filter(lambda x: abs(x) < 1e30).map(np.float32),
    st.integers(-2**62, 2**62).map(np.int64),
    st.tuples(_floats, _floats).map(lambda z: complex(*z)),
    st.tuples(_floats, st.sampled_from([0.0, -0.0, 1.5])).map(lambda z: np.complex128(complex(*z))),
)
_arrays = st.one_of(
    st.lists(_floats, max_size=6).map(np.array),
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(_floats, _floats), min_size=n * n, max_size=n * n).map(
        lambda zs: np.array([complex(*z) for z in zs]).reshape(n, n))),
)
# lists of short floats straddle the inline rule: parts of at most 24
# characters, at most 72 in all
_short_lists = st.lists(st.sampled_from([0.0, -0.0, 1.0, 0.5, -2.25, 1e16, 5e-324, 0.1]),
                        max_size=30)
_values = st.recursive(
    st.one_of(_scalars, _arrays, _short_lists, st.lists(st.tuples(_floats, _floats).map(list))),
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.tuples(inner, inner),
                            st.dictionaries(_strings, inner, max_size=5)),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_values, st.integers(0, 3))
def test_render_json_matches_the_reference_renderer(value, indent):
    assert render_json(value, indent) == reference_json.render_json(value, indent)
    assert render_json(value, indent) == render_json(value, indent)


@settings(max_examples=100, deadline=None)
@given(_values, st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan),
                                 complex(math.inf, 0.0), complex(1.0, math.nan)]),
       st.integers(0, 2))
def test_non_finite_floats_raise_in_both_renderers(value, bad, where):
    nested = [value, bad] if where == 0 else {"x": [bad, value]} if where == 1 else [[(bad,)]]
    with pytest.raises(ValueError):
        render_json(nested)
    with pytest.raises(ValueError):
        reference_json.render_json(nested)
