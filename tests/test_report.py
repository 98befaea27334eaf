"""Report assembly, JSON rendering, determinism plumbing."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.report import (
    ANCHORS,
    TOOL_VERSION,
    VerificationReport,
    check_row,
    make_check,
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


ROW_KEYS = ["claim_id", "paper_eq", "quote", "claimed", "computed", "oracle",
            "abs_err", "rel_err", "tol", "pass", "notes"]


def test_make_check_scalar_pass_and_fail():
    ok = make_check("algebra.x", "plumbing", claimed=1.0, computed=1.0 + 1e-15, tol=1e-12)
    assert ok["pass"] is True and ok["abs_err"] <= 1e-12
    assert ok["rel_err"] == ok["abs_err"]
    bad = make_check("algebra.y", "plumbing", claimed=1.0, computed=1.5, tol=1e-12)
    assert bad["pass"] is False and bad["abs_err"] == 0.5
    # a claimed zero has no scale to be relative to
    zero = make_check("algebra.z", "plumbing", claimed=[0.0, 0.0], computed=[0.0, 0.25], tol=1.0)
    assert zero["rel_err"] is None and zero["abs_err"] == 0.25 and zero["pass"] is True


def test_make_check_matrix_entrywise():
    a = np.eye(2, dtype=complex)
    b = a.copy()
    b[0, 1] = 1e-3
    c = make_check("algebra.z", "plumbing", claimed=a, computed=b, tol=1e-6)
    assert not c["pass"]
    assert abs(c["abs_err"] - 1e-3) <= 1e-18
    assert c["claimed"] == {
        "dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
    assert c["computed"] == {
        "dim": 2, "entries": [[1.0, 0.0], [1e-3, 0.0], [0.0, 0.0], [1.0, 0.0]]}


def test_make_check_refuses_a_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        make_check("algebra.z", "plumbing", claimed=np.zeros(3), computed=np.zeros(4), tol=1.0)


def test_make_check_requires_known_anchor():
    with pytest.raises(KeyError):
        make_check("x", "zz9", claimed=0.0, computed=0.0, tol=1.0)
    with pytest.raises(KeyError):
        check_row("x", "zz9", claimed="a", computed="a", passed=True)


def test_every_check_carries_quote():
    c = make_check("x.y", "a1", claimed=0.0, computed=0.0, tol=1.0)
    assert c["quote"] == ANCHORS["a1"]
    q = check_row("x.q", "plumbing", claimed="a", computed="a", passed=True)
    assert q["quote"] == "plumbing"
    # a verdict row and a numeric row share one layout
    assert list(q) == list(c) == ROW_KEYS
    assert (q["oracle"], q["abs_err"], q["rel_err"], q["tol"]) == (None, 0.0, None, 0.0)


def test_row_values_are_plain_json_values():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    for value, plain in [
        (np.float64(0.5), 0.5), (np.int64(3), 3), (np.complex128(2.0), 2.0),
        (1 + 2j, [1.0, 2.0]), (np.complex128(-0.0 - 1j), [-0.0, -1.0]), (2 + 0j, 2.0),
        (np.array([1 + 1j, 2.0]), [[1.0, 1.0], 2.0]), (np.zeros((2, 3)), [[0.0] * 3] * 2),
        (np.ones((2, 1, 2)), [[[1.0, 1.0]], [[1.0, 1.0]]]),
        (m.T, {"dim": 2, "entries": [[1.0, 0.0], [3.0, 0.0], [2.0, 0.0], [4.0, 0.0]]}),
        ("text", "text"), ([0.5, None], [0.5, None]), (None, None),
    ]:
        row = make_check("x.v", "plumbing", claimed=0.0, computed=0.0, tol=0.0, oracle=value)
        assert same(row["oracle"], plain), (value, row["oracle"])
        assert same(json.loads(render_json(row)), row)


@pytest.mark.parametrize("kwargs", [
    {"claimed": 0.0, "computed": math.nan, "tol": 1.0},
    {"claimed": 0.0, "computed": math.inf, "tol": 1.0},
    {"claimed": [math.inf], "computed": [math.inf], "tol": 1.0},
    {"claimed": 1 + 0j, "computed": complex(1.0, math.nan), "tol": 1.0},
    {"claimed": 0.0, "computed": 0.0, "tol": math.inf},
    {"claimed": 1e-300, "computed": 1e300, "tol": 1.0},  # relative deviation overflows
], ids=["nan", "inf", "inf-inf", "complex-nan", "inf-tol", "rel-overflow"])
def test_a_non_finite_row_raises_naming_its_claim(kwargs):
    with pytest.raises(ArithmeticError, match="^fields.x: non-finite deviation"):
        make_check("fields.x", "plumbing", **kwargs)
    with pytest.raises(ArithmeticError, match="^fields.x: non-finite deviation"):
        check_row("fields.x", "plumbing", "a", "b", False, abs_err=math.nan)


def test_summary_counts_match_checks():
    checks = [
        make_check("a.1", "plumbing", claimed=0.0, computed=0.0, tol=1.0),
        make_check("a.2", "plumbing", claimed=0.0, computed=5.0, tol=1.0),
        check_row("a.3", "plumbing", claimed="x", computed="x", passed=True),
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
    assert list(d["checks"][0]) == ROW_KEYS


def test_render_json_deterministic_and_shortest_repr():
    payload = {"x": 1.0 / 3.0, "n": 3, "s": "abc", "v": [1.5, None, True]}
    a = render_json(payload)
    assert a == render_json(payload)
    assert '"x": 0.3333333333333333,' in a
    for x in SPECIAL_FLOATS:
        assert render_json(x) == repr(x)


def test_render_json_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        for value in (bad, {"x": bad}, {"checks": [{"x": [bad]}]}):
            with pytest.raises(ValueError):
                render_json(value)


@settings(max_examples=50, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_rendered_floats_round_trip(x):
    text = render_json({"x": x})
    assert json.loads(text)["x"] == x


def test_report_json_ends_with_newline_and_round_trips():
    rep = small_report(checks=[
        make_check("a.1", "plumbing", claimed=0.5, computed=0.5, tol=1e-12),
    ])
    text = report_json(rep)
    assert text.endswith("\n")
    data = json.loads(text)
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


# --- rendering, checked by reading the text back -------------------------------
#
# The standard library writes the text, so there is no second renderer to
# compare bytes with: each value is its own reference.  Its text must parse
# back to it, with key order, types and every float's bits the same.

def same(a, b):
    """a == b, floats compared bit for bit, tuples in a read as lists in b."""
    if isinstance(a, float):  # np.float64 is a float and reads back as one
        return type(b) is float and a.hex() == b.hex()
    if type(a) is dict:
        return type(b) is dict and list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if type(a) in (list, tuple):
        return type(b) is list and len(a) == len(b) and all(map(same, a, b))
    return type(a) is type(b) and a == b


AWKWARD_STRINGS = [
    "", "plain", 'say "hi"', "back\\slash", "line\nbreak", "tab\there",
    "nul\x00", "unit\x1f", "del\x7f", "space \x20", "caf\u00e9 \u03c3_j \u2202\u03c8",
    "\U0001d6fc emoji \U0001f600", '\\"\n\t\x00\x1f\x7f\u00e9', "\r\x0b\x0c\x1b",
]


@pytest.mark.parametrize("s", AWKWARD_STRINGS)
def test_render_string_matches_reference(s):
    for value in (s, {s: [s, {s: s}]}, {"checks": [{s: s}, {"k": s}]}):
        text = render_json(value)
        assert text.isascii()
        assert same(value, json.loads(text))


def test_render_json_mixed_lists_match_reference():
    values = [
        [1.0, 2, True, False, None, 0.1, -3, [0.5, [-0.0]]],
        [0.0, -0.0, 1e16, -1e16, 1e-300, 5e-324, 1.7976931348623157e308, 0.1],
        [np.float64(-0.0), np.float64(0.25), 3, 1.0 / 3.0, "s"],
        [[1.0, -0.0]] * 4 + [[]] + [{}] + [()],
        (1.5, (2.5, [3.5, (4.5,)])),
        [1.0] * 12 + [123456789.123456789] * 3,
        {"nested": {"deep": [[-0.0, 0.0], [1e-17], []]}},
        {"rows": [{"a": 1.0}, {"b": [-0.0]}], "empty": [], "none": {}},
    ]
    for v in values:
        for doc in (v, {"a": {"b": {"c": v}}}, {"checks": [{"c": v}, {}]}):
            assert same(doc, json.loads(render_json(doc)))


@pytest.mark.parametrize("bad", [np.array([1.0, 2.0]), np.eye(2), 1 + 2j, 2 + 0j,
                                 np.complex128(1.0), np.int64(3)], ids=repr)
def test_numpy_and_complex_values_raise_type_error(bad):
    # make_check turns these into plain values before a row holds them
    for value in (bad, {"x": [bad]}, {"checks": [{"computed": bad}]}):
        with pytest.raises(TypeError):
            render_json(value)


def test_matrix_row_value_matches_per_entry_reference():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m[0, 0] = complex(-0.0, 0.0)
    m[1, 2] = complex(0.0, -0.0)
    m[3, 3] = complex(-0.0, -0.0)
    got = make_check("x.m", "plumbing", claimed=m, computed=m, tol=0.0)["computed"]
    assert got["dim"] == 4
    assert same(got["entries"], [[float(z.real), float(z.imag)] for z in m.ravel()])
    assert same(json.loads(render_json(got)), got)


def test_seed137_report_renders_like_reference():
    from diraclab.config import RunConfig
    from diraclab.suites import run_suite

    report = run_suite(RunConfig(seed=137))
    data = report.to_dict()
    text = report_json(report)
    assert same(data, json.loads(text))
    assert text == report_json(copy.deepcopy(report)) and text.endswith("}\n")
    # one check per line, each the text of that check alone
    rows = [line for line in text.splitlines() if line.startswith('    {"claim_id": ')]
    assert [json.loads(row.rstrip(",")) for row in rows] == data["checks"]


SPECIAL_FLOATS = [
    0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 9999999999999998.0, -9999999999999998.0,
    1.0000000000000002e16, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
    0.1, 1.0 / 3.0, 0.30000000000000004, 123456789.12345679, -2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e22, 4503599627370497.5,
]
_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(SPECIAL_FLOATS),
                    st.integers(-2**60, 2**60).map(float))
_strings = st.text(alphabet=st.one_of(st.characters(max_codepoint=0x1f),
                                      st.sampled_from('"\\ab éσ\U0001f600'),
                                      st.characters()), max_size=12)
_scalars = st.one_of(_floats, st.integers(-10**20, 10**20), st.booleans(), st.none(), _strings)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.tuples(inner, inner),
                            st.dictionaries(_strings, inner, max_size=5)),
    max_leaves=25,
)
# a top-level dict whose values may be lists of dicts, laid out one per line
_documents = st.one_of(_values, st.dictionaries(_strings, st.one_of(
    _values, st.lists(st.dictionaries(_strings, _values, max_size=3), min_size=1, max_size=4)),
    max_size=4))


@settings(max_examples=200, deadline=None)
@given(_documents)
def test_render_json_round_trips_bit_for_bit(value):
    text = render_json(value)
    assert same(value, json.loads(text))
    assert text == render_json(value)


@settings(max_examples=100, deadline=None)
@given(_values, st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)]),
       st.integers(0, 2))
def test_non_finite_floats_raise_at_any_depth(value, bad, where):
    nested = ([value, bad] if where == 0 else {"x": [bad, value]} if where == 1
              else {"checks": [{"v": value}, {"x": [(bad,)]}]})
    with pytest.raises(ValueError):
        render_json(nested)
