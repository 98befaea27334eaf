"""Behaviour lock for `diraclab verify --seed 137` (all suites).

tests/fixtures/seed137_checks.json records, for every check of that run,
its claim_id, paper_eq, claimed value, tolerance, verdict and computed
value.  The run must produce the same claim_id set with the same
paper_eq, claimed, tol and pass, and every computed number must lie
within the check's own tol of the recorded one: rounding-level changes
(a different LAPACK, a reordered sum) stay legal, a changed result does
not.  Text results (qualitative checks, tol 0) must match exactly.

Regenerate the fixture, after a deliberate change to the catalogue, with
    PYTHONPATH=src python tests/test_snapshot.py
"""

import json
import math
from pathlib import Path

import pytest

from diraclab.config import RunConfig
from diraclab.report import report_json
from diraclab.suites import run_suite

FIXTURE = Path(__file__).parent / "fixtures" / "seed137_checks.json"
SEED = 137
LOCKED = ("paper_eq", "claimed", "tol", "pass")


def _snapshot() -> dict:
    report = json.loads(report_json(run_suite(RunConfig(seed=SEED))))
    return {
        c["claim_id"]: {key: c[key] for key in LOCKED + ("computed",)}
        for c in report["checks"]
    }


def _leaves(value, path="$"):
    """(path, leaf) pairs of a JSON value, in document order."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _within(got, want, tol: float) -> bool:
    got_leaves, want_leaves = list(_leaves(got)), list(_leaves(want))
    if [p for p, _ in got_leaves] != [p for p, _ in want_leaves]:
        return False
    for (_, g), (_, w) in zip(got_leaves, want_leaves):
        numeric = isinstance(g, (int, float)) and not isinstance(g, bool)
        if numeric and isinstance(w, (int, float)) and not isinstance(w, bool):
            if not (math.isfinite(g) and abs(g - w) <= tol):
                return False
        elif g != w:
            return False
    return True


@pytest.fixture(scope="module")
def current():
    return _snapshot()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))["checks"]


def test_claim_id_set_is_unchanged(current, recorded):
    assert sorted(current) == sorted(recorded)


def test_locked_fields_are_unchanged(current, recorded):
    changed = [
        (cid, key)
        for cid, want in recorded.items() if cid in current
        for key in LOCKED if current[cid][key] != want[key]
    ]
    assert changed == []


def test_computed_within_tolerance_of_recorded(current, recorded):
    drifted = [
        cid for cid, want in recorded.items()
        if cid in current and not _within(current[cid]["computed"], want["computed"], want["tol"])
    ]
    assert drifted == []


def test_within_accepts_rounding_and_rejects_a_changed_value():
    assert _within({"entries": [[1.0, 0.0]]}, {"entries": [[1.0 + 1e-15, 0.0]]}, 1e-14)
    assert not _within({"entries": [[1.0, 0.0]]}, {"entries": [[1.1, 0.0]]}, 1e-14)
    assert not _within([1.0, 2.0], [1.0], 1.0)
    assert not _within("order='exact'", "order=2.0", 0.0)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    checks = _snapshot()
    rows = [f"  {json.dumps(cid)}: {json.dumps(checks[cid], sort_keys=True)}" for cid in sorted(checks)]
    text = f'{{"seed": {SEED}, "checks": {{\n' + ",\n".join(rows) + "\n}}\n"
    FIXTURE.write_text(text, encoding="utf-8")
    print(f"wrote {len(checks)} checks to {FIXTURE}")
