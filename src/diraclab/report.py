"""Report rows, report assembly and deterministic JSON rendering.

Every claim becomes its report row in one constructor, check_row: a plain
dict whose keys are in report order and whose values are JSON values
already, so the report is the rows sorted by claim id plus a summary.
make_check builds the row of a numeric claim from its deviation, a verdict
goes to check_row directly, and check_row alone refuses a non-finite
number.  Serialization is byte-stable: json writes each float as its repr,
the shortest text that reads back to the same double; keys keep their
construction order, each row sits on its own line, and nothing
time-dependent is written.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

TOOL_VERSION = "0.1.0"

# Formula anchors, keyed by the catalogue tag of each identity this tool
# checks.  Anchors are ASCII renderings of the identities themselves.
ANCHORS = {
    "a1": "i hbar dPsi/dt = C (alpha_j p_j) Psi + m C^2 beta Psi",
    "a2": "alpha_j = [[0, sigma_j], [sigma_j, 0]]; beta = diag(1, 1, -1, -1)",
    "b2": "gamma_j = [[sigma_j, 0], [0, -sigma_j]]; gamma_o = [[0, I], [I, 0]]",
    "ab1": "i hbar dphi/dt = C (sigma.P) chi + m C^2 phi; "
           "i hbar dchi/dt = C (sigma.P) phi - m C^2 chi",
    "ab2": "second-order reduction of the two-component split",
    "ab3": "phi = (psi_1, psi_2); chi = (psi_3, psi_4)",
    "aa1": "four scalar component equations of the coupled system",
    "aa2": "component equations in cylindrical coordinates",
    "aa5": "angular factors exp(i l phi), exp(i(l+1) phi), exp(i l phi), exp(i(l+1) phi)",
    "aa6": "angular factors exp(i(l-1) phi), exp(i l phi), exp(i(l-1) phi), exp(i l phi)",
    "aa7": "J_z = -i hbar d/dphi + (hbar/2) sigma_z",
    "aa8": "J_z Psi = hbar (l + 1/2) Psi",
    "aa9": "J_z Psi = hbar (l - 1/2) Psi",
    "d": "v_j = C alpha_j",
    "e": "i hbar dalpha_j/dt = 2 (alpha_j H - C p_j)",
    "f": "eta_j = alpha_j - (C p_j / H) I",
    "g": "r_j(t) = a_j + t C^2 p_j / H + oscillatory term in exp(2 i t H / hbar)",
    "h": "P_j = m v_j - (e/C) A_j",
    "k1": "kinetic p_j = -i hbar grad_j + (e/C) A_j",
    "k2": "kinetic p_o = (1/C)(i hbar d/dt - e phi)",
    "l1": "[p_j, p_l] = i hbar (e/C) eps_jlk H_k",
    "l2": "[p_j, p_o] = i hbar (e/C) E_j",
    "m": "p_o = m C I; p_j = m C alpha_j",
    "n1": "[p_j, p_l] = 2 i m^2 C^2 eps_jlk sigma_k",
    "n2": "[p_j, p_o] = 0",
    "o": "E_j = 0; H_j = 2 (m^2 C^3 / (e hbar)) sigma_j",
    "p": "E_0 = -<mu_j><H_j> = m C^2",
    "q": "<sigma_1>^2 + <sigma_2>^2 + <sigma_3>^2 = 1",
    "r": "delta_mu / mu = e^2 / (2 pi C hbar) = alpha / (2 pi)",
    "s": "<A_j> = (m C^2 / -e) <beta alpha_j>; <phi> = (m C^2 / -e) <beta>",
    "t1": "H_j = eps_jkl grad_k A_l",
    "t2": "E_j = -(1/C) dA_j/dt - grad_j phi",
    "u1": "H_j = i eps_jkl (m C / hbar) alpha_k (m C^2 / -e) alpha_l",
    "u2": "E_j = i (m C / hbar) (m C^2 / -e) (I alpha_j - alpha_j I) = 0",
    "v": "<H> = m C^2 <beta> + m C^2 <alpha_j><beta alpha_j> + C <alpha_j P_j>",
    "w": "<Psi|Psi> = 1; sum_j <alpha_j><beta alpha_j> = 0",
    "ba1": "<H> = C <alpha_j P_j> + m C^2 <beta>",
    "closing": "E^2 = P^2 C^2 + m^2 C^4",
    "plumbing": "plumbing",
}


def _plain(v):
    """v as a JSON value: a square matrix as {dim, entries: [[re, im], ...]}
    in row-major order, any other array as (nested) lists, a numpy scalar as
    the Python number, and a complex number as its real part if its
    imaginary part is zero, else as [re, im]."""
    if isinstance(v, np.ndarray):
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            return [_plain(x) for x in v.tolist()]
        a = np.ascontiguousarray(v, dtype=complex)
        return {"dim": len(a), "entries": a.view(float).reshape(-1, 2).tolist()}
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, complex):
        return v.real if v.imag == 0.0 else [v.real, v.imag]
    return v


def check_row(claim_id, eq, claimed, computed, passed, *, oracle=None,
              abs_err=0.0, rel_err=None, tol=0.0, notes="") -> dict:
    """The report row of one claim, keys in report order (a verdict keeps the
    defaults).  A NaN or infinite abs_err, rel_err or tol raises
    ArithmeticError naming the claim: the report could not hold it."""
    if not all(map(math.isfinite, (abs_err, rel_err or 0.0, tol))):
        raise ArithmeticError(f"{claim_id}: non-finite deviation or tolerance "
                              f"(abs_err={abs_err!r}, rel_err={rel_err!r}, tol={tol!r})")
    return {
        "claim_id": claim_id,
        "paper_eq": eq,
        "quote": ANCHORS[eq],
        "claimed": claimed,
        "computed": computed,
        "oracle": oracle,
        "abs_err": abs_err,
        "rel_err": rel_err,
        "tol": tol,
        "pass": bool(passed),
        "notes": notes,
    }


def make_check(claim_id, eq, claimed, computed, tol, *, oracle=None, notes=""):
    """The row of a numeric claim, scalar or array: the largest entrywise
    |claimed - computed| against tol (0 demands equality), relative to the
    largest |claimed| entry unless that is 0."""
    a = np.asarray(claimed, dtype=complex)
    b = np.asarray(computed, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    with np.errstate(all="ignore"):  # a non-finite deviation is check_row's to refuse
        abs_err = float(np.max(np.abs(a - b), initial=0.0))
        scale = float(np.max(np.abs(a), initial=0.0))
    return check_row(claim_id, eq, _plain(claimed), _plain(computed), abs_err <= tol,
                     oracle=_plain(oracle), abs_err=abs_err,
                     rel_err=abs_err / scale if scale > 0.0 else None,
                     tol=float(tol), notes=notes)


@dataclass
class VerificationReport:
    tool_version: str
    constants_used: dict
    seed: int
    conventions: list
    suites_run: list
    checks: list = field(default_factory=list)
    not_machine_checkable: list = field(default_factory=list)

    @property
    def summary(self) -> dict:
        total, passed = len(self.checks), sum(c["pass"] for c in self.checks)
        return {"total": total, "passed": passed, "failed": total - passed,
                "not_machine_checkable": self.not_machine_checkable}

    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "constants_used": dict(self.constants_used),
            "seed": self.seed,
            "conventions": list(self.conventions),
            "suites_run": list(self.suites_run),
            "checks": sorted(self.checks, key=itemgetter("claim_id")),
            "summary": self.summary,
        }


_encode = json.JSONEncoder(allow_nan=False).encode


def render_json(value) -> str:
    """Deterministic JSON: a top-level dict one key per line, a list of dicts
    under it (the report's checks) one dict per line, all else compact."""
    if not isinstance(value, dict) or not value:
        return _encode(value)
    rows = []
    for k, v in value.items():
        if isinstance(v, list) and v and all(isinstance(x, dict) for x in v):
            text = "[\n    " + ",\n    ".join(map(_encode, v)) + "\n  ]"
        else:
            text = _encode(v)
        rows.append(f"  {_encode(str(k))}: {text}")
    return "{\n" + ",\n".join(rows) + "\n}"


def report_json(report: VerificationReport) -> str:
    return render_json(report.to_dict()) + "\n"


def text_summary(report: VerificationReport) -> str:
    """Human-skimmable sibling of the JSON report."""
    lines = [f"diraclab {report.tool_version}  seed={report.seed}"]
    consts = report.constants_used
    lines.append("constants: " + "  ".join(f"{k}={consts[k]:.12g}" for k in consts))
    by_suite: dict[str, list[dict]] = {}
    for c in report.checks:
        by_suite.setdefault(c["claim_id"].split(".", 1)[0], []).append(c)
    for name in report.suites_run:
        group = by_suite.get(name, [])
        good = sum(c["pass"] for c in group)
        lines.append(f"suite {name:<8s} {good}/{len(group)} checks passed")
    failures = sorted((c for c in report.checks if not c["pass"]), key=itemgetter("claim_id"))
    if failures:
        lines.append("failed checks:")
        for c in failures:
            lines.append(f"  [FAIL] {c['claim_id']}  abs_err={c['abs_err']:.3e} tol={c['tol']:.3e}")
    else:
        lines.append("failed checks: none")
    if report.not_machine_checkable:
        lines.append("not machine-checkable as printed:")
        for item in report.not_machine_checkable:
            lines.append(f"  [SKIP] {item['claim_id']}: {item['note']}")
    s = report.summary
    lines.append(f"total {s['total']} | passed {s['passed']} | failed {s['failed']}")
    return "\n".join(lines) + "\n"
