"""Check records, report assembly and deterministic JSON rendering.

Every verification run produces a list of Check records plus a summary.
Serialization is byte-stable: floats render with 17 significant digits,
dict keys keep their construction order, and nothing time-dependent is
written.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any

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


@dataclass
class Check:
    """One verified claim: what was expected, what came out, how far apart."""

    claim_id: str
    paper_eq: str
    quote: str
    claimed: Any
    computed: Any
    oracle: Any = None
    abs_err: float = 0.0
    rel_err: float | None = None
    tol: float = 0.0
    passed: bool = False
    notes: str = ""


def matrix_to_json(m) -> dict:
    """Row-major {dim, entries: [[re, im], ...]} encoding of a square matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    entries = [list(z) for z in zip(a.real.ravel().tolist(), a.imag.ravel().tolist())]
    return {"dim": int(a.shape[0]), "entries": entries}


def _deviation(claimed, computed) -> tuple[float, float]:
    """Max absolute entrywise deviation and the claimed-side scale."""
    a = np.asarray(claimed, dtype=complex)
    b = np.asarray(computed, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    dev = float(np.max(np.abs(a - b))) if a.size else 0.0
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    return dev, scale


def _jsonable_value(v):
    if isinstance(v, np.ndarray):
        if v.ndim == 2:
            return matrix_to_json(v)
        return [_jsonable_value(x) for x in v.tolist()]
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (complex, np.complexfloating)):
        z = complex(v)
        if z.imag == 0.0:
            return z.real
        return [z.real, z.imag]
    return v


def make_check(claim_id, eq, claimed, computed, tol, *, oracle=None, notes=""):
    """Build a Check by comparing claimed and computed values.

    Scalars and arrays both work; arrays compare entrywise and record the
    largest deviation.  tol = 0 demands exact equality.
    """
    abs_err, scale = _deviation(claimed, computed)
    rel_err = abs_err / scale if scale > 0.0 else None
    passed = abs_err <= tol
    return Check(
        claim_id=claim_id,
        paper_eq=eq,
        quote=ANCHORS[eq],
        claimed=_jsonable_value(claimed),
        computed=_jsonable_value(computed),
        oracle=_jsonable_value(oracle) if oracle is not None else None,
        abs_err=abs_err,
        rel_err=rel_err,
        tol=float(tol),
        passed=bool(passed),
        notes=notes,
    )


def qualitative_check(claim_id, eq, claimed, computed, passed, *, notes=""):
    """Check whose verdict is a judgement, not a numeric distance."""
    return Check(
        claim_id=claim_id,
        paper_eq=eq,
        quote=ANCHORS[eq],
        claimed=claimed,
        computed=computed,
        oracle=None,
        abs_err=0.0,
        rel_err=None,
        tol=0.0,
        passed=bool(passed),
        notes=notes,
    )


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
        total = len(self.checks)
        passed = sum(1 for c in self.checks if c.passed)
        return {
            "total": total,
            "passed": passed,
            "failed": total - passed,
            "not_machine_checkable": self.not_machine_checkable,
        }

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        checks = []
        for c in sorted(self.checks, key=lambda c: c.claim_id):
            checks.append({
                "claim_id": c.claim_id,
                "paper_eq": c.paper_eq,
                "quote": c.quote,
                "claimed": c.claimed,
                "computed": c.computed,
                "oracle": c.oracle,
                "abs_err": c.abs_err,
                "rel_err": c.rel_err,
                "tol": c.tol,
                "pass": c.passed,
                "notes": c.notes,
            })
        return {
            "tool_version": self.tool_version,
            "constants_used": dict(self.constants_used),
            "seed": self.seed,
            "conventions": list(self.conventions),
            "suites_run": list(self.suites_run),
            "checks": checks,
            "summary": self.summary,
        }


def _render_float(x: float) -> str:
    """A Python float (not a subclass) as JSON text."""
    if x.is_integer():  # False for nan and the infinities
        # '1.0': integers stay visibly floating below 1e16
        return repr(x) if -1e16 < x < 1e16 else format(x, ".17g")
    if x - x != 0.0:  # nan or an infinity
        raise ValueError("non-finite float cannot be serialized")
    return format(x, ".17g")


# Characters a JSON string cannot hold literally: the quote, the backslash
# and the C0 controls.
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _escape(match) -> str:
    ch = match.group()
    if ch == '"':
        return '\\"'
    if ch == "\\":
        return "\\\\"
    if ch == "\n":
        return "\\n"
    return f"\\u{ord(ch):04x}"


# Rendered strings by content: report keys, quotes and notes repeat in every
# check.  Bounded, so rendering many distinct strings cannot grow it without end.
_STRING_CACHE: dict = {}
_STRING_CACHE_SIZE = 4096


def _render_string(s: str) -> str:
    text = _STRING_CACHE.get(s)
    if text is None:
        text = '"' + _NEEDS_ESCAPE.sub(_escape, s) + '"'
        if len(_STRING_CACHE) < _STRING_CACHE_SIZE:
            _STRING_CACHE[s] = text
    return text


def _render_dict(value: dict, indent: int) -> str:
    if not value:
        return "{}"
    inner = "\n" + "  " * (indent + 1)
    rows = [f"{_render_string(str(k))}: {_render_value(v, indent + 1)}"
            for k, v in value.items()]
    return "{" + inner + ("," + inner).join(rows) + "\n" + "  " * indent + "}"


def _render_sequence(value, indent: int) -> str:
    if not len(value):
        return "[]"
    # plain floats, and the [re, im] pairs of every matrix entry, skip the
    # dispatch; a pair of floats always fits the inline rule below
    parts = [
        _render_float(v) if type(v) is float
        else "[" + _render_float(v[0]) + ", " + _render_float(v[1]) + "]"
        if type(v) is list and len(v) == 2 and type(v[0]) is float and type(v[1]) is float
        else _render_value(v, indent + 1)
        for v in value]
    if sum(map(len, parts)) <= 72 and all(len(p) <= 24 and "\n" not in p for p in parts):
        return "[" + ", ".join(parts) + "]"
    inner = "\n" + "  " * (indent + 1)
    return "[" + inner + ("," + inner).join(parts) + "\n" + "  " * indent + "]"


def _unserializable(value, indent: int) -> str:
    raise TypeError(f"cannot serialize {type(value).__name__}")


# How each kind of value renders, tried in this order for a type seen the
# first time; _HANDLERS then maps the type itself to its renderer.
_KINDS = (
    (type(None), lambda v, indent: "null"),
    (bool, lambda v, indent: "true" if v else "false"),
    ((int, np.integer), lambda v, indent: str(int(v))),
    ((float, np.floating), lambda v, indent: _render_float(float(v))),
    (str, lambda v, indent: _render_string(v)),
    ((np.ndarray, complex, np.complexfloating),
     lambda v, indent: _render_value(_jsonable_value(v), indent)),
    (dict, _render_dict),
    ((list, tuple), _render_sequence),
)
_HANDLERS: dict = {float: lambda v, indent: _render_float(v)}


def _render_value(value, indent: int) -> str:
    kind = type(value)
    handler = _HANDLERS.get(kind)
    if handler is None:
        handler = next((h for base, h in _KINDS if issubclass(kind, base)), _unserializable)
        _HANDLERS[kind] = handler
    return handler(value, indent)


def render_json(value) -> str:
    """Deterministic JSON text: 17-significant-digit floats, stable key order."""
    return _render_value(value, 0)


def report_json(report: VerificationReport) -> str:
    return render_json(report.to_dict()) + "\n"


def text_summary(report: VerificationReport) -> str:
    """Human-skimmable sibling of the JSON report."""
    lines = [f"diraclab {report.tool_version}  seed={report.seed}"]
    consts = report.constants_used
    lines.append(
        "constants: " + "  ".join(f"{k}={consts[k]:.12g}" for k in consts)
    )
    by_suite: dict[str, list[Check]] = {}
    for c in report.checks:
        by_suite.setdefault(c.claim_id.split(".", 1)[0], []).append(c)
    for name in report.suites_run:
        group = by_suite.get(name, [])
        good = sum(1 for c in group if c.passed)
        lines.append(f"suite {name:<8s} {good}/{len(group)} checks passed")
    failures = [c for c in report.checks if not c.passed]
    if failures:
        lines.append("failed checks:")
        for c in sorted(failures, key=lambda c: c.claim_id):
            lines.append(f"  [FAIL] {c.claim_id}  abs_err={c.abs_err:.3e} tol={c.tol:.3e}")
    else:
        lines.append("failed checks: none")
    if report.not_machine_checkable:
        lines.append("not machine-checkable as printed:")
        for item in report.not_machine_checkable:
            lines.append(f"  [SKIP] {item['claim_id']}: {item['note']}")
    s = report.summary
    lines.append(f"total {s['total']} | passed {s['passed']} | failed {s['failed']}")
    return "\n".join(lines) + "\n"
