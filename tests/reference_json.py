"""Reference JSON renderer: diraclab.report.render_json before its type
dispatch, string cache and matrix-row fast path.

It walks an isinstance chain on every value and renders every string anew.
It is kept here, not imported from the package, so that the production
renderer is checked byte for byte against code it does not share.
"""

from __future__ import annotations

import math
import re

import numpy as np


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    entries = [list(z) for z in zip(a.real.ravel().tolist(), a.imag.ravel().tolist())]
    return {"dim": int(a.shape[0]), "entries": entries}


def jsonable_value(v):
    if isinstance(v, np.ndarray):
        if v.ndim == 2:
            return matrix_to_json(v)
        return [jsonable_value(x) for x in v.tolist()]
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


def render_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        return repr(float(x))  # '1.0': keeps integers visibly floating
    return format(x, ".17g")


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


def render_string(s: str) -> str:
    return '"' + _NEEDS_ESCAPE.sub(_escape, s) + '"'


def render_json(value, indent=0) -> str:
    """Deterministic JSON text: 17-significant-digit floats, stable key order."""
    kind = type(value)
    if kind is float:
        return render_float(value)
    if kind is str:
        return render_string(value)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return render_float(float(value))
    if isinstance(value, str):
        return render_string(value)
    if isinstance(value, np.ndarray):
        return render_json(jsonable_value(value), indent)
    if isinstance(value, (complex, np.complexfloating)):
        return render_json(jsonable_value(value), indent)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f"{inner}{render_string(str(k))}: {render_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not len(value):
            return "[]"
        parts = [render_float(v) if type(v) is float else render_json(v, indent + 1)
                 for v in value]
        if all(len(p) <= 24 and "\n" not in p for p in parts) and sum(map(len, parts)) <= 72:
            return "[" + ", ".join(parts) + "]"
        rows = [f"{inner}{p}" for p in parts]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")
