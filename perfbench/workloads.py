"""Workload inputs and correctness gates.

Inputs come only from the workload seed given to the benchmark, through
`random.Random`, so the same seed gives the same inputs on any machine.
Every gate returns None when the output is correct and a one-line reason
when it is not; a reason makes the operation count as failed.

Pure Python: importing this module loads neither numpy nor diraclab.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("cli_cold", "seed_sweep", "lattice_refine", "zbw_export")

# Verify seeds are drawn below this bound; every seed in the range passes
# the four seeded suites at the parent commit (checked exhaustively).
VERIFY_SEEDS = 1000

FULL_CATALOGUE_CHECKS = 118
SWEEP_SUITES = ("algebra", "states", "dynamics", "fields")
SWEEP_CHECKS = 111

LATTICE_PRESETS = ("uniform_b", "linear_phi", "zero")
LATTICE_LADDER = (0.2, 0.1, 0.05, 0.025)
CLI_LATTICE_LADDER = "0.2,0.1,0.05"
ORDER_TARGET = 2.0
ORDER_SLACK = 0.15

ZBW_T1 = 12.0
ZBW_ROWS = 100_000
CLI_ZBW_STEPS = 400
FREQ_REL_TOL = 0.01

# Every REPLAY_EVERY-th operation repeats an earlier input of the same run
# and must reproduce its output bytes.
SWEEP_REPLAY_EVERY = 4
ZBW_REPLAY_EVERY = 3

# zbw_export cycles through these input shapes, (zero momentum components,
# state), so that every run holds the same mix: an operation's time depends
# on its shape by up to a quarter (zero components write shorter CSV rows
# and take eta_matrix's p_j = 0 branch).  A replay repeats the input one
# cycle back, which has the same shape.
ZBW_SHAPES = ((0, "mix"), (1, "superposition"), (2, "mix"),
              (0, "superposition"), (1, "mix"), (2, "superposition"))


def momentum(rng: random.Random, zeros=None) -> tuple:
    """Three components, each 0 with probability 1/3, else 0.05 <= |p_j| <= 1;
    with `zeros`, exactly that many components, at random places, are 0.

    The README's zbw examples are of both shapes: every component nonzero
    (0.3,-0.2,0.5) and zeros on two axes (0.5,0,0), where eta_matrix takes
    its p_j = 0 branch.  All their components lie within [-1, 1].
    """
    if zeros is None:
        is_zero = [rng.random() < 1.0 / 3.0 for _ in range(3)]
    else:
        where = rng.sample(range(3), zeros)
        is_zero = [j in where for j in range(3)]
    return tuple(0.0 if zero else round(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 1.0), 6)
                 for zero in is_zero)


def zbw_reference_frequency(p) -> float:
    """2 E_p / hbar at the default constants (hbar = c = mass = 1)."""
    return 2.0 * math.sqrt(sum(x * x for x in p) + 1.0)


class InputStream:
    """Per-operation inputs of one workload; operation i always gets the same input."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self._rng = random.Random(f"{name}:{seed}")
        self._made = []
        # lattice_refine cycles the presets from a seeded starting point
        self._start = self._rng.randrange(len(LATTICE_PRESETS)) if name == "lattice_refine" else 0

    def __getitem__(self, i: int):
        while len(self._made) <= i:
            self._made.append(self._next(len(self._made)))
        return self._made[i]

    def _replay(self, i: int, every: int):
        if i % every == every - 1:
            return self._made[self._rng.randrange(i)]
        return None

    def _next(self, i: int):
        rng = self._rng
        if self.name == "cli_cold":
            return {"verify_seed": rng.randrange(VERIFY_SEEDS), "p": momentum(rng)}
        if self.name == "seed_sweep":
            replay = self._replay(i, SWEEP_REPLAY_EVERY)
            return replay or {"verify_seed": rng.randrange(VERIFY_SEEDS)}
        if self.name == "lattice_refine":
            return {"preset": LATTICE_PRESETS[(i + self._start) % len(LATTICE_PRESETS)],
                    "b0": round(rng.uniform(0.5, 2.0), 6),
                    "e0": round(rng.uniform(0.5, 2.0), 6)}
        cycle = len(ZBW_SHAPES)
        if i % ZBW_REPLAY_EVERY == ZBW_REPLAY_EVERY - 1 and i >= cycle:
            return self._made[i - cycle]
        zeros, state = ZBW_SHAPES[i % cycle]
        p = momentum(rng, zeros)
        if state == "mix":
            return {"p": p, "state": "mix"}
        spin = rng.choice(("up", "down"))
        axis = [round(rng.uniform(0.0, math.pi), 6), round(rng.uniform(0.0, 2 * math.pi), 6)]
        weight = [round(rng.uniform(0.5, 1.5), 6), round(rng.uniform(-0.5, 0.5), 6)]
        terms = [
            {"energy_sign": 1, "spin": spin, "spin_axis": axis, "weight": 1.0},
            {"energy_sign": -1, "spin": spin, "spin_axis": axis, "weight": weight},
        ]
        return {"p": p, "state": {"superposition": terms}}


# --- gates ---------------------------------------------------------------------

def gate_report_text(text: str, min_checks: int):
    """A verify report must parse, hold at least min_checks checks, and pass all."""
    try:
        report = json.loads(text)
        checks = report["checks"]
        failing = [c["claim_id"] for c in checks if c["pass"] is not True]
    except (ValueError, KeyError, TypeError) as exc:
        return f"report does not parse: {exc}"
    if len(checks) < min_checks:
        return f"{len(checks)} checks, expected at least {min_checks}"
    if failing:
        return f"{len(failing)} checks fail, first {failing[0]}"
    return None


def gate_order(preset: str, order):
    if preset == "zero":
        return None if order == "exact" else f"zero preset reports order {order!r}, not 'exact'"
    if not isinstance(order, (int, float)) or isinstance(order, bool):
        return f"{preset}: order {order!r} is not a number"
    if abs(order - ORDER_TARGET) > ORDER_SLACK:
        return f"{preset}: order {order:.4f} not within {ORDER_SLACK} of {ORDER_TARGET}"
    return None


def gate_frequency(fitted: float, p) -> str | None:
    want = zbw_reference_frequency(p)
    if not (math.isfinite(fitted) and abs(fitted - want) <= FREQ_REL_TOL * want):
        return f"fitted frequency {fitted!r} not within 1% of 2E/hbar = {want!r}"
    return None


def gate_csv(data: bytes, rows: int):
    lines = data.count(b"\n")
    if lines != rows + 1:
        return f"CSV has {lines} lines, expected {rows} rows plus a header"
    return None


def gate_constants_output(text: str):
    values = {}
    for line in text.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            try:
                values[key.strip()] = float(val)
            except ValueError:
                return f"constants line does not parse: {line!r}"
    missing = [k for k in ("hbar", "c", "mass", "charge", "alpha") if k not in values]
    if missing:
        return f"constants output lacks {missing}"
    return None


def parse_fitted_frequency(stdout: str) -> float:
    """The fitted value from zbw's 'fitted zbw angular frequency X vs ...' line."""
    for line in stdout.splitlines():
        if line.startswith("fitted zbw angular frequency"):
            return float(line.split()[4])
    return math.nan
