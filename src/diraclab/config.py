"""Run configuration: constants, seed, suite selection, tolerance factors.

Precedence is command-line flag over config file over built-in default.
The config file is plain "key = value" lines; '#' starts a comment.
Recognized keys:

    hbar, c, mass, charge   positive floats
    seed                    non-negative integer
    tol.algebra, tol.states, tol.dynamics, tol.fields, tol.lattice
                            factors F with 0 < F <= 1 (default 1); each
                            multiplies the tolerance of every check of
                            its suite, so it can tighten them, never loosen

Every problem in a file is reported, not just the first.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .constants import PhysicalConstants
from .errors import ConfigError, DomainError, is_integer, is_real, real

DEFAULT_SEED = 137
SUITE_NAMES = ("algebra", "states", "dynamics", "fields", "lattice")
# Field configurations `lattice.make_preset` builds.  Kept here, beside the
# other names the CLI parser offers, so the parser builds without numpy.
PRESET_NAMES = ("uniform_b", "linear_phi", "zero")
ENV_CONFIG = "DIRACLAB_CONFIG"

_CONSTANT_KEYS = ("hbar", "c", "mass", "charge")
_TOL_KEYS = tuple(f"tol.{name}" for name in SUITE_NAMES)
KNOWN_KEYS = _CONSTANT_KEYS + ("seed",) + _TOL_KEYS


def tol_factor(value, what: str) -> float:
    """value as a tolerance factor: a real in (0, 1], so it can only tighten."""
    if not (is_real(value) and 0.0 < value <= 1.0):  # refuses nan
        raise DomainError(f"{what} must be a factor in (0, 1], got {value!r}")
    return float(value)


def read_config_file(path: str) -> dict:
    """Parse a key = value file into {key: parsed value}.

    Raises ConfigError listing every malformed line, unknown key,
    duplicate, or out-of-range value.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError([f"cannot read config file {path!r}: {exc}"])
    problems = []
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in KNOWN_KEYS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        if key == "seed":
            try:
                seed = int(text)
            except ValueError:
                problems.append(f"line {lineno}: seed must be an integer, got {text!r}")
                continue
            if seed < 0:
                problems.append(f"line {lineno}: seed must be >= 0, got {seed}")
                continue
            values[key] = seed
            continue
        try:
            num = float(text)
        except ValueError:
            problems.append(f"line {lineno}: {key} must be a number, got {text!r}")
            continue
        try:
            values[key] = (tol_factor(num, key) if key in _TOL_KEYS
                           else real(num, key, positive=True))
        except DomainError as exc:
            problems.append(f"line {lineno}: {exc}")
    if problems:
        raise ConfigError(problems)
    return values


@dataclass(frozen=True)
class RunConfig:
    """Everything a verification run depends on."""

    constants: PhysicalConstants = field(default_factory=PhysicalConstants)
    seed: int = DEFAULT_SEED
    suites: tuple = SUITE_NAMES
    tol_factors: dict = field(default_factory=dict)
    tamper: bool = False

    def __post_init__(self):
        problems = []
        if not (is_integer(self.seed) and self.seed >= 0):
            problems.append(f"seed must be a non-negative integer, got {self.seed!r}")
        unknown = [s for s in self.suites if s not in SUITE_NAMES]
        if unknown:
            problems.append(f"unknown suites {unknown}; choose from {list(SUITE_NAMES)}")
        if len(set(self.suites)) != len(self.suites):
            problems.append(f"duplicate suites in {list(self.suites)}")
        for key, val in self.tol_factors.items():
            if key not in SUITE_NAMES:
                problems.append(f"unknown tolerance key {key!r}")
            else:
                try:
                    tol_factor(val, f"tol.{key}")
                except DomainError as exc:
                    problems.append(str(exc))
        if problems:
            raise ConfigError(problems)
        # keep suite order canonical regardless of how they were requested
        ordered = tuple(s for s in SUITE_NAMES if s in self.suites)
        object.__setattr__(self, "suites", ordered)


def resolve_run_config(flag_values: dict, config_path: str | None = None,
                       env: dict | None = None) -> RunConfig:
    """Merge flags, config file, and defaults into a RunConfig.

    flag_values may carry: hbar, c, mass, charge, seed, tol.* (None means
    not given), suites (list or None), tamper (bool).  Other keys are
    ignored, so the CLI passes vars() of its parsed arguments, whose
    destinations are named after these keys.
    """
    env = os.environ if env is None else env
    path = config_path or env.get(ENV_CONFIG)
    file_values = read_config_file(path) if path else {}

    given = {}
    for key in KNOWN_KEYS:
        val = flag_values.get(key)
        val = file_values.get(key) if val is None else val
        if val is not None:
            given[key] = val
    # values pass uncast: PhysicalConstants and RunConfig judge them
    try:
        constants = PhysicalConstants(**{key: given[key] for key in _CONSTANT_KEYS
                                         if key in given})
    except ValueError as exc:
        raise ConfigError([str(exc)])
    tol_factors = {key.split(".", 1)[1]: given[key] for key in _TOL_KEYS if key in given}

    suites = flag_values.get("suites")
    suites = tuple(suites) if suites else SUITE_NAMES
    tamper = bool(flag_values.get("tamper", False))
    return RunConfig(constants=constants, seed=given.get("seed", DEFAULT_SEED), suites=suites,
                     tol_factors=tol_factors, tamper=tamper)
