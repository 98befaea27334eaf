"""Command-line front end.

Subcommands: verify (run check suites, write the JSON report), zbw (export a
position-trajectory CSV), lattice (export a convergence table), constants
(print the effective constants).  Exit codes: 0 all checks pass, 1 at least
one check failed (report still written), 2 bad flags or config, or
constants under which a computation breaks down, 3 I/O failure on an
output path.

The commands raise; `main` alone turns an error into its exit code and its
`error:` lines.  ConfigError, DomainError and ArithmeticError give exit 2,
a failed write of the output path (`_write_out`) exit 3.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

# The package modules imported here use only the standard library, so
# `constants`, `--help` and every flag or config error load no numpy.  Each
# command imports the numerical modules it runs, once its flags are valid.
from .config import PRESET_NAMES, SUITE_NAMES, resolve_run_config
from .errors import ConfigError, DomainError, is_real

if TYPE_CHECKING:
    import numpy as np

    from .dynamics import MomentumState


def _add_shared_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="key = value config file")
    sub.add_argument("--hbar", type=float, help="override hbar")
    sub.add_argument("--c", type=float, help="override the speed constant")
    sub.add_argument("--mass", type=float, help="override the mass")
    sub.add_argument("--charge", type=float, help="override the elementary charge")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diraclab",
        description="deterministic numerical checks for the matrix-model identity catalogue",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run check suites and write the JSON report")
    _add_shared_flags(p_verify)
    p_verify.add_argument("--suite", action="append", choices=SUITE_NAMES, dest="suites",
                          help="run only this suite (repeatable)")
    p_verify.add_argument("--seed", type=int, help="seed for randomized checks")
    p_verify.add_argument("--out", default="report.json", metavar="PATH",
                          help="report path (default report.json)")
    for name in SUITE_NAMES:
        p_verify.add_argument(f"--tol-{name}", type=float, dest=f"tol.{name}",
                              metavar="F",
                              help=f"multiply the tolerance of every {name} check by F, "
                                   "0 < F <= 1 (default 1)")
    p_verify.add_argument("--tamper", action="store_true", help=argparse.SUPPRESS)

    p_zbw = sub.add_parser("zbw", help="export a position-trajectory CSV")
    _add_shared_flags(p_zbw)
    p_zbw.add_argument("--p", required=True, metavar="X,Y,Z", help="momentum components")
    p_zbw.add_argument("--state", default="mix",
                       help="plus | minus | mix | JSON state spec (default mix)")
    p_zbw.add_argument("--t0", type=float, default=0.0, help="first sample time")
    p_zbw.add_argument("--t1", type=float, required=True, help="last sample time")
    p_zbw.add_argument("--steps", type=int, required=True, help="number of samples")
    p_zbw.add_argument("--out", required=True, metavar="PATH", help="CSV path")

    p_lat = sub.add_parser("lattice", help="export a convergence table")
    _add_shared_flags(p_lat)
    p_lat.add_argument("--preset", required=True, help="|".join(PRESET_NAMES))
    p_lat.add_argument("--h", required=True, metavar="H1,H2,...",
                       help="grid spacings, each half the previous, at least 3")
    p_lat.add_argument("--out", required=True, metavar="PATH", help="JSON path")

    p_const = sub.add_parser("constants", help="print the effective constants")
    _add_shared_flags(p_const)
    return parser


class _WriteError(Exception):
    """The output path could not be opened or written (exit 3)."""


def _write_out(path: str, write) -> None:
    """Open path for text and hand the file to write(fh)."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    except OSError as exc:
        raise _WriteError(f"cannot write {path!r}: {exc}") from exc


def cmd_verify(args) -> int:
    config = resolve_run_config(vars(args), args.config)
    from .report import report_json, text_summary
    from .suites import run_suite

    report = run_suite(config)
    _write_out(args.out, lambda fh: fh.write(report_json(report)))
    print(text_summary(report))
    return 0 if report.all_passed() else 1


def _parse_momentum(text: str) -> list:
    parts = text.split(",")
    try:
        vals = [float(s) for s in parts]
    except ValueError:
        raise ConfigError([f"--p must be three comma-separated numbers, got {text!r}"])
    if len(vals) != 3:
        raise ConfigError([f"--p must have exactly 3 components, got {len(vals)}"])
    return vals


# Keys a --state JSON object may hold: one term, or a superposition of
# weighted terms (and nothing beside the superposition list).
_TERM_KEYS = ("energy_sign", "spin", "spin_axis")
_WEIGHTED_TERM_KEYS = _TERM_KEYS + ("weight",)
_SUPERPOSITION_KEYS = ("superposition",)


def _require_known_keys(obj: dict, allowed: tuple, where: str) -> None:
    unknown = [key for key in obj if key not in allowed]
    if unknown:
        raise ConfigError([f"--state: unknown keys {unknown} in {where}; "
                           f"allowed keys are {list(allowed)}"])


def _state_from_term(term: dict, state: MomentumState) -> np.ndarray:
    """The term's one eigenspinor; eigenspinor checks the spin and the spin axis."""
    from .dynamics import eigenspinor

    sign = term.get("energy_sign", 1)
    if not is_real(sign) or sign not in (1, -1):  # a JSON 1.0 counts
        raise ConfigError([f"--state: energy_sign must be 1 or -1, got {sign!r}"])
    try:
        u = eigenspinor(state, int(sign), term.get("spin", "up"), term.get("spin_axis", (0.0, 0.0)))
    except DomainError as exc:
        raise ConfigError([f"--state: {exc}"]) from None
    if u.shape != (4,):  # a list of spins or of axes would broadcast to a stack
        raise ConfigError([f"--state: spin must be 'up' or 'down' and spin_axis [theta, phi], "
                           f"got {term.get('spin')!r} and {term.get('spin_axis')!r}"])
    return u


def _parse_state(spec: str, state: MomentumState) -> np.ndarray:
    import numpy as np

    from .dynamics import eigenspinor, max_mixing_state

    if spec == "plus":
        return eigenspinor(state, 1, "up")
    if spec == "minus":
        return eigenspinor(state, -1, "up")
    if spec == "mix":
        return max_mixing_state(state)
    try:
        data = json.loads(spec)
    except json.JSONDecodeError:
        raise ConfigError(
            [f"--state must be plus, minus, mix, or a JSON object, got {spec!r}"])
    if not isinstance(data, dict):
        raise ConfigError([f"--state JSON must be an object, got {type(data).__name__}"])
    if "superposition" in data:
        _require_known_keys(data, _SUPERPOSITION_KEYS, "the state object")
        terms = data["superposition"]
        if not isinstance(terms, list) or not terms:
            raise ConfigError(["--state: superposition must be a non-empty list"])
        psi = np.zeros(4, dtype=complex)
        scale = 0.0  # the largest real or imaginary part of any weight
        for term in terms:
            if not isinstance(term, dict):
                raise ConfigError([f"--state: superposition term must be an object, got {term!r}"])
            _require_known_keys(term, _WEIGHTED_TERM_KEYS, "a superposition term")
            w = term.get("weight", 1.0)
            if not (is_real(w) or isinstance(w, list) and len(w) == 2 and all(map(is_real, w))):
                raise ConfigError([f"--state: weight must be a number or [re, im], got {w!r}"])
            w = complex(*w) if isinstance(w, list) else complex(w)
            scale = max(scale, abs(w.real), abs(w.imag))
            with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
                psi = psi + w * _state_from_term(term, state)
        with np.errstate(over="ignore", invalid="ignore"):
            norm = float(np.linalg.norm(psi))  # inf if squares overflow, inexact if they underflow
            if not 1e-150 < norm < math.inf and np.isfinite(psi).all() and psi.any():
                e = math.frexp(np.abs(psi.view(float)).max())[1]  # scale exactly by 2**-e
                psi, scale = np.ldexp(psi.view(float), -e).view(complex), np.ldexp(scale, -e)
                norm = float(np.linalg.norm(psi))
        if not math.isfinite(norm):
            raise ConfigError(["--state: the weighted superposition overflows"])
        if norm <= 1e-12 * scale:  # relative to the weights, so tiny ones are a state
            raise ConfigError(["--state: superposition terms cancel to zero"])
        return psi / norm
    _require_known_keys(data, _TERM_KEYS, "the state object")
    return _state_from_term(data, state)


def _require_finite_energy(state: MomentumState) -> None:
    """Refuse a state whose energy overflows: every output would be garbage."""
    import numpy as np

    try:
        with np.errstate(over="ignore"):
            energy = state.energy
    except OverflowError:
        energy = math.inf
    if not math.isfinite(energy):
        raise ConfigError(["the state's energy is not finite with this --p and "
                           "these constants"])


def cmd_zbw(args) -> int:
    config = resolve_run_config(vars(args), args.config)
    p = _parse_momentum(args.p)
    if args.steps < 2:
        raise ConfigError([f"--steps must be at least 2, got {args.steps}"])
    if not (math.isfinite(args.t0) and math.isfinite(args.t1)):
        raise ConfigError([f"--t0 and --t1 must be finite, got t0={args.t0} t1={args.t1}"])
    if not args.t1 > args.t0:
        raise ConfigError([f"--t1 must exceed --t0, got t0={args.t0} t1={args.t1}"])
    if not math.isfinite(args.t1 - args.t0):
        raise ConfigError([f"--t1 - --t0 overflows, got t0={args.t0} t1={args.t1}"])
    import numpy as np

    from .dynamics import (
        MomentumState,
        fitted_zbw_frequency,
        write_trajectory_csv,
        zbw_trajectory,
    )

    state = MomentumState(p=np.array(p), constants=config.constants)
    _require_finite_energy(state)
    psi = _parse_state(args.state, state)
    try:
        times = np.linspace(args.t0, args.t1, args.steps)
        trajectory = zbw_trajectory(state, psi, times)
    except DomainError as exc:  # times not distinct, or a phase or drift that overflows
        raise ConfigError([f"{exc}: --t0={args.t0} --t1={args.t1} --steps {args.steps}"])
    except MemoryError:
        raise ConfigError([f"not enough memory for --steps {args.steps}"])
    fitted = fitted_zbw_frequency(state, psi)
    _write_out(args.out, lambda fh: write_trajectory_csv(trajectory, fh))
    reference = 2.0 * state.energy / config.constants.hbar
    print(f"wrote {len(trajectory)} rows to {args.out}")
    print(f"fitted zbw angular frequency {fitted:.10g} vs 2 E_p / hbar = {reference:.10g}")
    return 0


def cmd_lattice(args) -> int:
    config = resolve_run_config(vars(args), args.config)
    if args.preset not in PRESET_NAMES:
        raise ConfigError([f"unknown preset {args.preset!r}; choose from {list(PRESET_NAMES)}"])
    try:
        spacings = [float(s) for s in args.h.split(",")]
    except ValueError:
        raise ConfigError([f"--h must be comma-separated numbers, got {args.h!r}"])
    if len(spacings) < 3:
        raise ConfigError([f"--h needs at least 3 spacings, got {len(spacings)}"])
    from .lattice import convergence_study, make_preset
    from .report import render_json

    try:
        study = convergence_study(make_preset(args.preset), spacings, config.constants)
    except MemoryError:
        raise ConfigError([f"not enough memory for the grids of --h {args.h}"])
    payload = {"preset": args.preset}
    payload.update(study.to_dict())
    _write_out(args.out, lambda fh: fh.write(render_json(payload) + "\n"))
    if isinstance(study.order, float):
        print(f"estimated convergence order {study.order:.3f}")
    else:
        print(f"convergence verdict: {study.order}")
    return 0


def cmd_constants(args) -> int:
    config = resolve_run_config(vars(args), args.config)
    for key, val in config.constants.to_dict().items():
        print(f"{key} = {val!r}")
    return 0


_COMMANDS = {
    "verify": cmd_verify,
    "zbw": cmd_zbw,
    "lattice": cmd_lattice,
    "constants": cmd_constants,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        problems = exc.problems
    except DomainError as exc:
        problems = [str(exc)]
    except ArithmeticError as exc:
        # Such failures come from the constants or the grid spacings, so
        # they get the bad-config exit code, not a traceback.
        problems = [f"numerical breakdown with these inputs: {exc}"]
    except _WriteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for prob in problems:
        print(f"error: {prob}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
