"""One in-process workload: set up, warm up, then a closed loop of operations.

Run by run.py as a fresh interpreter with the checkout's src/ on PYTHONPATH:

    python3 perfbench/worker.py --workload seed_sweep --seed 1 --seconds 15 --mode measure

It prints READY once the first (warm-up) operation has finished, so the
parent can time set-up, and a JSON summary as its last line.  Modes:
setup stops after READY; measure runs the loop for --seconds, with the
workload's reference kernel (calib.py), if it has one, run between the
steps of operations; trace runs half the time untraced and half with the
span tracer installed, and writes the spans to --spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from time import perf_counter

import workloads as wl


class Clock:
    """Times the steps of operations, each step between two reference-kernel runs.

    An operation's time is the sum of its steps' times; the kernel runs
    between steps are not part of it.  Without a reference (the warm-up
    operation, or a workload that reports wall time) the normalised time
    is the wall time.
    """

    def __init__(self, ref=None):
        self.ref = ref
        self.kernels = [] if ref is None else [ref.sample()]
        self.wall = self.norm = 0.0

    def reset(self) -> None:
        self.wall = self.norm = 0.0

    def step(self, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            wall = perf_counter() - start
            self.wall += wall
            if self.ref is None:
                self.norm += wall
            else:
                self.kernels.append(self.ref.sample())
                self.norm += self.ref.normalise(wall, self.kernels[-2], self.kernels[-1])


class Runner:
    """Executes operation i of a workload and gates its output."""

    def __init__(self, name: str, seed: int, scratch: str):
        import diraclab
        from diraclab import cli, dynamics

        self.api = diraclab
        self.cli = cli  # for cli._parse_state, the `zbw --state` parser
        self.dynamics = dynamics
        self.inputs = wl.InputStream(name, seed)
        self.scratch = scratch
        self.digests = {}
        self.tracer = None
        self._op = {
            "seed_sweep": self._sweep,
            "lattice_refine": self._lattice,
            "zbw_export": self._zbw,
        }[name]

    def run(self, i: int, clock: Clock):
        """Operation i, timed by clock; None when its output passes the gate, else the reason."""
        return self._op(self.inputs[i], clock)

    def _replay_gate(self, inp, payload: bytes):
        key = json.dumps(inp, sort_keys=True)
        digest = hashlib.sha256(payload).hexdigest()
        first = self.digests.setdefault(key, digest)
        return None if first == digest else f"replay of {key} gave different bytes"

    def _sweep(self, inp, clock: Clock):
        api = self.api

        def work():
            config = api.resolve_run_config(
                {"seed": inp["verify_seed"], "suites": list(wl.SWEEP_SUITES)}, None, env={})
            return api.report_json(api.run_suite(config))

        text = clock.step(work)
        reason = wl.gate_report_text(text, wl.SWEEP_CHECKS)
        return reason or self._replay_gate(inp, text.encode("utf-8"))

    def _lattice(self, inp, clock: Clock):
        api = self.api

        def work():
            preset = api.make_preset(inp["preset"], b0=inp["b0"], e0=inp["e0"])
            return api.convergence_study(preset, wl.LATTICE_LADDER)

        return wl.gate_order(inp["preset"], clock.step(work).order)

    def _zbw(self, inp, clock: Clock):
        import numpy as np

        api, cli, dynamics = self.api, self.cli, self.dynamics
        path = os.path.join(self.scratch, f"trajectory-{os.getpid()}.csv")

        def trajectory():
            state = api.MomentumState(p=np.array(inp["p"]), constants=api.PhysicalConstants())
            spec = inp["state"]
            psi = cli._parse_state(spec if spec == "mix" else json.dumps(spec), state)
            times = np.linspace(0.0, wl.ZBW_T1, wl.ZBW_ROWS)
            return state, psi, api.zbw_trajectory(state, psi, times)

        def write(samples):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                dynamics.write_trajectory_csv(samples, fh)

        try:
            state, psi, samples = clock.step(trajectory)
            clock.step(write, samples)
            fitted = clock.step(api.fitted_zbw_frequency, state, psi)
            rows = len(samples)
            del samples
            with open(path, "rb") as fh:
                data = fh.read()
        finally:
            if os.path.exists(path):
                os.remove(path)
        if self.tracer is not None:
            self.tracer.add("dynamics.csv_bytes", len(data))
        reason = None if rows == wl.ZBW_ROWS else f"{rows} samples, expected {wl.ZBW_ROWS}"
        reason = reason or wl.gate_csv(data, wl.ZBW_ROWS) or wl.gate_frequency(fitted, inp["p"])
        return reason or self._replay_gate(inp, data)


def run_one(runner: Runner, i: int, clock: Clock):
    """None, or why operation i failed; an operation that raises has failed."""
    try:
        return runner.run(i, clock)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def closed_loop(runner: Runner, ref, first: int, seconds: float, tracer=None) -> dict:
    """Operations back to back until `seconds` have passed.

    Returns the wall and normalised times of the passed operations, the
    failures, the number of operations, every operation's normalised time
    and whether it passed, in order, and the kernel times.
    """
    clock = Clock(ref)
    times, norm, failures, log = [], [], [], []
    i = first
    start = perf_counter()
    while perf_counter() - start < seconds:
        if tracer is not None:
            tracer.begin_op(i)
        clock.reset()
        reason = run_one(runner, i, clock)
        log.append((clock.norm, reason is None))
        if reason is None:
            times.append(clock.wall)
            norm.append(clock.norm)
        else:
            failures.append(f"op {i}: {reason}")
        i += 1
    return {"op_times": times, "op_norm": norm, "failures": failures, "ops": i - first,
            "op_log": log, "kernel_s": clock.kernels}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("seed_sweep", "lattice_refine",
                                                              "zbw_export"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans", help="where trace mode writes its spans")
    args = parser.parse_args(argv)

    runner = Runner(args.workload, args.seed, args.scratch)
    reason = run_one(runner, 0, Clock())
    warm_failures = [] if reason is None else [f"warm-up: {reason}"]
    print("READY", flush=True)
    result = {"attempted": 1, "failures": warm_failures}
    if args.mode != "setup":
        from calib import KIND, Reference

        kind = KIND.get(args.workload)
        ref = None if kind is None else Reference(kind)
        span = args.seconds if args.mode == "measure" else args.seconds / 2.0
        loop = closed_loop(runner, ref, 1, span)
        result.update(loop, attempted=1 + loop["ops"], failures=warm_failures + loop["failures"])
        if args.mode == "trace":
            from spantrace import Tracer

            tracer = Tracer().install()
            runner.tracer = tracer
            try:
                traced = closed_loop(runner, ref, result["attempted"], span, tracer)
            finally:
                tracer.uninstall()
            tracer.write(args.spans)
            result["attempted"] += traced["ops"]
            result["failures"] += traced["failures"]
            result.update(traced_op_norm=traced["op_norm"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
