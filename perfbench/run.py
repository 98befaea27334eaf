"""The diraclab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload seed_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (src/diraclab must exist; nothing is
installed).  Workloads, all closed loops with one client:

  cli_cold        one operation is four fresh-interpreter CLI calls: verify
                  (all five suites, generated --seed), constants, zbw
                  (generated --p, 400 steps) and lattice (uniform_b, three
                  spacings).  The only workload that pays `import diraclab`.
  seed_sweep      run_suite over algebra, states, dynamics and fields at a
                  generated seed, then report_json, in one warm process.
  lattice_refine  convergence_study over h = 0.2 .. 0.025 (n = 9 .. 65),
                  cycling the uniform_b, linear_phi and zero presets.
  zbw_export      zbw_trajectory over 100 000 times, write_trajectory_csv to
                  a temporary file and fitted_zbw_frequency, for a generated
                  momentum and state.

Every operation's output is gated (see workloads.py); a failed gate counts
the operation as failed.  On the in-process workloads each operation (on
zbw_export each step of one) sits between two runs of a reference kernel
that calls nothing of diraclab, and its time is reported scaled to the
kernel's nominal speed (calib.py), so that the host slowing down or
speeding up does not read as a change of the program; wall times are
reported beside them in the fuller record.  cli_cold and set-up times are
wall times.  ops_per_s counts the operations that passed their gate, per
second of (normalised) operation time, as the median over windows of three
consecutive operations (one on cli_cold), so that a stall of the host in
one part of a run does not move it.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it runs half its time untraced and half
with the span tracer (spantrace.py) and reports the per-layer metrics.  The
metric names and units come from BENCHMARK.json.  The last line of
standard output is the JSON result; a fuller record, with the environment,
goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from collections import defaultdict

import harness
import spantrace
import workloads as wl

PY = sys.executable
# Set-up samples per run: fresh `import diraclab` processes on cli_cold, else
# fresh workers stopped after their warm-up operation (about 3.5 s each on
# zbw_export, 1 to 2 s on the others).
SETUP_REPEATS = {"cli_cold": 9, "seed_sweep": 9, "lattice_refine": 7, "zbw_export": 5}
# Operations per ops_per_s window: three (on lattice_refine one cycle of its
# presets), but one on cli_cold, whose operation of four fresh interpreters
# outlasts three of any other workload's and of which a run holds only four
# or five.
RATE_WINDOW, CLI_RATE_WINDOW = 3, 1
CHILD_TIMEOUT = 150.0  # one CLI command or set-up process; a worker gets --seconds more


def load_spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# --- cli_cold ------------------------------------------------------------------

CLI_COMMANDS = ("verify", "constants", "zbw", "lattice")


def _cli_argv(cmd: str, inp: dict, scratch: str) -> list:
    if cmd == "verify":
        return ["verify", "--seed", str(inp["verify_seed"]),
                "--out", os.path.join(scratch, "report.json")]
    if cmd == "constants":
        return ["constants"]
    if cmd == "zbw":
        p = ",".join(repr(x) for x in inp["p"])
        return ["zbw", f"--p={p}", "--t1", repr(wl.ZBW_T1), "--steps", str(wl.CLI_ZBW_STEPS),
                "--out", os.path.join(scratch, "trajectory.csv")]
    return ["lattice", "--preset", "uniform_b", "--h", wl.CLI_LATTICE_LADDER,
            "--out", os.path.join(scratch, "lattice.json")]


def _read(path: str, mode: str = "r"):
    with open(path, mode, **({} if "b" in mode else {"encoding": "utf-8"})) as fh:
        return fh.read()


def gate_cli(cmd: str, child: harness.ChildResult, inp: dict, scratch: str):
    """None when the command's exit code and outputs are right, else the reason."""
    if child.returncode != 0:
        return f"{cmd}: exit code {child.returncode}"
    try:
        if cmd == "verify":
            return wl.gate_report_text(_read(os.path.join(scratch, "report.json")),
                                       wl.FULL_CATALOGUE_CHECKS)
        if cmd == "constants":
            return wl.gate_constants_output(child.stdout)
        if cmd == "zbw":
            data = _read(os.path.join(scratch, "trajectory.csv"), "rb")
            return (wl.gate_csv(data, wl.CLI_ZBW_STEPS)
                    or wl.gate_frequency(wl.parse_fitted_frequency(child.stdout), inp["p"]))
        order = json.loads(_read(os.path.join(scratch, "lattice.json")))["order"]
        return wl.gate_order("uniform_b", order)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{cmd}: output unreadable: {exc}"


def run_cli_command(cmd: str, inp: dict, scratch: str, traced_op=None):
    """Run one CLI command as a fresh interpreter; returns (child, reason, span dump)."""
    args = _cli_argv(cmd, inp, scratch)
    if traced_op is None:
        argv, env = [PY, "-c", harness.CLI_ENTRY, *args], harness.child_env()
    else:
        spans = os.path.join(scratch, "spans.json")
        argv = [PY, os.path.join(harness.BENCH_DIR, "traced_cli.py"), *args]
        env = harness.child_env({"PERFBENCH_SPANS": spans, "PERFBENCH_OP": str(traced_op)})
    child = harness.run_child(argv, env=env, timeout=CHILD_TIMEOUT)
    reason = gate_cli(cmd, child, inp, scratch)
    dump = None
    if traced_op is not None:
        dump = json.loads(_read(spans))
        os.remove(spans)
        dump["command"] = cmd
        if cmd == "zbw":
            size = os.path.getsize(os.path.join(scratch, "trajectory.csv"))
            dump["quantities"].append([traced_op, "dynamics.csv_bytes", size])
    return child, reason, dump


def cli_round(i: int, inp: dict, scratch: str, traced: bool = False):
    walls, rss, reasons, dumps = {}, {}, [], []
    for cmd in CLI_COMMANDS:
        child, reason, dump = run_cli_command(cmd, inp, scratch, i if traced else None)
        walls[cmd] = child.wall_s
        rss[cmd] = child.maxrss_mb
        if reason:
            reasons.append(reason)
        if dump is not None:
            dumps.append(dump)
    return {"walls": walls, "rss": rss}, ("; ".join(reasons) or None), dumps


def cli_loop(inputs, first: int, seconds: float, scratch: str, traced: bool = False) -> dict:
    """Rounds back to back for `seconds`."""
    rounds, failures, dumps, log = [], [], [], []
    i = first
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        rnd, reason, round_dumps = cli_round(i, inputs[i], scratch, traced)
        log.append((sum(rnd["walls"].values()), reason is None))
        if reason:
            failures.append(f"op {i}: {reason}")
        else:
            rounds.append(rnd)
        dumps.extend(round_dumps)
        i += 1
    return {"rounds": rounds, "failures": failures, "ops": i - first, "op_log": log,
            "span_dumps": dumps}


def timed_setups(argv, repeats: int, wait_ready: bool) -> tuple:
    """Start `argv` `repeats` times; the wall times (to READY with wait_ready,
    else to exit) and each child's JSON summary line, if it printed one."""
    walls, summaries = [], []
    for _ in range(repeats):
        child = harness.run_child(argv, env=harness.child_env(), wait_ready=wait_ready,
                                  timeout=CHILD_TIMEOUT)
        wall = child.ready_s if wait_ready else child.wall_s
        if child.returncode != 0 or wall is None:
            raise RuntimeError(f"set-up process exited with {child.returncode}: "
                               f"{child.stderr.strip()[-500:]}")
        walls.append(wall)
        if wait_ready:
            summaries.append(harness.last_json_line(child.stdout))
    return walls, summaries


def run_cli_cold(seed: int, seconds: float, trace: bool, scratch: str) -> dict:
    inputs = wl.InputStream("cli_cold", seed)
    out = {"setup_samples": []}
    if not trace:
        out["setup_samples"], _ = timed_setups([PY, "-c", "import diraclab"],
                                               SETUP_REPEATS["cli_cold"], False)
    _, warm_reason, _ = cli_round(0, inputs[0], scratch)
    failures = [f"warm-up: {warm_reason}"] if warm_reason else []
    span = seconds / 2.0 if trace else seconds
    loop = cli_loop(inputs, 1, span, scratch)
    op_walls = [sum(r["walls"].values()) for r in loop["rounds"]]
    out.update(rounds=loop["rounds"], op_times=op_walls, op_norm=op_walls, ops=loop["ops"],
               op_log=loop["op_log"], kernel_s=[],
               failures=failures + loop["failures"], attempted=1 + loop["ops"])
    if trace:
        traced = cli_loop(inputs, 1 + loop["ops"], span, scratch, traced=True)
        out["failures"] += traced["failures"]
        out["attempted"] += traced["ops"]
        out.update(traced_op_norm=[sum(r["walls"].values()) for r in traced["rounds"]],
                   span_dumps=traced["span_dumps"],
                   traced_ops=spantrace.merge_ops(*(spantrace.per_op(d)
                                                    for d in traced["span_dumps"])))
    return out


# --- in-process workloads ------------------------------------------------------

def _worker_argv(workload: str, seed: int, seconds: float, mode: str, scratch: str,
                 spans=None) -> list:
    argv = [PY, os.path.join(harness.BENCH_DIR, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
            "--scratch", scratch]
    return argv + ["--spans", spans] if spans else argv


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool, scratch: str,
                  spans_path: str) -> dict:
    out = {"setup_samples": [], "attempted": 0, "failures": []}
    if not trace:
        out["setup_samples"], summaries = timed_setups(
            _worker_argv(workload, seed, seconds, "setup", scratch), SETUP_REPEATS[workload],
            True)
        for res in summaries:
            out["attempted"] += res["attempted"]
            out["failures"] += res["failures"]
    mode = "trace" if trace else "measure"
    argv = _worker_argv(workload, seed, seconds, mode, scratch, spans_path if trace else None)
    child = harness.run_child(argv, env=harness.child_env(), wait_ready=True,
                              timeout=seconds + CHILD_TIMEOUT)
    if child.returncode != 0 or child.ready_s is None:
        raise RuntimeError(f"worker exited with {child.returncode}: {child.stderr.strip()[-500:]}")
    res = harness.last_json_line(child.stdout)
    out.update(op_times=res["op_times"], op_norm=res["op_norm"], ops=res["ops"],
               op_log=res["op_log"], kernel_s=res["kernel_s"],
               peak_rss_mb=child.maxrss_mb)
    out["attempted"] += res["attempted"]
    out["failures"] += res["failures"]
    if trace:
        with open(spans_path, encoding="utf-8") as fh:
            ops = spantrace.per_op(json.load(fh))
        out.update(traced_op_norm=res["traced_op_norm"], traced_ops=ops)
    return out


# --- metrics -------------------------------------------------------------------

def import_metrics(repeats: int = 3) -> dict:
    """import.* from `python -X importtime -c "import diraclab"`, median of repeats."""
    samples = defaultdict(list)
    for _ in range(repeats):
        child = harness.run_child([PY, "-X", "importtime", "-c", "import diraclab"],
                                  env=harness.child_env(), timeout=CHILD_TIMEOUT)
        for key, value in parse_importtime(child.stderr).items():
            samples[key].append(value)
    return {key: harness.median(values) for key, values in samples.items()}


def parse_importtime(text: str) -> dict:
    """Seconds and module count of the `import diraclab` block of -X importtime output.

    import.scipy_s and import.numpy_s are the cumulative times of the
    outermost scipy and numpy imports inside that block.
    """
    block = []  # (name, depth, cumulative us), children before parents
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self_us, cum_us, raw = line[len("import time:"):].split("|")
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        block.append((name, depth, int(cum_us)))
        if depth == 0 and name != "diraclab":
            block = []  # a top-level import other than diraclab: interpreter start-up
        elif depth == 0:
            break
    if not block or block[-1][0] != "diraclab":
        return {}

    def in_package(name, package):
        return name == package or name.startswith(package + ".")

    outermost = {"scipy": 0, "numpy": 0}
    ancestors = []
    for name, depth, cum in reversed(block):  # parents now come first
        ancestors = ancestors[:depth] + [name]
        for package in outermost:
            if in_package(name, package) and not any(in_package(a, package)
                                                     for a in ancestors[:-1]):
                outermost[package] += cum
    return {"import.diraclab_s": block[-1][2] / 1e6,
            "import.scipy_s": outermost["scipy"] / 1e6,
            "import.numpy_s": outermost["numpy"] / 1e6,
            "import.modules": len(block)}


def end_to_end(res: dict, cli: bool) -> tuple:
    """(metrics, extra) for an untraced run; extra holds reported but unbounded figures.

    Operation times are normalised by the workload's reference kernel, if it
    has one (calib.py); the wall times are in extra.
    """
    op_norm = res["op_norm"]
    if not op_norm:
        raise RuntimeError("no operation passed its gate: " + "; ".join(res["failures"][:3]))
    if cli:
        # the heaviest command's typical peak, each child measured on its own
        peak = max(harness.median([r["rss"][cmd] for r in res["rounds"]])
                   for cmd in CLI_COMMANDS)
    else:
        peak = res["peak_rss_mb"]
    window = CLI_RATE_WINDOW if cli else RATE_WINDOW
    metrics = {
        "setup_s": (harness.median(res["setup_samples"]), "s"),
        "op_p50_s": (harness.median(op_norm), "s"),
        "ops_per_s": (harness.windowed_rate(res["op_log"], window), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    extra = {"op_samples": (len(op_norm), "count"),
             "setup_samples": (len(res["setup_samples"]), "count"),
             "failed_frac": (len(res["failures"]) / res["attempted"], "ratio"),
             "op_p50_wall_s": (harness.median(res["op_times"]), "s")}
    if res["kernel_s"]:
        extra["kernel_p50_s"] = (harness.median(res["kernel_s"]), "s")
    tail = harness.tail(op_norm)
    extra["op_tail_s"] = ({"value": tail[0], "unit": "s", "percentile": tail[1],
                           "samples": tail[2]}
                          if tail else {"value": None, "unit": "s", "samples": len(op_norm),
                                        "note": "fewer than 11 samples, so no percentile "
                                                "has ten beyond it"})
    if cli:
        for cmd in CLI_COMMANDS:
            extra[f"cold_{cmd}_s"] = (
                harness.median([r["walls"][cmd] for r in res["rounds"]]), "s")
            extra[f"cold_{cmd}_peak_rss_mb"] = (
                harness.median([r["rss"][cmd] for r in res["rounds"]]), "MB")
    return metrics, extra


def per_layer(res: dict, cli: bool, names) -> dict:
    ops = res["traced_ops"]
    for metrics in ops.values():
        spantrace.derive(metrics)
    values = {name: harness.median([m.get(name, 0.0) for m in ops.values()]) if ops else 0.0
              for name in names}
    values.update(import_metrics())
    untraced, traced = res["op_norm"], res["traced_op_norm"]
    if untraced and traced:
        base = harness.median(untraced)
        values["trace.overhead_frac"] = (harness.median(traced) - base) / base
    return values


# --- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not harness.have_program():
        print(f"error: no diraclab sources under {harness.SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = load_spec()
    cli = args.workload == "cli_cold"
    trace = bool(args.trace)
    os.makedirs(harness.OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = os.path.join(harness.OUT, f"spans-{tag}.json")
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=harness.OUT)
    try:
        if cli:
            res = run_cli_cold(args.seed, args.seconds, trace, scratch)
        else:
            res = run_inprocess(args.workload, args.seed, args.seconds, trace, scratch,
                                spans_path)
        if trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            values = per_layer(res, cli, units)
            metrics = {name: (values.get(name, 0.0), unit) for name, unit in units.items()}
            extra = {}
            if cli:
                with open(spans_path, "w", encoding="utf-8") as fh:
                    json.dump(res["span_dumps"], fh, separators=(",", ":"))
        else:
            metrics, extra = end_to_end(res, cli)
    except RuntimeError as exc:  # the program could not be run at all
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = len(res["failures"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": res["attempted"], "failed": failed,
        "failures": res["failures"][:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: v if isinstance(v, dict) else {"value": v[0], "unit": v[1]}
                  for k, v in extra.items()},
        "environment": harness.environment(args.seed),
    }
    with open(os.path.join(harness.OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_table(record)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def print_table(record: dict) -> None:
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    blas = env["blas_lapack"].get("blas") or {}
    print(f"# python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"blas {blas.get('name')} {blas.get('version')} nproc {env['nproc']} "
          f"cpu {env['cpu_model']} threads {env['thread_env']}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    for name, m in record["metrics"].items():
        print(f"{name:<48s} {m['value']:>16.6g} {m['unit']}")
    for name, m in record["extra"].items():  # reported, not bounded
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        notes = ", ".join(f"{k}={v}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"{name:<48s} {value:>16s} {m['unit']}  {notes}".rstrip())


if __name__ == "__main__":
    sys.exit(main())
