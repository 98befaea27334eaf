"""Config parsing, precedence rules and command-line behavior."""

import json
import warnings

import numpy as np
import pytest

from diraclab import cli, dynamics, lattice
from diraclab.config import (
    DEFAULT_SEED,
    SUITE_NAMES,
    RunConfig,
    read_config_file,
    resolve_run_config,
)
from diraclab.constants import PhysicalConstants
from diraclab.errors import ConfigError, DomainError


def write_config(tmp_path, text):
    path = tmp_path / "run.conf"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigFile:
    def test_reads_values_and_comments(self, tmp_path):
        path = write_config(tmp_path, """
# comment line
hbar = 2.0
seed = 7   # trailing comment
tol.states = 1e-10
""")
        values = read_config_file(path)
        assert values == {"hbar": 2.0, "seed": 7, "tol.states": 1e-10}

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            read_config_file(str(tmp_path / "absent.conf"))
        assert "cannot read" in err.value.problems[0]

    def test_collects_every_problem(self, tmp_path):
        path = write_config(tmp_path, """
no equals sign here
bogus = 1.0
mass = -3
seed = 2.5
""")
        with pytest.raises(ConfigError) as err:
            read_config_file(path)
        problems = err.value.problems
        assert len(problems) == 4
        assert any("expected 'key = value'" in p for p in problems)
        assert any("unknown key 'bogus'" in p for p in problems)
        assert any("mass must be finite and > 0" in p for p in problems)
        assert any("seed must be an integer" in p for p in problems)

    def test_duplicate_key_is_reported(self, tmp_path):
        path = write_config(tmp_path, "c = 1.0\nc = 2.0\n")
        with pytest.raises(ConfigError) as err:
            read_config_file(path)
        assert any("duplicate key 'c'" in p for p in err.value.problems)

    def test_negative_seed_rejected(self, tmp_path):
        path = write_config(tmp_path, "seed = -4\n")
        with pytest.raises(ConfigError):
            read_config_file(path)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == DEFAULT_SEED
        assert cfg.suites == SUITE_NAMES
        assert not cfg.tamper

    def test_suite_order_is_canonical(self):
        cfg = RunConfig(suites=("lattice", "algebra"))
        assert cfg.suites == ("algebra", "lattice")

    def test_tol_fallback(self):
        # a suite's factor scales its rows' tolerances; a suite without one
        # keeps them (factor 1)
        from diraclab.suites import _judge

        cfg = RunConfig(tol_factors={"algebra": 0.5})
        assert _judge("algebra.pauli_product_table", [0.0], cfg)["tol"] == 0.5e-14
        assert _judge("states.eigen_wave_residual", [0.0], cfg)["tol"] == 1e-12

    def test_validation_collects_problems(self):
        with pytest.raises(ConfigError) as err:
            RunConfig(seed=-1, suites=("algebra", "algebra", "nope"),
                      tol_factors={"weird": 1.0, "states": 0.0})
        problems = err.value.problems
        assert len(problems) == 5
        assert any("seed" in p for p in problems)
        assert any("unknown suites" in p for p in problems)
        assert any("duplicate suites" in p for p in problems)
        assert any("unknown tolerance key" in p for p in problems)
        assert any("tol.states must be a factor in (0, 1]" in p for p in problems)

    def test_bool_seed_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(seed=True)


class TestResolvePrecedence:
    def test_defaults_when_nothing_given(self):
        cfg = resolve_run_config({}, None, env={})
        assert cfg.constants == PhysicalConstants()
        assert cfg.seed == DEFAULT_SEED
        assert cfg.suites == SUITE_NAMES
        assert cfg.tol_factors == {}

    def test_flag_beats_file(self, tmp_path):
        path = write_config(tmp_path, "mass = 2.0\nseed = 11\n")
        cfg = resolve_run_config({"mass": 3.0}, path, env={})
        assert cfg.constants.mass == 3.0
        assert cfg.seed == 11

    def test_file_beats_default(self, tmp_path):
        path = write_config(tmp_path, "hbar = 2.5\ntol.lattice = 0.3\n")
        cfg = resolve_run_config({}, path, env={})
        assert cfg.constants.hbar == 2.5
        assert cfg.tol_factors == {"lattice": 0.3}
        assert cfg.constants.mass == 1.0

    def test_env_var_points_at_file(self, tmp_path):
        path = write_config(tmp_path, "seed = 99\n")
        cfg = resolve_run_config({}, None, env={"DIRACLAB_CONFIG": path})
        assert cfg.seed == 99

    def test_explicit_path_beats_env(self, tmp_path):
        a = write_config(tmp_path, "seed = 1\n")
        b = tmp_path / "other.conf"
        b.write_text("seed = 2\n", encoding="utf-8")
        cfg = resolve_run_config({}, str(b), env={"DIRACLAB_CONFIG": a})
        assert cfg.seed == 2

    def test_bad_constants_become_config_error(self):
        with pytest.raises(ConfigError):
            resolve_run_config({"hbar": -1.0}, None, env={})


class TestVerifyCommand:
    def test_pass_run_writes_report_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--suite", "states", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["summary"]["failed"] == 0
        assert data["summary"]["total"] > 0
        assert data["suites_run"] == ["states"]
        printed = capsys.readouterr().out
        assert "suite states" in printed

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["verify", "--suite", "states", "--seed", "3",
                         "--out", str(a)]) == 0
        assert cli.main(["verify", "--suite", "states", "--seed", "3",
                         "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tampered_generators_fail_and_exit_one(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["verify", "--suite", "algebra", "--tamper",
                         "--out", str(out)])
        assert code == 1
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["summary"]["failed"] > 0
        assert "[FAIL]" in capsys.readouterr().out

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        code = cli.main(["verify", "--config", str(tmp_path / "nope.conf"),
                         "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_flag_values_exit_two(self, tmp_path, capsys):
        code = cli.main(["verify", "--seed", "-5", "--tol-states", "0",
                         "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 2

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_unwritable_out_exits_three(self, tmp_path, capsys):
        code = cli.main(["verify", "--suite", "states",
                         "--out", str(tmp_path / "missing-dir" / "r.json")])
        assert code == 3
        assert "cannot write" in capsys.readouterr().err

    def test_tamper_flag_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--help"])
        assert exc.value.code == 0
        assert "tamper" not in capsys.readouterr().out

    def test_config_file_feeds_run(self, tmp_path, capsys):
        path = write_config(tmp_path, "seed = 42\n")
        out = tmp_path / "r.json"
        code = cli.main(["verify", "--suite", "states", "--config", path,
                         "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["seed"] == 42


@pytest.mark.parametrize("factor", [2, 0, -1, "nan", "inf", True], ids=str)
def test_a_tolerance_factor_outside_0_1_is_refused(factor, tmp_path, capsys):
    # the flag, the config file and RunConfig each refuse it: a factor
    # can tighten a suite's checks, never loosen them
    value = float(factor) if isinstance(factor, str) else factor
    with pytest.raises(ConfigError, match=r"tol.fields must be a factor in \(0, 1\]"):
        RunConfig(tol_factors={"fields": value})
    path = write_config(tmp_path, f"tol.fields = {factor}\n")
    with pytest.raises(ConfigError) as err:
        read_config_file(path)
    assert len(err.value.problems) == 1 and err.value.problems[0].startswith("line 1: tol.fields")
    out = tmp_path / "r.json"
    for flags in (["--tol-fields", str(factor)], ["--config", path]):
        try:
            code = cli.main(["verify", "--suite", "fields", *flags, "--out", str(out)])
        except SystemExit as exc:  # argparse refuses a flag value that is not a number
            code = exc.code
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err.count("error:") == 1


SI_CONSTANTS = ["--hbar", "1.054571817e-34", "--c", "299792458",
                "--mass", "9.1093837015e-31", "--charge", "1.602176634e-19"]


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["zbw", "--p", "0.5,0,0", "--t1", "12", "--steps", "40"],
], ids=["verify", "zbw"])
def test_arithmetic_failure_exits_two_without_traceback(argv, tmp_path, capsys, monkeypatch):
    # A numerical breakdown inside dynamics (here the oracle's non-real
    # guard) must end the command with one error line, not a traceback.
    def breakdown(*args, **kwargs):
        raise ArithmeticError("velocity expectation grew a non-real part")

    monkeypatch.setattr(dynamics, "velocity_signal", breakdown)
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-real part" in err
    assert not out.exists()


def test_zbw_under_si_constants_fits_twice_the_energy(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = cli.main(["zbw", *SI_CONSTANTS, "--p", "0.5,0,0", "--t1", "12",
                     "--steps", "40", "--out", str(out)])
    assert code == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 41
    printed = capsys.readouterr().out.splitlines()
    words = next(line for line in printed if line.startswith("fitted")).split()
    fitted, expected = float(words[4]), float(words[-1])
    assert expected > 1e42 and fitted == pytest.approx(expected, rel=1e-6)


def test_verify_under_si_constants_writes_its_report(tmp_path):
    # Some checks still fail in SI units (absolute tolerances), but the
    # oracle's non-real guard no longer stops the run.
    out = tmp_path / "report.json"
    assert cli.main(["verify", *SI_CONSTANTS, "--out", str(out)]) == 1
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert len(checks) == 118
    assert 0 < sum(not c["pass"] for c in checks) < len(checks)


class TestZbwCommand:
    def test_writes_csv_and_prints_frequency(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = cli.main(["zbw", "--p", "0.3,0.0,0.1", "--t1", "6.0",
                         "--steps", "40", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 41
        assert lines[0].startswith("t,")
        printed = capsys.readouterr().out
        assert "wrote 40 rows" in printed
        assert "fitted zbw angular frequency" in printed

    def test_plus_state_has_no_oscillation(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = cli.main(["zbw", "--p", "0.5,0.0,0.0", "--state", "plus",
                         "--t1", "4.0", "--steps", "16", "--out", str(out)])
        assert code == 0
        rows = out.read_text(encoding="utf-8").strip().splitlines()[1:]
        zbw_cols = np.array([[float(v) for v in r.split(",")[4:7]] for r in rows])
        assert np.max(np.abs(zbw_cols)) < 1e-10

    def test_json_state_superposition(self, tmp_path, capsys):
        spec = json.dumps({"superposition": [
            {"energy_sign": 1, "spin": "up", "weight": 1.0},
            {"energy_sign": -1, "spin": "down", "weight": [0.0, 1.0]},
        ]})
        out = tmp_path / "traj.csv"
        code = cli.main(["zbw", "--p", "0.2,0.1,0.0", "--state", spec,
                         "--t1", "3.0", "--steps", "8", "--out", str(out)])
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["zbw", "--p", "1,2", "--t1", "1", "--steps", "4", "--out", "x.csv"],
        ["zbw", "--p", "a,b,c", "--t1", "1", "--steps", "4", "--out", "x.csv"],
        ["zbw", "--p", "0,0,0", "--t1", "1", "--steps", "1", "--out", "x.csv"],
        ["zbw", "--p", "0,0,0", "--t0", "2", "--t1", "1", "--steps", "4",
         "--out", "x.csv"],
        ["zbw", "--p", "0,0,0", "--state", "sideways", "--t1", "1",
         "--steps", "4", "--out", "x.csv"],
        ["zbw", "--p", "0,0,0", "--state", '{"energy_sign": 2}', "--t1", "1",
         "--steps", "4", "--out", "x.csv"],
        ["zbw", "--p", "0.3,0,0", "--t0", "1", "--t1", "1.0000000000000002",
         "--steps", "10", "--out", "x.csv"],
        ["zbw", "--p", "0.3,0,0", "--t0=-1e308", "--t1=1e308", "--steps", "10",
         "--out", "x.csv"],
    ])
    def test_bad_arguments_exit_two(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv) == 2
        assert "error:" in capsys.readouterr().err


ZBW_BASE = ["zbw", "--p", "0.5,0,0", "--t1", "6", "--steps", "40"]


@pytest.mark.parametrize("argv", [
    ["zbw", "--p", "0.5,0,0", "--t1", "inf", "--steps", "40"],
    ["zbw", "--p", "0.5,0,0", "--t0=-inf", "--t1", "1", "--steps", "40"],
    ["zbw", "--p", "0.5,0,0", "--t0", "nan", "--t1", "1", "--steps", "40"],
    ["zbw", "--p", "1e200,0,0", "--t1", "6", "--steps", "40"],
    ["zbw", "--p", "0,0,0", "--c", "1e200", "--t1", "6", "--steps", "40"],
    [*ZBW_BASE, "--state", '{"bad": 1}'],
    [*ZBW_BASE, "--state", '{"energy-sign": -1}'],
    [*ZBW_BASE, "--state", '{"energy_sign": 1, "weight": 2.0}'],
    [*ZBW_BASE, "--state", '{"superposition": [{"energy_sign": 1}], "spin": "up"}'],
    [*ZBW_BASE, "--state", '{"superposition": [{"energy_sign": 1, "wieght": 1.0}]}'],
    # a JSON boolean is not a number, although Python counts it as an int
    [*ZBW_BASE, "--state", '{"energy_sign": true}'],
    [*ZBW_BASE, "--state",
     '{"superposition": [{"energy_sign": 1}, {"energy_sign": -1, "weight": false}]}'],
    [*ZBW_BASE, "--state", '{"superposition": [{"energy_sign": -1, "weight": [true, 0]}]}'],
    [*ZBW_BASE, "--state", '{"spin_axis": [true, 0]}'],
    # equal terms of opposite weight cancel; the test is relative to the weights
    [*ZBW_BASE, "--state", '{"superposition": [{"weight": 1}, {"weight": -1}]}'],
    ["zbw", "--p", "0.3,0,0", "--t0", "1", "--t1", "1.0000000000000002", "--steps", "10"],
    ["zbw", "--p", "0.3,0,0", "--t0=-1e308", "--t1=1e308", "--steps", "10"],
    ["zbw", "--p", "0.3,0,0", "--t0", "0", "--t1", "1e308", "--c", "10", "--steps", "10"],
    # the drift C^2 p t / E overflows while the phase stays finite
    ["zbw", "--p", "1000,0,0", "--state", "plus", "--c", "10", "--hbar", "1e10",
     "--t1", "1e308", "--steps", "10"],
    # the fit window, 64 periods 2 pi hbar / (2 E), overflows
    ["zbw", "--p", "0.3,0,0", "--hbar", "1e307", "--t1", "5", "--steps", "10"],
], ids=["t1-inf", "t0-minus-inf", "t0-nan", "energy-overflow", "c-overflow",
        "unknown-key", "typo-key", "weight-outside-superposition",
        "key-beside-superposition", "typo-in-term", "bool-energy-sign", "bool-weight",
        "bool-in-weight-pair", "bool-in-spin-axis", "weights-cancel", "times-collapse",
        "span-overflow", "phase-overflow", "drift-overflow", "fit-window-overflow"])
@pytest.mark.filterwarnings("error")  # an overflow warning would be a second stderr line
def test_zbw_rejects_input_with_one_error_line(argv, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_zbw_unknown_state_key_error_names_allowed_keys(tmp_path, capsys):
    argv = [*ZBW_BASE, "--state", '{"superposition": [{"spni": "up"}]}']
    assert cli.main([*argv, "--out", str(tmp_path / "traj.csv")]) == 2
    err = capsys.readouterr().err
    assert "'spni'" in err
    for key in ("energy_sign", "spin", "spin_axis", "weight"):
        assert repr(key) in err


@pytest.mark.parametrize("state", [
    '{"spin": ["up", "down"]}', '{"spin_axis": [[0, 0]]}', '{"spin": "sideways"}',
    '{"superposition": [{"spin_axis": [[0, 0], [1, 1]]}]}'])
def test_zbw_blames_the_state_for_a_spin_or_axis_that_is_not_one(state, tmp_path, capsys):
    # eigenspinor broadcasts a list of spins or axes; a --state term names one spinor
    out = tmp_path / "traj.csv"
    assert cli.main([*ZBW_BASE, "--state", state, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --state: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("state", [
    '{"superposition": [{"weight": 1e308}, {"weight": 1e308}]}',
    '{"superposition": [{"weight": [1e308, 1e308]}, {"weight": [1e308, 1e308]}]}'],
    ids=["sum-overflow", "complex-sum-overflow"])
@pytest.mark.filterwarnings("error")  # an overflow warning would be a second stderr line
def test_zbw_blames_the_state_for_weights_that_overflow(state, tmp_path, capsys):
    # the weighted sum is not finite: one --state error, not an overflow
    # warning or a normalization error blamed on the time flags
    out = tmp_path / "traj.csv"
    assert cli.main([*ZBW_BASE, "--state", state, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --state: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("state", [
    '{"superposition": [{"weight": 1e200}, {"weight": 1e200, "energy_sign": -1}]}',
    '{"superposition": [{"weight": [1e308, 1e308]}]}'], ids=["mixed-1e200", "complex-1e308"])
@pytest.mark.filterwarnings("error")
def test_zbw_normalises_weights_whose_squares_overflow(state, tmp_path):
    # the plain norm overflows, the normalised state does not
    out = tmp_path / "traj.csv"
    argv = ["zbw", "--p", "0.3,0,0", "--t1", "6", "--steps", "40", "--state", state]
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert len(out.read_text(encoding="ascii").splitlines()) == 41


def test_zbw_norm_fallback_gives_the_state_of_unit_weights():
    # weights of 1e200, 1e-160 (squares that underflow to subnormals) and 1
    # describe the same state; the fallback rescales the first two, the
    # plain norm takes the last
    state = dynamics.MomentumState(p=np.array([0.3, 0.0, 0.0]), constants=PhysicalConstants())
    unit, *scaled = (cli._parse_state(json.dumps({"superposition": [
        {"weight": w}, {"weight": w, "energy_sign": -1}]}), state) for w in (1.0, 1e200, 1e-160))
    for psi in scaled:
        assert np.allclose(psi, unit, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("target", ["linspace", "zbw_trajectory"])
def test_zbw_out_of_memory_exits_two(target, tmp_path, capsys, monkeypatch):
    # Stands in for a --steps too large to allocate; nothing big is allocated.
    def refuse(*args, **kwargs):
        raise MemoryError()

    if target == "linspace":
        monkeypatch.setattr(np, "linspace", refuse)
    else:
        monkeypatch.setattr(dynamics, "zbw_trajectory", refuse)
    out = tmp_path / "traj.csv"
    assert cli.main([*ZBW_BASE, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: not enough memory for --steps 40\n"
    assert not out.exists()


@pytest.mark.parametrize("spec", [
    # the README example
    {"superposition": [{"energy_sign": 1, "spin": "up"},
                       {"energy_sign": -1, "spin": "down", "weight": [0, 1]}]},
    # the shape of the benchmark's zbw_export superposition inputs
    {"superposition": [
        {"energy_sign": 1, "spin": "down", "spin_axis": [1.2, 4.5], "weight": 1.0},
        {"energy_sign": -1, "spin": "down", "spin_axis": [1.2, 4.5], "weight": [0.9, -0.2]}]},
    {"energy_sign": -1, "spin": "down", "spin_axis": [0.3, 0.1]},
    {},
    # one tiny weight cannot cancel, however small; 1e-170 squared underflows
    {"superposition": [{"weight": 1e-20}]},
    {"superposition": [{"weight": 1e-170}, {"weight": 1e-170, "energy_sign": -1}]},
])
def test_zbw_allowed_state_keys_still_parse(spec, tmp_path):
    out = tmp_path / "traj.csv"
    assert cli.main([*ZBW_BASE, "--state", json.dumps(spec), "--out", str(out)]) == 0
    assert out.exists()


class TestLatticeCommand:
    def test_zero_preset_reports_exact(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        code = cli.main(["lattice", "--preset", "zero", "--h", "0.2,0.1,0.05",
                         "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["preset"] == "zero"
        assert data["order"] == "exact"
        assert all(err == 0.0 for err in data["max_err"])
        assert "convergence verdict: exact" in capsys.readouterr().out

    def test_unknown_preset_exits_two(self, tmp_path, capsys):
        code = cli.main(["lattice", "--preset", "vortex", "--h", "0.2,0.1,0.05",
                        "--out", str(tmp_path / "t.json")])
        assert code == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_too_few_spacings_exit_two(self, tmp_path, capsys):
        code = cli.main(["lattice", "--preset", "zero", "--h", "0.2,0.1",
                        "--out", str(tmp_path / "t.json")])
        assert code == 2
        assert "at least 3" in capsys.readouterr().err

    def test_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch):
        # Stands in for a ladder whose finest grid is too large to allocate;
        # nothing big is allocated.
        def refuse(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(lattice, "convergence_study", refuse)
        out = tmp_path / "t.json"
        code = cli.main(["lattice", "--preset", "uniform_b", "--h", "0.2,0.1,0.05,0.025",
                         "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: not enough memory for the grids of --h 0.2,0.1,0.05,0.025\n"
        assert captured.out == ""
        assert not out.exists()


# Spacings convergence_study cannot size a box or a stencil with: zero and
# infinity, a subnormal one whose stencil scale 1 / (2 h) overflows, and one
# so large that the squared coordinates overflow.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spacings", ["0,0,0", "inf,inf,inf", "1e-310,5e-311,2.5e-311",
                                      "1e300,5e299,2.5e299"])
def test_lattice_rejects_unusable_spacings(spacings, tmp_path, capsys):
    out = tmp_path / "t.json"
    code = cli.main(["lattice", "--preset", "uniform_b", "--h", spacings, "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: grid spacing ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_lattice_arithmetic_failure_exits_two(tmp_path, capsys, monkeypatch):
    def breakdown(*args, **kwargs):
        raise ArithmeticError("every estimate is NaN")

    monkeypatch.setattr(lattice, "convergence_study", breakdown)
    out = tmp_path / "t.json"
    code = cli.main(["lattice", "--preset", "uniform_b", "--h", "0.2,0.1,0.05",
                     "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: numerical breakdown with these inputs: "
                            "every estimate is NaN\n")
    assert not out.exists()


# No constant reaches the lattice table, so `lattice` takes no constant
# flag and no config file: argparse refuses each with exit 2.
@pytest.mark.parametrize("flags", [["--hbar", "2"], ["--c", "2"], ["--mass", "2"],
                                   ["--charge", "1e-308"], ["--config", "run.conf"]],
                         ids=lambda flags: flags[0])
def test_lattice_refuses_a_constant_flag(flags, tmp_path, capsys):
    out = tmp_path / "t.json"
    with pytest.raises(SystemExit) as exc:
        cli.main(["lattice", "--preset", "uniform_b", "--h", "0.2,0.1,0.05", *flags,
                  "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(flags)}" in captured.err
    assert captured.out == ""
    assert not out.exists()


class TestConstantsCommand:
    def test_prints_effective_values(self, capsys):
        assert cli.main(["constants", "--mass", "2.5"]) == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.strip().splitlines():
            key, _, text = line.partition(" = ")
            values[key] = float(text)
        assert values["mass"] == 2.5
        assert values["hbar"] == 1.0
        assert values["c"] == 1.0
        assert values["charge"] == pytest.approx(0.08542454313184122)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_breakdown_constants_exit_two_without_traceback(tmp_path, capsys):
    # hbar = 1e-310 makes the sampled plane-wave spinors non-finite
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--hbar", "1e-310", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--charge", "1e-310"], ["--hbar", "1e308"],
                                   ["--hbar", "1e-310"]])
def test_verify_breakdown_prints_one_error_line_and_no_warning(flags, tmp_path, capsys):
    # the suites run under np.errstate(raise): the first overflow or invalid
    # operation ends the run, so no numpy RuntimeWarning reaches the user,
    # and the one error line names the suite that broke down (a tiny charge
    # first breaks the self fields, an extreme hbar the sampled states)
    suite = "fields" if flags[0] == "--charge" else "states"
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: numerical breakdown with these inputs: {suite} suite: "), err
    assert not out.exists()


@pytest.mark.parametrize("claim, measured", [
    ("rest_energy_isotropic", [0.0, float("nan")]),
    ("rest_energy_isotropic", [float("inf")]),
    ("rest_energy_isotropic", (1.0, float("nan"))),
    ("self_potentials_rest", (0.0, 1.0, float("inf"))),  # a BOUND row's bound
], ids=["nan-list", "inf-list", "nan-pair", "inf-bound"])
def test_verify_refuses_a_non_finite_measurement_with_one_error_line(claim, measured, tmp_path,
                                                                     capsys, monkeypatch):
    # a measurement the report cannot hold ends the run before anything is
    # written, naming its claim
    import diraclab.suites as suites_mod

    monkeypatch.setitem(suites_mod._BUILDERS, "fields", lambda config, draw: {claim: measured})
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["verify", "--suite", "fields", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: numerical breakdown with these inputs: "
                                   f"fields.{claim}: non-finite deviation")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


# Each command's numerical entry point, patched to fail, and a run of the
# command small enough to reach it.
NUMERICAL_ENTRIES = {
    "verify": ("diraclab.suites.run_suite", ["verify", "--suite", "states"]),
    "zbw": ("diraclab.dynamics.zbw_trajectory", ZBW_BASE),
    "lattice": ("diraclab.lattice.convergence_study",
                ["lattice", "--preset", "zero", "--h", "0.2,0.1,0.05"]),
}


@pytest.mark.parametrize("error", [DomainError("outside the domain"),
                                   ArithmeticError("every estimate is NaN")],
                         ids=["domain", "arithmetic"])
@pytest.mark.parametrize("command", list(NUMERICAL_ENTRIES))
def test_numerical_failure_exits_two_with_one_error_line(command, error, tmp_path, capsys,
                                                         monkeypatch):
    target, argv = NUMERICAL_ENTRIES[command]

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(target, fail)
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(error) in captured.err
    assert captured.out == ""
    assert not out.exists()


# (verify: TestVerifyCommand.test_unwritable_out_exits_three)
@pytest.mark.parametrize("command", ["zbw", "lattice"])
def test_unwritable_out_exits_three(command, tmp_path, capsys):
    out = tmp_path / "missing-dir" / "out"
    assert cli.main([*NUMERICAL_ENTRIES[command][1], "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {str(out)!r}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
