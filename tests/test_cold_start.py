"""Cold entry points load only what they run.

`import diraclab` resolves its public names on first use (PEP 562), and the
CLI imports the numerical modules inside the commands that need them, so
the light paths below never load numpy.  Each check runs in a fresh
interpreter with warnings turned into errors.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import diraclab
from diraclab import suites

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _loads_numpy(code: str) -> bool:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         code + "\nimport sys\nprint('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()[-1] == "True"


def _cli(argv, want_exit: int) -> str:
    """Run cli.main(argv) in the child and require its exit code."""
    return (
        "from diraclab.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        f"assert code == {want_exit}, code\n"
    )


@pytest.mark.parametrize("code", [
    "import diraclab",
    "from diraclab import DEFAULT_SEED, PhysicalConstants, ConfigError",
    _cli(["constants"], 0),
    _cli(["constants", "--mass", "2.5"], 0),
    _cli(["--help"], 0),
    *(_cli([cmd, "--help"], 0) for cmd in ("verify", "zbw", "lattice", "constants")),
    _cli(["verify", "--seed", "x"], 2),
    _cli(["verify", "--config", "/nonexistent/run.conf"], 2),
    _cli(["zbw", "--p", "1,2", "--t1", "1", "--steps", "9", "--out", "unused.csv"], 2),
    _cli(["lattice", "--preset", "vortex", "--h", "0.2,0.1,0.05", "--out", "unused.json"], 2),
], ids=["import", "from-import", "constants", "constants-mass", "help", "verify-help",
        "zbw-help", "lattice-help", "constants-help", "verify-bad-seed",
        "verify-missing-config", "zbw-bad-p", "lattice-bad-preset"])
def test_light_paths_load_no_numpy(code):
    assert not _loads_numpy(code)


@pytest.mark.parametrize("argv, unused", [
    (["zbw", "--p", "0.3,-0.2,0.5", "--t1", "12", "--steps", "40"],
     ("fields", "lattice", "suites")),
    (["lattice", "--preset", "uniform_b", "--h", "0.2,0.1,0.05"], ("dynamics", "suites")),
], ids=["zbw", "lattice"])
def test_commands_load_only_their_modules(argv, unused, tmp_path):
    out = str(tmp_path / "out")
    code = _cli([*argv, "--out", out], 0) + (
        f"assert not [m for m in {unused!r} if 'diraclab.' + m in sys.modules]\n")
    assert _loads_numpy("import sys\n" + code)


def test_numerical_command_loads_numpy():
    # control: the same probe sees numpy once a command computes
    assert _loads_numpy("import diraclab\ndiraclab.Grid3(n=9, h=0.1)")


def test_every_exported_name_resolves_and_is_listed():
    listed = dir(diraclab)
    for name in diraclab.__all__:
        assert getattr(diraclab, name) is not None, name
        assert name in listed, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from diraclab import *", namespace)
    assert set(diraclab.__all__) <= set(namespace)
    assert namespace["run_suite"] is suites.run_suite


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        diraclab.no_such_name
    assert not hasattr(diraclab, "no_such_name")


def test_exports_follow_rebinding_of_the_submodule(monkeypatch):
    # A tracer rebinds functions on the defining module; the package must
    # hand out the current binding, not a copy cached at first access.
    assert diraclab.run_suite is suites.run_suite

    def replacement(config):
        return None

    monkeypatch.setattr(suites, "run_suite", replacement)
    assert diraclab.run_suite is replacement
