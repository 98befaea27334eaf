"""The correctness gates pass good output and fail bad output."""

import json
import os

import pytest

import run
import workloads as wl


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    for name in wl.WORKLOADS:
        a, b, c = wl.InputStream(name, 5), wl.InputStream(name, 5), wl.InputStream(name, 6)
        first = [a[i] for i in range(12)]
        assert first == [b[i] for i in range(12)]
        assert first != [c[i] for i in range(12)]


def test_replayed_operations_repeat_an_earlier_input():
    stream = wl.InputStream("seed_sweep", 3)
    every = wl.SWEEP_REPLAY_EVERY
    for i in range(every - 1, 40, every):
        assert stream[i] in [stream[j] for j in range(i)]


def test_momenta_include_zero_components():
    stream = wl.InputStream("zbw_export", 4)
    momenta = [stream[i]["p"] for i in range(60)]
    assert any(0.0 in p for p in momenta)
    assert any(0.0 not in p for p in momenta)
    assert all(abs(x) <= 1.0 for p in momenta for x in p)


def test_zbw_inputs_cycle_the_shapes_and_replay_a_cycle_back():
    stream = wl.InputStream("zbw_export", 4)
    cycle = len(wl.ZBW_SHAPES)
    for i in range(3 * cycle):
        inp = stream[i]
        zeros, state = wl.ZBW_SHAPES[i % cycle]
        assert sum(1 for x in inp["p"] if x == 0.0) == zeros
        assert (inp["state"] == "mix") == (state == "mix")
        if i >= cycle and i % wl.ZBW_REPLAY_EVERY == wl.ZBW_REPLAY_EVERY - 1:
            assert inp == stream[i - cycle]


def test_lattice_inputs_cycle_the_presets():
    stream = wl.InputStream("lattice_refine", 9)
    assert {stream[i]["preset"] for i in range(3)} == set(wl.LATTICE_PRESETS)


def test_order_gate():
    assert wl.gate_order("uniform_b", 1.99) is None
    assert wl.gate_order("linear_phi", 1.8) is not None
    assert wl.gate_order("uniform_b", "no clean order") is not None
    assert wl.gate_order("zero", "exact") is None
    assert wl.gate_order("zero", 2.0) is not None


def test_frequency_and_csv_gates():
    p = (0.3, -0.2, 0.5)
    want = wl.zbw_reference_frequency(p)
    assert wl.gate_frequency(want * 1.005, p) is None
    assert wl.gate_frequency(want * 1.02, p) is not None
    assert wl.gate_frequency(float("nan"), p) is not None
    assert wl.gate_csv(b"h\n1\n2\n", 2) is None
    assert wl.gate_csv(b"h\n1\n", 2) is not None


def test_report_gate():
    good = {"checks": [{"claim_id": f"c{i}", "pass": True} for i in range(3)]}
    assert wl.gate_report_text(json.dumps(good), 3) is None
    assert wl.gate_report_text(json.dumps(good), 4) is not None
    bad = {"checks": good["checks"] + [{"claim_id": "x", "pass": False}]}
    assert wl.gate_report_text(json.dumps(bad), 3) is not None
    assert wl.gate_report_text("{not json", 3) is not None


@pytest.fixture
def scratch(tmp_path):
    return str(tmp_path)


def test_verify_passes_the_gate(scratch):
    child, reason, _ = run.run_cli_command("verify", {"verify_seed": 137}, scratch)
    assert child.returncode == 0
    assert reason is None


def test_tampered_verify_counts_as_failed(scratch, monkeypatch):
    """Negative control: `verify --tamper` goes through the same gate and fails it."""
    real_argv = run._cli_argv
    monkeypatch.setattr(run, "_cli_argv",
                        lambda cmd, inp, s: real_argv(cmd, inp, s) + ["--tamper"])
    child, reason, _ = run.run_cli_command("verify", {"verify_seed": 137}, scratch)
    assert child.returncode == 1
    assert reason is not None
    rnd, round_reason, _ = run.cli_round(0, {"verify_seed": 137, "p": (0.3, -0.2, 0.5)},
                                         scratch)
    assert round_reason is not None and "verify" in round_reason
    assert set(rnd["walls"]) == set(run.CLI_COMMANDS)
    assert os.path.exists(os.path.join(scratch, "report.json"))
