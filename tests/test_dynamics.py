"""Spectrum, eigenspinors, trembling-motion closed forms."""

import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab import cli, dynamics
from diraclab.constants import PhysicalConstants
from diraclab.dynamics import (
    _BLOCK_ROWS,
    MomentumState,
    TRAJECTORY_HEADER,
    alpha_evolved_oracle,
    eigenspinor,
    eta_matrix,
    evolution_operator,
    fit_dominant_frequency,
    fitted_zbw_frequency,
    hamiltonian,
    max_mixing_state,
    spectrum,
    velocity_operator,
    velocity_signal,
    write_trajectory_csv,
    zbw_closed_form,
    zbw_trajectory,
)
from diraclab.errors import DomainError
from diraclab.matrices import (
    GeneratorKind,
    Representation,
    dirac_generator,
    identity,
    mat_exp,
)

K = PhysicalConstants()

finite_momentum = st.tuples(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@settings(max_examples=60, deadline=None)
@given(finite_momentum, st.floats(0.4, 2.5), st.floats(0.4, 2.5))
def test_spectrum_matches_dispersion(p, mass, c):
    k = PhysicalConstants(hbar=1.0, c=c, mass=mass, charge=K.charge)
    state = MomentumState(p=np.array(p), constants=k)
    w = spectrum(state)
    e = math.sqrt(c**2 * float(np.dot(p, p)) + mass**2 * c**4)
    assert np.max(np.abs(w - np.array([-e, -e, e, e]))) / e <= 1e-12


def test_rest_hamiltonian_inverse_frozen():
    # H(p=0)^-1 = beta / (m C^2)
    state = MomentumState(p=np.zeros(3), constants=K)
    beta = dirac_generator(GeneratorKind.BETA, Representation.PAULI_DIRAC)
    assert np.max(np.abs(np.linalg.inv(hamiltonian(state)) - beta)) <= 1e-14


def test_eigenspinor_residual_and_orthonormality():
    rng = np.random.default_rng(21)
    for _ in range(8):
        state = MomentumState(p=rng.uniform(-2, 2, 3), constants=K)
        h = hamiltonian(state)
        cols = []
        for sign in (1, -1):
            for spin in ("up", "down"):
                u = eigenspinor(state, sign, spin)
                assert np.max(np.abs(h @ u - sign * state.energy * u)) / state.energy <= 1e-12
                cols.append(u)
        g = np.stack(cols, axis=1)
        assert np.max(np.abs(g.conj().T @ g - identity(4))) <= 1e-12


def test_eigenspinor_deterministic_and_phase_fixed():
    state = MomentumState(p=np.array([0.7, -0.3, 1.1]), constants=K)
    u1 = eigenspinor(state, 1, "up")
    u2 = eigenspinor(state, 1, "up")
    assert np.array_equal(u1, u2)
    lead = u1[np.flatnonzero(np.abs(u1) > 1e-12)[0]]
    # the phase rotation leaves at most rounding in the imaginary part
    assert abs(lead.imag) <= 1e-15 and lead.real > 0.0


def test_eigenspinor_rejects_bad_labels():
    state = MomentumState(p=np.zeros(3), constants=K)
    with pytest.raises(DomainError):
        eigenspinor(state, 0, "up")
    with pytest.raises(DomainError):
        eigenspinor(state, 1, "sideways")


def test_eta_anticommutes_with_hamiltonian():
    rng = np.random.default_rng(22)
    for _ in range(5):
        state = MomentumState(p=rng.uniform(-2, 2, 3), constants=K)
        h = hamiltonian(state)
        for j in (1, 2, 3):
            eta = eta_matrix(state, j)
            assert np.max(np.abs(eta @ h + h @ eta)) <= 1e-12
            assert abs(complex(np.trace(eta))) <= 1e-12


def test_velocity_direction_closed_form_vs_conjugation_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        state = MomentumState(p=rng.uniform(-2, 2, 3), constants=K)
        t = float(rng.uniform(-3, 3))
        j = int(rng.integers(1, 4))
        h = hamiltonian(state)
        closed = (K.c * state.p[j - 1] * np.linalg.inv(h)
                  + eta_matrix(state, j) @ mat_exp(-2j * t / K.hbar * h))
        assert np.max(np.abs(closed - alpha_evolved_oracle(state, j, t))) <= 1e-12


def test_position_rate_matches_conjugated_velocity():
    # d/dt (drift + zbw) against C U^dag alpha U by central difference
    rng = np.random.default_rng(24)
    step = 1e-5
    for _ in range(6):
        state = MomentumState(p=rng.uniform(-1.5, 1.5, 3), constants=K)
        t = float(rng.uniform(0.1, 3.0))
        j = int(rng.integers(1, 4))
        fwd = zbw_closed_form(state, j, t + step)
        bwd = zbw_closed_form(state, j, t - step)
        rate = ((fwd.drift_matrix + fwd.zbw_matrix)
                - (bwd.drift_matrix + bwd.zbw_matrix)) / (2.0 * step)
        want = K.c * alpha_evolved_oracle(state, j, t)
        assert np.max(np.abs(rate - want)) <= 1e-8


def test_position_rate_at_zero_is_velocity_operator():
    state = MomentumState(p=np.array([0.9, 0.1, -0.4]), constants=K)
    step = 1e-6
    for j in (1, 2, 3):
        fwd = zbw_closed_form(state, j, step)
        bwd = zbw_closed_form(state, j, -step)
        rate = ((fwd.drift_matrix + fwd.zbw_matrix)
                - (bwd.drift_matrix + bwd.zbw_matrix)) / (2.0 * step)
        assert np.max(np.abs(rate - velocity_operator(j, K))) <= 1e-8


def test_displacement_vanishes_at_time_zero():
    state = MomentumState(p=np.array([1.2, -0.8, 0.3]), constants=K)
    for j in (1, 2, 3):
        closed = zbw_closed_form(state, j, 0.0)
        assert np.max(np.abs(closed.drift_matrix)) == 0.0
        assert np.max(np.abs(closed.zbw_matrix)) <= 1e-13


def test_eigenstates_drift_without_oscillation():
    rng = np.random.default_rng(25)
    state = MomentumState(p=rng.uniform(-1.5, 1.5, 3), constants=K)
    period = 2.0 * math.pi * K.hbar / (2.0 * state.energy)
    times = np.linspace(0.0, 3.0 * period, 40)
    for sign in (1, -1):
        u = eigenspinor(state, sign, "up")
        slope = K.c**2 * state.p / (sign * state.energy)
        traj = zbw_trajectory(state, u, times)
        assert np.max(np.abs(traj.zbw)) <= 1e-12
        assert np.max(np.abs(traj.total - traj.t[:, None] * slope)) <= 1e-10


def test_mixed_state_oscillates_at_twice_energy():
    state = MomentumState(p=np.array([0.6, 0.0, 0.0]), constants=K)
    fitted = fitted_zbw_frequency(state)
    want = 2.0 * state.energy / K.hbar
    assert abs(fitted - want) <= 0.01 * want


def test_trajectory_expectation_matches_direct_route():
    # eigenbasis fast path against literal matrix expectations
    rng = np.random.default_rng(26)
    state = MomentumState(p=rng.uniform(-1, 1, 3), constants=K)
    psi = max_mixing_state(state)
    times = np.linspace(0.1, 2.0, 7)
    traj = zbw_trajectory(state, psi, times)
    for i, t in enumerate(traj.t):
        for j in (1, 2, 3):
            closed = zbw_closed_form(state, j, t)
            drift = float(np.real(psi.conj() @ (closed.drift_matrix @ psi)))
            zbw = float(np.real(psi.conj() @ (closed.zbw_matrix @ psi)))
            assert abs(traj.drift[i, j - 1] - drift) <= 1e-12
            assert abs(traj.zbw[i, j - 1] - zbw) <= 1e-12


def test_trajectory_columns_have_one_row_per_time():
    state = MomentumState(p=np.array([0.3, -0.2, 0.5]), constants=K)
    times = np.linspace(0.0, 4.0, 37)
    traj = zbw_trajectory(state, max_mixing_state(state), times)
    n = times.size
    assert len(traj) == n
    assert traj.t.shape == (n,)
    assert traj.drift.shape == traj.zbw.shape == traj.total.shape == (n, 3)
    assert np.array_equal(traj.t, times)
    assert np.array_equal(traj.total, traj.drift + traj.zbw)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 13, 50])
def test_blocked_kernels_match_one_block(monkeypatch, n):
    # Rows are independent, so splitting the times into blocks must not
    # change a bit; 5, 9 and 13 leave a lone last row, which must not go
    # through numpy's one-row product.
    state = MomentumState(p=np.array([0.3, -0.2, 0.5]), constants=K)
    times = np.linspace(0.0, 12.0, n)
    outputs = []
    for block in (4, 10**9):
        monkeypatch.setattr(dynamics, "_BLOCK_ROWS", block)
        blocks = dynamics._row_blocks(n)
        assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
        assert n == 1 or min(rows.stop - rows.start for rows in blocks) >= 2
        for psi in (max_mixing_state(state), cli._parse_state(SUPERPOSITION, state)):
            traj = zbw_trajectory(state, psi, times)
            outputs.append([traj.t, traj.drift, traj.zbw, traj.total,
                            velocity_signal(state, psi, times)])
    for blocked, whole in zip(outputs[:2], outputs[2:]):
        for got, want in zip(blocked, whole):
            assert np.array_equal(got, want)


def test_trajectory_rejects_bad_times():
    state = MomentumState(p=np.zeros(3), constants=K)
    psi = max_mixing_state(state)
    with pytest.raises(DomainError):
        zbw_trajectory(state, psi, [0.0, 0.5, 0.5])
    with pytest.raises(DomainError):
        zbw_trajectory(state, psi, [])


def test_evolution_operator_unitary():
    state = MomentumState(p=np.array([0.4, 0.7, -0.1]), constants=K)
    u = evolution_operator(state, 1.7)
    assert np.max(np.abs(u.conj().T @ u - identity(4))) <= 1e-13


def test_fit_dominant_frequency_on_synthetic_line():
    times = np.linspace(0.0, 40.0, 4096)
    omega = 1.37
    got = fit_dominant_frequency(times, np.cos(omega * times))
    assert abs(got - omega) <= 0.005 * omega


def test_fit_dominant_frequency_flat_signal_returns_zero():
    times = np.linspace(0.0, 1.0, 64)
    assert fit_dominant_frequency(times, np.ones(64)) == 0.0


def test_fit_dominant_frequency_rejects_bad_sampling():
    with pytest.raises(DomainError):
        fit_dominant_frequency(np.linspace(0, 1, 4), np.ones(4))
    with pytest.raises(DomainError):
        fit_dominant_frequency(np.array([0.0, 0.1, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]),
                               np.ones(8))


def test_trajectory_csv_format():
    state = MomentumState(p=np.array([0.5, 0.0, 0.0]), constants=K)
    psi = max_mixing_state(state)
    traj = zbw_trajectory(state, psi, np.linspace(0.0, 1.0, 5))
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 6
    assert all(len(line.split(",")) == 10 for line in lines[1:])


def _reference_csv(traj) -> str:
    # Reference writer: one format() call per cell, sharing no code with the
    # chunked %-format of write_trajectory_csv.
    lines = [TRAJECTORY_HEADER]
    for i in range(len(traj)):
        cells = [traj.t[i], *traj.drift[i], *traj.zbw[i], *traj.total[i]]
        lines.append(",".join(format(float(v), ".15g") for v in cells))
    return "\n".join(lines) + "\n"


SUPERPOSITION = json.dumps({"superposition": [
    {"energy_sign": 1, "spin": "up"},
    {"energy_sign": -1, "spin": "down", "weight": [0, 1]}]})


@pytest.mark.parametrize("p, spec, rows", [
    ((0.3, -0.2, 0.5), "mix", _BLOCK_ROWS + 1),
    ((0.4, 0.0, -0.7), "mix", 3),
    ((0.5, 0.0, 0.0), "mix", 1),
    ((0.0, -0.6, 0.0), SUPERPOSITION, _BLOCK_ROWS),
    ((0.2, 0.1, 0.0), SUPERPOSITION, 2 * _BLOCK_ROWS + 5),
], ids=["no-zero-chunk+1", "one-zero", "two-zero-one-row", "superposition-chunk",
        "superposition-two-chunks"])
def test_trajectory_csv_matches_per_cell_reference(p, spec, rows):
    state = MomentumState(p=np.array(p), constants=K)
    psi = cli._parse_state(spec, state)
    traj = zbw_trajectory(state, psi, np.linspace(0.0, 12.0, rows))
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    # Lines, not whole strings: pytest diffs two long strings very slowly.
    assert buf.getvalue().splitlines(True) == _reference_csv(traj).splitlines(True)


def test_trajectory_csv_keeps_signed_zero_cells():
    # p_y = p_z = 0: those drift columns are exact zeros, negative for a
    # negative-energy state, and both spellings must survive the writer.
    state = MomentumState(p=np.array([0.5, 0.0, 0.0]), constants=K)
    traj = zbw_trajectory(state, eigenspinor(state, -1, "up"), np.linspace(0.0, 1.0, 4))
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    cells = {c for line in buf.getvalue().splitlines()[1:] for c in line.split(",")}
    assert {"0", "-0"} <= cells
    assert buf.getvalue().splitlines(True) == _reference_csv(traj).splitlines(True)


_FREED_HEAP_SCRIPT = """
import io
import numpy as np
from diraclab.constants import PhysicalConstants
from diraclab.dynamics import MomentumState, max_mixing_state, write_trajectory_csv, zbw_trajectory

def rss_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmRSS:"))

state = MomentumState(p=np.array([0.3, -0.2, 0.5]), constants=PhysicalConstants())
traj = zbw_trajectory(state, max_mixing_state(state), np.linspace(0.0, 1.0, 8))
big = bytes(24 << 20)  # mapped on its own; freeing it raises glibc's mmap threshold
del big
held = bytearray(16 << 20)  # so this one comes from the heap, written through
del held  # and stays resident after the free
before = rss_kib()
write_trajectory_csv(traj, io.StringIO())
print(before - rss_kib())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
def test_csv_export_returns_freed_heap_pages():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", _FREED_HEAP_SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert int(out) >= 12 << 10  # KiB, of the 16 MiB freed


@pytest.mark.parametrize("argv, digest, lines", [
    (["--p", "0.3,-0.2,0.5", "--t1", "12", "--steps", "400"],
     "77f09374846bcdc619ae76f594c5e4709c580fd82a530fd26b5b9c5762f357a9", 401),
    (["--p", "0.5,0,0", "--state", "plus", "--t1", "6", "--steps", "100"],
     "6c65b1d7e790537abe1437f433946f781bc2d46086c24fcadb0d8b01b261f4e0", 101),
], ids=["mix", "plus"])
def test_readme_zbw_csv_bytes_are_locked(tmp_path, argv, digest, lines):
    out = tmp_path / "traj.csv"
    assert cli.main(["zbw", *argv, "--out", str(out)]) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == lines
    assert hashlib.sha256(data).hexdigest() == digest
