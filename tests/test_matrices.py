"""Generator algebra: anticommutators, spectra, exponentials."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclab.errors import DomainError, IllConditionedError
from diraclab.matrices import (
    _expm_pade13,
    Representation,
    anticommutator,
    clifford_check,
    commutator,
    dirac_generator,
    GeneratorKind,
    generator_labels,
    generator_spectrum_checks,
    generators,
    identity,
    is_hermitian,
    mat_exp,
    mat_inverse,
    pauli,
    sigma_block,
    taylor_exp_reference,
)

REPS = (Representation.PAULI_DIRAC, Representation.STANDARD)


def test_pauli_products_frozen():
    # sigma_1 sigma_2 = i sigma_3 and cyclic, exact in integer arithmetic
    assert np.array_equal(pauli(1) @ pauli(2), 1j * pauli(3))
    assert np.array_equal(pauli(2) @ pauli(3), 1j * pauli(1))
    assert np.array_equal(pauli(3) @ pauli(1), 1j * pauli(2))
    for j in (1, 2, 3):
        assert np.array_equal(pauli(j) @ pauli(j), np.eye(2, dtype=complex))


def test_pauli_rejects_bad_axis():
    with pytest.raises(DomainError):
        pauli(0)
    with pytest.raises(DomainError):
        pauli(4)


@pytest.mark.parametrize("rep", REPS)
def test_all_sixteen_anticommutators(rep):
    gens = generators(rep)
    for j, gj in enumerate(gens):
        for l, gl in enumerate(gens):
            want = 2.0 * identity(4) if j == l else np.zeros((4, 4))
            got = anticommutator(gj, gl)
            assert np.max(np.abs(got - want)) <= 1e-14


@pytest.mark.parametrize("rep", REPS)
def test_generators_hermitian_traceless_involutive(rep):
    for g in generators(rep):
        assert is_hermitian(g, tol=1e-14)
        assert abs(np.trace(g)) <= 1e-14
        assert np.max(np.abs(g @ g - identity(4))) <= 1e-14


@pytest.mark.parametrize("rep", REPS)
def test_generator_eigenvalues_balanced(rep):
    for g in generators(rep):
        w = np.linalg.eigvalsh(g)
        assert np.max(np.abs(w - np.array([-1.0, -1.0, 1.0, 1.0]))) <= 1e-12


def test_representations_differ_as_printed():
    # the two sets are distinct matrices; nothing in the code maps one to
    # the other and the checks must not assume such a map
    pd = generators(Representation.PAULI_DIRAC)
    std = generators(Representation.STANDARD)
    assert any(not np.array_equal(a, b) for a, b in zip(pd, std))


def test_block_spin_commutator_frozen():
    # [alpha_1, alpha_2] = 2 i blockdiag(sigma_3, sigma_3), exact
    a = generators(Representation.PAULI_DIRAC)
    got = commutator(a[0], a[1])
    assert np.array_equal(got, 2j * sigma_block(3))


@pytest.mark.parametrize("rep", REPS)
def test_clifford_check_all_pass(rep):
    checks = clifford_check(rep)
    assert len(checks) == 16 + 4 + 4
    assert all(c.passed for c in checks)


def test_clifford_check_catches_tampered_beta():
    gens = [g.copy() for g in generators(Representation.PAULI_DIRAC)]
    gens[3][0, 0] = -1.0
    checks = clifford_check(Representation.PAULI_DIRAC, gens=gens)
    failed = [c for c in checks if not c.passed]
    assert failed, "sign flip in beta must break anticommutators"
    assert any("anticomm" in c.claim_id for c in failed)
    assert any("traceless" in c.claim_id for c in failed)


def test_spectrum_checks_emit_one_per_generator():
    checks = generator_spectrum_checks(Representation.STANDARD)
    assert len(checks) == 4
    assert all(c.passed for c in checks)
    labels = generator_labels(Representation.STANDARD)
    for label in labels:
        assert any(label in c.claim_id for c in checks)


def test_mat_exp_frozen_rotation():
    # exp(i pi sigma_3) = -I
    got = mat_exp(1j * math.pi * np.diag([1.0, -1.0]).astype(complex))
    assert np.max(np.abs(got + np.eye(2))) <= 1e-14


def _gaussian_samples(scale):
    rng = np.random.default_rng(7)
    return [scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            for _ in range(6)]


# At scale 0.5 every 1-norm is below theta_13, so the Pade path squares
# nothing; scales 2, 8 and 20 force s >= 1 squarings.
@pytest.mark.parametrize("samples", [
    pytest.param(_gaussian_samples(0.5), id="scale0.5"),
    pytest.param(_gaussian_samples(2.0), id="scale2"),
    pytest.param(_gaussian_samples(8.0), id="scale8"),
    pytest.param(_gaussian_samples(20.0), id="scale20"),
    pytest.param([np.zeros((4, 4), dtype=complex)], id="zero"),
    pytest.param([np.array([[0.3 - 1.1j]])], id="1x1"),
    pytest.param([np.array([[1.0, 2.0], [0.5j, -3.0]])], id="2x2"),
    pytest.param([np.array([[-1.0, 4.0, 0.0, 0.0], [0.0, -1.0, 4.0, 0.0],
                            [0.0, 0.0, 2.0, 1.0], [0.5, 0.0, 0.0, 2.0]])], id="real"),
])
def test_mat_exp_agrees_with_taylor_oracle(samples):
    # Error bound: each squaring doubles the relative error carried into it
    # and adds about n*u (u = eps/2).  The Taylor oracle squares s_T times
    # with 2^s_T < 8*|A|_2, so its error is about 8*|A|_2 * (n + 4) * u =
    # 32*|A|_2*eps at n = 4; the Pade side squares at most 2*|A|_1/theta_13
    # <= 0.75*|A|_2 times as often and adds ~3*|A|_2*eps.  Twice their sum
    # is 64*|A|_2*eps (1.2e-12 at |A|_2 = 88, the largest scale-20 sample);
    # below |A|_2 = 70 the 1e-12 floor the unscaled samples always had applies.
    eps = np.finfo(float).eps
    for m in samples:
        want = taylor_exp_reference(m)
        scale = max(1.0, float(np.max(np.abs(want))))
        tol = max(1e-12, 64.0 * float(np.linalg.norm(m, 2)) * eps)
        for got in (mat_exp(m), _expm_pade13(m)):
            assert got.shape == m.shape
            assert np.max(np.abs(got - want)) / scale <= tol


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency; scipy alone would more than
    # double the cost of every cold CLI start.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run(
        [sys.executable, "-c", "import diraclab, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True, timeout=60,
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mat_exp_hermitian_argument_gives_unitary(seed):
    # exp(iA) with A Hermitian must be unitary
    rng = np.random.default_rng(seed)
    r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = r + r.conj().T
    u = mat_exp(1j * a)
    assert np.max(np.abs(u.conj().T @ u - identity(4))) <= 1e-12


def test_mat_inverse_round_trip_and_condition_guard():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + identity(4) * 3.0
    inv = mat_inverse(m)
    assert np.max(np.abs(m @ inv - identity(4))) <= 1e-12
    with pytest.raises(IllConditionedError):
        mat_inverse(np.diag([1.0, 1.0, 1.0, 1e-15]))


def test_dirac_generator_is_view_safe():
    g1 = dirac_generator(GeneratorKind.BETA, Representation.PAULI_DIRAC)
    g1[0, 0] = 99.0
    g2 = dirac_generator(GeneratorKind.BETA, Representation.PAULI_DIRAC)
    assert g2[0, 0] == 1.0, "callers must not be able to corrupt the cached set"


def test_sigma_block_shape():
    s = sigma_block(2)
    assert s.shape == (4, 4)
    assert np.array_equal(s[:2, :2], pauli(2))
    assert np.array_equal(s[2:, 2:], pauli(2))
    assert np.max(np.abs(s[:2, 2:])) == 0.0
