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

from diraclab.config import RunConfig
from diraclab.errors import DomainError
from diraclab.matrices import (
    GENERATOR_STACK,
    PAULI_TABLE,
    SIGMA_BLOCKS,
    Representation,
    anticommutator,
    commutator,
    complex_product,
    dirac_generator,
    GeneratorKind,
    generator_labels,
    generators,
    identity,
    mat_exp,
    pauli,
    sigma_block,
    taylor_exp_reference,
)
from diraclab.suites import run_suite

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
        assert np.array_equal(g, g.conj().T)
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


def test_stacked_commutators_give_each_pairs_bits():
    # tests/reference_kernels.py holds the per-pair loop the stacks replaced
    import reference_kernels as ref

    rng = np.random.default_rng(27)
    tampered = np.stack(generators(Representation.PAULI_DIRAC))
    tampered[3, 0, 0] = -tampered[3, 0, 0]
    random = [rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
              for m, n in ((3, 4), (5, 2), (2, 3))]
    for gens in (*GENERATOR_STACK.values(), tampered, *random):
        for op, anti in ((anticommutator, True), (commutator, False)):
            table = op(gens[:, None], gens[None, :])
            assert ref.same_bits(table, ref.pair_table(gens, anti))
            for j, l in np.ndindex(table.shape[:2]):
                assert ref.same_bits(table[j, l], op(gens[j], gens[l]))
            # one matrix against a stack, and a list of matrices
            assert ref.same_bits(op(gens[0], gens), table[0])
            assert ref.same_bits(op(list(gens), gens[1]), table[:, 1])


@pytest.mark.parametrize("a, b", [
    (np.zeros((3, 4)), np.zeros((3, 4))),
    (np.zeros(4), np.zeros(4)),
    (np.zeros((4, 4)), np.zeros((2, 2))),
    (np.zeros((1, 1)), np.zeros((4, 4))),
    (np.zeros((2, 4, 4)), np.zeros((3, 4, 4))),
    (np.zeros((2, 4, 3)), np.zeros((2, 4, 3))),
], ids=["non-square", "vector", "mismatched", "one-by-one", "unbroadcastable", "non-square-stack"])
def test_commutators_refuse_a_non_square_or_mismatched_shape(a, b):
    for op in (commutator, anticommutator):
        with pytest.raises(DomainError):
            op(a, b)
        with pytest.raises(DomainError):
            op(b, a)


def _clifford_checks(rep, kinds, tamper=False):
    """The algebra suite's Clifford checks of one generator set, by kind."""
    report = run_suite(RunConfig(suites=("algebra",), tamper=tamper))
    return [c for c in report.checks
            if c["claim_id"].startswith(f"algebra.clifford.{rep.value}.")
            and c["claim_id"].split(".")[3] in kinds]


@pytest.mark.parametrize("rep", REPS)
def test_clifford_check_all_pass(rep):
    checks = _clifford_checks(rep, ("anticomm", "hermitian", "traceless"))
    assert len(checks) == 16 + 4 + 4
    assert all(c["pass"] for c in checks)


def test_clifford_check_catches_tampered_beta():
    # --tamper flips the first diagonal entry of the Pauli-Dirac beta
    checks = _clifford_checks(Representation.PAULI_DIRAC,
                              ("anticomm", "hermitian", "traceless"), tamper=True)
    failed = [c["claim_id"] for c in checks if not c["pass"]]
    assert failed, "sign flip in beta must break anticommutators"
    assert any("anticomm" in claim_id for claim_id in failed)
    assert any("traceless" in claim_id for claim_id in failed)


def test_spectrum_checks_emit_one_per_generator():
    checks = _clifford_checks(Representation.STANDARD, ("eigenvalues",))
    assert len(checks) == 4
    assert all(c["pass"] for c in checks)
    labels = generator_labels(Representation.STANDARD)
    for label in labels:
        assert any(label in c["claim_id"] for c in checks)


def test_mat_exp_frozen_rotation():
    # exp(i pi sigma_3) = -I
    got = mat_exp(1j * math.pi * np.diag([1.0, -1.0]).astype(complex))
    assert np.max(np.abs(got + np.eye(2))) <= 1e-14


def _gaussian_samples(scale):
    rng = np.random.default_rng(7)
    return [scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            for _ in range(6)]


# Each sample is split into its Hermitian and skew-Hermitian parts, the two
# kinds mat_exp takes; scales 2, 8 and 20 make the Taylor oracle square.
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
    # 32*|A|_2*eps at n = 4.  The eigendecomposition moves each eigenvalue
    # by a few |A|_2*eps, which exp turns into the same relative error.
    # Twice the oracle's share is 64*|A|_2*eps; below |A|_2 = 70 the 1e-12
    # floor applies.
    eps = np.finfo(float).eps
    for r in samples:
        r = np.asarray(r, dtype=complex)
        for m in (r + r.conj().T, r - r.conj().T):
            want = taylor_exp_reference(m)
            scale = max(1.0, float(np.max(np.abs(want))))
            tol = max(1e-12, 64.0 * float(np.linalg.norm(m, 2)) * eps)
            got = mat_exp(m)
            assert got.shape == m.shape
            assert np.max(np.abs(got - want)) / scale <= tol


def test_mat_exp_rejects_a_matrix_neither_hermitian_nor_skew():
    for m in (np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[0.3 - 1.1j]])):
        with pytest.raises(DomainError, match="Hermitian or skew-Hermitian"):
            mat_exp(m)


def test_mat_exp_of_a_skew_matrix_below_the_hermitian_tolerance():
    # -i t H / hbar at |t / hbar| ~ 4e-13 lies within 1e-12 of Hermitian as
    # well; taken as Hermitian, its exponential was off by the matrix's size
    h = 1.3 * dirac_generator(GeneratorKind.ALPHA1) + dirac_generator(GeneratorKind.BETA)
    for a in (-3.757e-13j * h, 4e-14j * h, np.zeros((4, 4))):
        assert np.max(np.abs(mat_exp(a) - taylor_exp_reference(a))) <= 1e-15


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


def test_dirac_generator_is_view_safe():
    g1 = dirac_generator(GeneratorKind.BETA)
    g1[0, 0] = 99.0
    g2 = dirac_generator(GeneratorKind.BETA)
    assert g2[0, 0] == 1.0, "callers must not be able to corrupt the cached set"


S1 = [[0, 1], [1, 0]]
S2 = [[0, -1j], [1j, 0]]
S3 = [[1, 0], [0, -1]]
Z2 = [[0, 0], [0, 0]]
I2 = [[1, 0], [0, 1]]


def _blocks(a, b, c, d):
    return np.block([[np.array(a, dtype=complex), np.array(b, dtype=complex)],
                     [np.array(c, dtype=complex), np.array(d, dtype=complex)]])


def _neg(s):
    return [[-x for x in row] for row in s]


# Every table entry written out literally, block by block.
LITERAL_GENERATORS = {
    (Representation.PAULI_DIRAC, GeneratorKind.ALPHA1): _blocks(Z2, S1, S1, Z2),
    (Representation.PAULI_DIRAC, GeneratorKind.ALPHA2): _blocks(Z2, S2, S2, Z2),
    (Representation.PAULI_DIRAC, GeneratorKind.ALPHA3): _blocks(Z2, S3, S3, Z2),
    (Representation.PAULI_DIRAC, GeneratorKind.BETA): np.diag([1, 1, -1, -1]).astype(complex),
    (Representation.STANDARD, GeneratorKind.ALPHA1): _blocks(S1, Z2, Z2, _neg(S1)),
    (Representation.STANDARD, GeneratorKind.ALPHA2): _blocks(S2, Z2, Z2, _neg(S2)),
    (Representation.STANDARD, GeneratorKind.ALPHA3): _blocks(S3, Z2, Z2, _neg(S3)),
    (Representation.STANDARD, GeneratorKind.BETA): _blocks(Z2, I2, I2, Z2),
}


@pytest.mark.parametrize("rep,kind", list(LITERAL_GENERATORS), ids=lambda v: v.name)
def test_generator_table_matches_literal(rep, kind):
    want = LITERAL_GENERATORS[(rep, kind)]
    got = generators(rep)[kind.value - 1]
    assert got.dtype == complex and np.array_equal(got, want)
    assert np.array_equal(GENERATOR_STACK[rep][kind.value - 1], want)
    if rep is Representation.PAULI_DIRAC:
        assert np.array_equal(dirac_generator(kind), want)


def test_pauli_and_sigma_block_tables_match_literal():
    for j, s in enumerate((S1, S2, S3), start=1):
        want = np.array(s, dtype=complex)
        assert np.array_equal(pauli(j), want)
        assert np.array_equal(PAULI_TABLE[j - 1], want)
        block = _blocks(s, Z2, Z2, s)
        assert np.array_equal(sigma_block(j), block)
        assert np.array_equal(SIGMA_BLOCKS[j - 1], block)


def test_tables_are_read_only_and_copies_are_fresh():
    entries = [*PAULI_TABLE, *SIGMA_BLOCKS,
               *(g for stack in GENERATOR_STACK.values() for g in stack)]
    assert len(entries) == 14
    for m in entries:
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 7.0
    for get, arg in ((pauli, 1), (sigma_block, 1)):
        first = get(arg)
        assert first.flags.writeable
        first[...] = 42.0
        assert np.array_equal(get(arg)[0], [0, 1] if get is pauli else [0, 1, 0, 0])
    for rep in REPS:
        mutated = generators(rep)
        for g in mutated:
            assert g.flags.writeable
            g *= 3.0
        for g, want in zip(generators(rep), (LITERAL_GENERATORS[(rep, kind)] for kind in (
                GeneratorKind.ALPHA1, GeneratorKind.ALPHA2, GeneratorKind.ALPHA3,
                GeneratorKind.BETA))):
            assert np.array_equal(g, want)
        stack = GENERATOR_STACK[rep]
        assert stack.shape == (4, 4, 4) and not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[3, 0, 0] = 7.0
        assert np.array_equal(stack, np.stack(generators(rep)))
    with pytest.raises(DomainError):
        generators("pauli_dirac")


def test_sigma_block_rejects_bad_axis():
    with pytest.raises(DomainError):
        sigma_block(0)
    with pytest.raises(DomainError):
        sigma_block(4)


def test_sigma_block_shape():
    s = sigma_block(2)
    assert s.shape == (4, 4)
    assert np.array_equal(s[:2, :2], pauli(2))
    assert np.array_equal(s[2:, 2:], pauli(2))
    assert np.max(np.abs(s[:2, 2:])) == 0.0


def test_mat_exp_of_a_stack_equals_its_single_matrices():
    # mixed Hermitian and skew-Hermitian matrices, each judged on its own
    rng = np.random.default_rng(70)
    mats = []
    for i in range(12):
        r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mats.append(r + r.conj().T if i % 3 else r - r.conj().T)
    mats = np.array(mats)
    got = mat_exp(mats)
    assert np.array_equal(got, np.array([mat_exp(a) for a in mats]))
    assert np.array_equal(mat_exp(mats.reshape(3, 4, 4, 4)), got.reshape(3, 4, 4, 4))
    bad = mats.copy()
    bad[5] = np.triu(bad[5])
    with pytest.raises(DomainError, match="Hermitian or skew-Hermitian"):
        mat_exp(bad)
    bad[5] = mats[5]
    bad[7, 1, 2] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        mat_exp(bad)
    with pytest.raises(DomainError, match="square"):
        mat_exp(np.zeros((3, 4, 5)))


def test_complex_product_rounds_as_the_scalar_complex_product():
    # the stacked kernels rely on this to give the bits of per-sample scalar
    # code; special values cover signed zeros and purely real or imaginary factors
    rng = np.random.default_rng(71)
    a = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    b = rng.standard_normal(4000) * 10.0 ** rng.integers(-8, 8, 4000) + 1j * rng.standard_normal(4000)
    special = np.array([0.0, -0.0, 1.0, -1j, 2.5, complex(0.0, -0.0), complex(-0.0, 3.0)])
    a = np.concatenate((a, np.repeat(special, special.size)))
    b = np.concatenate((b, np.tile(special, special.size)))
    got = complex_product(a, b)
    want = np.array([complex(x) * complex(y) for x, y in zip(a, b)])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert complex_product(a[:6].reshape(2, 3), b[0]).shape == (2, 3)
