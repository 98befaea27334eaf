"""Pauli and Dirac generator sets plus the small-matrix calculus they need.

Two four-generator sets are built exactly as the check catalogue prints
them: the Pauli-Dirac set (off-diagonal sigma blocks, diagonal scalar
generator) and the "standard" set (diagonal sigma blocks, off-diagonal
scalar generator).  Both satisfy the same anticommutation table; neither
is renamed or rotated to match any other convention.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import DomainError, is_integer, number_array


def _read_only(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


# Module tables, built once at import and never written: the accessors
# below validate their arguments and hand out fresh writable copies.
PAULI_TABLE = tuple(_read_only(m) for m in (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
))
PAULI_STACK = _read_only(np.stack(PAULI_TABLE))  # (sigma_1, sigma_2, sigma_3) as (3, 2, 2)


def _axis(j) -> int:
    """j if it names the axis 1, 2 or 3 (an integer, errors.is_integer)."""
    if not (is_integer(j) and j in (1, 2, 3)):
        raise DomainError(f"axis must be 1, 2 or 3, got {j!r}")
    return int(j)


def pauli(j: int) -> np.ndarray:
    """Pauli matrix sigma_j, axis j in {1, 2, 3}."""
    return PAULI_TABLE[_axis(j) - 1].copy()


def identity(dim: int = 4) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def _sigma_block(s: np.ndarray) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = s
    out[2:, 2:] = s
    return _read_only(out)


# SIGMA_BLOCKS[j - 1] is block-diag(sigma_j, sigma_j).
SIGMA_BLOCKS = tuple(_sigma_block(s) for s in PAULI_TABLE)


def sigma_block(j: int) -> np.ndarray:
    """4x4 promotion of sigma_j: block-diag(sigma_j, sigma_j)."""
    return SIGMA_BLOCKS[_axis(j) - 1].copy()


class Representation(Enum):
    PAULI_DIRAC = "pauli_dirac"
    STANDARD = "standard"


class GeneratorKind(Enum):
    ALPHA1 = 1
    ALPHA2 = 2
    ALPHA3 = 3
    BETA = 0


def _build_generator(kind: GeneratorKind, rep: Representation) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    if rep is Representation.PAULI_DIRAC:
        if kind is GeneratorKind.BETA:
            np.fill_diagonal(out, (1, 1, -1, -1))
        else:
            s = PAULI_TABLE[kind.value - 1]
            out[:2, 2:] = s
            out[2:, :2] = s
    else:
        if kind is GeneratorKind.BETA:
            out[:2, 2:] = np.eye(2)
            out[2:, :2] = np.eye(2)
        else:
            s = PAULI_TABLE[kind.value - 1]
            out[:2, :2] = s
            out[2:, 2:] = -s
    return out


# GENERATOR_STACK[rep]: (alpha_1, alpha_2, alpha_3, beta) of one set as a
# read-only (4, 4, 4) array.  Entry kind.value - 1 is that kind's generator:
# BETA, of value 0, is entry -1, the last.
GENERATOR_STACK = {
    rep: _read_only(np.stack([_build_generator(GeneratorKind(v), rep) for v in (1, 2, 3, 0)]))
    for rep in Representation
}
# The Pauli-Dirac set: the one the dynamics and the expectation potentials use.
DIRAC_STACK = GENERATOR_STACK[Representation.PAULI_DIRAC]


def dirac_generator(kind: GeneratorKind) -> np.ndarray:
    """One 4x4 generator of the Pauli-Dirac set, as a fresh writable copy."""
    if not isinstance(kind, GeneratorKind):
        raise DomainError(f"kind must be a GeneratorKind, got {kind!r}")
    return DIRAC_STACK[kind.value - 1].copy()


def generators(rep: Representation = Representation.PAULI_DIRAC):
    """The three vector generators followed by the scalar generator, as writable copies."""
    if not isinstance(rep, Representation):
        raise DomainError(f"rep must be a Representation, got {rep!r}")
    return tuple(GENERATOR_STACK[rep].copy())


def hamiltonians(p, c, mc2) -> np.ndarray:
    """C alpha_j p_j + m C^2 beta in the Pauli-Dirac set, for one momentum
    (3,) or for each row of a stack (..., 3); c and mc2 = m C^2 are scalars
    or arrays that broadcast against the stack's leading shape.  Returns
    (..., 4, 4).

    Every generator entry is 0, +-1 or +-i, so the products are exact and
    the sum over j adds disjoint real and imaginary parts: any order of
    summation, and so any stack size, gives the same bits.
    """
    cp = np.asarray(c, dtype=float)[..., None] * np.asarray(p, dtype=float)
    h = (cp @ DIRAC_STACK[:3].reshape(3, 16)).reshape(cp.shape[:-1] + (4, 4))
    return h + np.asarray(mc2, dtype=float)[..., None, None] * DIRAC_STACK[3]


def generator_labels(rep: Representation):
    if rep is Representation.PAULI_DIRAC:
        return ("alpha_1", "alpha_2", "alpha_3", "beta")
    return ("gamma_1", "gamma_2", "gamma_3", "gamma_o")


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    return m


def complex_product(a, b) -> np.ndarray:
    """a * b, elementwise, each part a sum of two separately rounded products.

    This is how a scalar complex product (Python's or a numpy scalar's)
    rounds.  numpy's complex array product may fuse a multiply-add and
    round differently, so a stack that must reproduce a per-sample product
    of two general complex scalars bit for bit uses this.
    """
    a, b = np.asarray(a), np.asarray(b)
    real = a.real * b.real - a.imag * b.imag
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _square_pair(a, b) -> tuple:
    """a and b as complex (..., n, n) stacks of one n whose leading axes broadcast."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    for m in (a, b):
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise DomainError(f"expected a square matrix, got shape {m.shape}")
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DomainError(f"dimension mismatch: {a.shape} vs {b.shape}") from None
    if a.shape[-1] != b.shape[-1]:
        raise DomainError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def commutator(a, b) -> np.ndarray:
    """a b - b a, for two matrices or, broadcast, for stacks (..., n, n):
    each pair of a stack gives the bits of its own call."""
    a, b = _square_pair(a, b)
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    """a b + b a, stacked as commutator."""
    a, b = _square_pair(a, b)
    return a @ b + b @ a


def _hermitian_gap(m: np.ndarray) -> np.ndarray:
    """max |m - m^dag| of each matrix of a (..., n, n) stack of nonzero size."""
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))


def mat_exp(a) -> np.ndarray:
    """Matrix exponential of a Hermitian or skew-Hermitian matrix, or of
    each matrix of a (..., n, n) stack.

    Both go through an eigendecomposition (exactly unitary output for skew
    input, up to rounding); any other matrix raises DomainError.  Each
    matrix of a stack is judged and diagonalised on its own, as it would
    be alone.
    """
    m = number_array(a, "matrix", "iufc")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if not m.size:
        return m.copy()
    stack = m.reshape((-1,) + m.shape[-2:])
    htol = 1e-12 * np.maximum(1.0, np.abs(stack).max(axis=(-2, -1)))
    gap, skew_gap = _hermitian_gap(stack), _hermitian_gap(-1j * stack)
    herm = (gap <= htol) & (gap <= skew_gap)  # one below htol is near both: take the nearer
    skew = ~herm & (skew_gap <= htol)
    if not (herm | skew).all():
        raise DomainError("mat_exp needs a Hermitian or skew-Hermitian matrix")
    out = np.empty_like(stack)
    for rows, gen, phase in ((herm, stack, np.exp), (skew, -1j * stack, lambda w: np.exp(1j * w))):
        if rows.any():
            w, v = np.linalg.eigh(gen[rows])
            out[rows] = (v * phase(w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return out.reshape(m.shape)


def taylor_exp_reference(a) -> np.ndarray:
    """Brute-force exponential: scale down, sum the Taylor series, square up.

    Independent of mat_exp's code paths; used as an oracle in tests and in
    the algebra suite.
    """
    m = _as_matrix(a)
    norm = float(np.linalg.norm(m, 2))
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30) / 0.25))))
    small = m / (2.0**squarings)
    acc = identity(m.shape[0])
    term = identity(m.shape[0])
    for k in range(1, 41):
        term = term @ small / k
        acc = acc + term
        if float(np.max(np.abs(term))) < 1e-20:
            break
    for _ in range(squarings):
        acc = acc @ acc
    return acc
