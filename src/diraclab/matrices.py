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

from .errors import DomainError, IllConditionedError
from .report import make_check, qualitative_check

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli(j: int) -> np.ndarray:
    """Pauli matrix sigma_j, axis j in {1, 2, 3}."""
    if j not in (1, 2, 3):
        raise DomainError(f"pauli axis must be 1, 2 or 3, got {j!r}")
    return _SIGMA[j - 1].copy()


def identity(dim: int = 4) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def sigma_block(j: int) -> np.ndarray:
    """4x4 promotion of sigma_j: block-diag(sigma_j, sigma_j)."""
    s = pauli(j)
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = s
    out[2:, 2:] = s
    return out


class Representation(Enum):
    PAULI_DIRAC = "pauli_dirac"
    STANDARD = "standard"


class GeneratorKind(Enum):
    ALPHA1 = 1
    ALPHA2 = 2
    ALPHA3 = 3
    BETA = 0


def dirac_generator(kind: GeneratorKind, rep: Representation = Representation.PAULI_DIRAC) -> np.ndarray:
    """One 4x4 generator of the chosen set.

    In the standard set ALPHA1..3 name the three sigma-block generators
    and BETA names the off-diagonal scalar generator.
    """
    if not isinstance(kind, GeneratorKind):
        raise DomainError(f"kind must be a GeneratorKind, got {kind!r}")
    if not isinstance(rep, Representation):
        raise DomainError(f"rep must be a Representation, got {rep!r}")
    out = np.zeros((4, 4), dtype=complex)
    if rep is Representation.PAULI_DIRAC:
        if kind is GeneratorKind.BETA:
            np.fill_diagonal(out, (1, 1, -1, -1))
        else:
            s = pauli(kind.value)
            out[:2, 2:] = s
            out[2:, :2] = s
    else:
        if kind is GeneratorKind.BETA:
            out[:2, 2:] = np.eye(2)
            out[2:, :2] = np.eye(2)
        else:
            s = pauli(kind.value)
            out[:2, :2] = s
            out[2:, 2:] = -s
    return out


def generators(rep: Representation = Representation.PAULI_DIRAC):
    """The three vector generators followed by the scalar generator."""
    return tuple(
        dirac_generator(kind, rep)
        for kind in (GeneratorKind.ALPHA1, GeneratorKind.ALPHA2, GeneratorKind.ALPHA3, GeneratorKind.BETA)
    )


def generator_labels(rep: Representation):
    if rep is Representation.PAULI_DIRAC:
        return ("alpha_1", "alpha_2", "alpha_3", "beta")
    return ("gamma_1", "gamma_2", "gamma_3", "gamma_o")


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    return m


def commutator(a, b) -> np.ndarray:
    """a b - b a."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise DomainError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    """a b + b a."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise DomainError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b + b @ a


def is_hermitian(a, tol: float = 1e-14) -> bool:
    m = _as_matrix(a)
    return float(np.max(np.abs(m - m.conj().T))) <= tol if m.size else True


def mat_inverse(a, cond_limit: float = 1e12) -> np.ndarray:
    """Inverse of a well-conditioned square matrix.

    Refuses (IllConditionedError, carrying the 2-norm condition estimate)
    anything with condition number above cond_limit.
    """
    m = _as_matrix(a)
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix has non-finite entries")
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > cond_limit:
        raise IllConditionedError(
            f"condition estimate {cond:.6e} exceeds limit {cond_limit:.1e}", cond
        )
    return np.linalg.inv(m)


_PADE13_B = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
# Largest 1-norm for which the [13/13] Pade approximant of exp is accurate
# to double-precision unit roundoff (Higham 2005).
_PADE13_THETA = 5.371920351148152


def _expm_pade13(m: np.ndarray) -> np.ndarray:
    """exp(m) by [13/13] Pade approximation with scaling and squaring.

    Higham 2005, SIAM J. Matrix Anal. Appl. 26:1179, at fixed degree 13:
    scale m by 2^-s so its 1-norm is at most theta_13, form
    r = (V - U)^-1 (V + U), then square r s times.  Shares no code with
    taylor_exp_reference, the oracle it is checked against.
    """
    norm = float(np.linalg.norm(m, 1))
    s = max(0, int(np.ceil(np.log2(norm / _PADE13_THETA)))) if norm > 0.0 else 0
    a = m / 2.0**s
    b = _PADE13_B
    eye = np.eye(m.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def mat_exp(a) -> np.ndarray:
    """Matrix exponential.

    Hermitian and skew-Hermitian inputs go through an eigendecomposition
    (exactly unitary output for skew input, up to rounding); everything
    else goes through degree-13 Pade scaling-and-squaring (Higham 2005).
    """
    m = _as_matrix(a)
    if not np.all(np.isfinite(m)):
        raise DomainError("matrix has non-finite entries")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    htol = 1e-12 * max(1.0, scale)
    if is_hermitian(m, htol):
        w, v = np.linalg.eigh(m)
        return (v * np.exp(w)) @ v.conj().T
    if is_hermitian(-1j * m, htol):
        w, v = np.linalg.eigh(-1j * m)
        return (v * np.exp(1j * w)) @ v.conj().T
    return _expm_pade13(m)


def clifford_check(rep: Representation, gens=None, tol: float = 1e-14):
    """Verify the full 4x4 anticommutator table of a generator set.

    Emits one check per ordered generator pair ({G_j, G_l} = 2 delta_jl I,
    16 relations) plus hermiticity and zero-trace checks per generator.
    gens overrides the built-in set; the override hook exists so a
    deliberately corrupted set can prove the checker detects damage.
    """
    if gens is None:
        gens = generators(rep)
    if len(gens) != 4:
        raise DomainError(f"expected 4 generators, got {len(gens)}")
    gens = [_as_matrix(g) for g in gens]
    labels = generator_labels(rep)
    eq = "a2" if rep is Representation.PAULI_DIRAC else "b2"
    eye2 = 2.0 * identity(4)
    zero = np.zeros((4, 4), dtype=complex)
    checks = []
    for j in range(4):
        for l in range(4):
            want = eye2 if j == l else zero
            got = anticommutator(gens[j], gens[l])
            checks.append(make_check(
                f"clifford.{rep.value}.anticomm.{labels[j]}.{labels[l]}",
                eq,
                claimed=want,
                computed=got,
                tol=tol,
            ))
    for j in range(4):
        m = gens[j]
        checks.append(make_check(
            f"clifford.{rep.value}.hermitian.{labels[j]}",
            eq,
            claimed=m.conj().T,
            computed=m,
            tol=tol,
            notes="generator equals its own conjugate transpose",
        ))
        checks.append(make_check(
            f"clifford.{rep.value}.traceless.{labels[j]}",
            eq,
            claimed=0.0,
            computed=complex(np.trace(m)),
            tol=tol,
        ))
    return checks


def generator_spectrum_checks(rep: Representation, tol: float = 1e-12):
    """Each generator must have eigenvalues {+1, +1, -1, -1}."""
    labels = generator_labels(rep)
    eq = "a2" if rep is Representation.PAULI_DIRAC else "b2"
    want = np.array([-1.0, -1.0, 1.0, 1.0])
    checks = []
    for g, label in zip(generators(rep), labels):
        got = np.sort(np.linalg.eigvalsh(g))
        checks.append(make_check(
            f"clifford.{rep.value}.eigenvalues.{label}",
            eq,
            claimed=want,
            computed=got,
            tol=tol,
            notes="doubly degenerate +1/-1 spectrum",
        ))
    return checks


def taylor_exp_reference(a, terms: int = 40) -> np.ndarray:
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
    for k in range(1, terms + 1):
        term = term @ small / k
        acc = acc + term
        if float(np.max(np.abs(term))) < 1e-20:
            break
    for _ in range(squarings):
        acc = acc @ acc
    return acc
