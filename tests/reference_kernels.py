"""Per-point reference kernels: the scalar loops the stacked kernels replaced.

Each function evaluates one point, one state, one constant set or one
matrix pair at a time with Python and numpy scalars, as the package did
before its kernels took stacks.  The stacked kernels must give these
results bit for bit; the module is kept here, not imported from the
package, so the comparison shares no code.
"""

from __future__ import annotations

import math

import numpy as np

from diraclab.dynamics import MomentumState
from diraclab.matrices import DIRAC_STACK, GENERATOR_STACK, PAULI_TABLE, SIGMA_BLOCKS


def plane_wave_sample(wave, x, y, z, t) -> tuple:
    """(psi, d_t, d_x, d_y, d_z) of a single-wave PlaneWave at one point."""
    hbar = wave.constants.hbar
    p = wave.p
    phase = np.exp(1j * (p[0] * x + p[1] * y + p[2] * z) / hbar - 1j * wave.omega * t)
    psi = wave.amplitude * phase
    return (psi, -1j * wave.omega * psi, 1j * p[0] / hbar * psi,
            1j * p[1] / hbar * psi, 1j * p[2] / hbar * psi)


def component_residual(wave, points) -> np.ndarray:
    k = wave.constants
    ih, ihc, mc2 = 1j * k.hbar, 1j * k.hbar * k.c, k.mass * k.c**2
    rows = []
    for (x, y, z, t) in points:
        psi, d_t, d_x, d_y, d_z = plane_wave_sample(wave, x, y, z, t)
        rows.append([
            ih * d_t[0] + ihc * (d_x[3] - 1j * d_y[3] + d_z[2]) - mc2 * psi[0],
            ih * d_t[1] + ihc * (d_x[2] + 1j * d_y[2] - d_z[3]) - mc2 * psi[1],
            ih * d_t[2] + ihc * (d_x[1] - 1j * d_y[1] + d_z[0]) + mc2 * psi[2],
            ih * d_t[3] + ihc * (d_x[0] + 1j * d_y[0] - d_z[1]) + mc2 * psi[3],
        ])
    return np.array(rows, dtype=complex)


def cylindrical_plane_wave_sample(wave, rho, phi, z, t) -> tuple:
    """(psi, d_t, d_rho, d_phi, d_z) of a single wave in cylindrical form."""
    psi, d_t, d_x, d_y, d_z = plane_wave_sample(
        wave, rho * math.cos(phi), rho * math.sin(phi), z, t)
    d_rho = math.cos(phi) * d_x + math.sin(phi) * d_y
    d_phi = -rho * math.sin(phi) * d_x + rho * math.cos(phi) * d_y
    return psi, d_t, d_rho, d_phi, d_z


def separable_sample(cyl, rho, phi, z, t) -> tuple:
    """(psi, d_t, d_rho, d_phi, d_z) of a CylindricalSpinor at one point."""
    profiles = {
        "unit": lambda r, zz: (1.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j),
        "gaussian": lambda r, zz: (lambda f: (f, -r * f, -zz * f))(
            np.exp(-0.5 * (r**2 + zz**2))),
        "zwave": lambda r, zz: (lambda f: (f, 0.0 + 0.0j, 1j * f))(np.exp(1j * zz)),
    }
    psi, d_rho, d_phi, d_z = (np.zeros(4, dtype=complex) for _ in range(4))
    tfac = np.exp(-1j * cyl.omega * t)
    for k in range(4):
        f, df_rho, df_z = profiles[cyl.profile_refs[k]](rho, z)
        base = cyl.weights[k] * np.exp(1j * cyl.angular_indices[k] * phi) * tfac
        psi[k] = base * f
        d_rho[k] = base * df_rho
        d_phi[k] = 1j * cyl.angular_indices[k] * psi[k]
        d_z[k] = base * df_z
    return psi, -1j * cyl.omega * psi, d_rho, d_phi, d_z


def cylindrical_residual(sample, constants, points) -> np.ndarray:
    """Cylindrical residual rows; sample(rho, phi, z, t) returns the tuple
    (psi, d_t, d_rho, d_phi, d_z) of one point."""
    k = constants
    ih, ihc, mc2 = 1j * k.hbar, 1j * k.hbar * k.c, k.mass * k.c**2
    rows = []
    for (rho, phi, z, t) in points:
        psi, d_t, d_rho, d_phi, d_z = sample(rho, phi, z, t)
        em, ep = np.exp(-1j * phi), np.exp(1j * phi)
        t1 = em * (d_rho[3] - 1j / rho * d_phi[3]) + d_z[2]
        t2 = ep * (d_rho[2] + 1j / rho * d_phi[2]) - d_z[3]
        t3 = em * (d_rho[1] - 1j / rho * d_phi[1]) + d_z[0]
        t4 = ep * (d_rho[0] + 1j / rho * d_phi[0]) - d_z[1]
        rows.append([ih * d_t[0] + ihc * t1 - mc2 * psi[0], ih * d_t[1] + ihc * t2 - mc2 * psi[1],
                     ih * d_t[2] + ihc * t3 + mc2 * psi[2], ih * d_t[3] + ihc * t4 + mc2 * psi[3]])
    return np.array(rows, dtype=complex)


def self_action_reduction(psi, state) -> tuple:
    """(norm_sq, overlap_sum, hd_expectation, coupled_value, reduced_value)."""
    k = state.constants
    g = DIRAC_STACK
    table = np.concatenate((g, g[3] @ g[:3]))
    mc2 = k.mass * k.c**2
    norm_sq = float(np.real(psi.conj() @ psi))
    vals = np.einsum("i,mi->m", psi.conj(), table @ psi).tolist()
    alpha_exp, beta_exp, beta_alpha_exp = vals[:3], vals[3], vals[4:]
    overlap_sum = sum(ae * bae for ae, bae in zip(alpha_exp, beta_alpha_exp))
    momentum_term = k.c * sum(pj * ae for pj, ae in zip(state.p.tolist(), alpha_exp))
    coupled = (-k.charge * norm_sq * (mc2 / -k.charge) * beta_exp
               + sum(k.charge * k.c * ae * (k.mass * k.c / k.charge) * bae
                     for ae, bae in zip(alpha_exp, beta_alpha_exp))
               + momentum_term)
    reduced = momentum_term + mc2 * beta_exp
    hd_exp = float(np.real(psi.conj() @ (state.h @ psi)))
    return norm_sq, complex(overlap_sum), hd_exp, complex(coupled), complex(reduced)


def rest_energy(theta, phi_s, constants) -> float:
    k = constants
    v = np.array([math.cos(theta / 2.0), np.exp(1j * phi_s) * math.sin(theta / 2.0)],
                 dtype=complex)
    s = np.array([complex(v.conj() @ (sigma @ v)).real for sigma in PAULI_TABLE])
    mu = (-k.charge * k.hbar / (2.0 * k.mass * k.c)) * s
    h = (2.0 * k.mass**2 * k.c**3 / (k.charge * k.hbar)) * s
    return float(-(mu @ h))


def eigenspinor(state, energy_sign, spin, axis=(0.0, 0.0)) -> np.ndarray:
    """The closed-form eigenspinor of one state, written out in full."""
    k = state.constants
    theta, phi_s = float(axis[0]), float(axis[1])
    n = (math.sin(theta) * math.cos(phi_s), math.sin(theta) * math.sin(phi_s), math.cos(theta))
    e, mc2 = state.energy, k.mc2
    qx, qy, qz = (state.p * (k.c / (e + mc2))).tolist()
    rest = 2.0 * mc2 / (e + mc2)
    qn = qx * n[0] + qy * n[1] + qz * n[2]
    along = 1.0 if spin == "up" else -1.0
    ax, ay, az = (along * (rest * ni + 2.0 * qn * qi) for ni, qi in zip(n, (qx, qy, qz)))
    r = math.hypot(ax, ay, az)
    ax, ay, az = ax / r, ay / r, az / r
    if az >= 0.0:
        f = 1.0 / math.sqrt(2.0 * (1.0 + az))
        c0, c1 = (1.0 + az) * f, complex(ax, ay) * f
    else:
        f = 1.0 / math.sqrt(2.0 * (1.0 - az))
        c0, c1 = complex(ax, -ay) * f, (1.0 - az) * f
    s0 = qz * c0 + complex(qx, -qy) * c1
    s1 = complex(qx, qy) * c0 - qz * c1
    u = [c0, c1, s0, s1] if energy_sign == 1 else [-s0, -s1, c0, c1]
    norm = math.sqrt(sum(z.real * z.real + z.imag * z.imag for z in u))
    u = [z / norm for z in u]
    for comp in u:
        if abs(comp) > 1e-12:
            rot = comp.conjugate() / abs(comp)
            u = [z * rot for z in u]
            break
    return np.array(u, dtype=complex)


def random_eigen_samples(rng, count, constants) -> tuple:
    """The fields suite's eigenspinor samples, one single-momentum state each."""
    p = rng.uniform(-2.0, 2.0, (count, 3))
    signs, ups = rng.integers(0, 2, (2, count)).tolist()
    cos_theta, phi = rng.uniform([-1.0, -math.pi], [1.0, math.pi], (count, 2)).T
    theta = np.arccos(cos_theta)
    us = [eigenspinor(MomentumState(p=row, constants=constants), 1 if sign else -1,
                      "up" if up else "down", axis)
          for row, sign, up, axis in zip(p, signs, ups, zip(theta.tolist(), phi.tolist()))]
    return np.array(us), p


def self_field_routes(sets, rep) -> tuple:
    """(expected H, commutator E, commutator H, substitution E, substitution H)
    of each constant set, each formed set by set: arrays (sets, 3, 4, 4)."""
    a = GENERATOR_STACK[rep][:3]
    eps = np.zeros((3, 3, 3))
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, l], eps[i, l, j] = 1.0, -1.0
    curl = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
    rows = []
    for k in sets:
        expected = np.stack([2.0 * k.mass**2 * k.c**3 / (k.charge * k.hbar) * SIGMA_BLOCKS[ax]
                             for ax in range(3)])
        mc = k.mass * k.c
        p, p0 = np.stack([mc * a[j] for j in range(3)]), mc * np.eye(4, dtype=complex)
        factor = k.c / (1j * k.hbar * k.charge)
        pj, pl = p[[1, 2, 0]], p[[2, 0, 1]]
        comm_e, comm_h = factor * (p @ p0 - p0 @ p), factor * (pj @ pl - pl @ pj)
        grad_factor = 1j * (k.mass * k.c / k.hbar)
        pot_factor = k.mass * k.c**2 / (-k.charge)
        j, kk, ll = (list(axis) for axis in zip(*curl))
        coef = (eps[j, kk, ll] * grad_factor)[:, None, None]
        terms = (coef * a[kk]) @ (pot_factor * a[ll])
        sub_h = np.zeros((3, 4, 4), dtype=complex) + terms[0::2] + terms[1::2]
        sub_e = grad_factor * (pot_factor * a) - grad_factor * (a * pot_factor)
        rows.append((expected, comm_e, comm_h, sub_e, sub_h))
    return tuple(np.array(column) for column in zip(*rows))


def pair_table(gens, anti: bool) -> np.ndarray:
    """The anticommutator (anti) or commutator of every pair (j, l) of a
    (m, n, n) stack, one pair at a time: (m, m, n, n)."""
    return np.array([[a @ b + b @ a if anti else a @ b - b @ a for b in gens] for a in gens])


def same_bits(a, b) -> bool:
    """Whether two float or complex arrays hold the same words, signed zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def stacked_path_mismatches(seed: int) -> list:
    """The stacked paths of the seeded suites whose bits differ, at one run
    seed, from the loops above: each eigenspinor family against one state
    per row, each self-field route against one constant set at a time."""
    from diraclab.constants import PhysicalConstants
    from diraclab.fields import expected_self_h, self_fields_commutator, self_fields_matrix_maxwell
    from diraclab.matrices import Representation
    from diraclab import suites

    k, bad = PhysicalConstants(), []
    for family, count in (("vector_eigenspinors", 20), ("reduction_eigenspinors", 100)):
        us, state = suites.random_eigen_samples(suites._stream(seed, "fields", family), count, k)
        want, p = random_eigen_samples(suites._stream(seed, "fields", family), count, k)
        if not (same_bits(us, want) and same_bits(state.p, p)):
            bad.append(family)
    rng = suites._stream(seed, "states", "eigen_waves")  # the states suite's draws, in its order
    momenta, ups = np.repeat(rng.uniform(-2.0, 2.0, (4, 3)), 2, axis=0), rng.integers(0, 2, 8)
    stack, signs = MomentumState(p=momenta, constants=k), (1, -1) * 4
    rows = [MomentumState(p=p, constants=k) for p in momenta]
    want = [eigenspinor(s, sign, "up" if up else "down") for s, sign, up in zip(rows, signs, ups)]
    if not (same_bits(suites.eigenspinor(stack, signs, np.where(ups, "up", "down")),
                      np.array(want))
            and stack.energy.tolist() == [s.energy for s in rows]):
        bad.append("eigen_waves")
    routes = suites._stream(seed, "fields", "route_constants").uniform(
        [0.9, 0.8, 0.8, 0.9], [1.5, 1.2, 1.2, 1.5], (7, 4))
    sets = [k] + [PhysicalConstants(*row) for row in routes.tolist()]
    for rep in Representation:
        comm, sub = self_fields_commutator(sets, rep), self_fields_matrix_maxwell(sets, rep)
        got = (np.stack([expected_self_h(sets, ax) for ax in (1, 2, 3)], axis=1),
               comm.e, comm.h, sub.e, sub.h)
        for name, g, w in zip(("expected_h", "commutator_e", "commutator_h", "substitution_e",
                               "substitution_h"), got, self_field_routes(sets, rep)):
            if not same_bits(g, w):
                bad.append(f"{rep.value}.{name}")
    return bad
