"""Per-point reference kernels: the scalar loops the stacked kernels replaced.

Each function evaluates one point or one state at a time with Python and
numpy scalars, as the package did before its kernels took stacks.  The
stacked kernels must give these results bit for bit; the module is kept
here, not imported from the package, so the comparison shares no code.
"""

from __future__ import annotations

import math

import numpy as np

from diraclab.matrices import GENERATOR_STACK, PAULI_TABLE


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
        base = (cyl.amplitude * cyl.weights[k] * np.exp(1j * cyl.angular_indices[k] * phi)
                * tfac)
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
    g = GENERATOR_STACK[state.rep]
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
