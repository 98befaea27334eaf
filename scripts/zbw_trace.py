#!/usr/bin/env python3
# Print a short trembling-motion table for an equal-mixing state and compare
# the FFT-fitted frequency with 2 E_p / hbar.

import pathlib
import sys

import numpy as np

try:
    from diraclab.constants import PhysicalConstants
except ImportError:
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    from diraclab.constants import PhysicalConstants

from diraclab.dynamics import (
    MomentumState,
    fitted_zbw_frequency,
    max_mixing_state,
    zbw_trajectory,
)

p = np.array([0.8, 0.0, 0.3])
if len(sys.argv) == 4:
    p = np.array([float(v) for v in sys.argv[1:4]])

state = MomentumState(p=p, constants=PhysicalConstants())
psi = max_mixing_state(state)
omega = 2.0 * state.energy / state.constants.hbar
period = 2.0 * np.pi / omega

traj = zbw_trajectory(state, psi, np.linspace(period / 16, 2 * period, 12))
ax = int(np.argmax(traj.zbw.max(axis=0) - traj.zbw.min(axis=0)))  # most active component
name = "xyz"[ax]

print(f"p = {p}, E_p = {state.energy:.12g}, expected omega = {omega:.12g}")
print(f"{'t':>10s} {'drift_' + name:>12s} {'zbw_' + name:>12s} {'total_' + name:>12s}")
for i, t in enumerate(traj.t):
    print(f"{t:10.4f} {traj.drift[i, ax]:12.3e} {traj.zbw[i, ax]:12.3e} {traj.total[i, ax]:12.3e}")

fitted = fitted_zbw_frequency(state, psi)
print(f"fitted omega = {fitted:.12g}  (off by {abs(fitted - omega) / omega:.2e} relative)")
