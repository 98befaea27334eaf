"""Scale parameters shared by every identity in the check catalogue."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import real

# Inverse fine-structure constant (CODATA 2018).  The default charge is
# chosen so that charge^2 / (hbar * c) reproduces 1 / this value.
CODATA_INVERSE_ALPHA = 137.035999084


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, light speed, electron mass and charge magnitude.

    All four must be finite reals, strictly positive, and are kept as Python
    floats.  The charge carries no sign: formulas that need the electron's
    signed charge spell the sign out.
    """

    hbar: float = 1.0
    c: float = 1.0
    mass: float = 1.0
    charge: float = math.sqrt(1.0 / CODATA_INVERSE_ALPHA)

    def __post_init__(self):
        for name in ("hbar", "c", "mass", "charge"):
            object.__setattr__(self, name, real(getattr(self, name), name, positive=True))

    @property
    def alpha(self) -> float:
        """Dimensionless ratio charge^2 / (hbar * c), never stored separately."""
        return self.charge**2 / (self.hbar * self.c)

    @property
    def mc2(self) -> float:
        return self.mass * self.c**2

    def to_dict(self) -> dict:
        return {
            "hbar": self.hbar,
            "c": self.c,
            "mass": self.mass,
            "charge": self.charge,
            "alpha": self.alpha,
        }

