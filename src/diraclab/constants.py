"""Scale parameters shared by every identity in the check catalogue."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# Inverse fine-structure constant (CODATA 2018).  The default charge is
# chosen so that charge^2 / (hbar * c) reproduces 1 / this value.
CODATA_INVERSE_ALPHA = 137.035999084


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, light speed, electron mass and charge magnitude.

    All four must be finite and strictly positive.  The charge carries no
    sign: formulas that need the electron's signed charge spell the sign out.
    """

    hbar: float = 1.0
    c: float = 1.0
    mass: float = 1.0
    charge: float = math.sqrt(1.0 / CODATA_INVERSE_ALPHA)

    def __post_init__(self):
        for name in ("hbar", "c", "mass", "charge"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise DomainError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value) or value <= 0.0:
                raise DomainError(f"{name} must be finite and > 0, got {value!r}")

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

