"""Parameter context shared by all modules.

A :class:`KappaContext` validates the SLE parameter ``kappa`` once and
exposes every derived constant used across the package.  It is a plain
value, equal and hashed by kappa: expensive per-kappa artifacts are
``functools.cache`` functions of it, built once per kappa in a process.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KappaContext"]


@dataclass(frozen=True)
class KappaContext:
    """Validated kappa plus derived constants.

    Attributes:
        kappa: SLE parameter, must lie in (0, 8).
    """

    kappa: float

    def __post_init__(self):
        k = float(self.kappa)
        if not (0.0 < k < 8.0):
            raise ValueError(f"kappa must lie in (0, 8), got {self.kappa!r}")
        object.__setattr__(self, "kappa", k)

    # -- hypergeometric parameters (a, b; c) of the interaction function --
    @property
    def hyp_a(self) -> float:
        return 4.0 / self.kappa

    @property
    def hyp_b(self) -> float:
        return 1.0 - 4.0 / self.kappa

    @property
    def hyp_c(self) -> float:
        return 8.0 / self.kappa

    # -- exponents of the two-curve observables --
    @property
    def sle_b(self) -> float:
        """Boundary exponent b = (6 - kappa) / (2 kappa)."""
        return (6.0 - self.kappa) / (2.0 * self.kappa)

    @property
    def sle_c(self) -> float:
        """Central charge c = (3 kappa - 8)(6 - kappa) / (2 kappa)."""
        return (3.0 * self.kappa - 8.0) * (6.0 - self.kappa) / (2.0 * self.kappa)

    @property
    def alpha0(self) -> float:
        """Two-point decay exponent alpha0 = (12 - kappa)(kappa + 4) / (8 kappa)."""
        k = self.kappa
        return (12.0 - k) * (k + 4.0) / (8.0 * k)

    @property
    def beta0(self) -> float:
        """Secondary exponent beta0 = (2 + kappa/8) / (3 + kappa/8)."""
        k = self.kappa
        return (2.0 + k / 8.0) / (3.0 + k / 8.0)

    @property
    def weight_exponent(self) -> float:
        """Exponent 8/kappa - 1 of the invariant-density weight (1-x^2-y^2)."""
        return 8.0 / self.kappa - 1.0

    @property
    def lambda_gap(self) -> float:
        """Spectral gap |lambda_1| = 2 + kappa/8 of the transition semigroup."""
        return 2.0 + self.kappa / 8.0
