"""Scalar layer: q-dependent constants and special functions.

Everything downstream works at a fixed deformation parameter 0 < q < 1.
The derived constant lam = (q - 1/q)^-1 is negative on that range.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

Q_SAFE_RANGE = (0.05, 0.95)


@dataclass(frozen=True)
class QParams:
    """Deformation parameter q with its derived constant lam."""

    q: float
    lam: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie strictly between 0 and 1, got {self.q}")
        if not (Q_SAFE_RANGE[0] <= self.q <= Q_SAFE_RANGE[1]):
            warnings.warn(
                f"q={self.q} outside [{Q_SAFE_RANGE[0]}, {Q_SAFE_RANGE[1]}]: "
                "powers q^-x become badly conditioned",
                stacklevel=2,
            )
        object.__setattr__(self, "lam", 1.0 / (self.q - 1.0 / self.q))


def tau(p: QParams, x: float) -> float:
    """q^-x - q^x.  Total on [-inf, +inf]; strictly increasing, odd in x."""
    return p.q ** (-x) - p.q**x


def q_pochhammer(a: complex, base: float, r) -> complex:
    """prod_{k=0}^{r-1} (1 - base^k a); the empty product (r=0) is 1.

    The base is explicit because downstream formulas mix base q and base q^2.
    """
    if r < 0 or r % 1:   # inf % 1 is nan, so r = inf is refused too
        raise ValueError(f"r must be a nonnegative integer, got {r}")
    out = 1.0
    term = complex(a)
    for _ in range(int(r)):
        out *= 1.0 - term
        term *= base
    return out

