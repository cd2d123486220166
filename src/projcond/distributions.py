"""Synthetic standardized laws with exact densities and analytic moments.

Every implemented family has E Z = 0 and E ZZ' = I_d, a bounded Lebesgue
density, and closed-form third/fourth marginal moments, so downstream
moment-condition checks have exact oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidDimensionError

SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)
LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

MARGINALS = ("uniform", "exponential", "triangular")
FAMILIES = ("gaussian", "iid-marginal")


@dataclass(frozen=True)
class DistributionSpec:
    """A synthetic law for the standardized vector Z."""

    family: str
    d: int
    marginal: str | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidDimensionError(f"unknown family '{self.family}'")
        if self.family == "iid-marginal" and self.marginal not in MARGINALS:
            raise InvalidDimensionError(f"unknown marginal '{self.marginal}'")
        if self.d < 1:
            raise InvalidDimensionError("need d >= 1")

    @property
    def label(self) -> str:
        return self.family if self.family == "gaussian" else f"iid-{self.marginal}"

    @staticmethod
    def from_json(obj: dict) -> "DistributionSpec":
        return DistributionSpec(
            family=obj["family"], d=int(obj["d"]), marginal=obj.get("marginal")
        )


def gaussian(d: int) -> DistributionSpec:
    return DistributionSpec(family="gaussian", d=d)


def iid_marginal(marginal: str, d: int) -> DistributionSpec:
    return DistributionSpec(family="iid-marginal", d=d, marginal=marginal)


@dataclass(frozen=True)
class MomentOracle:
    """Exact marginal moments: m3 = E Z_1^3, m4 = E Z_1^4, sup of the density."""

    m3: float
    m4: float
    density_sup: float


_ORACLES = {
    "gaussian": MomentOracle(m3=0.0, m4=3.0, density_sup=1.0 / math.sqrt(2 * math.pi)),
    # uniform on [-sqrt3, sqrt3]: m4 = integral t^4/(2 sqrt3) = 9/5
    "uniform": MomentOracle(m3=0.0, m4=9.0 / 5.0, density_sup=1.0 / (2.0 * SQRT3)),
    # exponential(1) shifted by -1: central moments mu3 = 2, mu4 = 9
    "exponential": MomentOracle(m3=2.0, m4=9.0, density_sup=1.0),
    # symmetric triangular on [-sqrt6, sqrt6]: m4 = a^4/15 = 12/5
    "triangular": MomentOracle(m3=0.0, m4=12.0 / 5.0, density_sup=1.0 / SQRT6),
}


def moment_oracle(spec: DistributionSpec) -> MomentOracle:
    key = "gaussian" if spec.family == "gaussian" else spec.marginal
    return _ORACLES[key]


def sample_z(spec: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the spec as an (n, d) array."""
    if n < 1:
        raise InvalidDimensionError("need n >= 1")
    d = spec.d
    if spec.family == "gaussian":
        return rng.standard_normal((n, d))
    if spec.marginal == "uniform":
        return rng.uniform(-SQRT3, SQRT3, size=(n, d))
    if spec.marginal == "exponential":
        return rng.exponential(1.0, size=(n, d)) - 1.0
    return rng.triangular(-SQRT6, 0.0, SQRT6, size=(n, d))


def _marginal_log_density(marginal: str, z: np.ndarray) -> np.ndarray:
    out = np.full(z.shape, -np.inf)
    if marginal == "uniform":
        inside = np.abs(z) <= SQRT3
        out[inside] = -math.log(2.0 * SQRT3)
    elif marginal == "exponential":
        inside = z >= -1.0
        out[inside] = -(z[inside] + 1.0)
    else:  # triangular
        inside = np.abs(z) <= SQRT6
        val = (SQRT6 - np.abs(z[inside])) / 6.0
        with np.errstate(divide="ignore"):
            out[inside] = np.log(val)
    return out


def log_density_batch(spec: DistributionSpec, z: np.ndarray) -> np.ndarray:
    """Exact log-density of each row of z; -inf off the support."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    if z.shape[1] != spec.d:
        raise DimensionMismatchError(f"points must have dimension {spec.d}")
    if spec.family == "gaussian":
        return -0.5 * np.sum(z * z, axis=1) - spec.d * LOG_SQRT_2PI
    return np.sum(_marginal_log_density(spec.marginal, z), axis=1)
