"""Sample estimation of the moment-condition constants, with analytic
oracles for the implemented laws.

All estimators draw non-overlapping blocks of k fresh vectors per Gram
matrix, so block means are independent and the reported standard errors are
valid.  Monomials in the entries of S_k - I_k are specified with 1-based
vertex labels matching the usual notation, e.g. ((1, 2), (1, 2)) is the
squared (1,2) entry.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, moment_oracle, sample_z
from .errors import InvalidDimensionError, InvalidStructureError
from .streams import batch_mean_se

DEFAULT_EPSILON = 0.5
DEFAULT_XI = 0.5
_BATCH = 4096


@dataclass(frozen=True)
class MomentConditionConstants:
    """Constants entering the deviation bounds; ranges are enforced."""

    epsilon: float = DEFAULT_EPSILON
    xi: float = DEFAULT_XI
    D: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 0.5:
            raise InvalidDimensionError("epsilon must lie in [0, 1/2]")
        if not 0.0 < self.xi <= 0.5:
            raise InvalidDimensionError("xi must lie in (0, 1/2]")
        if self.D < 1.0:
            raise InvalidDimensionError("D must be >= 1")


@dataclass(frozen=True)
class MonomialSpec:
    """A monomial in the entries of S_k - I_k, as a multiset of index pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = tuple(sorted((min(a, b), max(a, b)) for a, b in self.pairs))
        object.__setattr__(self, "pairs", norm)
        if any(a < 1 for a, _ in norm):
            raise InvalidStructureError("vertex labels are 1-based")

    @property
    def degree(self) -> int:
        return len(self.pairs)

    @property
    def max_vertex(self) -> int:
        return max((v for p in self.pairs for v in p), default=1)

    def b1b_target(self) -> float | None:
        """1 for purely quadratic above-diagonal monomials, 0 when a linear
        factor is present, None otherwise."""
        mult = Counter(self.pairs)
        if self.degree > 0 and all(
            m == 2 and a != b for (a, b), m in mult.items()
        ):
            return 1.0
        if any(m == 1 for m in mult.values()):
            return 0.0
        return None


def _deviations(spec: DistributionSpec, k: int, nb: int, rng: np.random.Generator) -> np.ndarray:
    """nb deviations S_k - I_k, each from k fresh vectors of the law's d:
    shape (nb, k, k).

    The vectors are drawn and reduced in blocks of _BATCH // 8 deviations,
    which read the stream row by row and give the bits of one whole draw.
    """
    block, d = _BATCH // 8, spec.d

    def grams(m):
        z = sample_z(spec, m * k, rng).reshape(m, k, d)
        return np.einsum("nkd,nld->nkl", z, z)

    return np.concatenate([grams(min(block, nb - a)) for a in range(0, nb, block)]) / d - np.eye(k)


def estimate_b1a(
    spec: DistributionSpec, k: int, n_blocks: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Estimate alpha: the mean of ||sqrt(d)(S_k - I_k)||^(2k+1+eps) at
    eps = DEFAULT_EPSILON.

    Spectral norms are taken; each block uses k fresh vectors.
    """
    if n_blocks < 1000:
        raise InvalidDimensionError("need n_blocks >= 10^3")
    d, power = spec.d, 2 * k + 1 + DEFAULT_EPSILON

    def draw(nb):
        dev = _deviations(spec, k, nb, rng)
        return np.max(np.abs(np.linalg.eigvalsh(math.sqrt(d) * dev)), axis=1) ** power

    return batch_mean_se(n_blocks, _BATCH, draw)


def _monomial_values(dev: np.ndarray, G: MonomialSpec) -> np.ndarray:
    vals = np.ones(dev.shape[0])
    for a, b in G.pairs:
        vals = vals * dev[:, a - 1, b - 1]
    return vals


def estimate_monomial_mean(
    spec: DistributionSpec, G: MonomialSpec, n_blocks: int, rng: np.random.Generator
):
    """Scaled monomial mean d^(g/2) E[G(S_k - I_k)] with standard error.

    k is G's largest vertex label.  Returns (estimate, se, target) where
    target is the exact comparison value (1 for purely quadratic
    above-diagonal monomials, 0 when a linear factor is present, None
    otherwise).
    """
    k = G.max_vertex
    if G.degree > 2 * k:
        raise InvalidStructureError(f"monomial degree {G.degree} exceeds 2k = {2 * k}")
    scale = spec.d ** (G.degree / 2.0)
    mean, se = batch_mean_se(
        n_blocks, _BATCH, lambda nb: scale * _monomial_values(_deviations(spec, k, nb, rng), G)
    )
    return mean, se, G.b1b_target()


@dataclass
class Prop5Cases:
    """The three exactly-computable comparison quantities.

    case_a = Var[Z'Z]/d - 2, case_b = E[(Z_1'Z_2)^3]/d,
    case_c = Var[(Z_1'Z_2)^2]/d^2 - 2(1 + 3/d); each with standard error.
    For i.i.d.-marginal laws the analytic values are (m4 - 3, m3^2,
    (m4^2 - 9)/d); for the Gaussian all three vanish.
    """

    case_a: tuple[float, float]
    case_b: tuple[float, float]
    case_c: tuple[float, float]
    analytic: tuple[float, float, float]


def prop5_special_cases(spec: DistributionSpec, n: int, rng: np.random.Generator) -> Prop5Cases:
    """Monte Carlo estimates of the three special-case quantities.

    Uses E||Z||^2 = d and E(Z_1'Z_2)^2 = d exactly, so each case is a plain
    mean of i.i.d. per-draw statistics.  Each batch's z2 follows all of its
    z1 in the stream, so z1 is drawn whole and z2 in blocks of _BATCH rows.
    """
    if n < 10000:
        raise InvalidDimensionError("need n >= 10^4")
    d = spec.d

    def draw(nb):
        z1 = sample_z(spec, nb, rng)
        q = np.einsum("nd,nd->n", z1, z1)
        t = np.empty(nb)
        for a in range(0, nb, _BATCH):
            b = min(a + _BATCH, nb)
            t[a:b] = np.einsum("nd,nd->n", z1[a:b], sample_z(spec, b - a, rng))
        return np.stack(
            [
                (q - d) ** 2 / d - 2.0,
                t**3 / d,
                (t**2 - d) ** 2 / d**2 - 2.0 * (1.0 + 3.0 / d),
            ]
        )

    est = list(zip(*batch_mean_se(n, _BATCH * 8, draw)))
    om = moment_oracle(spec)
    analytic = (om.m4 - 3.0, om.m3**2, (om.m4**2 - 9.0) / d)
    return Prop5Cases(case_a=est[0], case_b=est[1], case_c=est[2], analytic=analytic)
