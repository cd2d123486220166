"""Rotational clones and their exact joint density ratio.

Clones are W_j = Bx + (I - BB')V_j for a Haar-distributed frame B and i.i.d.
standard Gaussian V_j: k vectors sharing the same projection x.  Their joint
density relative to i.i.d. standard Gaussians depends on the observed vectors
only through the scaled Gram matrix S_k and ||x||, which this module
evaluates entirely in the log domain.  A common rotation of B and the V_j
leaves W_i'W_j = ||x||^2 + V_i'(I - BB')V_j unchanged, so its law is the same
for every fixed B, and the moment identities draw one Haar frame per call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidChainError, InvalidDimensionError
from .linalg import clone_vectors, haar_stiefel_batch
from .streams import DRAW_BLOCK, batch_mean_se, draw_ahead

_CHAIN_BATCH = 20000  # samples per batch of clones in the chain identities


@dataclass(frozen=True)
class DensityRatioValue:
    """log of the clone density ratio; -inf when outside the support."""

    log_ratio: float
    in_domain: bool


def _mutation_factor() -> float:
    # test hook: lets the verification harness check that a corrupted
    # normalizing constant is caught by the acceptance suite
    if os.environ.get("PROJCOND_MUTATE", "") == "eta":
        return 1.05
    return 1.0


def log_eta(d: int, p: int, k: int) -> float:
    """log of the normalizing constant eta(d, p, k)."""
    from scipy.special import gammaln

    if not 1 <= k <= d - p:
        raise InvalidDimensionError(f"need 1 <= k <= d - p, got k={k}, d-p={d - p}")
    i = np.arange(1, k + 1)
    val = -0.5 * k * p * math.log(d / 2.0) + float(
        np.sum(gammaln((d - i + 1) / 2.0) - gammaln((d - p - i + 1) / 2.0))
    )
    return val * _mutation_factor()


def eta_norm_const(d: int, p: int, k: int) -> float:
    return math.exp(log_eta(d, p, k))


def eta_norm_const_bound(d: int, p: int, k: int) -> float:
    """Closed-form upper bound on eta(d, p, k); valid for k < d - p - 1."""
    if not 1 <= k < d - p - 1:
        raise InvalidDimensionError(f"bound needs 1 <= k < d - p - 1, got k={k}")
    return math.exp((p**2 / d) * (1.0 - (p + k - 1) / d) ** (-1) * k**2 / 2.0)


def _log_density_ratio_grams(
    x_norm_sq: float, grams: np.ndarray, d: int, p: int
) -> np.ndarray:
    """Log density ratio over an (n, k, k) stack of scaled Gram matrices S_k.

    In the support (S_k invertible with ||x||^2 iota'S_k^{-1} iota < d) the
    log-ratio is

        log eta(d,p,k) - (p/2) logdet S_k
        + ((d-p-k-1)/2) log(1 - ||x||^2 iota'S_k^{-1} iota / d)
        + k ||x||^2 / 2,

    and -inf otherwise.  The Gram solve replaces any explicit inverse.
    """
    n, k, _ = grams.shape
    if not 1 <= k <= d - p:
        raise InvalidDimensionError(f"need 1 <= k <= d - p, got k={k}, d-p={d - p}")
    sign, logdet = np.linalg.slogdet(grams)
    out = np.full(n, -np.inf)
    ok = (sign > 0) & np.isfinite(logdet)
    if np.any(ok):
        rhs = np.ones((int(ok.sum()), k, 1))
        sol = np.linalg.solve(grams[ok], rhs)[..., 0]
        quad = x_norm_sq * np.sum(sol, axis=1) / d
        good = np.isfinite(quad) & (quad < 1.0)
        vals = (
            log_eta(d, p, k)
            - 0.5 * p * logdet[ok]
            + 0.5 * (d - p - k - 1) * np.log1p(-np.where(good, quad, 0.0))
            + 0.5 * k * x_norm_sq
        )
        out[np.flatnonzero(ok)] = np.where(good, vals, -np.inf)
    return out


def log_density_ratio_gram(
    x_norm_sq: float, gram: np.ndarray, d: int, p: int
) -> DensityRatioValue:
    """Density ratio from one scaled Gram matrix S_k = (w_i'w_j / d)."""
    s = np.asarray(gram, dtype=float)
    val = float(_log_density_ratio_grams(x_norm_sq, s[None], d, p)[0])
    return DensityRatioValue(log_ratio=val, in_domain=val > -np.inf)


def log_density_ratio_batch(
    x_norm_sq: float, vectors: np.ndarray, p: int
) -> np.ndarray:
    """Vectorized log density ratio over a (n, k, d) batch of vectors."""
    d = vectors.shape[2]
    gram = np.einsum("nkd,nld->nkl", vectors, vectors) / d
    return _log_density_ratio_grams(x_norm_sq, gram, d, p)


def validate_chain(chain, k: int):
    """The chain rule of gaussian_chain_identity: the keyword "alternating"
    with k even, or indices j_0 = 0, j_1, ..., j_m <= k with
    j_(i-1) + 1 < j_i.  Returns the keyword or the tuple of indices."""
    if isinstance(chain, str):
        if chain != "alternating":
            raise InvalidChainError(f"unknown chain keyword '{chain}'")
        if k % 2 != 0:
            raise InvalidChainError("the alternating-sum identity needs k even")
        return chain
    idx = tuple(int(j) for j in chain)
    if len(idx) < 1 or idx[0] != 0:
        raise InvalidChainError("chain indices must start with j_0 = 0")
    for a, b in zip(idx, idx[1:]):
        if not a + 1 < b:
            raise InvalidChainError(f"need j_(i-1) + 1 < j_i, got {a} then {b}")
    if idx[-1] > k:
        raise InvalidChainError(f"j_m = {idx[-1]} exceeds k = {k}")
    return idx


def _product_of_inner_products(w: np.ndarray, pairs) -> np.ndarray:
    """Per sample, the product of W_a'W_b over (a, b) in pairs (1 if none)."""
    stat = np.ones(w.shape[0])
    for a, b in pairs:
        stat = stat * np.einsum("nd,nd->n", w[:, a], w[:, b])
    return stat


def gaussian_chain_identity(
    x, d: int, p: int, k: int, chain, n: int, rng: np.random.Generator,
):
    """Monte Carlo check of the exact clone-moment identities.

    For ``chain`` a tuple (0, j_1, ..., j_m), estimates
    E[prod of chain inner products of W] - ||x||^(2(j_m - m)), which is
    exactly zero.  For ``chain = "alternating"`` estimates the signed
    binomial combination of cycle statistics minus (1 - ||x||^2)^k, also
    exactly zero (k even).  Returns (estimate, standard error).  Both depend
    on W only through W_i'W_j, whose law is free of B: one Haar frame serves.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != p:
        raise DimensionMismatchError(f"x has length {x.shape[0]}, expected {p}")
    if k > d - p:
        raise InvalidDimensionError(f"need k <= d - p, got k={k}, d-p={d - p}")
    xsq = float(x @ x)
    chain = validate_chain(chain, k)
    alternating = isinstance(chain, str)
    if alternating:
        target = (1.0 - xsq) ** k
        # the cycles W_1'W_2 ... W_j'W_1 (the squared norm for j = 1), each
        # with its signed binomial coefficient
        cycles = [((-1.0) ** (k - j) * math.comb(k, j), [(i, (i + 1) % j) for i in range(j)])
                  for j in range(1, k + 1)]
    else:
        target = xsq ** (chain[-1] - (len(chain) - 1))
        # each segment (lo, hi] contributes W_{lo+1}'W_{lo+2} ... W_{hi-1}'W_hi
        pairs = [(j, j + 1) for lo, hi in zip(chain, chain[1:]) for j in range(lo, hi - 1)]

    b = haar_stiefel_batch(d, p, 1, rng)[0]

    def statistic(v):
        w = clone_vectors(b, x, v)
        if not alternating:
            return _product_of_inner_products(w, pairs)
        stat = np.zeros(v.shape[0])
        for coef, cycle in cycles:
            stat += coef * (_product_of_inner_products(w, cycle) - d + p - 1.0)
        return stat

    # each batch's clones are drawn and reduced DRAW_BLOCK samples at a time,
    # so only two blocks of Gaussians are held at once
    def draw(nb):
        return np.concatenate([statistic(v) for v in draw_ahead(
            lambda m: rng.standard_normal((m, k, d)), nb, DRAW_BLOCK)])

    mean, se = batch_mean_se(n, _CHAIN_BATCH, draw)
    return mean - target, se
