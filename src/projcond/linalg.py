"""Orthonormal frames, Haar sampling on the Stiefel manifold, and the
triangular (Bartlett-type) decompositions used by the clone density.

Conventions
-----------
A Stiefel point is a d x p matrix B with orthonormal columns.  Throughout,
``vectors`` denotes a k x d array holding d-vectors w_1, ..., w_k as rows,
all sharing the projection B'w_j = x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintViolatedError,
    DimensionMismatchError,
    InvalidDimensionError,
    RankDeficientError,
)
from .streams import draw_ahead

ORTHO_TOL = 1e-10
FRAME_TOL = 1e-8
SINGULAR_RATIO = 1e-10


def spectral_norm(sym: np.ndarray) -> float:
    """Operator norm of a symmetric matrix (largest |eigenvalue|)."""
    return float(np.max(np.abs(np.linalg.eigvalsh(sym))))


@dataclass(frozen=True)
class StiefelMatrix:
    """A d x p matrix with orthonormal columns, p < d."""

    d: int
    p: int
    entries: np.ndarray

    def __post_init__(self):
        if not (1 <= self.p < self.d):
            raise InvalidDimensionError(f"need 1 <= p < d, got p={self.p}, d={self.d}")
        if self.entries.shape != (self.d, self.p):
            raise DimensionMismatchError(
                f"entries shape {self.entries.shape} != ({self.d}, {self.p})"
            )
        gram = self.entries.T @ self.entries
        err = np.max(np.abs(gram - np.eye(self.p)))
        if err > ORTHO_TOL:
            raise ConstraintViolatedError(f"columns not orthonormal: max error {err:.3e}")


def as_stiefel(B) -> StiefelMatrix:
    if isinstance(B, StiefelMatrix):
        return B
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    return StiefelMatrix(d=B.shape[0], p=B.shape[1], entries=B)


def as_point(x, p: int) -> np.ndarray:
    """x as a float array of shape (p,): a projection B'z of a frame with p
    columns.  Raises DimensionMismatchError for any other shape."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (p,):
        raise DimensionMismatchError(f"x has shape {x.shape}, expected ({p},)")
    return x


def _qr_positive(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR factorization with the diagonal of R forced positive.

    The sign normalization makes the factorization (and hence Haar sampling
    and Gram-Schmidt) a deterministic function of the input bits.
    """
    q, r = np.linalg.qr(a)
    sign = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    sign = np.where(sign == 0.0, 1.0, sign)
    q = q * sign[..., None, :]
    r = r * sign[..., :, None]
    return q, r


def haar_stiefel(d: int, p: int, rng: np.random.Generator) -> StiefelMatrix:
    """Draw B uniformly (Haar) from the d x p Stiefel manifold.

    Orthonormalizing a standard Gaussian d x p matrix is Haar-distributed;
    the positive-diagonal sign convention keeps the draw reproducible.
    """
    if not (1 <= p < d):
        raise InvalidDimensionError(f"need 1 <= p < d, got p={p}, d={d}")
    return StiefelMatrix(d=d, p=p, entries=haar_stiefel_batch(d, p, 1, rng)[0])


def haar_stiefel_batch(d: int, p: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar draws as an (n, d, p) array (no per-draw validation).

    Unlike the StiefelMatrix type, p = d is allowed here (the full
    orthogonal group).
    """
    if not (1 <= p <= d):
        raise InvalidDimensionError(f"need 1 <= p <= d, got p={p}, d={d}")
    g = rng.standard_normal((n, d, p))
    q, _ = _qr_positive(g)
    return q


def clone_vectors(b: np.ndarray, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The clones W = Bx + (I - BB')V along one (d, p) frame ``b``.

    ``v`` holds Gaussian rows of length d, as a (k, d) array or an (n, k, d)
    stack; W has the shape of ``v`` and every row satisfies B'W_j = x.
    """
    return b @ x + v - (v @ b) @ b.T


def stiefel_from_constraints(vectors, x) -> StiefelMatrix:
    """Construct B in V_{d,p} with B'w_j = x for all supplied vectors.

    Such a B exists iff ||x||^2 iota'(N'N)^{-1} iota < 1; otherwise a
    ConstraintViolatedError is raised.  The construction is
    B = N(N'N)^{-1} iota x' + C (I_p - eta xx')^{1/2} with C an orthonormal
    basis of a p-dimensional subspace of span(N)^perp, taken from the QR
    factorization of the projector I - N(N'N)^{-1}N'.
    """
    w = np.asarray(vectors, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k, d = w.shape
    p = x.shape[0]
    if k + p > d:
        raise InvalidDimensionError(f"need k + p <= d, got k={k}, p={p}, d={d}")
    n_mat = w.T  # d x k
    sv = np.linalg.svd(n_mat, compute_uv=False)
    if sv[-1] < SINGULAR_RATIO * sv[0]:
        raise RankDeficientError("supplied vectors are numerically dependent")
    gram = n_mat.T @ n_mat
    v = np.linalg.solve(gram, np.ones(k))
    eta = float(np.ones(k) @ v)
    xsq = float(x @ x)
    if xsq * eta >= 1.0:
        raise ConstraintViolatedError(
            f"no compatible frame: ||x||^2 iota'(N'N)^-1 iota = {xsq * eta:.6f} >= 1"
        )
    # orthonormal basis of span(N)^perp, first p columns
    resid = np.eye(d) - n_mat @ np.linalg.solve(gram, n_mat.T)
    q, r = _qr_positive(resid)
    keep = np.abs(np.diagonal(r)) > 1e-9 * max(1.0, np.abs(r).max())
    c_mat = q[:, keep][:, :p]
    # symmetric square root of I_p - eta xx' (rank-one update)
    if xsq > 0:
        root = np.eye(p) + ((np.sqrt(1.0 - eta * xsq) - 1.0) / xsq) * np.outer(x, x)
    else:
        root = np.eye(p)
    b = n_mat @ np.outer(v, x) + c_mat @ root
    return StiefelMatrix(d=d, p=p, entries=b)


def _mgs_against(basis: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """One modified Gram-Schmidt sweep of v against an orthonormal list."""
    u = v.copy()
    for b in basis:
        u -= (b @ u) * b
    return u


def frame_lambda(B, x, vectors) -> np.ndarray:
    """The lower-triangular k x k Lambda_k of B, x, and vectors with B'w_j = x.

    beta_j is the Gram-Schmidt of w_j against [B, beta_1..beta_{j-1}] and
    c_j that of w_j against c_1..c_{j-1}; Lambda_k = (c_i'beta_j), so its
    first j rows depend only on w_1..w_j, and
    det(Lambda_k Lambda_k') = 1 - ||x||^2 iota'(N'N)^{-1} iota.
    """
    B = as_stiefel(B)
    d, p = B.d, B.p
    x = as_point(x, p)
    w = np.atleast_2d(np.asarray(vectors, dtype=float))
    k = w.shape[0]
    if w.shape[1] != d:
        raise DimensionMismatchError(f"vectors must be k x {d}")
    if k > d - p:
        raise InvalidDimensionError(f"need k <= d - p, got k={k}, d-p={d - p}")
    bmat = B.entries
    proj_err = np.max(np.abs(w @ bmat - x[None, :]))
    if proj_err > FRAME_TOL:
        raise ConstraintViolatedError(f"B'w_j != x, max error {proj_err:.3e}")
    sv = np.linalg.svd(np.concatenate([bmat, w.T], axis=1), compute_uv=False)
    if sv[-1] < SINGULAR_RATIO * sv[0]:
        raise RankDeficientError("columns of B and the w_j are numerically dependent")

    betas: list[np.ndarray] = []
    cs: list[np.ndarray] = []
    b_cols = [bmat[:, j] for j in range(p)]
    for j in range(k):
        u = _mgs_against(b_cols + betas, w[j])
        u = _mgs_against(b_cols + betas, u)  # second sweep for stability
        nu = np.linalg.norm(u)
        if nu < SINGULAR_RATIO * max(1.0, np.linalg.norm(w[j])):
            raise RankDeficientError(f"vector {j + 1} lies in the span of B and its predecessors")
        betas.append(u / nu)
        v = _mgs_against(cs, w[j])
        v = _mgs_against(cs, v)
        cs.append(v / np.linalg.norm(v))

    lam = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1):
            lam[i, j] = cs[i] @ betas[j]
    return lam


def triangular_statistics(
    d: int, p: int, k: int, x, n_reps: int, rng: np.random.Generator
) -> dict[str, np.ndarray]:
    """Simulate (B, W_1..W_k) and extract the triangular s- and t-entries.

    The upper-triangular s-block is the transposed Cholesky factor of
    (W_i'W_j - ||x||^2) and the t-block that of (W_i'W_j); both identities
    follow from the Gram-Schmidt recursions, which lets the whole batch run
    through vectorized Cholesky factorizations.  Both depend on W only through
    W_i'W_j, whose law is free of B: one Haar frame serves all n_reps samples.
    """
    x = as_point(x, p)
    xsq = float(x @ x)
    b = haar_stiefel_batch(d, p, 1, rng)[0]
    # the clones are drawn and reduced one draw_ahead block at a time, in the
    # order of one whole draw, so no (n_reps, k, d) stack is ever held
    def block_gram(v):
        w = clone_vectors(b, x, v)
        return np.einsum("nkd,nld->nkl", w, w)

    gram = np.concatenate([block_gram(v) for v in draw_ahead(
        lambda m: rng.standard_normal((m, k, d)), n_reps)])
    l_s = np.linalg.cholesky(gram - xsq)
    l_t = np.linalg.cholesky(gram)
    return {"s": np.transpose(l_s, (0, 2, 1)), "t": np.transpose(l_t, (0, 2, 1))}


@dataclass
class BartlettReport:
    """Distributional checks on the triangular coordinates of clone draws:
    the smallest KS p-value over the Bartlett laws, and the largest |correlation|
    between the s-entries."""

    min_pvalue: float
    max_abs_correlation: float


def bartlett_distribution_check(
    d: int, p: int, k: int, n_reps: int, rng: np.random.Generator
) -> BartlettReport:
    """Check the joint law of the triangular coordinates of W_1..W_k at the
    projection x = e_1.

    Off-diagonal s_ij are standard normal, the squared diagonals s_jj^2 are
    chi-square with d-p-j+1 degrees of freedom, all mutually independent;
    and t_11^2 - ||x||^2 is chi-square with d-p degrees of freedom.
    """
    from scipy import stats

    if k > d - p:
        raise InvalidDimensionError(f"need k <= d - p, got k={k}, d-p={d - p}")
    if n_reps < 1000:
        raise InvalidDimensionError("need n_reps >= 1000 for stable KS statistics")
    x = np.zeros(p)
    x[0] = 1.0

    tri = triangular_statistics(d, p, k, x, n_reps, rng)
    s, t = tri["s"], tri["t"]

    pvalues = []
    streams = []
    for j in range(k):
        for i in range(j):
            pvalues.append(stats.kstest(s[:, i, j], "norm").pvalue)
            streams.append(s[:, i, j])
    for j in range(k):
        pvalues.append(stats.kstest(s[:, j, j] ** 2, "chi2", args=(d - p - j,)).pvalue)
        streams.append(s[:, j, j])
    # ||x||^2 = 1
    pvalues.append(stats.kstest(t[:, 0, 0] ** 2 - 1.0, "chi2", args=(d - p,)).pvalue)

    corr = np.corrcoef(np.array(streams))
    np.fill_diagonal(corr, 0.0)
    return BartlettReport(
        min_pvalue=float(min(pvalues)), max_abs_correlation=float(np.max(np.abs(corr))),
    )
