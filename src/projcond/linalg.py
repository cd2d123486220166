"""Orthonormal frames, Haar sampling on the Stiefel manifold, and the
triangular (Bartlett-type) decompositions used by the clone density.

Conventions
-----------
A Stiefel point is a d x p matrix B with orthonormal columns.  Throughout,
``vectors`` denotes a k x d array holding d-vectors w_1, ..., w_k as rows,
all sharing the projection B'w_j = x.  Frames carry a double index set: the
first p columns are the B-block (signed indices 1-p, ..., 0) and the
remaining d-p columns are the Gram-Schmidt complements (indices 1, ..., d-p).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConstraintViolatedError,
    DimensionMismatchError,
    InvalidDimensionError,
    RankDeficientError,
)

ORTHO_TOL = 1e-10
FRAME_TOL = 1e-8
SINGULAR_RATIO = 1e-10
_REPS_BLOCK = 10000   # samples per block of triangular_statistics


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


@dataclass
class GramSchmidtFrame:
    """Triangular double-frame decomposition of (B, w_1..w_k, x).

    ``betas`` is the orthogonal d x d matrix [B, beta_1, ..., beta_{d-p}]
    (Gram-Schmidt of the w_j against B), ``cs`` the orthogonal d x d matrix
    [C, c_1, ..., c_{d-p}] (Gram-Schmidt of the w_j alone, completed on the
    orthocomplement).  S = betas'M and T = cs'M for M = [B, N_full], stored
    with the zero patterns of the triangular structure imposed exactly.
    """

    d: int
    p: int
    k: int
    x: np.ndarray
    betas: np.ndarray
    cs: np.ndarray
    S: np.ndarray
    T: np.ndarray
    Lambda_k: np.ndarray
    kappa_sq: np.ndarray
    zeta: np.ndarray
    det_lambda: float = field(init=False)

    def __post_init__(self):
        self.det_lambda = float(np.prod(np.diagonal(self.Lambda_k)) ** 2)


def _mgs_against(basis: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """One modified Gram-Schmidt sweep of v against an orthonormal list."""
    u = v.copy()
    for b in basis:
        u -= (b @ u) * b
    return u


def frame_decompose(B, x, vectors) -> GramSchmidtFrame:
    """Build the triangular frames for B, x, and vectors with B'w_j = x.

    The j-th columns of S, T and Lambda depend only on w_1..w_j and x; the
    supplied k vectors are deterministically completed to d-p so that the
    returned frames are full orthogonal matrices.
    """
    B = as_stiefel(B)
    d, p = B.d, B.p
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != p:
        raise DimensionMismatchError(f"x has length {x.shape[0]}, expected {p}")
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
    combined = np.concatenate([bmat, w.T], axis=1)
    sv = np.linalg.svd(combined, compute_uv=False)
    if sv[-1] < SINGULAR_RATIO * sv[0]:
        raise RankDeficientError("columns of B and the w_j are numerically dependent")

    # deterministic completion: w_{k+j} = Bx + u_j with u_j spanning the
    # orthocomplement of [B, w_1..w_k]; columns 1..k of every output are
    # unaffected by the completion.
    q_full, _ = _qr_positive(combined)
    resid = np.eye(d) - q_full @ q_full.T
    qc, rc = _qr_positive(resid)
    order = np.argsort(-np.abs(np.diagonal(rc)))
    comp = qc[:, order[: d - p - k]]
    bx = bmat @ x
    w_full = np.concatenate([w, (bx[None, :] + comp.T)], axis=0) if d - p - k else w

    m = d - p
    betas: list[np.ndarray] = []
    cs: list[np.ndarray] = []
    b_cols = [bmat[:, j] for j in range(p)]
    for j in range(m):
        u = _mgs_against(b_cols + betas, w_full[j])
        u = _mgs_against(b_cols + betas, u)  # second sweep for stability
        nu = np.linalg.norm(u)
        if nu < SINGULAR_RATIO * max(1.0, np.linalg.norm(w_full[j])):
            raise RankDeficientError(f"vector {j + 1} lies in the span of B and its predecessors")
        betas.append(u / nu)
        v = _mgs_against(cs, w_full[j])
        v = _mgs_against(cs, v)
        cs.append(v / np.linalg.norm(v))
    # C-block: Gram-Schmidt of the B columns (descending) against span(N)
    c_block: list[np.ndarray] = []
    for j in range(p - 1, -1, -1):
        v = _mgs_against(cs + c_block, bmat[:, j])
        v = _mgs_against(cs + c_block, v)
        c_block.append(v / np.linalg.norm(v))
    c_block.reverse()

    cal_b = np.column_stack([bmat] + betas)
    cal_c = np.column_stack(c_block + cs)

    # S and T with the proven zero patterns stored exactly
    s_mat = np.zeros((d, d))
    t_mat = np.zeros((d, d))
    s_mat[:p, :p] = bmat.T @ bmat
    t_mat[:p, :p] = cal_c[:, :p].T @ bmat
    t_mat[p:, :p] = np.array(cs) @ bmat
    for j in range(m):
        s_mat[:p, p + j] = bmat.T @ w_full[j]
        for i in range(j + 1):
            s_mat[p + i, p + j] = betas[i] @ w_full[j]
            t_mat[p + i, p + j] = cs[i] @ w_full[j]

    lam = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1):
            lam[i, j] = cs[i] @ betas[j]

    kappa_sq = np.empty(k)
    kappa_sq[0] = float(x @ x)
    for j in range(1, k):
        c_prev = np.array(cs[:j]).T  # orthonormal basis of span(w_1..w_j)
        a = bmat - c_prev @ (c_prev.T @ bmat)
        qa, ra = _qr_positive(a)
        kappa_sq[j] = float(np.sum((qa.T @ w_full[j]) ** 2))

    zeta = np.array([cs[i] @ bx for i in range(k - 1)]) if k > 1 else np.zeros(0)

    return GramSchmidtFrame(
        d=d, p=p, k=k, x=x, betas=cal_b, cs=cal_c, S=s_mat, T=t_mat,
        Lambda_k=lam, kappa_sq=kappa_sq, zeta=zeta,
    )


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
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xsq = float(x @ x)
    b = haar_stiefel_batch(d, p, 1, rng)[0]
    # the clones are drawn and reduced _REPS_BLOCK samples at a time, in the
    # order of one whole draw, so no (n_reps, k, d) stack is ever held
    gram = np.empty((n_reps, k, k))
    for a in range(0, n_reps, _REPS_BLOCK):
        nb = min(_REPS_BLOCK, n_reps - a)
        w = clone_vectors(b, x, rng.standard_normal((nb, k, d)))
        gram[a: a + nb] = np.einsum("nkd,nld->nkl", w, w)
    l_s = np.linalg.cholesky(gram - xsq)
    l_t = np.linalg.cholesky(gram)
    return {"s": np.transpose(l_s, (0, 2, 1)), "t": np.transpose(l_t, (0, 2, 1))}


@dataclass
class BartlettReport:
    """Distributional checks on the triangular coordinates of clone draws."""

    d: int
    p: int
    k: int
    n_reps: int
    ks_offdiag: dict          # (i, j) -> (statistic, p-value), s_ij vs N(0,1)
    ks_diag_sq: dict          # j -> (statistic, p-value), s_jj^2 vs chi2(d-p-j+1)
    ks_t11_sq: tuple          # t_11^2 - ||x||^2 vs chi2(d-p)
    max_abs_correlation: float
    min_pvalue: float = field(init=False)

    def __post_init__(self):
        ps = [pv for _, pv in self.ks_offdiag.values()]
        ps += [pv for _, pv in self.ks_diag_sq.values()]
        ps.append(self.ks_t11_sq[1])
        self.min_pvalue = float(min(ps))


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

    ks_offdiag = {}
    streams = []
    for j in range(k):
        for i in range(j):
            res = stats.kstest(s[:, i, j], "norm")
            ks_offdiag[(i + 1, j + 1)] = (float(res.statistic), float(res.pvalue))
            streams.append(s[:, i, j])
    ks_diag_sq = {}
    for j in range(k):
        dof = d - p - (j + 1) + 1
        res = stats.kstest(s[:, j, j] ** 2, "chi2", args=(dof,))
        ks_diag_sq[j + 1] = (float(res.statistic), float(res.pvalue))
        streams.append(s[:, j, j])
    res = stats.kstest(t[:, 0, 0] ** 2 - 1.0, "chi2", args=(d - p,))  # ||x||^2 = 1
    ks_t11 = (float(res.statistic), float(res.pvalue))

    mat = np.array(streams)
    corr = np.corrcoef(mat)
    np.fill_diagonal(corr, 0.0)
    max_corr = float(np.max(np.abs(corr)))

    return BartlettReport(
        d=d, p=p, k=k, n_reps=n_reps,
        ks_offdiag=ks_offdiag, ks_diag_sq=ks_diag_sq, ks_t11_sq=ks_t11,
        max_abs_correlation=max_corr,
    )
