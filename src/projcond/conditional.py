"""Monte Carlo estimation of conditional moments given a projection.

For the Gaussian the conditional moments are known exactly:
E[Z | B'Z = x] = Bx and E[ZZ' | B'Z = x] = I + B(xx' - I)B'.  The
deviation estimators (``deviation_probability``, ``g_membership``) return
that exact answer for the Gaussian without drawing, and run the kernel
engine for every other law.  Two inner engines are provided.

* ``ratio`` (``conditional_estimates``): the change-of-measure estimator
  for pointwise checks.  Draws W = Bx + (I - BB')V with V standard Gaussian
  and weighs by f(W)/phi(W).  The Gaussian-exact moments of V (E V = 0,
  E VV' = I) are used as control variates, so for the Gaussian law the
  estimates collapse to their exact values (h = 1, mu = Bx, Delta = 0) with
  zero variance.  The weighted and unweighted second-moment sums go through
  the same GEMM with the same shapes, so a ratio identically 1 cancels
  bitwise.  The weight has bounded-support collapse in high dimension for
  the compactly supported marginals (the support hit probability decays
  geometrically in d), so this engine is meant for exact checks at small d.

* ``kernel``: forward sampling plus kernel regression on the projected
  coordinate.  Draws a pool Z_i ~ f, weighs by a Gaussian kernel in
  B'Z_i - x, and reports Nadaraya-Watson moments.  Dimension enters only
  through the averaging, so this engine scales to d in the hundreds.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec, gaussian, log_density_batch, sample_z
from .errors import DegenerateDensityError, InvalidDimensionError
from .linalg import as_stiefel, clone_vectors, spectral_norm
from .streams import mean_se
from .bounds import PART_A, balanced_tuning

_JACKKNIFE_BLOCKS = 20
_RATIO_BATCH = 20000  # inner draws per chunk of the ratio engine
_BLOCK_ROWS = 4096    # rows per block of every kernel-engine pass over a pool
_GRAM_CAP = 30000     # most rows in one kernel second-moment Gram
_XI_EFF = 1.0 / 6.0   # xi_1 of part A at the default moment constants


@dataclass
class ConditionalEstimates:
    """Ratio-engine estimates of h(x|B), mu_(x|B) and ||Delta_(x|B)||."""

    h_hat: float
    h_se: float
    mu_hat: np.ndarray
    mu_se: np.ndarray
    delta_op_norm_hat: float
    delta_se: float


def _weighted_gram(weights: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_n weights[n] v[n] v[n]' as one GEMM.

    The operands are always two distinct arrays, so NumPy never takes its
    SYRK path for ``v.T @ v``: every call with the same shapes runs the same
    kernel, and equal weights give bitwise-equal sums.
    """
    return (v * weights[:, None]).T @ v


def _ratio_conditional(
    spec: DistributionSpec,
    B,
    x,
    n: int,
    rng: np.random.Generator,
) -> ConditionalEstimates:
    if n < 2:
        raise InvalidDimensionError("need n >= 2: a leave-one-block-out fit needs two draws")
    B = as_stiefel(B)
    d = B.d
    x = np.atleast_1d(np.asarray(x, dtype=float))
    b = B.entries
    bx = b @ x
    phi = gaussian(d)
    nblocks = min(_JACKKNIFE_BLOCKS, n)
    sizes = np.full(nblocks, n // nblocks)
    sizes[: n % nblocks] += 1

    s_r = np.zeros(nblocks)
    s_r2 = np.zeros(nblocks)
    s_v = np.zeros((nblocks, d))
    s_vr = np.zeros((nblocks, d))
    s_vv = np.zeros((nblocks, d, d))
    s_vvr = np.zeros((nblocks, d, d))

    for blk, size in enumerate(sizes):
        for done in range(0, size, _RATIO_BATCH):
            nb = min(_RATIO_BATCH, size - done)
            v = rng.standard_normal((nb, d))
            w = clone_vectors(b, x, v)
            log_r = log_density_batch(spec, w) - log_density_batch(phi, w)
            r = np.exp(log_r)
            ones = np.ones(nb)
            s_r[blk] += float(np.sum(r))
            s_r2[blk] += float(np.sum(r * r))
            # identical accumulation kernels for the weighted and unweighted
            # sums, so a constant ratio cancels bitwise in the control variate
            s_v[blk] += ones @ v
            s_vr[blk] += r @ v
            s_vv[blk] += _weighted_gram(ones, v)
            s_vvr[blk] += _weighted_gram(r, v)

    def assemble(mask):
        nn = float(sizes[mask].sum())
        h = float(s_r[mask].sum()) / nn
        if h <= 0.0:
            return h, None, None
        m_vec = (s_vr[mask].sum(axis=0) - h * s_v[mask].sum(axis=0)) / (nn * h)
        m_perp = m_vec - b @ (b.T @ m_vec)
        mu = bx + m_perp
        d_mat = (s_vvr[mask].sum(axis=0) - h * s_vv[mask].sum(axis=0)) / (nn * h)
        p_d_p = d_mat - b @ (b.T @ d_mat)
        p_d_p = p_d_p - (p_d_p @ b) @ b.T
        delta = np.outer(bx, m_perp) + np.outer(m_perp, bx) + p_d_p
        delta = 0.5 * (delta + delta.T)
        return h, mu, spectral_norm(delta)

    h_hat, mu_hat, delta_hat = assemble(np.ones(nblocks, dtype=bool))
    _, h_se = mean_se(float(s_r.sum()), float(s_r2.sum()), n)

    mu_se, delta_se = np.full(d, np.nan), float("nan")
    if mu_hat is not None:
        # the leave-one-block-out fits; one with no mean leaves the SEs NaN
        _, mus, deltas = zip(*[assemble(np.arange(nblocks) != blk) for blk in range(nblocks)])
        if all(mu is not None for mu in mus):
            mus, deltas = np.array(mus), np.array(deltas)
            fac = (nblocks - 1) / nblocks
            mu_se = np.sqrt(fac * np.sum((mus - mus.mean(axis=0)) ** 2, axis=0))
            delta_se = math.sqrt(fac * float(np.sum((deltas - deltas.mean()) ** 2)))
    else:  # no draw hit the support
        mu_hat, delta_hat = np.full(d, np.nan), float("nan")

    return ConditionalEstimates(
        h_hat=h_hat,
        h_se=h_se,
        mu_hat=mu_hat,
        mu_se=mu_se,
        delta_op_norm_hat=delta_hat,
        delta_se=delta_se,
    )


def conditional_estimates(
    spec: DistributionSpec, B, x, n: int, rng: np.random.Generator
) -> ConditionalEstimates:
    return _ratio_conditional(spec, B, x, n, rng)


# ---------------------------------------------------------------------------
# forward kernel engine


@dataclass
class ForwardPool:
    """A forward sample pool with its projected coordinates."""

    b: np.ndarray        # d x p
    z: np.ndarray        # n x d (float32 to keep large-d pools affordable)
    proj: np.ndarray     # n x p
    bandwidth: float

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def d(self) -> int:
        return self.z.shape[1]

    @property
    def p(self) -> int:
        return self.b.shape[1]


def build_pool(
    spec: DistributionSpec,
    B,
    n_pool: int,
    rng: np.random.Generator,
    bandwidth: float | None = None,
) -> ForwardPool:
    if n_pool < 1:
        raise InvalidDimensionError("need n_pool >= 1")
    B = as_stiefel(B)
    # the build holds one float32 pool plus one float64 block of
    # _BLOCK_ROWS rows at a time: each block is freed before the next draw,
    # and the sort moves rows within the pool
    z = np.empty((n_pool, B.d), dtype=np.float32)
    proj = np.empty((n_pool, B.p))
    for done in range(0, n_pool, _BLOCK_ROWS):
        nb = min(_BLOCK_ROWS, n_pool - done)
        block = sample_z(spec, nb, rng)
        z[done: done + nb] = block
        proj[done: done + nb] = block @ B.entries
        del block
    # sorted on the first projected coordinate: every kernel window is a
    # band of rows, a contiguous slice
    order = np.argsort(proj[:, 0], kind="stable")
    _take_rows_in_place(z, order)
    proj = proj[order]
    if bandwidth is None:
        # projections of a standardized vector have unit variance
        bandwidth = 1.06 * n_pool ** (-1.0 / (B.p + 4))
    return ForwardPool(b=B.entries, z=z, proj=proj, bandwidth=float(bandwidth))


def _take_rows_in_place(z: np.ndarray, order: np.ndarray) -> None:
    """Reorder the rows of z in place so that z ends bitwise equal to
    z[order], holding one row.

    Each cycle of the permutation is followed from its first unplaced slot:
    that slot's row is held, z[i] = z[order[i]] moves the rows along the
    cycle, and the held row goes into the cycle's last slot.
    """
    placed = np.zeros(len(order), dtype=bool)
    for start in range(len(order)):
        if placed[start]:
            continue
        held = z[start].copy()
        i, j = start, order[start]
        while j != start:
            z[i] = z[j]
            placed[j] = True
            i, j = j, order[j]
        z[i] = held


def _bandwidth_at(pool: ForwardPool, x: np.ndarray) -> float:
    """Balloon bandwidth: widen in the projection tails to keep the local
    effective sample size roughly constant.

    The projection of a standardized vector is approximately standard
    Gaussian, so the local density falls off like phi_p(x); the bandwidth is
    scaled by (phi_p(0)/phi_p(x))^(1/p), capped at a factor of 3.
    """
    factor = min(3.0, math.exp(float(x @ x) / (2.0 * pool.p)))
    return pool.bandwidth * factor


def _window(pool: ForwardPool, x: np.ndarray):
    """The band of pool rows whose first projected coordinate lies within 4
    kernel widths of x, as a slice of the sorted pool, and their kernel
    weights; a band row outside the 4-width disk around x weighs 0.
    """
    h = _bandwidth_at(pool, x)
    col = pool.proj[:, 0]
    lo = int(np.searchsorted(col, x[0] - 4.0 * h, side="left"))
    hi = int(np.searchsorted(col, x[0] + 4.0 * h, side="right"))
    u = (pool.proj[lo:hi] - x) / h
    dist_sq = np.einsum("np,np->n", u, u)
    return slice(lo, hi), np.where(dist_sq < 16.0, np.exp(-0.5 * dist_sq), 0.0)


def _nearest(rows: slice, w: np.ndarray, cap: int):
    """The pool indices, in ascending order, of the at most cap rows of a
    window with the highest non-zero weights, and those weights.

    The highest weights are the rows nearest x in projection distance.  They
    are marked in a mask, so the kept rows stay in pool order without a sort.
    """
    keep = w > 0.0
    if np.count_nonzero(keep) > cap:
        keep[:] = False
        keep[np.argpartition(w, -cap)[-cap:]] = True
    idx = np.flatnonzero(keep)
    return rows.start + idx, w[idx]


def _window_blocks(z: np.ndarray, rows: np.ndarray, scale: np.ndarray):
    """The rows z[rows], each times its scale, in blocks of at most
    _BLOCK_ROWS rows written into one reused float32 buffer, so no copy of
    the whole window is ever made.  Each block is overwritten by the next.
    """
    m = rows.shape[0]
    buf = np.empty((min(m, _BLOCK_ROWS), z.shape[1]), dtype=np.float32)
    for a in range(0, m, _BLOCK_ROWS):
        part = slice(a, min(a + _BLOCK_ROWS, m))
        block = buf[: part.stop - a]
        # the indices lie in range; mode "raise" would copy out through a
        # buffer
        np.take(z, rows[part], axis=0, out=block, mode="clip")
        block *= scale[part, None]
        yield block


def kernel_mu_deviation(pool: ForwardPool, x):
    """The smoothed conditional-mean deviation at x and the projected
    density ratio h, from one kernel window.

    Returns (||mu_hat - B proj_mean||, f_hat(x) / phi_p(x)): mu_hat is the
    weighted mean of the pool and proj_mean the weighted mean of its
    projections.  Comparing the smoothed conditional mean against the
    equally smoothed projection (rather than the point value Bx) cancels
    the first-order kernel bias, which otherwise dominates in the
    projection tails.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rows, w = _window(pool, x)
    sw = float(np.sum(w))
    if sw <= 0.0 or np.count_nonzero(w) < 2:
        raise DegenerateDensityError(f"no pool mass near x = {x}")
    mu = (w.astype(np.float32) @ pool.z[rows]).astype(np.float64) / sw
    proj_mean = (w @ pool.proj[rows]) / sw
    p = pool.p
    f_hat = sw / (pool.n * (2 * math.pi) ** (p / 2) * _bandwidth_at(pool, x) ** p)
    log_phi = -0.5 * float(x @ x) - 0.5 * p * math.log(2 * math.pi)
    return float(np.linalg.norm(mu - pool.b @ proj_mean)), f_hat / math.exp(log_phi)


def eigsh(a, **kwargs):
    """scipy.sparse.linalg.eigsh, imported on the first call.

    SciPy's import costs about 0.3 s, so loading it at module level would
    more than double the start-up of every ``projcond run``, most of which
    never solve an eigenproblem.  It stays a module attribute so that every
    eigen-solve of ``kernel_delta_norm`` goes through this one name.
    """
    from scipy.sparse.linalg import eigsh as scipy_eigsh

    return scipy_eigsh(a, **kwargs)


def kernel_delta_norm(pool: ForwardPool, x):
    """Operator norm of the smoothed conditional second-moment deviation.

    Compares Ehat_w[ZZ'] against I + B(Ehat_w[(B'Z)(B'Z)'] - I_p)B', i.e.
    the projection block of the target is smoothed with the same weights,
    cancelling the first-order kernel bias.  When more than _GRAM_CAP pool
    points fall inside the kernel window, only the _GRAM_CAP highest-weight
    points are kept (a locally narrowed bandwidth).  The weighted second
    moment is then summed over blocks of _BLOCK_ROWS rows, each scaled by
    the root weights into one reused float32 buffer and added as a float32
    SYRK to a float64 sum.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    rows, w = _nearest(*_window(pool, x), _GRAM_CAP)
    if w.shape[0] < 2:
        raise DegenerateDensityError(f"no pool mass near x = {x}")
    sw = float(np.sum(w))
    b = pool.b
    d = pool.d
    proj_l = pool.proj[rows]
    proj_second = np.einsum("n,ni,nj->ij", w, proj_l, proj_l) / sw
    shift = proj_second - np.eye(pool.p)
    gram = np.zeros((d, d))
    for block in _window_blocks(pool.z, rows, np.sqrt(w, dtype=np.float32)):
        gram += block.T @ block
    delta = gram / sw - np.eye(d) - b @ shift @ b.T
    # one eigen path at every d: eigsh with a fixed start vector, which
    # keeps the result reproducible for a fixed pool and x; it is drawn at
    # random once, since a structured one (such as all ones) can be
    # orthogonal to the top eigenvector
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, d)
    vals = eigsh(delta, k=1, which="LM", tol=1e-4, return_eigenvectors=False,
                 maxiter=500, v0=v0)
    return float(np.abs(vals[0]))


# ---------------------------------------------------------------------------
# deviation probabilities and the good-set membership test


@dataclass
class DeviationProbability:
    """Estimated P(||mu_hat - Bx|| > t) and P(||Delta_hat|| > t).

    The probabilities concern exact conditional moments which the inner
    loop only approximates, so estimates are read as upper-bounded by its
    noise.
    """

    mean_prob: float
    var_prob: float


def deviation_probability(
    spec: DistributionSpec,
    B,
    t: float,
    n_outer: int,
    n_inner: int,
    rng: np.random.Generator,
    bandwidth: float | None = None,
) -> DeviationProbability:
    """Outer-loop deviation frequencies for the conditional mean/variance.

    Each outer draw sets x = B'Z for a fresh Z; the kernel engine estimates
    mu and Delta at that x, and the indicator of a deviation beyond t is
    averaged.  For the Gaussian both deviations are exactly 0 at every x,
    so the frequencies are 1 for t < 0 and 0 otherwise, with nothing drawn.

    The outer points run through _at_outer_points, as g_membership's x's
    do, so the frequencies, and the error naming the first failing x, are
    those of one loop over the points in order.
    """
    if n_outer < 100:
        raise InvalidDimensionError("need n_outer >= 10^2")
    if n_inner < 1000:
        raise InvalidDimensionError("need n_inner >= 10^3")
    B = as_stiefel(B)
    if spec.family == "gaussian":
        hit = float(0.0 > t)
        return DeviationProbability(mean_prob=hit, var_prob=hit)
    xs = sample_z(spec, n_outer, rng) @ B.entries
    pool = build_pool(spec, B, n_pool=n_inner, rng=rng, bandwidth=bandwidth)
    # loaded here, before any worker starts, so that the workers neither race
    # on its import nor miss its OpenBLAS in the thread-count lookup
    import scipy.sparse.linalg  # noqa: F401

    hits = _at_outer_points(lambda x: (kernel_mu_deviation(pool, x)[0] > t,
                                       kernel_delta_norm(pool, x) > t), xs)
    mean_hits, var_hits = (int(c) for c in np.count_nonzero(hits, axis=0))
    return DeviationProbability(mean_prob=mean_hits / n_outer, var_prob=var_hits / n_outer)


def _at_outer_points(fn, xs) -> list:
    """[fn(x) for x in xs], with the points run on every usable core.

    Where an OpenBLAS thread control is found, a ThreadPoolExecutor with one
    worker per usable core (os.sched_getaffinity) maps fn over xs while
    every loaded OpenBLAS is held at one thread: the kernel engine's float32
    products gain little from a second BLAS thread, two points at once
    nearly twice.  Elsewhere the points run in order on the calling thread.
    Each point's computation is the same either way, and so are the
    results, in the order of xs.  When points raise, an interrupt included,
    the error of the first failing x in that order is raised; the points not
    yet started are cancelled, and the workers are joined before every BLAS
    thread count is restored.
    """
    from concurrent.futures import ThreadPoolExecutor

    controls = _blas_thread_controls()
    if not controls:
        return [fn(x) for x in xs]
    with _one_blas_thread(controls), \
            ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as workers:
        return list(workers.map(fn, xs))


# the (set, get) thread-count functions an OpenBLAS build may export: the
# plain library, and the scipy-openblas wheels that NumPy (64-bit integers)
# and SciPy (32-bit integers) load
_BLAS_THREAD_FUNCTIONS = [
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
]


def _blas_thread_controls() -> list:
    """The (set, get) thread-count functions of every OpenBLAS loaded into
    this process, found by ctypes from the libraries /proc/self/maps lists;
    empty where there is none or no such listing."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for set_name, get_name in _BLAS_THREAD_FUNCTIONS:
            if hasattr(handle, set_name) and hasattr(handle, get_name):
                set_fn, get_fn = getattr(handle, set_name), getattr(handle, get_name)
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                controls.append((set_fn, get_fn))
                break
    return controls


@contextmanager
def _one_blas_thread(controls: list):
    """Hold every library of controls (see _blas_thread_controls) at one
    thread, and restore each one's thread count on exit, also after an
    exception."""
    before = [get_fn() for _, get_fn in controls]
    for set_fn, _ in controls:
        set_fn(1)
    try:
        yield
    finally:
        for (set_fn, _), count in zip(controls, before):
            set_fn(count)


@dataclass
class GMembershipReport:
    """Membership test for the good set of frames.

    member is the point-estimate rule integral_hat <= delta_d; the standard
    error is reported alongside.  When M_d <= 1 the good set is the whole
    manifold and membership holds unconditionally.
    """

    M_d: float
    delta_d: float
    integral_hat: float
    integral_se: float
    member: bool


def g_membership(
    spec: DistributionSpec,
    B,
    tau: float,
    gamma: float,
    n_x: int,
    n_inner: int,
    rng: np.random.Generator,
    tau1: float | None = None,
) -> GMembershipReport:
    """Estimate the defining integral of the good set and test membership.

    The integral of ||mu_(x|B) - Bx||^2 h(x|B)^2 over the Gaussian ball
    ||x|| <= M_d is estimated by rejection-sampled Gaussian x's; the
    ball probability rescales the conditional mean.  tau1 and tau2 come
    from the balanced tuning given tau and xi_1 = 1/6 (part A at the default
    moment constants); tau1 can be overridden.  For the Gaussian
    mu_(x|B) = Bx exactly, so the integral is 0 with nothing drawn.
    """
    from scipy.stats import chi2

    B = as_stiefel(B)
    d, p = B.d, B.p
    if d < 3:
        raise InvalidDimensionError("need d >= 3 so that log d > 1")
    if n_x < 100:
        raise InvalidDimensionError("need n_x >= 100")
    if n_inner < 1000:
        raise InvalidDimensionError("need n_inner >= 10^3")
    if tau1 is not None and not tau1 > 0.0:
        raise InvalidDimensionError("need tau1 > 0")
    t1_default, tau2 = balanced_tuning(tau, _XI_EFF, PART_A)
    tau1 = t1_default if tau1 is None else tau1
    m_d = math.sqrt(tau1 * math.log(d) / gamma)
    delta_d = d ** (-tau2)
    if m_d <= 1.0 or spec.family == "gaussian":
        return GMembershipReport(
            M_d=m_d, delta_d=delta_d, integral_hat=0.0, integral_se=0.0,
            member=True,
        )

    ball_prob = float(chi2.cdf(m_d**2, df=p))
    inside = []
    while sum(len(keep) for keep in inside) < n_x:
        cand = rng.standard_normal((max(64, n_x), p))
        inside.append(cand[np.einsum("np,np->n", cand, cand) <= m_d**2])
    xs = np.concatenate(inside)[:n_x]

    pool = build_pool(spec, B, n_pool=n_inner, rng=rng)

    def integrand(x):
        dev, h = kernel_mu_deviation(pool, x)
        return dev**2 * h**2

    vals = np.array(_at_outer_points(integrand, xs))
    integral = ball_prob * float(np.mean(vals))
    se = ball_prob * float(np.std(vals)) / math.sqrt(n_x)
    return GMembershipReport(
        M_d=m_d, delta_d=delta_d, integral_hat=integral, integral_se=se,
        member=bool(integral <= delta_d),
    )
