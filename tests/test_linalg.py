import copy
import math

import numpy as np
import pytest
from scipy import stats

from projcond import linalg
from projcond.errors import (
    ConstraintViolatedError,
    DimensionMismatchError,
    InvalidDimensionError,
    RankDeficientError,
)
from projcond.streams import DRAW_BLOCK


def test_haar_orthonormal(rng_factory):
    B = linalg.haar_stiefel(5, 2, rng_factory("haar"))
    assert np.max(np.abs(B.entries.T @ B.entries - np.eye(2))) < 1e-10


def test_haar_rejects_bad_dims(rng_factory):
    rng = rng_factory("haar-bad")
    with pytest.raises(InvalidDimensionError):
        linalg.haar_stiefel(3, 3, rng)
    with pytest.raises(InvalidDimensionError):
        linalg.haar_stiefel(3, 0, rng)
    # a rejected call draws nothing from the stream
    assert np.array_equal(rng.standard_normal(4), rng_factory("haar-bad").standard_normal(4))


def test_haar_frame_is_one_batch_draw(rng_factory):
    for d, p in ((2, 1), (5, 2), (30, 3)):
        frame = linalg.haar_stiefel(d, p, rng_factory("haar-one", d))
        batch = linalg.haar_stiefel_batch(d, p, 1, rng_factory("haar-one", d))
        assert np.array_equal(frame.entries, batch[0])


def test_haar_sphere_second_moment(rng_factory):
    # uniform direction on the sphere: E bb' = I/d
    d, n = 50, 100_000
    b = linalg.haar_stiefel_batch(d, 1, n, rng_factory("haar-mom"))[:, :, 0]
    second = b.T @ b / n
    # var(b_i^2) = 3/(d(d+2)) - 1/d^2, var(b_i b_j) = 1/(d(d+2))
    se_diag = math.sqrt((3.0 / (d * (d + 2)) - 1.0 / d**2) / n)
    se_off = math.sqrt(1.0 / (d * (d + 2)) / n)
    diag_err = np.max(np.abs(np.diag(second) - 1.0 / d))
    off = second - np.diag(np.diag(second))
    assert diag_err < 4 * se_diag + 1e-12
    assert np.max(np.abs(off)) < 5 * se_off


def test_haar_rotation_invariance(rng_factory):
    # entries of RB and B are equidistributed for any fixed rotation R
    d, p, n = 8, 2, 10_000
    rng = rng_factory("haar-rot")
    r_fixed = linalg.haar_stiefel_batch(d, d, 1, rng_factory("haar-rot-R"))[0]
    b1 = linalg.haar_stiefel_batch(d, p, n, rng)
    b2 = np.einsum("ij,njk->nik", r_fixed, linalg.haar_stiefel_batch(d, p, n, rng))
    for i in range(d):
        for j in range(p):
            res = stats.ks_2samp(b1[:, i, j], b2[:, i, j])
            assert res.pvalue > 0.001, (i, j, res.pvalue)


def test_stiefel_from_constraints_roundtrip(rng_factory):
    rng = rng_factory("sfc")
    w = rng.standard_normal((3, 12)) * 2.0
    x = np.array([0.4, -0.7])
    B = linalg.stiefel_from_constraints(w, x)
    assert np.max(np.abs(w @ B.entries - x)) < 1e-10


def test_stiefel_from_constraints_infeasible():
    # ||x||^2 iota'(N'N)^{-1} iota >= 1 has no compatible frame
    w = 0.5 * np.eye(6)[:1]
    with pytest.raises(ConstraintViolatedError):
        linalg.stiefel_from_constraints(w, np.array([1.0]))


def _det_lambda(lam):
    return float(np.prod(np.diagonal(lam)) ** 2)


def test_frame_x_zero_unit_determinant(rng_factory):
    rng = rng_factory("frame-x0")
    d, p, k = 12, 2, 3
    w = rng.standard_normal((k, d))
    x = np.zeros(p)
    B = linalg.stiefel_from_constraints(w, x)
    w_adj = w - (w @ B.entries) @ B.entries.T  # exact B'w = 0
    lam = linalg.frame_lambda(B, x, w_adj)
    assert abs(_det_lambda(lam) - 1.0) < 1e-8


def test_frame_determinant_oracle_random(rng_factory):
    # det(Lambda_k Lambda_k') equals 1 - ||x||^2 iota'(N'N)^{-1} iota,
    # checked against a dense solve
    rng = rng_factory("frame-det")
    d, p, k = 20, 2, 3
    worst = 0.0
    for _ in range(100):
        w = rng.standard_normal((k, d)) * math.sqrt(d / 4.0)
        x = rng.standard_normal(p) * 0.3
        B = linalg.stiefel_from_constraints(w, x)
        lam = linalg.frame_lambda(B, x, w)
        assert np.array_equal(np.triu(lam, 1), np.zeros((k, k)))
        target = 1.0 - float(x @ x * np.ones(k) @ np.linalg.solve(w @ w.T, np.ones(k)))
        worst = max(worst, abs(_det_lambda(lam) - target))
    assert worst < 1e-8


def test_frame_column_dependency_bitwise(rng_factory):
    # the first j rows of Lambda_k depend only on w_1..w_j and x
    rng = rng_factory("frame-cols")
    d, p, k, j = 16, 1, 4, 2
    x = np.array([0.3])
    w = rng.standard_normal((k, d))
    B = linalg.stiefel_from_constraints(w, x)
    w = w - (w @ B.entries) @ B.entries.T + np.outer(np.ones(k), B.entries[:, 0] * x[0])
    lam1 = linalg.frame_lambda(B, x, w)
    w_alt = w.copy()
    fresh = rng.standard_normal((k - j, d))
    fresh = fresh - (fresh @ B.entries) @ B.entries.T + np.outer(
        np.ones(k - j), B.entries[:, 0] * x[0]
    )
    w_alt[j:] = fresh
    lam2 = linalg.frame_lambda(B, x, w_alt)
    assert np.array_equal(lam1[:j, :j], lam2[:j, :j])


def test_frame_errors(rng_factory):
    rng = rng_factory("frame-err")
    d, p = 10, 2
    B = linalg.haar_stiefel(d, p, rng)
    w = rng.standard_normal((2, d))
    with pytest.raises(ConstraintViolatedError):
        linalg.frame_lambda(B, np.array([5.0, 5.0]), w)
    x = np.zeros(p)
    w0 = w - (w @ B.entries) @ B.entries.T
    w_dup = np.vstack([w0[0], w0[0] * (1 + 1e-13)])
    with pytest.raises(RankDeficientError):
        linalg.frame_lambda(B, x, w_dup)
    with pytest.raises(InvalidDimensionError):
        linalg.frame_lambda(B, x, rng.standard_normal((d - p + 1, d)))


def test_bartlett_check_small(rng_factory):
    rep = linalg.bartlett_distribution_check(12, 1, 2, 20_000, rng_factory("bartlett"))
    assert rep.min_pvalue > 0.001
    assert rep.max_abs_correlation < 0.02
    with pytest.raises(InvalidDimensionError):
        linalg.bartlett_distribution_check(12, 1, 20, 20_000, rng_factory("b2"))
    with pytest.raises(InvalidDimensionError):
        linalg.bartlett_distribution_check(12, 1, 2, 10, rng_factory("b3"))


def test_triangular_statistics_blocks_equal_one_draw(rng_factory):
    # the blocked draw and reduction equal one (n, k, d) draw reduced at
    # once, bitwise, and leave the generator where that draw leaves it
    rng = rng_factory("tri-blocks")
    d, p, k, n = 20, 2, 3, 2 * DRAW_BLOCK + 123
    x = np.array([1.0, 0.0])
    ref_rng = copy.deepcopy(rng)
    tri = linalg.triangular_statistics(d, p, k, x, n, rng)
    b = linalg.haar_stiefel_batch(d, p, 1, ref_rng)[0]
    w = linalg.clone_vectors(b, x, ref_rng.standard_normal((n, k, d)))
    gram = np.einsum("nkd,nld->nkl", w, w)
    assert np.array_equal(tri["s"], np.transpose(np.linalg.cholesky(gram - x @ x), (0, 2, 1)))
    assert np.array_equal(tri["t"], np.transpose(np.linalg.cholesky(gram), (0, 2, 1)))
    assert np.array_equal(rng.random(8), ref_rng.random(8))


def test_triangular_statistics_refuses_an_x_of_the_wrong_length(rng_factory):
    # NumPy raised a shape error from the first block of clones
    rng = rng_factory("tri-x")
    replay = copy.deepcopy(rng)
    for x in ([1.0], [1.0, 0.0, 0.0]):
        with pytest.raises(DimensionMismatchError):
            linalg.triangular_statistics(14, 2, 3, x, 100, rng)
    assert np.array_equal(rng.random(4), replay.random(4))


def test_triangular_statistics_are_gram_schmidt_coordinates(rng_factory):
    # the s-block is R of the QR of [B, W'] past the B-block (the w_j in the
    # frame of Gram-Schmidt against B) and the t-block R of the QR of W'
    # alone: the transposed Cholesky factors of W_iW_j' - ||x||^2 and W_iW_j'
    # are these triangular coordinates, on the clones the call drew
    rng = rng_factory("tri-gs")
    d, p, k, n = 20, 2, 3, 2000
    x = np.array([0.8, -0.5])
    ref_rng = copy.deepcopy(rng)
    tri = linalg.triangular_statistics(d, p, k, x, n, rng)
    b = linalg.haar_stiefel_batch(d, p, 1, ref_rng)[0]
    w_t = np.transpose(linalg.clone_vectors(b, x, ref_rng.standard_normal((n, k, d))), (0, 2, 1))
    _, r_s = linalg._qr_positive(np.concatenate([np.broadcast_to(b, (n, d, p)), w_t], axis=2))
    _, r_t = linalg._qr_positive(w_t)
    assert np.max(np.abs(tri["s"] - r_s[:, p:, p:])) < 1e-12
    assert np.max(np.abs(tri["t"] - r_t)) < 1e-12


def test_clone_vectors_matches_written_out_formula(rng_factory):
    rng = rng_factory("clone-formula")
    d, p, k, n = 9, 3, 4, 50
    x = np.array([0.8, -0.3, 0.1])
    b = linalg.haar_stiefel_batch(d, p, 1, rng)[0]
    v = rng.standard_normal((n, k, d))
    w = linalg.clone_vectors(b, x, v)
    assert w.shape == (n, k, d)
    # W_j = Bx + (I - BB')V_j, written out
    direct = b @ x + v @ (np.eye(d) - b @ b.T)
    assert np.max(np.abs(w - direct)) < 1e-12
    assert np.max(np.abs(w @ b - x)) < 1e-12


def test_bartlett_gate_catches_partial_projection(rng_factory, monkeypatch):
    # clones that project out only p - 1 columns of B no longer share the
    # projection x, and the s/t laws move away from their Bartlett forms
    def check(i):
        rep = linalg.bartlett_distribution_check(20, 2, 3, 5000, rng_factory("bartlett-power", i))
        return rep.min_pvalue > 0.01

    # the gate also fails on about 5% of streams with correct clones, so the
    # control runs on streams where it passes
    assert all(check(i) for i in (1, 2, 3))
    full = linalg.clone_vectors
    monkeypatch.setattr(linalg, "clone_vectors", lambda b, x, v: full(b[..., :-1], x[:-1], v))
    assert not any(check(i) for i in (1, 2, 3))
