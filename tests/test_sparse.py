"""Tests for the sparse SPD factorization wrapper against dense references."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from spatgev._sparse import SymmetricFactor, fill_reducing_order
from spatgev.errors import NumericalError


def _random_spd(n, rng, density=0.05):
    A = sparse.random(n, n, density=density, random_state=np.random.RandomState(rng.integers(2**31)))
    Q = A @ A.T + sparse.identity(n) * n * 0.05
    return sparse.csc_matrix(Q)


class TestFactor:
    def test_logdet_matches_dense(self):
        rng = np.random.default_rng(21)
        for n in (5, 40, 200):
            Q = _random_spd(n, rng)
            f = SymmetricFactor(Q)
            sign, ref = np.linalg.slogdet(Q.toarray())
            assert sign == 1.0
            assert_allclose(f.logdet, ref, rtol=1e-10)

    def test_solve_matches_dense(self):
        rng = np.random.default_rng(22)
        Q = _random_spd(60, rng)
        f = SymmetricFactor(Q)
        b = rng.standard_normal(60)
        assert_allclose(f.solve(b), np.linalg.solve(Q.toarray(), b), rtol=1e-9, atol=1e-12)
        B = rng.standard_normal((60, 3))
        assert_allclose(f.solve(B), np.linalg.solve(Q.toarray(), B), rtol=1e-9, atol=1e-12)

    def test_sample_covariance(self):
        # permutation bookkeeping: empirical covariance of draws must match
        # Q^-1 entrywise, which fails if the unpermutation is wrong
        rng = np.random.default_rng(23)
        Q = _random_spd(12, rng, density=0.3)
        f = SymmetricFactor(Q)
        draws = f.sample(np.random.default_rng(99), size=200_000)
        emp = np.cov(draws.T)
        ref = np.linalg.inv(Q.toarray())
        assert_allclose(emp, ref, atol=6 * np.abs(ref).max() / np.sqrt(200_000 / 3))

    def test_sample_shapes_and_reproducibility(self):
        rng = np.random.default_rng(24)
        Q = _random_spd(30, rng)
        f = SymmetricFactor(Q)
        one = f.sample(np.random.default_rng(7))
        assert one.shape == (30,)
        many = f.sample(np.random.default_rng(7), size=4)
        assert many.shape == (4, 30)
        assert_allclose(f.sample(np.random.default_rng(7)), one)

    def test_rejects_indefinite(self):
        Q = sparse.csc_matrix(np.diag([1.0, -2.0, 3.0]))
        with pytest.raises(NumericalError):
            SymmetricFactor(Q)

    def test_rejects_singular(self):
        Q = sparse.csc_matrix(np.diag([1.0, 0.0, 3.0]))
        with pytest.raises(NumericalError):
            SymmetricFactor(Q)


class TestFixedOrder:
    """SymmetricFactor(A[order][:, order], order=order) acts as a factor of A."""

    @staticmethod
    def _ordered(Q):
        order = fill_reducing_order(Q)
        return SymmetricFactor(sparse.csc_matrix(Q[order][:, order]), order=order)

    def test_order_is_the_default_factor_order(self):
        rng = np.random.default_rng(25)
        Q = _random_spd(80, rng)
        assert self._ordered(Q)._lu.nnz == SymmetricFactor(Q)._lu.nnz

    def test_logdet_and_solve_match_dense(self):
        rng = np.random.default_rng(26)
        Q = _random_spd(60, rng)
        f = self._ordered(Q)
        assert_allclose(f.logdet, np.linalg.slogdet(Q.toarray())[1], rtol=1e-10)
        B = rng.standard_normal((60, 3))
        assert_allclose(f.solve(B), np.linalg.solve(Q.toarray(), B), rtol=1e-9, atol=1e-12)
        assert_allclose(f.solve(B[:, 0]), np.linalg.solve(Q.toarray(), B[:, 0]),
                        rtol=1e-9, atol=1e-12)

    def test_sample_covariance(self):
        rng = np.random.default_rng(27)
        Q = _random_spd(12, rng, density=0.3)
        draws = self._ordered(Q).sample(np.random.default_rng(98), size=200_000)
        ref = np.linalg.inv(Q.toarray())
        assert_allclose(np.cov(draws.T), ref, atol=6 * np.abs(ref).max() / np.sqrt(200_000 / 3))

    def test_rejects_indefinite(self):
        Q = sparse.csc_matrix(np.array([[2.0, 1.0, 0.0], [1.0, -2.0, 0.0], [0.0, 0.0, 3.0]]))
        with pytest.raises(NumericalError):
            self._ordered(Q)
