"""Tests for the sparse SPD factorizations against dense references."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from spatgev._sparse import ArrowFactor, SymmetricFactor, arrow_layout
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


def _random_arrow(n_band, n_dense, rng):
    """Entries (rows, cols) of a random arrow pattern, its dense mask, and an SPD matrix on it.

    The band variables form a chain, each coupled to the next two, under a
    shuffled numbering, so the pattern has a band of width 2 only once it is
    reordered; each dense variable couples to about half of all variables.
    """
    n = n_band + n_dense
    label = rng.permutation(n)
    dense = np.zeros(n, dtype=bool)
    dense[label[n_band:]] = True
    pairs = [(label[i], label[j]) for i in range(n_band) for j in (i + 1, i + 2) if j < n_band]
    pairs += [(i, j) for i in label[n_band:] for j in range(n) if i != j and rng.uniform() < 0.5]
    rows, cols = np.array(pairs, dtype=int).reshape(-1, 2).T
    Q = np.zeros((n, n))
    Q[rows, cols] = rng.uniform(-1.0, 1.0, rows.size)
    Q = Q + Q.T
    Q += np.diag(np.abs(Q).sum(axis=1) + 1.0)  # diagonally dominant, so SPD
    rows, cols = np.nonzero(Q)
    return rows, cols, dense, Q


def _arrow_factor(rows, cols, dense, Q):
    layout, slot = arrow_layout(rows, cols, dense)
    values = np.zeros(layout.size)
    kept = slot >= 0
    np.add.at(values, slot[kept], Q[rows[kept], cols[kept]])
    return ArrowFactor(layout, values)


class TestFixedOrder:
    """ArrowFactor, in the fixed arrow order of a pattern, acts as a factor of the matrix."""

    def test_logdet_and_solve_match_dense(self):
        rng = np.random.default_rng(26)
        for n_band, n_dense in ((60, 3), (0, 4), (25, 1)):
            rows, cols, dense, Q = _random_arrow(n_band, n_dense, rng)
            f = _arrow_factor(rows, cols, dense, Q)
            assert f.layout.bandwidth <= (4 if n_band else 0)
            assert_allclose(f.logdet, np.linalg.slogdet(Q)[1], rtol=1e-10)
            b = rng.standard_normal(Q.shape[0])
            assert_allclose(f.solve(b), np.linalg.solve(Q, b), rtol=1e-9, atol=1e-12)

    def test_sample_covariance(self):
        rng = np.random.default_rng(27)
        rows, cols, dense, Q = _random_arrow(10, 2, rng)
        f = _arrow_factor(rows, cols, dense, Q)
        draws = f.transform(np.random.default_rng(98).standard_normal((200_000, 12)))
        ref = np.linalg.inv(Q)
        assert_allclose(np.cov(draws.T), ref, atol=6 * np.abs(ref).max() / np.sqrt(200_000 / 3))
        # rows are drawn one at a time: the bits do not depend on the batch
        z = np.random.default_rng(5).standard_normal((4, 12))
        assert np.array_equal(f.transform(z)[2], f.transform(z[2:3])[0])

    def test_rejects_indefinite(self):
        rng = np.random.default_rng(28)
        rows, cols, dense, Q = _random_arrow(20, 2, rng)
        for var, failing in ((np.flatnonzero(~dense)[7], "dpbtrf"),
                             (np.flatnonzero(dense)[1], "Schur")):
            bad = Q.copy()
            bad[var, var] = -1.0
            with pytest.raises(NumericalError, match=failing):
                _arrow_factor(rows, cols, dense, bad)
