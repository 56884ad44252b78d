"""Sparse symmetric positive-definite factorization utilities.

Wraps scipy's SuperLU in symmetric mode, which for an SPD matrix produces an
LDLt-style factorization with a single fill-reducing permutation (row and
column permutations coincide).  That gives log-determinants, linear solves,
and sampling from N(0, Q^-1) without any extra dependency.  scipy.sparse
and its linalg module are imported on the first factorization, so commands
that factor nothing never load them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["SymmetricFactor", "fill_reducing_order"]


def _splu(Q: sparse.csc_matrix, permc_spec: str):
    from scipy.sparse.linalg import splu

    return splu(Q, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))


def fill_reducing_order(pattern: sparse.spmatrix) -> np.ndarray:
    """The fill-reducing order SymmetricFactor picks for a symmetric pattern.

    The minimum-degree order depends on the nonzero structure alone, so it is
    computed once, here from a diagonally dominant matrix on the pattern (the
    pattern must hold the diagonal).  Every matrix A on the pattern then
    factors as SymmetricFactor(A[order][:, order], order=order).
    """
    from scipy import sparse

    M = sparse.csc_matrix(pattern, dtype=float, copy=True)
    M.data[:] = -1.0
    M.setdiag(np.diff(M.indptr) + 1.0)
    return np.argsort(_splu(M, "MMD_AT_PLUS_A").perm_c)


class SymmetricFactor:
    """Factorization of a sparse SPD matrix.

    Internally Q[p, :][:, p] = L U with U = D L^T, so Q factors as
    (L sqrt(D)) (L sqrt(D))^T in the permuted ordering.  Without an order,
    SuperLU picks a minimum-degree order for Q.  With one, Q is already
    permuted, Q = A[order][:, order] (see fill_reducing_order), SuperLU keeps
    that order, and logdet, solve and transform are those of A.
    """

    def __init__(self, Q: sparse.spmatrix, order: np.ndarray | None = None):
        from scipy import sparse

        Q = sparse.csc_matrix(Q)
        if Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        self.n = Q.shape[0]
        try:
            self._lu = _splu(Q, "MMD_AT_PLUS_A" if order is None else "NATURAL")
        except RuntimeError as exc:  # singular factor
            raise NumericalError(f"sparse factorization failed: {exc}") from exc
        if not np.array_equal(self._lu.perm_r, self._lu.perm_c):
            raise NumericalError("symmetric factorization produced unequal permutations")
        d = self._lu.U.diagonal()
        if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
            raise NumericalError("matrix is not positive definite")
        self._diag_u = d
        self._perm = np.asarray(self._lu.perm_c)
        self._order = order
        if order is not None:
            self._inv_order = np.argsort(order)
            self._perm = self._perm[self._inv_order]
        self._m_t = None  # sampling operator, built on first draw only

    @property
    def logdet(self) -> float:
        """log det Q."""
        return float(np.sum(np.log(self._diag_u)))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve Q x = b (b may be a matrix of stacked right-hand sides)."""
        b = np.asarray(b, dtype=float)
        if self._order is None:
            return self._lu.solve(b)
        return self._lu.solve(b[self._order])[self._inv_order]

    def transform(self, z: np.ndarray) -> np.ndarray:
        """Map standard normals z, shape (m, n), to m draws from N(0, Q^-1).

        Row k of the output uses row k of z only.
        """
        from scipy import sparse
        from scipy.sparse.linalg import spsolve_triangular

        if self._m_t is None:
            # solving M^T y = z with M = L sqrt(D) draws y ~ N(0, Q_perm^-1)
            self._m_t = (self._lu.L @ sparse.diags(np.sqrt(self._diag_u))).T.tocsr()
        y = spsolve_triangular(self._m_t, z.T, lower=False)
        # permuted row i is original row inv_perm[i], so gather at perm
        return y[self._perm].T

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draw from N(0, Q^-1); returns shape (n,) or (size, n).

        Row k of a size=m call uses the same n normals, in the same order,
        as the k-th of m size=None calls on the same generator.
        """
        out = self.transform(rng.standard_normal((1 if size is None else size, self.n)))
        return out[0] if size is None else out
