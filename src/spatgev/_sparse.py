"""Factorizations of sparse symmetric positive-definite matrices.

ArrowFactor factors a matrix whose variables split into many "band"
variables, coupled sparsely and locally (the nodes of mesh fields), and a few
"dense" ones coupled to most of the others (regression coefficients).  The
band variables are put in reverse Cuthill-McKee order, which keeps their
block inside a narrow band, and the dense ones last, so the matrix is a band
plus a thin dense "arrow" along its last rows and columns.  Its Cholesky
factor has the same shape: LAPACK's banded Cholesky of the band block, a
banded triangular solve for the arrow, and a small dense Cholesky of the dense
block's Schur complement.  This is the band-Cholesky route for Gaussian Markov
random fields of Rue (2001) and Rue & Held (2005, section 2.4).  The layout
(order, bandwidth, storage slots) depends on the pattern alone, so it is built
once and every matrix on the pattern is factored from its values.

SymmetricFactor wraps scipy's SuperLU in symmetric mode, which for an SPD
matrix produces an LDLt-style factorization with a single fill-reducing
permutation; it gives log det Q, solves with Q and draws from N(0, Q^-1).

scipy is imported on first use, so commands that factor nothing never load
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["ArrowLayout", "arrow_layout", "ArrowFactor", "SymmetricFactor"]


@dataclass(frozen=True)
class ArrowLayout:
    """Where a symmetric matrix on a fixed pattern keeps its values.

    The variables are permuted by order (position -> original index): first
    the n_band band variables, then the dense ones.  One flat vector of size
    entries holds, in this order:

    - the band block's lower triangle in LAPACK's lower band storage,
      bandwidth + 1 rows by n_band columns, column-major;
    - the dense-by-band block B (rows: band variables), n_band by n_dense,
      column-major;
    - the dense-by-dense block's lower triangle, in an n_dense by n_dense
      array, row-major.

    Only the lower triangle is stored; band storage slots past the matrix's
    corner and the dense block's upper triangle hold zeros.
    """

    order: np.ndarray
    n_band: int
    bandwidth: int

    @property
    def n_dense(self) -> int:
        return self.order.size - self.n_band

    @property
    def size(self) -> int:
        return (self.bandwidth + 1 + self.n_dense) * self.n_band + self.n_dense**2


def arrow_layout(rows: np.ndarray, cols: np.ndarray, dense: np.ndarray) -> tuple:
    """Arrow layout of a symmetric pattern, and each entry's storage slot.

    rows and cols list the pattern's entries, both triangles, with the
    diagonal; repeated entries are allowed.  dense marks the dense variables.
    The band variables take the reverse Cuthill-McKee order of their own
    pattern.  Returns (layout, slot), slot[k] the index of entry k in the
    storage vector, or -1 for an entry of the strict upper triangle, whose
    value its mirror entry carries.
    """
    from scipy import sparse
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    dense = np.asarray(dense, dtype=bool)
    band_vars, dense_vars = np.flatnonzero(~dense), np.flatnonzero(dense)
    nb = band_vars.size
    in_band = ~dense[rows] & ~dense[cols]
    local = np.cumsum(~dense) - 1  # index among the band variables
    graph = sparse.csr_matrix((np.ones(int(in_band.sum())),
                               (local[rows[in_band]], local[cols[in_band]])), shape=(nb, nb))
    # scipy's RCM refuses an empty graph: a pattern without band variables
    rcm = reverse_cuthill_mckee(graph, symmetric_mode=True) if nb else np.zeros(0, dtype=int)
    order = np.concatenate([band_vars[rcm], dense_vars])
    position = np.argsort(order)
    r, c = position[rows], position[cols]
    bandwidth = int(np.max(r[in_band] - c[in_band], initial=0))
    layout = ArrowLayout(order=order, n_band=nb, bandwidth=bandwidth)

    p, arm_start = layout.n_dense, (bandwidth + 1) * nb
    slot = np.full(r.size, -1)
    band = (r < nb) & (c <= r)
    slot[band] = c[band] * (bandwidth + 1) + r[band] - c[band]
    arm = (r >= nb) & (c < nb)
    slot[arm] = arm_start + (r[arm] - nb) * nb + c[arm]
    tip = (r >= nb) & (c >= nb) & (c <= r)
    slot[tip] = arm_start + nb * p + (r[tip] - nb) * p + c[tip] - nb
    return layout, slot


def _band_solve(l_band: np.ndarray, b: np.ndarray, trans: str = "N") -> np.ndarray:
    """L^-1 b (trans "N") or L'^-1 b (trans "T") for a lower band factor L."""
    from scipy.linalg import lapack

    # an empty band passes dtbtrs a leading dimension of 0, which LAPACK
    # refuses, and the call then corrupts the heap
    if l_band.shape[1] == 0:
        return np.array(b, dtype=float)
    return lapack.dtbtrs(l_band, b, uplo="L", trans=trans)[0]


class ArrowFactor:
    """Cholesky factor of an SPD matrix P in arrow storage.

    In the layout's order P = [[A, B], [B', D]] = L L' with
    L = [[L_A, 0], [Y', L_S]]: L_A L_A' = A is LAPACK's banded Cholesky
    (dpbtrf), Y = L_A^-1 B a banded triangular solve (dtbtrs), and
    L_S L_S' = S is the dense Cholesky of the Schur complement S = D - Y'Y.
    So log det P = 2 sum log diag L_A + log det S.  solve and transform take
    and return vectors in the original order.  A P that is not positive
    definite raises NumericalError.
    """

    def __init__(self, layout: ArrowLayout, values: np.ndarray):
        from scipy.linalg import lapack

        nb, kd, p = layout.n_band, layout.bandwidth, layout.n_dense
        arm_start, tip_start = (kd + 1) * nb, (kd + 1 + p) * nb
        self.layout = layout
        # P's blocks stay as they are for the residual in solve
        self._band = values[:arm_start].reshape((kd + 1, nb), order="F")
        self._arm = values[arm_start:tip_start].reshape((nb, p), order="F")
        self._tip = values[tip_start:].reshape(p, p)
        self._l_band, info = lapack.dpbtrf(self._band, lower=1)
        if info != 0:
            raise NumericalError(f"band block is not positive definite (dpbtrf info {info})")
        self._y = _band_solve(self._l_band, self._arm)
        self._l_schur, info = lapack.dpotrf(self._tip - self._y.T @ self._y, lower=1, clean=1)
        if info != 0:
            raise NumericalError(f"Schur complement is not positive definite (dpotrf info {info})")
        self.logdet = 2.0 * float(np.sum(np.log(self._l_band[0]))
                                  + np.sum(np.log(np.diag(self._l_schur))))
        if not np.isfinite(self.logdet):
            raise NumericalError("factor has a non-finite diagonal")

    def _forward(self, b: np.ndarray) -> np.ndarray:
        """L^-1 b in the layout's order."""
        from scipy.linalg import lapack

        nb = self.layout.n_band
        top = _band_solve(self._l_band, b[:nb])
        bottom, _ = lapack.dtrtrs(self._l_schur, b[nb:] - self._y.T @ top, lower=1)
        return np.concatenate([top, bottom])

    def _backward(self, y: np.ndarray) -> np.ndarray:
        """L'^-1 y in the layout's order."""
        from scipy.linalg import lapack

        nb = self.layout.n_band
        bottom, _ = lapack.dtrtrs(self._l_schur, y[nb:], lower=1, trans=1)
        top = _band_solve(self._l_band, y[:nb] - self._y @ bottom, trans="T")
        return np.concatenate([top, bottom])

    def _multiply(self, x: np.ndarray) -> np.ndarray:
        """P x in the layout's order."""
        from scipy.linalg import blas

        nb = self.layout.n_band
        top = self._arm @ x[nb:]
        if nb:  # BLAS refuses an empty band
            top += blas.dsbmv(self.layout.bandwidth, 1.0, self._band, x[:nb], lower=1)
        bottom = self._arm.T @ x[:nb] + blas.dsymv(1.0, self._tip, x[nb:], lower=1)
        return np.concatenate([top, bottom])

    def inv_quad(self, b: np.ndarray) -> float:
        """b' P^-1 b for a vector b, as the squared norm of L^-1 b."""
        y = self._forward(np.asarray(b, dtype=float)[self.layout.order])
        return float(y @ y)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve P x = b for a vector b.

        The band factor fills its whole band, so the small entries of x carry
        more rounding than a fill-reducing sparse factor leaves in them; one
        step of iterative refinement on the residual b - P x brings them back
        to that level.
        """
        order = self.layout.order
        b = np.asarray(b, dtype=float)[order]
        x = self._backward(self._forward(b))
        x += self._backward(self._forward(b - self._multiply(x)))
        out = np.empty_like(x)
        out[order] = x
        return out

    def transform(self, z: np.ndarray) -> np.ndarray:
        """Map standard normals z, shape (m, n), to m draws from N(0, P^-1).

        Row k of the output is L'^-1 applied to row k of z alone, so its bits
        do not depend on m.
        """
        out = np.empty((z.shape[0], self.layout.order.size))
        for k, row in enumerate(z):
            out[k, self.layout.order] = self._backward(row)
        return out


def _splu(Q: sparse.csc_matrix):
    from scipy.sparse.linalg import splu

    return splu(Q, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))


class SymmetricFactor:
    """SuperLU factorization of a sparse SPD matrix.

    Internally Q[p, :][:, p] = L U with U = D L^T and p a minimum-degree
    order, so Q factors as (L sqrt(D)) (L sqrt(D))^T in the permuted order.
    """

    def __init__(self, Q: sparse.spmatrix):
        from scipy import sparse

        Q = sparse.csc_matrix(Q)
        if Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        self.n = Q.shape[0]
        try:
            self._lu = _splu(Q)
        except RuntimeError as exc:  # singular factor
            raise NumericalError(f"sparse factorization failed: {exc}") from exc
        if not np.array_equal(self._lu.perm_r, self._lu.perm_c):
            raise NumericalError("symmetric factorization produced unequal permutations")
        d = self._lu.U.diagonal()
        if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
            raise NumericalError("matrix is not positive definite")
        self._diag_u = d
        self._perm = np.asarray(self._lu.perm_c)

    @property
    def logdet(self) -> float:
        """log det Q."""
        return float(np.sum(np.log(self._diag_u)))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve Q x = b (b may be a matrix of stacked right-hand sides)."""
        return self._lu.solve(np.asarray(b, dtype=float))

    def transform(self, z: np.ndarray) -> np.ndarray:
        """Map standard normals z, shape (m, n), to m draws from N(0, Q^-1).

        Row k of the output uses row k of z only.
        """
        from scipy import sparse
        from scipy.sparse.linalg import spsolve_triangular

        # solving M^T y = z with M = L sqrt(D) draws y ~ N(0, Q_perm^-1)
        m_t = (self._lu.L @ sparse.diags(np.sqrt(self._diag_u))).T.tocsr()
        y = spsolve_triangular(m_t, z.T, lower=False)
        # permuted row i is original row inv_perm[i], so gather at perm
        return y[self._perm].T

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """Draw from N(0, Q^-1); returns shape (n,) or (size, n).

        Row k of a size=m call uses the same n normals, in the same order,
        as the k-th of m size=None calls on the same generator.
        """
        out = self.transform(rng.standard_normal((1 if size is None else size, self.n)))
        return out[0] if size is None else out
