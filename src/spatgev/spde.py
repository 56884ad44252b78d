"""Mesh-based Gaussian Markov random field with Matern covariance.

A Matern field (smoothness nu=1 in two dimensions) is represented by the
finite-element approximation on a triangulation: the precision matrix is a
sparse polynomial in the lumped mass matrix C and the stiffness matrix G,

    Q = tau^2 (kappa^4 C + 2 kappa^2 G + G C^-1 G),  kappa = sqrt(8) / rho,

with tau^2 = 1 / (4 pi kappa^2 s^2) chosen so the field has marginal standard
deviation s away from the boundary.  rho is the distance at which the
correlation has fallen to about 0.14.

The mesh covers the convex hull of the observation sites plus a buffer ring so
that boundary effects stay away from the sites.  Field values at arbitrary
points come from a barycentric projector.  scipy is imported by the functions
that use it: a stored mesh projects points with numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._sparse import SymmetricFactor
from .errors import DataError, NumericalError

if TYPE_CHECKING:
    from scipy import sparse
    from scipy.spatial import ConvexHull

__all__ = [
    "MeshOptions",
    "Mesh",
    "build_mesh",
    "fem_matrices",
    "precision_matrix",
    "precision_terms",
    "precision_coefficients",
    "field_eigenvalues",
    "precision_logdet_fast",
    "sample_field",
    "projector",
    "pc_prior_logdensity",
    "nugget_prior_logdensity",
]

# -log(0.05): tail mass of the penalized-complexity calibration
_PC_TAIL = -math.log(0.05)
# a barycentric weight this far below zero still counts as inside the triangle
_INSIDE_TOL = 1e-12


@dataclass(frozen=True)
class MeshOptions:
    """Mesh construction knobs, all relative to the site cloud diameter."""

    interior_divisor: float = 15.0
    buffer_fraction: float = 0.2
    buffer_divisor: float = 6.0
    site_exclusion_fraction: float = 0.5

    def validate(self) -> None:
        if self.interior_divisor <= 0 or self.buffer_divisor <= 0:
            raise ValueError("spacing divisors must be positive")
        if self.buffer_fraction <= 0:
            raise ValueError("buffer_fraction must be positive")


@dataclass
class Mesh:
    """Triangulation with the observation sites as leading nodes.

    Plain arrays: the node coordinates, the triangles as rows of node indices,
    the number of leading nodes that are sites, and the site cloud diameter.
    to_dict and from_dict carry it through JSON bit for bit, so a fit directory
    stores the mesh and later commands need no triangulation.

    The finite-element quantities below depend on the triangulation alone, so
    each is computed on first use and then shared by every latent structure
    built on this mesh.
    """

    points: np.ndarray  # (n_nodes, 2)
    triangles: np.ndarray  # (n_tri, 3) indices into points
    n_sites: int
    diameter: float

    @property
    def n_nodes(self) -> int:
        return self.points.shape[0]

    def to_dict(self) -> dict:
        """JSON-ready form; floats keep their repr, so they read back exactly."""
        return {"n_sites": int(self.n_sites), "diameter": float(self.diameter),
                "points": self.points.tolist(), "triangles": self.triangles.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Mesh":
        """Inverse of to_dict; raises DataError on a malformed mesh."""
        try:
            points = np.array(d["points"], dtype=float)
            triangles = np.array(d["triangles"], dtype=np.int64)
            n_sites, diameter = int(d["n_sites"]), float(d["diameter"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed mesh: {exc!r}") from exc
        if (points.ndim != 2 or points.shape[1] != 2 or not np.all(np.isfinite(points))
                or triangles.ndim != 2 or triangles.shape[1] != 3
                or triangles.min(initial=0) < 0
                or triangles.max(initial=0) >= points.shape[0]
                or not 0 < n_sites <= points.shape[0]):
            raise DataError("malformed mesh: points, triangles and n_sites disagree")
        return cls(points=points, triangles=triangles, n_sites=n_sites, diameter=diameter)

    @cached_property
    def fem(self) -> tuple:
        """(C, G) from fem_matrices."""
        return fem_matrices(self)

    @cached_property
    def field_spectrum(self) -> tuple:
        """field_eigenvalues of (C, G) and log det C, for precision_logdet_fast.

        A dense eigenproblem, O(n^3) in mesh nodes.
        """
        C, G = self.fem
        return field_eigenvalues(C, G), float(np.sum(np.log(C.diagonal())))

    @cached_property
    def precision_terms(self) -> tuple:
        """precision_terms of (C, G)."""
        return precision_terms(*self.fem)


def _site_diameter(sites: np.ndarray) -> float:
    d = sites[:, None, :] - sites[None, :, :]
    return float(np.sqrt((d**2).sum(-1)).max())


def _buffer_ring(hull: ConvexHull, offset: float, spacing: float) -> np.ndarray:
    """Points on the hull boundary pushed outward along edge normals.

    The offset is modulated point by point (deterministically, by a few
    percent) so no three ring points are exactly collinear; collinear hull
    points make the triangulation emit zero-area simplices.
    """
    verts = hull.points[hull.vertices]  # counter-clockwise
    ring = []
    # fixed-seed stream: deterministic, but with no arithmetic structure that
    # could keep consecutive points collinear
    bump_rng = np.random.default_rng(0x5DE)

    def bump() -> float:
        return 1.0 + 0.06 * float(bump_rng.uniform())

    k = len(verts)
    for i in range(k):
        v0, v1 = verts[i], verts[(i + 1) % k]
        edge = v1 - v0
        elen = float(np.hypot(*edge))
        if elen == 0.0:
            continue
        normal = np.array([edge[1], -edge[0]]) / elen  # outward for ccw order
        n_seg = max(1, int(np.ceil(elen / spacing)))
        for s in range(n_seg):
            ring.append(v0 + edge * (s / n_seg) + normal * offset * bump())
        # vertex point along the bisector keeps corners covered
        v_prev = verts[i - 1]
        prev_edge = v0 - v_prev
        plen = float(np.hypot(*prev_edge))
        if plen > 0.0:
            prev_normal = np.array([prev_edge[1], -prev_edge[0]]) / plen
            bis = normal + prev_normal
            blen = float(np.hypot(*bis))
            if blen > 1e-12:
                ring.append(v0 + bis / blen * offset * bump())
    return np.asarray(ring)


def _edge_distance(points: np.ndarray, hull: ConvexHull) -> np.ndarray:
    """Distance from each point to the nearest hull edge."""
    verts = hull.points[hull.vertices]
    k = len(verts)
    dists = np.full(points.shape[0], np.inf)
    for i in range(k):
        v0, v1 = verts[i], verts[(i + 1) % k]
        edge = v1 - v0
        L2 = float(edge @ edge)
        if L2 == 0.0:
            continue
        t = np.clip((points - v0) @ edge / L2, 0.0, 1.0)
        proj = v0 + t[:, None] * edge
        dists = np.minimum(dists, np.linalg.norm(points - proj, axis=1))
    return dists


def _thin_points(points: np.ndarray, min_sep: float, keep: int = 0) -> np.ndarray:
    """Greedy pass dropping points closer than min_sep to an earlier point.

    The first `keep` points are always retained.
    """
    if points.shape[0] == 0:
        return points
    kept_idx: list[int] = list(range(keep))
    for i in range(keep, points.shape[0]):
        if not kept_idx:
            kept_idx.append(i)
            continue
        # brute force over kept points: candidate counts are small
        d = np.linalg.norm(points[kept_idx] - points[i], axis=1)
        if d.min() > min_sep:
            kept_idx.append(i)
    return points[kept_idx]


def build_mesh(sites: np.ndarray, options: MeshOptions | None = None) -> Mesh:
    """Triangulate the sites together with an interior grid and a buffer ring.

    The sites themselves are always mesh nodes (the first n_sites ones).
    Raises DataError for fewer than three sites, duplicate sites, or a
    degenerate (collinear) configuration.
    """
    from scipy.spatial import ConvexHull, Delaunay, QhullError

    options = options or MeshOptions()
    options.validate()
    sites = np.asarray(sites, dtype=float)
    if sites.ndim != 2 or sites.shape[1] != 2:
        raise DataError("sites must be an (n, 2) array of coordinates")
    if sites.shape[0] < 3:
        raise DataError("mesh needs at least 3 sites")
    d = sites[:, None, :] - sites[None, :, :]
    dist = np.sqrt((d**2).sum(-1))
    np.fill_diagonal(dist, np.inf)
    if dist.min() == 0.0:
        raise DataError("duplicate site coordinates")

    diameter = _site_diameter(sites)
    try:
        hull = ConvexHull(sites)
    except QhullError as exc:
        raise DataError(f"sites are degenerate (collinear?): {exc}") from exc

    interior_spacing = diameter / options.interior_divisor
    buffer_offset = options.buffer_fraction * diameter
    buffer_spacing = diameter / options.buffer_divisor

    # regular grid clipped to the hull interior, kept clear of the sites and
    # of the hull boundary so no sliver triangles appear
    lo = sites.min(axis=0)
    hi = sites.max(axis=0)
    gx = np.arange(lo[0], hi[0] + interior_spacing, interior_spacing)
    gy = np.arange(lo[1], hi[1] + interior_spacing, interior_spacing)
    grid = np.stack(np.meshgrid(gx, gy), axis=-1).reshape(-1, 2)

    hull_tri = Delaunay(sites)
    grid = grid[hull_tri.find_simplex(grid) >= 0]
    clearance = options.site_exclusion_fraction * interior_spacing
    if grid.size:
        gd = grid[:, None, :] - sites[None, :, :]
        gdist = np.sqrt((gd**2).sum(-1)).min(axis=1)
        grid = grid[gdist > clearance]
    if grid.size:
        grid = grid[_edge_distance(grid, hull) > clearance]

    ring = _buffer_ring(hull, buffer_offset, buffer_spacing)
    ring = _thin_points(ring, 0.25 * buffer_spacing)

    points = np.vstack([sites, grid, ring]) if ring.size else np.vstack([sites, grid])
    points = _thin_points(points, 1e-8 * diameter, keep=sites.shape[0])
    try:
        tri = Delaunay(points)
    except QhullError as exc:
        raise DataError(f"triangulation failed: {exc}") from exc
    # every site must be a vertex of the triangulation
    used = np.unique(tri.simplices)
    if not np.all(np.isin(np.arange(sites.shape[0]), used)):
        raise NumericalError("a site was dropped from the triangulation")
    return Mesh(points=points, triangles=tri.simplices, n_sites=sites.shape[0],
                diameter=diameter)


def fem_matrices(mesh: Mesh) -> tuple[sparse.csc_matrix, sparse.csc_matrix]:
    """Lumped mass matrix C (diagonal) and stiffness matrix G for linear elements."""
    from scipy import sparse

    pts = mesh.points
    tri = mesh.triangles
    x = pts[tri, 0]
    y = pts[tri, 1]
    # b_a = y_b - y_c and c_a = x_c - x_b for cyclic (a, b, c)
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]  # 2T, signed
    area = 0.5 * np.abs(area2)
    if np.any(area <= 0.0):
        raise NumericalError("degenerate triangle in mesh")

    n = mesh.n_nodes
    rows, cols, vals = [], [], []
    for a in range(3):
        for bb in range(3):
            rows.append(tri[:, a])
            cols.append(tri[:, bb])
            vals.append((b[:, a] * b[:, bb] + c[:, a] * c[:, bb]) / (4.0 * area))
    G = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsc()

    c_diag = np.zeros(n)
    for a in range(3):
        np.add.at(c_diag, tri[:, a], area / 3.0)
    C = sparse.diags(c_diag, format="csc")
    return C, G


def precision_matrix(C: sparse.spmatrix, G: sparse.spmatrix, rho: float, s: float) -> sparse.csc_matrix:
    """Sparse precision of the Matern (nu=1) field with range rho and sd s."""
    if rho <= 0 or s <= 0:
        raise ValueError("rho and s must be positive")
    from scipy import sparse

    kappa = math.sqrt(8.0) / rho
    tau2 = 1.0 / (4.0 * math.pi * kappa**2 * s**2)
    c_inv = sparse.diags(1.0 / C.diagonal(), format="csc")
    K = (kappa**2) * C + G
    Q = tau2 * (K @ c_inv @ K)
    return sparse.csc_matrix(Q)


def _values_on(pattern: sparse.csc_matrix, M: sparse.spmatrix) -> np.ndarray:
    """Entries of M in the order of pattern.data; pattern must cover M's nonzeros."""
    n = pattern.shape[0]
    cols = np.repeat(np.arange(n), np.diff(pattern.indptr))
    keys = cols * n + pattern.indices
    M = M.tocoo()
    out = np.zeros(pattern.nnz)
    np.add.at(out, np.searchsorted(keys, M.col.astype(np.int64) * n + M.row), M.data)
    return out


def precision_terms(C: sparse.spmatrix, G: sparse.spmatrix) -> tuple:
    """C, G and G C^-1 G as data vectors on one common sparsity pattern.

    Returns (pattern, terms): pattern is a csc matrix with sorted indices
    whose nonzeros are those of G C^-1 G taken structurally (it covers the
    patterns of C and G, and keeps entries that cancel numerically), and
    terms is a (3, nnz) array holding, in pattern.data order, the entries of
    C, G and G C^-1 G.  With the coefficients of precision_coefficients,
    terms.T @ coefficients is the data of precision_matrix on that pattern:
    Q = tau^2 kappa^4 C + 2 tau^2 kappa^2 G + tau^2 G C^-1 G.
    """
    from scipy import sparse

    n = C.shape[0]
    struct = (abs(sparse.csc_matrix(G)) + sparse.identity(n, format="csc")).tocsc()
    struct.data[:] = 1.0
    pattern = (struct @ struct).tocsc()  # positive entries: no cancellation
    pattern.sort_indices()
    c_inv = sparse.diags(1.0 / C.diagonal(), format="csc")
    gcg = (G @ c_inv @ G).tocsc()
    terms = np.stack([_values_on(pattern, M) for M in (C, G, gcg)])
    return pattern, terms


def precision_coefficients(rho: float, s: float) -> np.ndarray:
    """Weights of C, G and G C^-1 G in precision_matrix(C, G, rho, s)."""
    if rho <= 0 or s <= 0:
        raise ValueError("rho and s must be positive")
    kappa2 = 8.0 / rho**2
    tau2 = 1.0 / (4.0 * math.pi * kappa2 * s**2)
    return np.array([tau2 * kappa2**2, 2.0 * tau2 * kappa2, tau2])


def field_eigenvalues(C: sparse.spmatrix, G: sparse.spmatrix) -> np.ndarray:
    """Eigenvalues of C^-1/2 G C^-1/2, precomputed once per mesh.

    With these, log det(kappa^2 C + G) = log det C + sum log(kappa^2 + lam_i),
    so the precision log-determinant needs no factorization per evaluation.
    """
    c = C.diagonal()
    scale = 1.0 / np.sqrt(c)
    M = (G.multiply(scale[:, None])).multiply(scale[None, :]).toarray()
    lam = np.linalg.eigvalsh(0.5 * (M + M.T))
    return np.maximum(lam, 0.0)


def precision_logdet_fast(lam: np.ndarray, logdet_c: float, rho: float, s: float) -> float:
    """log det Q from precomputed eigenvalues."""
    n = lam.shape[0]
    kappa2 = 8.0 / rho**2
    tau2 = 1.0 / (4.0 * math.pi * kappa2 * s**2)
    return n * math.log(tau2) + logdet_c + 2.0 * float(np.sum(np.log(kappa2 + lam)))


def sample_field(Q: sparse.spmatrix, rng: np.random.Generator, size: int | None = None):
    """Draw u ~ N(0, Q^-1)."""
    return SymmetricFactor(Q).sample(rng, size=size)


def projector(mesh: Mesh, points: np.ndarray) -> np.ndarray:
    """Dense (m, n_nodes) matrix mapping node values to values at the points.

    Each row holds the barycentric weights of a triangle containing the point:
    at most three nonzeros, nonnegative, summing to one.  A point that
    coincides with a node gets an exact unit row.  Points outside the mesh
    raise DataError.  Every (point, triangle) pair whose bounding box holds
    the point is tested at once; a point on an edge or a node lies in several
    triangles and takes the lowest-numbered one.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    m = points.shape[0]
    corners = mesh.points[mesh.triangles]  # (n_tri, 3, 2)
    slack = 1e-12 * mesh.diameter
    lo, hi = corners.min(axis=1) - slack, corners.max(axis=1) + slack
    # row-major order: each point's pairs come in increasing triangle number
    x = points[:, 0, None]
    pt, tri = np.nonzero((x >= lo[:, 0]) & (x <= hi[:, 0]))
    y = points[pt, 1]
    in_box = (y >= lo[tri, 1]) & (y <= hi[tri, 1])
    pt, tri = pt[in_box], tri[in_box]
    # the weights w0, w1 of vertices 0 and 1 solve [v0 - v2, v1 - v2] w = p - v2
    v2 = corners[tri, 2]
    e0, e1, d = corners[tri, 0] - v2, corners[tri, 1] - v2, points[pt] - v2
    with np.errstate(divide="ignore", invalid="ignore"):
        det = e0[:, 0] * e1[:, 1] - e1[:, 0] * e0[:, 1]
        w0 = (e1[:, 1] * d[:, 0] - e1[:, 0] * d[:, 1]) / det
        w1 = (e0[:, 0] * d[:, 1] - e0[:, 1] * d[:, 0]) / det
    w = np.column_stack([w0, w1, 1.0 - (w0 + w1)])
    inside = w.min(axis=1) >= -_INSIDE_TOL
    pt, tri, w = pt[inside], tri[inside], w[inside]
    found, first = np.unique(pt, return_index=True)  # first pair of each point
    if found.size < m:
        bad = np.setdiff1d(np.arange(m), found)
        raise DataError(f"points outside the mesh at rows {bad.tolist()}")
    w = np.clip(w[first], 0.0, 1.0)
    w /= w.sum(axis=1, keepdims=True)
    # snap near-unit weights so node points give exact unit rows
    snap = w > 1.0 - 1e-9
    w[snap.any(axis=1)] = 0.0
    w[snap] = 1.0
    A = np.zeros((m, mesh.n_nodes))
    A[np.arange(m)[:, None], mesh.triangles[tri[first]]] = w
    return A


# ----------------------------------------------------------------------------
# Penalized-complexity priors for the field hyperparameters
# ----------------------------------------------------------------------------

def pc_prior_logdensity(s, rho, s0: float, rho0: float):
    """Joint log prior for (marginal sd, range).

    Calibrated so P(s > s0) = 0.05 and P(rho < rho0) = 0.05:
    pi(s, rho) = lam_rho * lam_s * rho^-2 * exp(-lam_rho / rho - lam_s * s).
    """
    if s0 <= 0 or rho0 <= 0:
        raise ValueError("s0 and rho0 must be positive")
    s = np.asarray(s, dtype=float)
    rho = np.asarray(rho, dtype=float)
    lam_s = _PC_TAIL / s0
    lam_rho = rho0 * _PC_TAIL
    with np.errstate(divide="ignore"):
        out = np.where(
            (s > 0) & (rho > 0),
            math.log(lam_rho) + math.log(lam_s) - 2.0 * np.log(rho) - lam_rho / rho - lam_s * s,
            -np.inf,
        )
    return out if out.ndim else float(out)


def nugget_prior_logdensity(sd, eps0: float):
    """Exponential log prior on a noise sd, calibrated so P(sd > eps0) = 0.05."""
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    sd = np.asarray(sd, dtype=float)
    lam = _PC_TAIL / eps0
    out = np.where(sd > 0, math.log(lam) - lam * sd, -np.inf)
    return out if out.ndim else float(out)
