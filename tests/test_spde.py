"""Tests for the mesh, FEM matrices, Matern precision, and PC priors.

The single-triangle stiffness/mass entries are worked out by hand; the
correlation value at the range distance is frozen from mpmath.
"""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.spatial import ConvexHull, Delaunay

from matern_oracle import matern_correlation, precision_logdet
from spatgev.errors import DataError
from spatgev.simulate import Scenario, simulate_dataset
from spatgev.spde import (
    Mesh,
    MeshOptions,
    _convex_hull,
    build_mesh,
    fem_matrices,
    nugget_prior_logdensity,
    pc_prior_logdensity,
    precision_matrix,
    projector,
    sample_field,
)

# sqrt(8) * K_1(sqrt(8)), frozen from mpmath at 40 digits
MATERN_AT_RHO = 0.13966747401529314


def _sites(n=40, seed=31):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 10.0, size=(n, 2))


def _triangle_set(triangles):
    """Triangles as a set of sorted corner triples: order-free equality."""
    return {tuple(sorted(t)) for t in np.asarray(triangles).tolist()}


# the meshes of both benchmark workloads' seeds (60 sites with a trend),
# 40 random site sets of 3-199 sites, and 554 simulated sites
ORACLE_SITE_SETS = ([("workload60", 11), ("workload60", 9)]
                    + [("random", seed) for seed in range(40)] + [("simulated554", 1)])


def _oracle_sites(kind, seed):
    if kind == "random":
        rng = np.random.default_rng(1000 + seed)
        return rng.uniform(0.0, 10.0, size=(int(rng.integers(3, 200)), 2))
    scenario = Scenario(n_sites=60, trend=True) if kind == "workload60" else Scenario(n_sites=554)
    return simulate_dataset(scenario, seed=seed).dataset.sites


class TestMesh:
    def test_sites_are_leading_nodes(self):
        sites = _sites()
        mesh = build_mesh(sites)
        assert_allclose(mesh.points[: len(sites)], sites)
        assert mesh.n_sites == len(sites)

    def test_three_site_mesh(self):
        sites = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
        mesh = build_mesh(sites)
        # the three sites are nodes, a buffer exists outside their hull, and
        # every site locates inside the triangulation
        assert_allclose(mesh.points[:3], sites)
        assert mesh.n_nodes > 3
        A = projector(mesh, sites)
        assert A.shape == (3, mesh.n_nodes)

    def test_buffer_extends_beyond_hull(self):
        sites = _sites()
        mesh = build_mesh(sites)
        pad = 0.2 * mesh.diameter
        lo, hi = sites.min(0), sites.max(0)
        assert mesh.points[:, 0].min() < lo[0] - 0.5 * pad
        assert mesh.points[:, 0].max() > hi[0] + 0.5 * pad
        assert mesh.points[:, 1].min() < lo[1] - 0.5 * pad
        assert mesh.points[:, 1].max() > hi[1] + 0.5 * pad

    def test_options_control_density(self):
        sites = _sites()
        coarse = build_mesh(sites, MeshOptions(interior_divisor=6.0))
        fine = build_mesh(sites, MeshOptions(interior_divisor=25.0))
        assert fine.n_nodes > coarse.n_nodes

    def test_degenerate_inputs(self):
        with pytest.raises(DataError):
            build_mesh(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(DataError):
            build_mesh(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
        with pytest.raises(DataError):
            build_mesh(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]))
        # collinear up to 1e-15 relative: the hull has no area to mesh
        with pytest.raises(DataError, match="collinear"):
            build_mesh(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0 * (1.0 + 1e-15)]]))
        with pytest.raises(DataError, match=r"non-finite .* rows \[1\]"):
            build_mesh(np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 0.0], [0.5, 1.0]]))

    @pytest.mark.parametrize("kind, seed", ORACLE_SITE_SETS)
    def test_matches_qhull(self, kind, seed):
        # oracle: Qhull's Delaunay triangulation of the same nodes and its
        # hull of the sites; the bumped grid leaves one Delaunay triangulation
        sites = _oracle_sites(kind, seed)
        mesh = build_mesh(sites)
        assert _triangle_set(mesh.triangles) == _triangle_set(Delaunay(mesh.points).simplices)
        assert set(_convex_hull(sites).tolist()) == set(ConvexHull(sites).vertices.tolist())
        # every triangle is counter-clockwise with positive area
        e1, e2 = (mesh.points[mesh.triangles[:, k]] - mesh.points[mesh.triangles[:, 0]]
                  for k in (1, 2))
        assert np.all(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] > 0.0)


    def test_cocircular_sites(self, monkeypatch):
        # a rotated integer grid: many sites are cocircular to rounding, so
        # the circle tests near a tie are redone exactly; the result is still
        # a triangulation of the hull with empty circumcircles
        import spatgev.spde

        exact = []

        def counted(*args, _fn=spatgev.spde._exact_inside):
            exact.append(1)
            return _fn(*args)

        monkeypatch.setattr(spatgev.spde, "_exact_inside", counted)
        grid = np.stack(np.meshgrid(np.arange(10.0), np.arange(8.0)), axis=-1).reshape(-1, 2)
        sites = grid @ np.array([[0.6, 0.8], [-0.8, 0.6]])
        mesh = build_mesh(sites)
        assert exact
        pts, tri = mesh.points, mesh.triangles
        e1, e2 = pts[tri[:, 1]] - pts[tri[:, 0]], pts[tri[:, 2]] - pts[tri[:, 0]]
        area2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        assert np.all(area2 > 0.0)
        hull = pts[ConvexHull(pts).vertices]
        hull_area = 0.5 * abs(np.sum(hull[:, 0] * np.roll(hull[:, 1], -1)
                                     - np.roll(hull[:, 0], -1) * hull[:, 1]))
        assert_allclose(0.5 * area2.sum(), hull_area, rtol=1e-12)
        assert np.unique(tri).size == mesh.n_nodes
        # no node lies inside a triangle's circumcircle, beyond rounding
        a, b, c = (pts[tri[:, k]][:, None, :] - pts[None, :, :] for k in range(3))

        def cross(u, v):
            return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]

        incircle = ((a * a).sum(-1) * cross(b, c) + (b * b).sum(-1) * cross(c, a)
                    + (c * c).sum(-1) * cross(a, b))
        assert incircle.max() <= 1e-9 * mesh.diameter**4


class TestFemMatrices:
    def test_single_triangle_by_hand(self):
        # unit right triangle: area 1/2, hand-computed entries
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tri = np.array([[0, 1, 2]])
        mesh = Mesh(points=pts, triangles=tri, n_sites=3, diameter=math.sqrt(2.0))
        C, G = fem_matrices(mesh)
        assert_allclose(C.diagonal(), [1.0 / 6.0] * 3, rtol=1e-14)
        expected_G = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert_allclose(G.toarray(), expected_G, atol=1e-14)

    def test_conservation_properties(self):
        mesh = build_mesh(_sites())
        C, G = fem_matrices(mesh)
        # stiffness annihilates constants; lumped mass sums to total area
        assert_allclose(np.abs(G @ np.ones(mesh.n_nodes)).max(), 0.0, atol=1e-10)
        x = mesh.points
        tri_pts = x[mesh.triangles]
        v1 = tri_pts[:, 1] - tri_pts[:, 0]
        v2 = tri_pts[:, 2] - tri_pts[:, 0]
        total_area = 0.5 * np.abs(v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]).sum()
        assert_allclose(C.diagonal().sum(), total_area, rtol=1e-12)
        # symmetry
        assert (G - G.T).nnz == 0 or np.abs((G - G.T).toarray()).max() < 1e-12


class TestPrecision:
    def test_logdet_identity(self):
        # factored identity Q = tau^2 K C^-1 K gives the same logdet as a
        # dense factorization of the assembled Q; the eigenvalue route is a
        # third independent path to the same number
        from spatgev.spde import field_eigenvalues, precision_logdet_fast

        mesh = build_mesh(_sites())
        C, G = fem_matrices(mesh)
        lam = field_eigenvalues(C, G)
        logdet_c = float(np.sum(np.log(C.diagonal())))
        for rho, s in [(3.0, 0.5), (1.2, 1.7), (8.0, 0.05)]:
            Q = precision_matrix(C, G, rho=rho, s=s)
            direct = np.linalg.slogdet(Q.toarray())[1]
            assert_allclose(direct, precision_logdet(C, G, rho=rho, s=s), rtol=1e-10)
            assert_allclose(direct, precision_logdet_fast(lam, logdet_c, rho, s), rtol=1e-9)

    def test_marginal_sd_matches_target(self):
        mesh = build_mesh(_sites(n=60, seed=5))
        C, G = fem_matrices(mesh)
        s = 0.7
        Q = precision_matrix(C, G, rho=2.5, s=s)
        cov = np.linalg.inv(Q.toarray())
        sd = np.sqrt(np.diag(cov))[: mesh.n_sites]  # sites sit well inside
        assert abs(np.median(sd) / s - 1.0) < 0.1

    def test_correlation_at_range_distance(self):
        assert_allclose(matern_correlation(3.0, 3.0), MATERN_AT_RHO, rtol=1e-12)
        assert matern_correlation(0.0, 3.0) == 1.0
        mesh = build_mesh(_sites(n=60, seed=5))
        C, G = fem_matrices(mesh)
        rho = 2.5
        Q = precision_matrix(C, G, rho=rho, s=0.7)
        cov = np.linalg.inv(Q.toarray())
        sd = np.sqrt(np.diag(cov))
        corr = cov / np.outer(sd, sd)
        pts = mesh.points[: mesh.n_sites]
        center = pts.mean(0)
        inner = np.where(np.linalg.norm(pts - center, axis=1) < 0.25 * mesh.diameter)[0]
        vals = []
        for i in inner:
            d = np.linalg.norm(pts - pts[i], axis=1)
            near = np.where(np.abs(d - rho) < 0.15 * rho)[0]
            vals.extend(corr[i, j] for j in near if j != i)
        assert len(vals) > 5
        # empirical correlation at distance rho sits near the nominal 0.14
        assert 0.10 < np.median(vals) < 0.18

    def test_sample_field_reproducible(self):
        mesh = build_mesh(_sites(n=30, seed=8))
        C, G = fem_matrices(mesh)
        Q = precision_matrix(C, G, rho=3.0, s=1.0)
        a = sample_field(Q, np.random.default_rng(3))
        b = sample_field(Q, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert a.shape == (mesh.n_nodes,)


class TestProjector:
    def test_site_rows_are_unit(self):
        sites = _sites()
        mesh = build_mesh(sites)
        A = projector(mesh, sites)
        assert np.array_equal(A, np.eye(mesh.n_nodes)[: len(sites)])

    def test_node_rows_are_unit(self):
        # every node, sites, interior grid and buffer ring alike, lies on
        # several triangles and still gets an exact unit row
        mesh = build_mesh(_sites())
        assert np.array_equal(projector(mesh, mesh.points), np.eye(mesh.n_nodes))

    def test_rows_are_barycentric(self):
        mesh = build_mesh(_sites())
        rng = np.random.default_rng(17)
        pts = rng.uniform(2.0, 8.0, size=(50, 2))
        A = projector(mesh, pts)
        assert A.shape == (50, mesh.n_nodes)
        assert_allclose(A.sum(axis=1), 1.0, atol=1e-12)
        assert A.min() >= 0.0
        assert np.all(np.count_nonzero(A, axis=1) <= 3)
        # the nonzeros sit on the vertices of one triangle
        tri_sets = {frozenset(t) for t in mesh.triangles.tolist()}
        for row in A:
            nz = frozenset(np.flatnonzero(row).tolist())
            assert any(nz <= t for t in tri_sets)

    @pytest.mark.parametrize("n_sites, seed", [(40, 31), (120, 7)])
    def test_matches_qhull_weights(self, n_sites, seed):
        # oracle: Qhull's point location and barycentric transform on the
        # same triangulation
        mesh = build_mesh(_sites(n=n_sites, seed=seed))
        tri = Delaunay(mesh.points)
        assert _triangle_set(tri.simplices) == _triangle_set(mesh.triangles)
        rng = np.random.default_rng(seed + 1)
        pts = rng.uniform(0.5, 9.5, size=(1000, 2))
        simplex = tri.find_simplex(pts)
        assert np.all(simplex >= 0)
        T = tri.transform[simplex]
        bary2 = np.einsum("mij,mj->mi", T[:, :2, :], pts - T[:, 2, :])
        expected = np.zeros((pts.shape[0], mesh.n_nodes))
        expected[np.arange(pts.shape[0])[:, None], tri.simplices[simplex]] = np.column_stack(
            [bary2, 1.0 - bary2.sum(axis=1)])
        assert np.abs(projector(mesh, pts) - expected).max() <= 1e-12

    def test_exact_for_linear_functions(self):
        mesh = build_mesh(_sites())
        rng = np.random.default_rng(18)
        pts = rng.uniform(2.0, 8.0, size=(50, 2))
        A = projector(mesh, pts)
        f = lambda xy: 2.0 + 3.0 * xy[:, 0] - 5.0 * xy[:, 1]
        assert_allclose(A @ f(mesh.points), f(pts), rtol=1e-10)

    def test_outside_mesh_raises(self):
        mesh = build_mesh(_sites())
        with pytest.raises(DataError, match=r"rows \[1\]"):
            projector(mesh, np.array([[5.0, 5.0], [1e6, 1e6]]))

    def test_stored_mesh_projects_alike(self):
        # the JSON form keeps every float, so a mesh read back projects the
        # same bits as the one built
        mesh = build_mesh(_sites())
        back = Mesh.from_dict(json.loads(json.dumps(mesh.to_dict())))
        assert np.array_equal(back.points, mesh.points)
        assert np.array_equal(back.triangles, mesh.triangles)
        assert (back.n_sites, back.diameter) == (mesh.n_sites, mesh.diameter)
        pts = np.random.default_rng(19).uniform(2.0, 8.0, size=(20, 2))
        assert np.array_equal(projector(back, pts), projector(mesh, pts))

    def test_malformed_stored_mesh_refused(self):
        d = build_mesh(_sites()).to_dict()
        for bad in ({**d, "triangles": [[0, 1, len(d["points"])]]},
                    {**d, "points": [[0.0, 1.0, 2.0]]},
                    {k: v for k, v in d.items() if k != "n_sites"}):
            with pytest.raises(DataError):
                Mesh.from_dict(bad)


class TestPcPriors:
    def test_joint_density_normalizes(self):
        s0, rho0 = 1.0, 2.0
        f = lambda rho, s: np.exp(pc_prior_logdensity(s, rho, s0, rho0))
        val, _ = integrate.dblquad(f, 0.0, np.inf, 0.0, np.inf)
        assert_allclose(val, 1.0, atol=1e-6)

    def test_tail_calibration(self):
        s0, rho0 = 0.8, 3.0
        lam_s = -math.log(0.05) / s0
        # P(s > s0) = 0.05 follows from the exponential marginal
        assert_allclose(math.exp(-lam_s * s0), 0.05, rtol=1e-12)
        # P(rho < rho0) = 0.05 for the inverse-range exponential; dblquad
        # integrates func(y, x) with x outer, so x=rho and y=s here
        dens = lambda s, rho: np.exp(pc_prior_logdensity(s, rho, 0.8, rho0))
        mass, _ = integrate.dblquad(dens, 0.0, rho0, 0.0, np.inf)
        assert_allclose(mass, 0.05, atol=1e-6)

    def test_nugget_prior(self):
        eps0 = 0.5
        lam = -math.log(0.05) / eps0
        assert_allclose(nugget_prior_logdensity(0.3, eps0), math.log(lam) - lam * 0.3, rtol=1e-12)
        val, _ = integrate.quad(lambda x: math.exp(nugget_prior_logdensity(x, eps0)), 0, np.inf)
        assert_allclose(val, 1.0, atol=1e-9)
        tail, _ = integrate.quad(lambda x: math.exp(nugget_prior_logdensity(x, eps0)), eps0, np.inf)
        assert_allclose(tail, 0.05, atol=1e-9)

    def test_invalid_region(self):
        assert pc_prior_logdensity(-1.0, 2.0, 1.0, 1.0) == -np.inf
        assert nugget_prior_logdensity(-0.1, 1.0) == -np.inf
