"""Mesh emission: spheres, plane images, cutaways, close-ups, polylines."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import heisgeo.meshing
from heisgeo.core import ORIGIN, HeisPoint
from heisgeo.distances import riemannian_distance, shoot_candidates
from heisgeo.geodesics import GeodesicSpec, geodesic_from_origin, origin_coordinates
from heisgeo.meshing import (
    DEFAULT_DETECTION_GRID,
    MeshError,
    NoSingularityError,
    ProximityEvent,
    SphereGrid,
    TriMesh,
    ball_cutaway_mesh,
    clip_mesh_to_halfspace,
    clip_sphere_to_metric,
    first_singular_radius,
    geodesic_polyline,
    plane_exp_surface,
    singular_point_closeup,
    sphere_exp_mesh,
    sphere_proximity_events,
)
from heisgeo.meshing import (
    _close_pairs,
    _detection_sphere,
    _grid_mesh,
    _grid_topology,
    _hits,
    _ordered,
    _revolved_grid,
)
from heisgeo.writers import write_obj
from winding import winding_number

TWO_PI = 2.0 * math.pi


def interior_index(grid: SphereGrid, row: int, col: int) -> int:
    """Vertex index of interior ring row (1-based from the south pole)."""
    return 1 + (row - 1) * grid.n_phi + col


def _shape_id(shape) -> str:
    return "x".join(map(str, shape))


# The figures' detection grids and three coarse ones, with radii from the
# onset to far past it: the close-up's and the detector's gamma cases.
_CLOSEUP_GRIDS = [(3, 3), (7, 5), (30, 50), (48, 96), (64, 128), (96, 192)]
_CLOSEUP_RADII = (3.234, 3.3, 4.0, 5.0, 6.0, 7.5, 20.0, 35.0, 100.0, 1e3, 1e5)


class TestTriMesh:
    def test_validation_catches_bad_indices(self):
        mesh = TriMesh(vertices=np.zeros((3, 3)), faces=[[0, 1, 5]])
        with pytest.raises(MeshError):
            mesh.validate()

    def test_validation_catches_degenerate_faces(self):
        mesh = TriMesh(vertices=np.zeros((3, 3)), faces=[[0, 1, 1]])
        with pytest.raises(MeshError):
            mesh.validate()

    def test_validation_catches_nonfinite(self):
        mesh = TriMesh(vertices=[[0, 0, float("nan")]], faces=np.zeros((0, 3)))
        with pytest.raises(MeshError):
            mesh.validate()

    def test_validation_catches_scalar_length(self):
        mesh = TriMesh(vertices=np.zeros((3, 3)), faces=[[0, 1, 2]], vertex_scalars={"s": [0, 1]})
        with pytest.raises(MeshError, match="'s' length mismatch"):
            mesh.validate()


class TestSphere:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SphereGrid(2, 10, 1.0)
        with pytest.raises(ValueError):
            SphereGrid(10, 10, 0.0)

    def test_closed_topology(self):
        mesh = sphere_exp_mesh(SphereGrid(24, 18, 1.0))
        mesh.validate()
        assert mesh.n_vertices == 2 + 16 * 24
        assert mesh.euler_characteristic() == 2

    def test_poles(self):
        for radius in (0.5, 1.0, 4.0):
            mesh = sphere_exp_mesh(SphereGrid(16, 12, radius))
            south, north = mesh.vertices[0], mesh.vertices[-1]
            assert abs(south[2] + radius) < 1e-12 * max(1, radius)
            assert abs(north[2] - radius) < 1e-12 * max(1, radius)
            assert south[0] == 0.0 and north[0] == 0.0

    def test_deterministic(self):
        a = sphere_exp_mesh(SphereGrid(20, 15, 2.0))
        b = sphere_exp_mesh(SphereGrid(20, 15, 2.0))
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.faces, b.faces)

    def test_rotational_symmetry(self):
        grid = SphereGrid(16, 12, 1.5)
        mesh = sphere_exp_mesh(grid)
        step = TWO_PI / grid.n_phi
        rot = np.array(
            [
                [math.cos(step), -math.sin(step), 0.0],
                [math.sin(step), math.cos(step), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        for row in range(1, grid.n_gamma - 1):
            ring = np.array(
                [mesh.vertices[interior_index(grid, row, c)] for c in range(grid.n_phi)]
            )
            rotated = ring @ rot.T
            rolled = np.roll(ring, -1, axis=0)
            assert np.max(np.abs(rotated - rolled)) < 1e-9

    def test_mirror_symmetry(self):
        # (gamma, phi) -> (-gamma, -phi) maps the vertex set onto itself
        # under (x, y, z) -> (x, -y, -z).
        grid = SphereGrid(16, 13, 2.0)
        mesh = sphere_exp_mesh(grid)
        for row in range(1, grid.n_gamma - 1):
            for col in range(grid.n_phi):
                v = mesh.vertices[interior_index(grid, row, col)]
                mirrored_row = grid.n_gamma - 1 - row
                mirrored_col = (-col) % grid.n_phi
                w = mesh.vertices[interior_index(grid, mirrored_row, mirrored_col)]
                assert np.max(np.abs(w - np.array([v[0], -v[1], -v[2]]))) < 1e-9

    def test_small_radius_is_round(self):
        radius = 0.01
        mesh = sphere_exp_mesh(SphereGrid(24, 16, radius))
        norms = np.linalg.norm(mesh.vertices, axis=1)
        assert np.max(np.abs(norms - radius)) < 1e-3 * radius
        # Vertex-wise the mesh approaches the image of the tangent sphere
        # with quadratic error in the radius.
        gammas = mesh.vertex_scalars["gamma"]
        phis = mesh.vertex_scalars["phi"]
        r = np.sqrt(np.clip(1 - gammas**2, 0, None))
        flat = radius * np.column_stack([r * np.cos(phis), r * np.sin(phis), gammas])
        assert np.max(np.abs(mesh.vertices - flat)) < radius**2

    @pytest.mark.parametrize(
        "radius", [1e-3, 0.5, math.pi / 2, 3.0, 3.14, math.pi * (1 - 1e-9)]
    )
    def test_embedded_below_the_first_singular_radius(self, radius):
        # The witness of first_singular_radius's proof: below pi the profile
        # gamma -> (rho, z) moves strictly towards the axis as |gamma| grows,
        # and z has the sign of gamma, so it is one arc.
        gamma = np.linspace(0.0, 1.0, 200001)
        x, y, z = origin_coordinates(np.sqrt(1.0 - gamma * gamma), 0.0, gamma, radius)
        assert (np.diff(np.hypot(x, y)) < 0.0).all()
        assert (z[1:] > 0.0).all()

    @pytest.mark.parametrize("radius", [3.3, 5.0, 20.0])
    def test_ring_collapses_past_pi(self, radius):
        # Past pi the ring |gamma| = pi / R < 1 meets the axis.
        gamma = math.pi / radius
        x, y, _ = origin_coordinates(math.sqrt(1.0 - gamma * gamma), 0.0, gamma, radius)
        assert math.hypot(x, y) < 1e-15 * radius

    def test_sphere_vertices_realize_radius(self):
        mesh = sphere_exp_mesh(SphereGrid(12, 10, 1.0))
        for v in mesh.vertices[::11]:
            d = riemannian_distance(ORIGIN, HeisPoint.of(v))
            assert abs(d - 1.0) < 1e-3


class TestProximityDetector:
    def test_radius_one_embedded(self):
        assert sphere_proximity_events(SphereGrid(96, 192, 1.0)) == []

    def test_radius_three_embedded(self):
        assert sphere_proximity_events(SphereGrid(96, 192, 3.0)) == []

    def test_radius_five_self_contact(self):
        events = sphere_proximity_events(SphereGrid(96, 192, 5.0))
        assert events
        # Contact concentrates at the axis pierce of the returning family,
        # near |gamma| = pi/5.
        top = events[0]
        assert top.planar_radius_mid < 0.1
        assert abs(abs(top.gamma_mid) - math.pi / 5) < 0.05

    def test_radius_twenty_self_contact(self):
        events = sphere_proximity_events(SphereGrid(96, 192, 20.0))
        assert events
        assert events[0].planar_radius_mid < 0.2

    def test_first_contact_radius_regression(self):
        # The geometry's first singular radius is pi.  The default grid's
        # detector first reads contact a little past it; that onset is a
        # pin of the detector, not of the geometry, and on this grid contact
        # is not monotone in the radius beyond it.
        assert first_singular_radius() == math.pi
        for radius, n_hits in [(3.234, 0), (3.2342, 192)]:
            grid = SphereGrid(*DEFAULT_DETECTION_GRID, radius)
            assert len(_hits(grid, *_detection_sphere(grid))[0]) == n_hits, radius

    @pytest.mark.parametrize("grid", [(3, 3), (7, 5), (64, 128), (96, 192)], ids=_shape_id)
    @pytest.mark.parametrize("radius", [1.0, 5.0])
    def test_threshold_from_forward_face_edges(self, monkeypatch, grid, radius):
        # The sphere is closed and consistently wound, so its face edges
        # a -> b with a < b are its undirected edges, each exactly once.  The
        # detector's threshold takes the median over those.
        mesh = sphere_exp_mesh(SphereGrid(*grid, radius))
        ends = np.roll(mesh.faces, -1, axis=1)
        forward = mesh.faces < ends
        edges = mesh.edges()
        directed = np.stack([mesh.faces[forward], ends[forward]], axis=1)
        assert len(directed) == len(edges)
        np.testing.assert_array_equal(_sorted_rows(directed), edges)

        def length(e):
            return np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1)

        median = float(np.median(length(edges)))
        assert float(np.median(length(directed))) == median
        radii = []

        def close_pairs(points, r):
            radii.append(r)
            return _close_pairs(points, r)

        monkeypatch.setattr(heisgeo.meshing, "_close_pairs", close_pairs)
        sphere = SphereGrid(*grid, radius)
        _hits(sphere, *_detection_sphere(sphere))
        assert radii == [0.1 * median]

    @pytest.mark.parametrize(
        "grid, n_hits", [((128, 256), 512), ((192, 384), 1920), ((192, 192), 1152)],
        ids=["128x256", "192x384", "192x192"],
    )
    def test_embedded_radius_has_no_events(self, monkeypatch, grid, n_hits):
        # The embedded sphere has no self-contact, though at R = 2.9 these
        # grids' detector reads hits.  No search is made up to pi.
        sphere = SphereGrid(*grid, 2.9)
        assert len(_hits(sphere, *_detection_sphere(sphere))[0]) == n_hits

        def detection_sphere(grid):
            raise AssertionError("searched an embedded sphere")

        monkeypatch.setattr(heisgeo.meshing, "_detection_sphere", detection_sphere)
        for radius in (2.9, math.pi):
            assert sphere_proximity_events(SphereGrid(*grid, radius)) == [], radius

    @pytest.mark.parametrize(
        "grid",
        [(3, 3), (3, 4), (4, 3), (7, 5), (12, 9), (30, 50), (48, 96), (64, 128), (96, 192)],
        ids=_shape_id,
    )
    def test_threshold_from_vertex_slices(self, grid):
        # The face-edge median the detector took before, as the reference:
        # the slices of the point grid must give the same bits.  The
        # detection sphere is the sphere mesh's vertex array, in its order.
        for radius in (0.5, 1.0, 3.3, 5.0, 20.0, 1e3, 1e5):
            detected, threshold = _detection_sphere(SphereGrid(*grid, radius))
            mesh = sphere_exp_mesh(SphereGrid(*grid, radius))
            assert detected.tobytes() == mesh.vertices.tobytes()
            ends = np.roll(mesh.faces, -1, axis=1)
            forward = mesh.faces < ends
            lengths = np.linalg.norm(
                mesh.vertices[mesh.faces[forward]] - mesh.vertices[ends[forward]], axis=1
            )
            assert threshold == 0.1 * float(np.median(lengths)), radius

    @pytest.mark.parametrize(
        "grid, radius",
        [((30, 50), 5.0), ((48, 96), 6.0), ((48, 96), 20.0), ((64, 128), 5.0),
         ((96, 192), 35.0)],
    )
    def test_contacts_within_reach(self, grid, radius):
        # The near-axis pass returns the full event list filtered to pairs
        # with both vertices within reach, in the same order.
        grid = SphereGrid(*grid, radius)
        vertices, threshold = _detection_sphere(grid)
        full = _ordered(_hits(grid, vertices, threshold))
        assert full[0].size
        planar = np.hypot(vertices[:, 0], vertices[:, 1])
        outer = np.maximum(planar[full[0]], planar[full[1]])
        # Reaches that keep none, some and all of the events, including the
        # event vertices' own planar radii, where the cut is exactly at a pair.
        cuts = np.quantile(outer, [0.0, 0.3, 0.7], method="lower")
        reaches = [0.0, threshold, 8.0 * threshold, *cuts, float(outer.max()), math.inf]
        for reach in reaches:
            within = outer <= reach
            got = _ordered(_hits(grid, vertices, threshold, reach))
            assert len(got) == len(full)
            for g, f in zip(got, full):
                assert g.tobytes() == f[within].tobytes(), reach

    @pytest.mark.parametrize("grid", _CLOSEUP_GRIDS, ids=_shape_id)
    def test_gamma_mid_from_the_sphere_channel(self, grid):
        # The detector reads gamma off each vertex's ring; the sphere mesh
        # carries it as a channel.  Both give the same bits.
        for radius in _CLOSEUP_RADII:
            sphere = SphereGrid(*grid, radius)
            g = sphere_exp_mesh(sphere).vertex_scalars["gamma"]
            for e in sphere_proximity_events(sphere):
                assert e.gamma_mid == 0.5 * (g[e.vertex_a] + g[e.vertex_b]), (radius, e)


def _tree_pairs(points, r):
    """cKDTree.query_pairs, the reference for _close_pairs."""
    return cKDTree(points).query_pairs(r=r, output_type="ndarray").reshape(-1, 2)


def _sorted_rows(pairs):
    return pairs[np.lexsort(pairs.T[::-1])]


def _assert_same_pairs(points, r):
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    got = _close_pairs(points, r)
    assert got.dtype == np.int64 and np.all(got[:, 0] < got[:, 1])
    want = _tree_pairs(points, r) if len(points) else np.empty((0, 2), dtype=np.int64)
    np.testing.assert_array_equal(_sorted_rows(got), _sorted_rows(want))
    return len(got)


_PARITY_RADII = [1.0, 3.0, 3.2, 3.3, 4.0, 5.0, 7.5, 10.0, 20.0, 35.0]


class TestClosePairs:
    """The numpy cell hash against cKDTree.query_pairs."""

    @pytest.mark.parametrize(
        "grid, n_events",
        [((96, 192), 36864), ((48, 96), 5760), ((64, 128), 14656), ((30, 50), 2700)],
    )
    def test_sphere_pairs_and_events(self, monkeypatch, grid, n_events):
        events = {}
        for radius in _PARITY_RADII:
            mesh = sphere_exp_mesh(SphereGrid(*grid, radius))
            e = mesh.edges()
            lengths = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1)
            _assert_same_pairs(mesh.vertices, 0.1 * float(np.median(lengths)))
            events[radius] = sphere_proximity_events(SphereGrid(*grid, radius))
        assert sum(map(len, events.values())) == n_events
        monkeypatch.setattr(heisgeo.meshing, "_close_pairs", _tree_pairs)
        for radius in _PARITY_RADII:
            assert sphere_proximity_events(SphereGrid(*grid, radius)) == events[radius]

    def test_empty_and_single_point(self):
        assert _close_pairs(np.empty((0, 3)), 1.0).shape == (0, 2)
        assert _assert_same_pairs([[1.0, 2.0, 3.0]], 1.0) == 0

    def test_coincident_points_at_zero_radius(self):
        points = np.repeat(np.random.default_rng(0).random((40, 3)), 3, axis=0)
        assert _assert_same_pairs(points, 0.0) == 120

    @pytest.mark.parametrize("r", [1.0, math.sqrt(2.0), math.sqrt(3.0), 0.999999])
    def test_lattice_boundary(self, r):
        # Distances 1, sqrt 2 and sqrt 3 sit on or next to the boundary.
        lattice = np.stack(np.meshgrid(*[np.arange(5.0)] * 3), axis=-1).reshape(-1, 3)
        _assert_same_pairs(lattice, r)
        _assert_same_pairs(0.1 * lattice, 0.1 * r)

    def test_large_coordinates_small_radius(self):
        rng = np.random.default_rng(1)
        steps = rng.integers(0, 4, (300, 3)) * rng.choice([0.5e-6, 1e-6, 1.0000001e-6], (300, 3))
        assert _assert_same_pairs(1e6 + steps, 1e-6) > 0
        # Spread over 1e12 cells per axis: the keys need renumbered axes.
        spread = rng.uniform(-1e6, 1e6, (200, 3))
        spread = np.concatenate([spread, spread + rng.normal(0.0, 1e-6, (200, 3))])
        assert _assert_same_pairs(spread, 1e-6) > 0
        assert _assert_same_pairs(spread, 0.0) == 0

    def test_underflow_and_overflow_of_the_square(self):
        rng = np.random.default_rng(2)
        tiny = rng.normal(0.0, 1e-162, (100, 3))
        # Squared separations underflow to 0 <= r * r = 0 as well.
        assert _assert_same_pairs(tiny, 0.0) > 0
        assert _assert_same_pairs(tiny, 1e-170) > 0
        wide = rng.uniform(-1.0, 1.0, (40, 3)) * 1e100
        # r * r = inf keeps every pair.
        assert _assert_same_pairs(wide, 1e160) == 40 * 39 // 2

    def test_huge_and_tiny_coordinates_together(self):
        points = [[1e150, 0, 0], [1e150, 0, 0], [0, 0, 0], [1e-160, 0, 0], [-1e150, 3e149, 1]]
        for r in (0.0, 1e-160, 1e-140):
            _assert_same_pairs(points, r)

    @pytest.mark.parametrize(
        "d, r, kept",
        [
            ((8.08988831479951e-09, 6.733801849456711e-10, 1.6778014639839967e-06),
             1.6778211025853327e-06, 0),
            ((3.739858925655426e-06, 5.668538616276919e-08, 0.33860956132411957),
             0.3386095613447772, 1),
        ],
    )
    def test_squares_summed_x_y_first(self, d, r, kept):
        # (dx^2 + dy^2) + dz^2 and dx^2 + (dy^2 + dz^2) fall on either side
        # of r * r here.
        assert _assert_same_pairs([[0.0, 0.0, 0.0], d], r) == kept

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 40),
        st.floats(-8.0, 8.0),
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_random_sets(self, n, log_scale, radius, snap, seed):
        scale = 10.0**log_scale
        points = np.random.default_rng(seed).normal(0.0, 1.0, (n, 3))
        if snap:
            points = np.round(4.0 * points) / 4.0
        _assert_same_pairs(scale * points, scale * radius)


class TestCloseup:
    def test_radius_five(self):
        mesh = singular_point_closeup(5.0)
        mesh.validate()
        assert mesh.n_vertices > 0 and mesh.n_faces > 0
        # The patch re-meshes the gamma band around the pierce point.
        gammas = mesh.vertex_scalars["gamma"]
        assert np.all(np.abs(gammas) <= 1.0)
        assert gammas.max() - gammas.min() <= 2 * 0.08 + 1e-12

    def test_radius_twenty(self):
        mesh = singular_point_closeup(20.0, window=0.05)
        mesh.validate()
        assert mesh.n_faces > 0

    def test_radius_one_raises(self):
        with pytest.raises(NoSingularityError):
            singular_point_closeup(1.0)

    @pytest.mark.parametrize(
        "radius, grid", [(2.9, (128, 256)), (math.pi, (96, 192))], ids=["2.9-128x256", "pi-96x192"]
    )
    def test_embedded_radius_refused_without_search(self, monkeypatch, radius, grid):
        # At R = 2.9 the 128x256 detector reads contact that the embedded
        # sphere does not have; the close-up refuses before it looks.
        def detection_sphere(grid):
            raise AssertionError("searched an embedded sphere")

        monkeypatch.setattr(heisgeo.meshing, "_detection_sphere", detection_sphere)
        with pytest.raises(NoSingularityError, match="embedded"):
            singular_point_closeup(radius, detection_grid=grid)

    @pytest.mark.parametrize(
        "grid, radii",
        [*(pytest.param(g, _CLOSEUP_RADII, id=_shape_id(g)) for g in _CLOSEUP_GRIDS),
         pytest.param((128, 256), (20.0, 1e3), id="128x256")],
    )
    def test_centred_on_the_first_event(self, monkeypatch, grid, radii):
        # The figures' detection grids and three coarse ones, and 128x256 at
        # radius 20 (256 hits within 3 ulps of the least midpoint radius,
        # four math.hypot values among them) and 1e3 (~430k hits): the one
        # search is the one near the axis.  Wherever it finds an event, that
        # is the full search's first event, and the patch's gamma rows are
        # the linspace around its gamma_mid, bit for bit; no event near the
        # axis means no patch.  Rows reaching a pole collapse to one vertex.
        window, n_gamma = 0.08, 48
        searches = []

        def hits(*args):
            searches.append("near" if len(args) == 4 else "full")
            return _hits(*args)

        monkeypatch.setattr(heisgeo.meshing, "_hits", hits)
        for radius in radii:
            sphere = SphereGrid(*grid, radius)
            vertices, threshold = _detection_sphere(sphere)
            gamma_mid = _ordered(_hits(sphere, vertices, threshold))[3]
            near = _ordered(_hits(sphere, vertices, threshold, 8.0 * threshold))[3]
            searches.clear()
            if not near.size:
                with pytest.raises(NoSingularityError):
                    singular_point_closeup(radius, window, (96, n_gamma), grid)
                assert searches == ["near"], radius
                # Only a fold away from the axis has contact the near pass misses.
                assert not gamma_mid.size or (grid, radius) == ((48, 96), 6.0), radius
                continue
            assert near[0].tobytes() == gamma_mid[0].tobytes(), radius
            c = float(gamma_mid[0])
            mesh = singular_point_closeup(radius, window, (96, n_gamma), grid)
            assert searches == ["near"], radius
            gammas = mesh.vertex_scalars["gamma"]
            rows = gammas[np.concatenate([[True], gammas[1:] != gammas[:-1]])]
            expected = np.linspace(max(-1.0, c - window), min(1.0, c + window), n_gamma)
            assert rows.tobytes() == expected.tobytes(), radius

    @pytest.mark.parametrize(
        "grid, radius", [((48, 96), 6.0), ((30, 50), 5.1)], ids=["48x96-6.0", "30x50-5.1"]
    )
    def test_fold_off_the_axis_refused(self, grid, radius):
        # These spheres' only contact is a fold of the exp map 30 and 10
        # thresholds off the z-axis, at |gamma| R / pi = 1.37 and 1.33, near
        # the second conjugate family (tan w = r^2 w), not a singular ring
        # |gamma| R = k pi.  The close-up does not centre on it.
        assert sphere_proximity_events(SphereGrid(*grid, radius))
        with pytest.raises(NoSingularityError, match="z-axis"):
            singular_point_closeup(radius, detection_grid=grid)

    def test_near_tie_ordered_by_math_hypot(self, monkeypatch):
        # Two hits whose midpoint radii np.hypot and math.hypot order the
        # other way round, an ulp apart, the first also nearer a pole: the
        # close-up centres on math.hypot's first, the event that
        # sphere_proximity_events lists first.
        x = np.array([0.009489846115750947, 0.005863637597020782])
        y = np.array([-0.0031532238581119944, 0.00810047863590815])
        assert np.hypot(x[0], y[0]) < np.hypot(x[1], y[1])
        assert math.hypot(x[0], y[0]) > math.hypot(x[1], y[1])
        hits = (np.array([3, 7]), np.array([40, 50]), np.full(2, 1e-3), np.array([0.5, -0.25]),
                x, y)
        monkeypatch.setattr(heisgeo.meshing, "_hits", lambda *args: hits)
        gammas = singular_point_closeup(5.0, 0.08, (8, 5), (48, 96)).vertex_scalars["gamma"]
        assert np.unique(gammas).tobytes() == np.linspace(-0.25 - 0.08, -0.25 + 0.08, 5).tobytes()

    @pytest.mark.parametrize("build", [
        lambda: sphere_proximity_events(SphereGrid(8, 8, 1e103)),
        lambda: singular_point_closeup(1e103, detection_grid=(8, 8)),
    ], ids=["proximity_events", "closeup"])
    def test_radius_past_the_closed_form_raises(self, build):
        # The exp-image has nan vertices there; no contact can be read off it.
        with pytest.raises(MeshError, match="non-finite"):
            build()

    def test_non_finite_plane_raises(self, monkeypatch):
        # Each coordinate plane is checked, not only the first.
        coordinates = heisgeo.meshing.origin_coordinates

        def nan_in_y(*args):
            x, y, z = coordinates(*args)
            y = y.copy()
            y[3, 2] = math.nan
            return x, y, z

        monkeypatch.setattr(heisgeo.meshing, "origin_coordinates", nan_in_y)
        with pytest.raises(MeshError, match="non-finite"):
            _detection_sphere(SphereGrid(12, 9, 5.0))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            singular_point_closeup(5.0, window=0.0)

    @pytest.mark.parametrize("resolution", [(2, 1), (2, 48), (96, 2)])
    def test_resolution_validation(self, resolution):
        with pytest.raises(ValueError, match="closeup resolution"):
            singular_point_closeup(5.0, resolution=resolution)


class TestPlaneSurface:
    def test_contains_exact_axes(self):
        mesh = plane_exp_surface(resolution=(16, 9), s_range=(0.0, 4.0))
        mesh.validate()
        thetas = mesh.vertex_scalars["theta"]
        s_values = mesh.vertex_scalars["s"]
        on_x = (thetas == 0.0) & (s_values > 0)
        assert np.allclose(mesh.vertices[on_x][:, 1:], 0.0, atol=0.0)
        assert np.array_equal(mesh.vertices[on_x][:, 0], s_values[on_x])
        on_t = np.isclose(thetas, math.pi / 2) & (s_values > 0)
        assert on_t.any()
        vertical = mesh.vertices[on_t]
        assert np.max(np.abs(vertical[:, 0])) == 0.0
        assert np.max(np.abs(vertical[:, 2] - s_values[on_t])) < 1e-12 * 4.0

    def test_apex_collapses(self):
        mesh = plane_exp_surface(resolution=(12, 5), s_range=(0.0, 2.0))
        assert np.array_equal(mesh.vertices[0], np.zeros(3))
        assert mesh.n_vertices == 1 + 12 * 4

    def test_antipodal_symmetry(self):
        # Flipping the initial direction negates gamma and shifts phi by pi;
        # in the closed form this negates x and z and preserves y, so the
        # full-plane image is invariant under rotation by pi about the
        # y-axis.
        n_theta, n_s = 16, 7
        mesh = plane_exp_surface(resolution=(n_theta, n_s), s_range=(0.0, 3.0))
        # Vertex layout: origin apex first, then one ring of n_theta
        # vertices per positive arc length; theta index i pairs with
        # i + n_theta/2 modulo n_theta.
        for ring in range(n_s - 1):
            start = 1 + ring * n_theta
            for i in range(n_theta):
                v = mesh.vertices[start + i]
                partner = mesh.vertices[start + (i + n_theta // 2) % n_theta]
                expected = np.array([-v[0], v[1], -v[2]])
                assert np.max(np.abs(partner - expected)) < 1e-10

    def test_range_validation(self):
        with pytest.raises(ValueError):
            plane_exp_surface(s_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            plane_exp_surface(resolution=(2, 5))

    @pytest.mark.parametrize("theta_range", [(1.0, 1.0), (-0.0, 0.0), (TWO_PI, TWO_PI)])
    def test_empty_theta_range_refused(self, theta_range):
        # Every theta column would be the same curve and every face empty.
        with pytest.raises(ValueError, match="theta_lo != theta_hi"):
            plane_exp_surface(theta_range, resolution=(4, 3))

    @pytest.mark.parametrize(
        "theta_range, s_range",
        [((0.0, TWO_PI), (0.0, math.inf)), ((0.0, TWO_PI), (0.0, math.nan)),
         ((0.0, math.inf), (0.0, 6.0)), ((-math.inf, 1.0), (0.0, 6.0)),
         ((math.nan, 1.0), (0.0, 6.0)), ((-1e308, 1e308), (0.0, 6.0))],
    )
    def test_non_finite_range_refused_before_numpy_warns(self, theta_range, s_range):
        # The last theta range is finite but spans past the largest double.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite theta range"):
                plane_exp_surface(theta_range, s_range)


class TestOrientation:
    """Consistently wound meshes use each directed edge at most once."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: sphere_exp_mesh(SphereGrid(3, 3, 1.0)),
            lambda: sphere_exp_mesh(SphereGrid(16, 13, 2.0)),
            lambda: singular_point_closeup(5.0),
            lambda: singular_point_closeup(5.0, window=0.9),
            lambda: plane_exp_surface(s_range=(1.0, 6.0), resolution=(24, 9)),
            lambda: plane_exp_surface((0.5, 2.5), s_range=(1.0, 6.0), resolution=(24, 9)),
        ],
        ids=[
            "sphere3x3",
            "sphere16x13",
            "closeup",
            "closeup_to_pole",
            "plane",
            "plane_partial",
        ],
    )
    def test_no_repeated_directed_edge(self, build):
        mesh = build()
        mesh.validate()
        f = mesh.faces
        directed = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
        _, counts = np.unique(directed, axis=0, return_counts=True)
        assert counts.max() == 1

    def test_closeup_to_pole_collapses(self):
        mesh = singular_point_closeup(5.0, window=0.9)
        assert mesh.vertex_scalars["gamma"][0] == -1.0
        assert mesh.vertex_scalars["gamma"][1] > -1.0


def _loop_faces(collapsed, n_cols, n_cells, apex_out=False):
    """Faces of the row-by-row loops the grid mesher replaced.

    collapsed flags each row that is a single vertex; apex_out winds a
    first-row fan the way the plane surface does.
    """
    starts = np.cumsum([0] + [1 if c else n_cols for c in collapsed])
    faces = []
    for j in range(len(collapsed) - 1):
        lo, hi = starts[j], starts[j + 1]
        for i in range(n_cells):
            nxt = (i + 1) % n_cols
            if collapsed[j] and collapsed[j + 1]:
                continue
            if collapsed[j]:
                faces.append([lo, hi + i, hi + nxt] if apex_out else [lo, hi + nxt, hi + i])
            elif collapsed[j + 1]:
                faces.append([hi, lo + i, lo + nxt])
            else:
                faces.extend([[lo + i, lo + nxt, hi + nxt], [lo + i, hi + nxt, hi + i]])
    return np.array(faces, dtype=np.int64).reshape(-1, 3)


def _loop_vertices(n_rows, n_cols, collapse):
    """(row, column) of each vertex, in order, as the row-by-row loops
    numbered them: a collapsed end row is its column-0 point alone."""
    order = []
    for j in range(n_rows):
        single = (j == 0 and collapse[0]) or (j == n_rows - 1 and collapse[1])
        order.extend((j, i) for i in range(1 if single else n_cols))
    return order


def _loop_events(grid):
    """Proximity events filtered pair by pair, as before vectorization."""
    mesh = sphere_exp_mesh(grid)
    n_phi, n_gamma = grid.n_phi, grid.n_gamma
    rows, cols = zip(*_loop_vertices(n_gamma, n_phi, (True, True)))
    e = mesh.edges()
    lengths = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1)
    tree = cKDTree(mesh.vertices)
    pairs = tree.query_pairs(r=0.1 * float(np.median(lengths)), output_type="ndarray")
    south, north = mesh.vertices[0], mesh.vertices[-1]
    gammas = mesh.vertex_scalars["gamma"]
    events = []
    for a, b in pairs:
        d_row = abs(rows[a] - rows[b])
        d_col = abs(cols[a] - cols[b])
        pole = {rows[a], rows[b]} & {0, n_gamma - 1}
        if d_row <= 2 and (pole or min(d_col, n_phi - d_col) <= 2):
            continue
        va, vb = mesh.vertices[a], mesh.vertices[b]
        separation = float(np.linalg.norm(va - vb))
        pole_distance = min(np.linalg.norm(v - p) for v in (va, vb) for p in (south, north))
        if separation >= 0.15 * pole_distance:
            continue
        mid = 0.5 * (va + vb)
        gamma_mid = float(0.5 * (gammas[a] + gammas[b]))
        planar_mid = math.hypot(mid[0], mid[1])
        events.append(ProximityEvent(int(a), int(b), separation, gamma_mid, planar_mid))
    events.sort(
        key=lambda e: (e.planar_radius_mid, -abs(e.gamma_mid), e.vertex_a, e.vertex_b)
    )
    return events


class TestLoopReference:
    """The vectorized mesher and detector against the loops they replaced."""

    @pytest.mark.parametrize(
        "build, collapsed, n_cols, n_cells, apex_out",
        [
            (lambda: sphere_exp_mesh(SphereGrid(3, 3, 1.0)), [1, 0, 1], 3, 3, False),
            (lambda: sphere_exp_mesh(SphereGrid(7, 5, 1.0)), [1, 0, 0, 0, 1], 7, 7, False),
            (lambda: singular_point_closeup(5.0, resolution=(6, 4)), [0] * 4, 6, 6, False),
            (
                lambda: singular_point_closeup(5.0, window=0.9, resolution=(6, 4)),
                [1, 0, 0, 0],
                6,
                6,
                False,
            ),
            (lambda: plane_exp_surface(resolution=(5, 4)), [1, 0, 0, 0], 5, 5, True),
            (lambda: plane_exp_surface((0.5, 2.5), (0, 3), (5, 4)), [1, 0, 0, 0], 5, 4, True),
            (lambda: plane_exp_surface((0.5, 2.5), (1, 3), (5, 4)), [0] * 4, 5, 4, False),
            # The sizes the figures use.
            (
                lambda: sphere_exp_mesh(SphereGrid(64, 128, 1.0)),
                [1] + [0] * 126 + [1],
                64,
                64,
                False,
            ),
            (lambda: plane_exp_surface(), [1] + [0] * 95, 128, 128, True),
            (lambda: singular_point_closeup(5.0, resolution=(96, 48)), [0] * 48, 96, 96, False),
        ],
        ids=[
            "sphere3x3",
            "sphere7x5",
            "closeup",
            "closeup_to_pole",
            "plane",
            "plane_partial_apex",
            "plane_partial",
            "sphere64x128",
            "plane128x96",
            "closeup96x48",
        ],
    )
    def test_faces(self, build, collapsed, n_cols, n_cells, apex_out):
        expected = _loop_faces(collapsed, n_cols, n_cells, apex_out)
        np.testing.assert_array_equal(build().faces, expected)

    @pytest.mark.parametrize("wrap", [True, False], ids=["wrap", "open"])
    @pytest.mark.parametrize(
        "collapse", [(False, False), (True, False), (False, True), (True, True)],
        ids=["none", "first", "last", "both"],
    )
    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (3, 5), (5, 4)], ids=_shape_id)
    def test_vertices_and_channels(self, shape, collapse, wrap):
        # Every coordinate plane and scalar channel, full-shape, per row or
        # per column, is read at the loops' vertices in their order.
        rng = np.random.default_rng(sum(shape) + 4 * sum(collapse) + wrap)
        planes = tuple(rng.standard_normal(shape) for _ in range(3))
        scalars = {
            "point": rng.standard_normal(shape),
            "row": rng.standard_normal((shape[0], 1)),
            "column": rng.standard_normal(shape[1]),
        }
        mesh = _grid_mesh(planes, scalars, collapse, wrap)
        order = _loop_vertices(*shape, collapse)
        assert mesh.vertices.tolist() == [[p[j, i] for p in planes] for j, i in order]
        assert mesh.vertex_scalars.keys() == scalars.keys()
        for name, values in scalars.items():
            values = np.broadcast_to(values, shape)
            assert mesh.vertex_scalars[name].tolist() == [values[j, i] for j, i in order], name
        collapsed = [collapse[0], *[False] * (shape[0] - 2), collapse[1]]
        n_cells = shape[1] if wrap else shape[1] - 1
        np.testing.assert_array_equal(mesh.faces, _loop_faces(collapsed, shape[1], n_cells))
        mesh.validate()

    @pytest.mark.parametrize("grid", _CLOSEUP_GRIDS, ids=_shape_id)
    def test_contact_rows_and_columns(self, grid):
        # Each event's two vertices, placed on the grid by the loops'
        # numbering: the detector's coordinates are those grid points',
        # gamma_mid is the mean of their rows' gammas, and the pair is more
        # than two rows apart, or apart by more than two columns (phi
        # circular) off the poles.
        n_phi, n_gamma = grid
        where = np.array(_loop_vertices(n_gamma, n_phi, (True, True)))
        gammas = np.linspace(-1.0, 1.0, n_gamma)
        n_events = 0
        for radius in _CLOSEUP_RADII:
            sphere = SphereGrid(*grid, radius)
            vertices, threshold = _detection_sphere(sphere)
            planes = _revolved_grid(gammas, n_phi, radius)[0]
            expected = np.stack([p[where[:, 0], where[:, 1]] for p in planes], axis=1)
            assert vertices.tobytes() == expected.tobytes(), radius
            a, b, _, gamma_mid, _ = _ordered(_hits(sphere, vertices, threshold))
            (ja, ia), (jb, ib) = where[a].T, where[b].T
            assert gamma_mid.tobytes() == (0.5 * (gammas[ja] + gammas[jb])).tobytes(), radius
            d_col = np.abs(ia - ib)
            d_col = np.minimum(d_col, n_phi - d_col)
            pole = np.isin(ja, [0, n_gamma - 1]) | np.isin(jb, [0, n_gamma - 1])
            assert ((np.abs(ja - jb) > 2) | (~pole & (d_col > 2))).all(), radius
            n_events += a.size
        assert n_events or grid == (3, 3)

    @pytest.mark.parametrize(
        "radius, shape",
        [
            *(pytest.param(r, (48, 96), id=str(r)) for r in (5.0, 7.5, 20.0)),
            *(pytest.param(r, (64, 128), id=f"64x128-{r}") for r in (5.0, 7.5, 20.0)),
        ],
    )
    def test_events(self, radius, shape):
        grid = SphereGrid(*shape, radius)
        assert sphere_proximity_events(grid) == _loop_events(grid)


def _sphere_family(n_phi, n_gamma):
    return pytest.param(
        lambda: sphere_exp_mesh(SphereGrid(n_phi, n_gamma, 2.0)),
        [1] + [0] * (n_gamma - 2) + [1], n_phi, n_phi, False,
        id=f"sphere{n_phi}x{n_gamma}",
    )


class TestTopologyCache:
    """Faces built once per grid shape: a cached mesh equals a cold one."""

    @pytest.mark.parametrize(
        "build, collapsed, n_cols, n_cells, apex_out",
        [
            *(_sphere_family(*shape) for shape in
              [(3, 3), (3, 4), (4, 3), (7, 5), (48, 96), (64, 128), (96, 192)]),
            pytest.param(
                lambda: singular_point_closeup(5.0, resolution=(6, 4), detection_grid=(48, 96)),
                [0] * 4, 6, 6, False, id="closeup6x4",
            ),
            pytest.param(
                lambda: singular_point_closeup(5.0, detection_grid=(48, 96)),
                [0] * 48, 96, 96, False, id="closeup96x48",
            ),
            pytest.param(
                lambda: singular_point_closeup(5.0, window=0.9, resolution=(6, 4)),
                [1, 0, 0, 0], 6, 6, False, id="closeup_to_pole",
            ),
            pytest.param(
                lambda: plane_exp_surface(resolution=(5, 4)),
                [1, 0, 0, 0], 5, 5, True, id="plane_apex",
            ),
            pytest.param(
                lambda: plane_exp_surface(), [1] + [0] * 95, 128, 128, True, id="plane128x96",
            ),
            pytest.param(
                lambda: plane_exp_surface((0.5, 2.5), (0, 3), (5, 4)),
                [1, 0, 0, 0], 5, 4, True, id="plane_partial_apex",
            ),
            pytest.param(
                lambda: plane_exp_surface((0.5, 2.5), (1, 3), (5, 4)),
                [0] * 4, 5, 4, False, id="plane_s_lo",
            ),
        ],
    )
    def test_cold_and_cached(self, build, collapsed, n_cols, n_cells, apex_out):
        _grid_topology.cache_clear()
        cold = build()
        hits = _grid_topology.cache_info().hits
        cached = build()
        assert _grid_topology.cache_info().hits > hits
        expected = _loop_faces(collapsed, n_cols, n_cells, apex_out)
        np.testing.assert_array_equal(cold.faces, expected)
        assert cached.faces.tobytes() == cold.faces.tobytes()
        assert cached.vertices.tobytes() == cold.vertices.tobytes()
        assert cached.vertex_scalars.keys() == cold.vertex_scalars.keys()
        for name, values in cold.vertex_scalars.items():
            assert cached.vertex_scalars[name].tobytes() == values.tobytes(), name
        # Each mesh owns writable faces, apart from the cache and each other.
        shared = _grid_topology(
            len(collapsed), n_cols, bool(collapsed[0]), bool(collapsed[-1]), n_cells == n_cols
        )
        np.testing.assert_array_equal(np.sort(shared, axis=None), np.sort(expected, axis=None))
        assert cached.faces.flags.writeable and cold.faces.flags.writeable
        assert cached.faces.dtype == cold.faces.dtype == np.int64
        assert not np.shares_memory(cached.faces, cold.faces)
        assert not np.shares_memory(cached.faces, shared)
        assert not np.shares_memory(cold.faces, shared)

    def test_mutated_faces_do_not_reach_the_next_mesh(self):
        grid = SphereGrid(7, 5, 1.0)
        first = sphere_exp_mesh(grid)
        want = first.faces.copy()
        first.faces[:] = 0
        first.faces[::2] = first.faces[::2, ::-1]
        assert sphere_exp_mesh(grid).faces.tobytes() == want.tobytes()

    def test_plane_apex_swap_does_not_leak(self):
        # The plane rewinds its apex fan in place, on its own copy.
        meshes = [plane_exp_surface(resolution=(12, 6)) for _ in range(3)]
        for mesh in meshes[1:]:
            assert mesh.faces.tobytes() == meshes[0].faces.tobytes()
        np.testing.assert_array_equal(meshes[0].faces, _loop_faces([1] + [0] * 5, 12, 12, True))

    def test_cached_arrays_are_read_only(self):
        faces = _grid_topology(9, 7, True, True, True)
        assert faces.dtype == np.int32
        assert not faces.flags.writeable
        with pytest.raises(ValueError):
            faces[0] = 1

    def test_cache_stays_bounded(self):
        _grid_topology.cache_clear()
        maxsize = _grid_topology.cache_info().maxsize
        for n in range(3, maxsize + 8):
            sphere_exp_mesh(SphereGrid(n, n + 1, 1.0))
            assert _grid_topology.cache_info().currsize <= maxsize
        assert _grid_topology.cache_info().currsize == maxsize

    def test_detection_builds_no_topology(self):
        # Detection reads the point grid alone; a cold close-up builds the
        # topology of its patch and nothing else.
        _grid_topology.cache_clear()
        _detection_sphere(SphereGrid(12, 9, 5.0))
        sphere_proximity_events(SphereGrid(13, 11, 5.0))
        assert _grid_topology.cache_info().misses == 0
        singular_point_closeup(5.0, resolution=(6, 4), detection_grid=(48, 96))
        assert _grid_topology.cache_info().misses == 1


class TestCutaway:
    def test_clipping_contract(self):
        mesh = ball_cutaway_mesh(1.0, (0, 1, 0), n_phi=32, n_gamma=24)
        mesh.validate()
        assert np.max(mesh.vertices[:, 1]) <= 1e-12

    def test_vertex_count_about_half(self):
        full = sphere_exp_mesh(SphereGrid(32, 24, 1.0))
        half = ball_cutaway_mesh(1.0, (0, 1, 0), n_phi=32, n_gamma=24)
        expected = full.n_vertices / 2
        assert abs(half.n_vertices - expected) <= 32 + 2

    def test_radius_five_geometry(self):
        half = ball_cutaway_mesh(5.0, (0, 1, 0), n_phi=48, n_gamma=64)
        half.validate()
        assert half.n_faces > 0
        assert np.max(np.abs(half.vertices[:, 2])) > 5.0

    def test_normal_validation(self):
        with pytest.raises(ValueError):
            ball_cutaway_mesh(1.0, (0, 0, 0))
        for normal in [(0, math.inf, 0), (0, math.nan, 0), (-math.inf, 0, 1)]:
            with pytest.raises(ValueError, match="finite"):
                ball_cutaway_mesh(1.0, normal)

    def test_normal_magnitude_does_not_matter(self, tmp_path):
        # The norm of (0, 1e200, 1e200) overflows and that of
        # (0, 1e-170, 1e-170) underflows unless the normal is scaled first.
        # Scaled by an exact power of two, every 2^k (0, 1, 1) gives the
        # same unit normal, so the same file.
        base = ball_cutaway_mesh(1.0, (0, 1, 1), n_phi=16, n_gamma=12)
        expected = tmp_path / "expected.obj"
        write_obj(base, expected)
        for k in [*range(-1070, 1000, 45), 1000]:
            got = tmp_path / "got.obj"
            write_obj(ball_cutaway_mesh(1.0, (0, 2.0**k, 2.0**k), n_phi=16, n_gamma=12), got)
            assert got.read_bytes() == expected.read_bytes(), k
        for scale in (1e200, 1e-170):
            half = ball_cutaway_mesh(1.0, (0, scale, scale), n_phi=16, n_gamma=12)
            np.testing.assert_array_equal(half.vertices, base.vertices)

    def test_generic_halfspace_clip(self):
        mesh = sphere_exp_mesh(SphereGrid(16, 12, 1.0))
        clipped = clip_mesh_to_halfspace(mesh, np.array([0.0, 0.0, 1.0]))
        clipped.validate()
        assert np.max(clipped.vertices[:, 2]) <= 1e-12
        assert set(clipped.vertex_scalars) == set(mesh.vertex_scalars)


class TestMetricClip:
    def test_large_sphere_loses_polar_caps(self):
        mesh = sphere_exp_mesh(SphereGrid(8, 8, 4.0))
        clipped = clip_sphere_to_metric(mesh, 4.0)
        assert "distance_defect" in clipped.vertex_scalars
        assert clipped.n_vertices < mesh.n_vertices
        # Poles sit on the vertical geodesic, which stops minimizing before
        # arc length 4, so both pole vertices must be dropped.
        kept = {tuple(np.round(v, 9)) for v in clipped.vertices}
        assert tuple(np.round(mesh.vertices[0], 9)) not in kept
        assert tuple(np.round(mesh.vertices[-1], 9)) not in kept

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive(self, tol):
        mesh = sphere_exp_mesh(SphereGrid(8, 8, 1.0))
        with pytest.raises(ValueError, match="tol must be positive"):
            clip_sphere_to_metric(mesh, 1.0, tol=tol)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
    def test_radius_must_be_positive_and_finite(self, radius):
        # A nan or inf radius would clip every vertex away, and 0 or -1
        # would keep every vertex with a negative distance_defect.
        mesh = sphere_exp_mesh(SphereGrid(8, 6, 2.0))
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            clip_sphere_to_metric(mesh, radius)

    def test_small_sphere_untouched(self):
        mesh = sphere_exp_mesh(SphereGrid(8, 8, 1.0))
        clipped = clip_sphere_to_metric(mesh, 1.0)
        assert clipped.n_vertices == mesh.n_vertices
        assert np.max(np.abs(clipped.vertex_scalars["distance_defect"])) < 1e-3

    @pytest.mark.parametrize("radius, kept", [(4.0, 14400), (5.0, 11520), (20.0, 2880)])
    def test_keeps_exactly_the_cut_time_window(self, radius, kept):
        # A vertex stays on the metric sphere iff its generating geodesic
        # turns by at most pi: radius * |gamma| <= pi.
        mesh = sphere_exp_mesh(SphereGrid(*DEFAULT_DETECTION_GRID, radius))
        clipped = clip_sphere_to_metric(mesh, radius)
        window = radius * np.abs(mesh.vertex_scalars["gamma"]) <= math.pi
        assert clipped.n_vertices == kept == int(window.sum())
        np.testing.assert_array_equal(clipped.vertices, mesh.vertices[window])
        assert np.max(np.abs(clipped.vertex_scalars["distance_defect"])) < 1e-12


_DEGREE_GRID = SphereGrid(256, 256, 10.0)


@functools.cache
def _degree_sphere() -> TriMesh:
    return sphere_exp_mesh(_DEGREE_GRID)


class TestDegree:
    """The exp-sphere of radius R winds about q once per geodesic to q
    shorter than R, with signs alternating from + in length order, so its
    winding number is the parity of their count.  The mesh and
    shoot_candidates' list share only origin_coordinates; a mismatch is a
    defect of one of them."""

    R = _DEGREE_GRID.radius
    # A fifth of the longest ring edge (2 pi R / n_phi, on the equator):
    # targets whose every geodesic length is this far from R stay clear of
    # the mesh's chords.
    MARGIN = 0.2 * TWO_PI * R / _DEGREE_GRID.n_phi

    @settings(max_examples=64, deadline=None)
    @given(
        st.floats(-3.0, 0.5),
        st.floats(0.0, TWO_PI),
        st.floats(-R * R / TWO_PI, R * R / TWO_PI),
    )
    def test_winding_is_the_parity_of_shorter_geodesics(self, u, theta, z):
        rho = 10.0**u
        q = (rho * math.cos(theta), rho * math.sin(theta), z)
        s = np.array([c.s for c in shoot_candidates(HeisPoint(*q))])
        assume(np.all(np.abs(s - self.R) > self.MARGIN))
        shorter = int(np.count_nonzero(s < self.R))
        assert abs(winding_number(_degree_sphere(), q) - shorter % 2) < 0.05, (q, s)

    def test_exp_sphere_is_not_the_metric_sphere(self):
        # The origin is wrapped once.  This point lies inside the metric
        # ball, reached by two geodesics shorter than R, yet the exp-sphere
        # does not wrap it: their windings cancel.
        mesh = _degree_sphere()
        assert abs(winding_number(mesh, (0.0, 0.0, 0.0)) - 1.0) < 0.05
        q = HeisPoint(0.038, 0.0, -11.475)
        assert riemannian_distance(ORIGIN, q) < self.R
        assert sum(c.s < self.R for c in shoot_candidates(q)) == 2
        assert abs(winding_number(mesh, q.as_array())) < 0.05


class TestPolyline:
    def test_collinear_for_straight_line(self):
        spec = GeodesicSpec.from_direction(0.0, phi=0.7)
        points = geodesic_polyline(spec, 2.0, 10)
        arr = np.array([p.as_array() for p in points])
        direction = arr[-1] / np.linalg.norm(arr[-1])
        residual = arr - np.outer(arr @ direction, direction)
        assert np.max(np.abs(residual)) < 1e-12

    def test_endpoints(self):
        spec = GeodesicSpec.from_direction(0.5, phi=0.0)
        points = geodesic_polyline(spec, TWO_PI, 64)
        assert len(points) == 65
        assert points[0] == ORIGIN
        end = points[-1].as_array()
        assert np.max(np.abs(end - np.array([0, 0, 5 * math.pi / 2]))) < 1e-12

    def test_translated_base(self):
        base = HeisPoint(1.0, -0.5, 2.0)
        spec = GeodesicSpec.from_direction(0.3, phi=1.2, base=base)
        points = geodesic_polyline(spec, 1.0, 4)
        assert points[0] == base

    def test_chord_lengths_near_uniform(self):
        spec = GeodesicSpec.from_direction(0.6, phi=0.2)
        n = 20
        s_max = 2.0
        points = geodesic_polyline(spec, s_max, n)
        step = s_max / n
        for a, b in list(zip(points, points[1:]))[::7]:
            chord = riemannian_distance(a, b)
            assert abs(chord - step) < step**2

    def test_validation(self):
        spec = GeodesicSpec.from_direction(0.0)
        with pytest.raises(ValueError):
            geodesic_polyline(spec, 1.0, 1)
        with pytest.raises(ValueError):
            geodesic_polyline(spec, 0.0, 10)
        for s_max in (math.inf, math.nan):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="smax < inf"):
                    geodesic_polyline(spec, s_max, 4)

    def test_matches_closed_form(self):
        spec = GeodesicSpec.from_direction(-0.4, phi=2.2)
        points = geodesic_polyline(spec, 3.0, 6)
        for k, point in enumerate(points):
            want = geodesic_from_origin(spec, 3.0 * k / 6)
            assert np.max(np.abs(point.as_array() - want.as_array())) < 1e-12
