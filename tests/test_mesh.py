"""Mesh emission: spheres, plane images, cutaways, close-ups, polylines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import heisgeo.meshing
from heisgeo.core import ORIGIN, HeisPoint
from heisgeo.distances import riemannian_distance
from heisgeo.geodesics import GeodesicSpec, geodesic_from_origin
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
from heisgeo.meshing import _close_pairs
from heisgeo.writers import write_obj

TWO_PI = 2.0 * math.pi


def interior_index(grid: SphereGrid, row: int, col: int) -> int:
    """Vertex index of interior ring row (1-based from the south pole)."""
    return 1 + (row - 1) * grid.n_phi + col


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
        # Empirical onset for the default detector resolution; depends on
        # the mesh resolution, not a geometric constant.
        value = first_singular_radius(lo=3.0, hi=3.5, iterations=10)
        assert abs(value - 3.2342) < 2e-3

    def test_bracket_validation(self):
        with pytest.raises(ValueError):
            first_singular_radius(lo=5.0, hi=6.0, iterations=2)


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


def _loop_events(grid):
    """Proximity events filtered pair by pair, as before vectorization."""
    mesh = sphere_exp_mesh(grid)
    n_phi, n_gamma = grid.n_phi, grid.n_gamma
    rows = [0] + [j for j in range(1, n_gamma - 1) for _ in range(n_phi)] + [n_gamma - 1]
    cols = [-1] + list(range(n_phi)) * (n_gamma - 2) + [-1]
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
        pole = cols[a] < 0 or cols[b] < 0
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
        ],
        ids=[
            "sphere3x3",
            "sphere7x5",
            "closeup",
            "closeup_to_pole",
            "plane",
            "plane_partial_apex",
            "plane_partial",
        ],
    )
    def test_faces(self, build, collapsed, n_cols, n_cells, apex_out):
        expected = _loop_faces(collapsed, n_cols, n_cells, apex_out)
        np.testing.assert_array_equal(build().faces, expected)

    @pytest.mark.parametrize("radius", [5.0, 7.5, 20.0])
    def test_events(self, radius):
        grid = SphereGrid(48, 96, radius)
        assert sphere_proximity_events(grid) == _loop_events(grid)


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

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tolerance_must_be_positive(self, tol):
        mesh = sphere_exp_mesh(SphereGrid(8, 8, 1.0))
        with pytest.raises(ValueError, match="tol must be positive"):
            clip_sphere_to_metric(mesh, 1.0, tol=tol)

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

    def test_matches_closed_form(self):
        spec = GeodesicSpec.from_direction(-0.4, phi=2.2)
        points = geodesic_polyline(spec, 3.0, 6)
        for k, point in enumerate(points):
            want = geodesic_from_origin(spec, 3.0 * k / 6)
            assert np.max(np.abs(point.as_array() - want.as_array())) < 1e-12
