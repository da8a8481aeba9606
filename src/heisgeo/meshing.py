"""Tessellated geodesic surfaces: spheres, exp-images of planes, close-ups.

Geodesic spheres are built as exp-images of tangent spheres: vertex (j, i)
is the endpoint of the unit-speed geodesic with vertical component
gamma_j and planar direction phi_i followed for the given radius.  Below
the first conjugate radius this coincides with the metric sphere; beyond
it the image over-covers the metric sphere and develops the singular
points that the close-up meshes amplify.  An optional clip against the
Riemannian distance makes that discrepancy measurable.

Self-contact of a sphere is detected by spatial proximity of vertices that
are far apart in parameter space: a pair is an event when its separation
drops below a tenth of the median edge length.  Pairs adjacent in the
parameter grid are ignored, as are pairs whose separation is comparable to
their distance from the nearest pole (the mesh legitimately closes up
there, which would otherwise read as contact near the poles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .core import HeisPoint, group_mul
from .distances import riemannian_distance_many
from .geodesics import TWO_PI, GeodesicSpec, origin_coordinates

__all__ = [
    "MeshError",
    "NoSingularityError",
    "TriMesh",
    "SphereGrid",
    "ProximityEvent",
    "sphere_exp_mesh",
    "plane_exp_surface",
    "ball_cutaway_mesh",
    "clip_mesh_to_halfspace",
    "clip_sphere_to_metric",
    "sphere_proximity_events",
    "singular_point_closeup",
    "geodesic_polyline",
    "first_singular_radius",
    "DEFAULT_DETECTION_GRID",
]


class MeshError(ValueError):
    """Raised when a mesh violates its structural invariants."""


class NoSingularityError(RuntimeError):
    """Raised when no self-contact exists below the requested radius."""


@dataclass
class TriMesh:
    """Indexed triangle mesh with optional per-vertex scalar channels."""

    vertices: np.ndarray
    faces: np.ndarray
    vertex_scalars: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def validate(self) -> None:
        if not np.isfinite(self.vertices).all():
            raise MeshError("mesh has non-finite vertex coordinates")
        if self.faces.size:
            if self.faces.min() < 0 or self.faces.max() >= self.n_vertices:
                raise MeshError("face index out of range")
            a, b, c = self.faces[:, 0], self.faces[:, 1], self.faces[:, 2]
            if ((a == b) | (b == c) | (a == c)).any():
                raise MeshError("degenerate face with repeated vertex index")
        for name, values in self.vertex_scalars.items():
            if len(values) != self.n_vertices:
                raise MeshError(f"scalar channel {name!r} length mismatch")

    def edges(self) -> np.ndarray:
        """Unique undirected edges referenced by the faces."""
        e = np.concatenate(
            [self.faces[:, [0, 1]], self.faces[:, [1, 2]], self.faces[:, [2, 0]]]
        )
        e.sort(axis=1)
        return np.unique(e, axis=0)

    def euler_characteristic(self) -> int:
        return self.n_vertices - len(self.edges()) + self.n_faces


@dataclass(frozen=True)
class SphereGrid:
    """Resolution of a geodesic sphere: azimuthal and polar sample counts."""

    n_phi: int
    n_gamma: int
    radius: float

    def __post_init__(self):
        if self.n_phi < 3 or self.n_gamma < 3:
            raise ValueError("sphere grid needs n_phi >= 3 and n_gamma >= 3")
        if not self.radius > 0.0:
            raise ValueError("sphere radius must be positive")


DEFAULT_DETECTION_GRID = (96, 192)


def _revolved_exp_mesh(gamma_rows: np.ndarray, n_phi: int, radius: float) -> TriMesh:
    """Mesh the exp-image of the rows x full-circle parameter grid.

    Rows with |gamma| exactly 1 collapse to a single pole vertex and are
    connected by triangle fans; ring pairs become split quads.  Vertex
    layout: collapsed rows contribute one vertex, rings contribute n_phi
    vertices ordered by increasing phi, rows in the given order.
    """
    phis = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
    vertices = []
    scalars_gamma = []
    scalars_phi = []
    row_start = []
    row_is_pole = []
    for g in gamma_rows:
        row_start.append(len(vertices))
        if abs(g) == 1.0:
            x, y, z = origin_coordinates(0.0, 0.0, g, radius)
            vertices.append([float(x), float(y), float(z)])
            scalars_gamma.append(g)
            scalars_phi.append(0.0)
            row_is_pole.append(True)
        else:
            r = math.sqrt(max(0.0, 1.0 - g * g))
            x, y, z = origin_coordinates(r, phis, g, radius)
            vertices.extend(np.column_stack([x, y, z]).tolist())
            scalars_gamma.extend([g] * n_phi)
            scalars_phi.extend(phis.tolist())
            row_is_pole.append(False)

    faces = []
    for j in range(len(gamma_rows) - 1):
        lo, hi = row_start[j], row_start[j + 1]
        lo_pole, hi_pole = row_is_pole[j], row_is_pole[j + 1]
        if lo_pole and hi_pole:
            continue
        if lo_pole:
            for i in range(n_phi):
                nxt = (i + 1) % n_phi
                faces.append([lo, hi + nxt, hi + i])
        elif hi_pole:
            for i in range(n_phi):
                nxt = (i + 1) % n_phi
                faces.append([hi, lo + i, lo + nxt])
        else:
            for i in range(n_phi):
                nxt = (i + 1) % n_phi
                faces.append([lo + i, lo + nxt, hi + nxt])
                faces.append([lo + i, hi + nxt, hi + i])

    return TriMesh(
        vertices=np.array(vertices),
        faces=np.array(faces, dtype=np.int64).reshape(-1, 3),
        vertex_scalars={
            "gamma": np.array(scalars_gamma),
            "phi": np.array(scalars_phi),
        },
    )


def sphere_exp_mesh(grid: SphereGrid) -> TriMesh:
    """Geodesic sphere as the exp-image of the tangent sphere of the radius.

    gamma runs uniformly over [-1, 1] including both poles, phi uniformly
    over [0, 2pi).  Vertex layout: index 0 is the south pole (gamma = -1),
    interior ring j (1 <= j <= n_gamma - 2) occupies indices
    1 + (j - 1) * n_phi ... and the north pole comes last.  The mesh is
    combinatorially closed (Euler characteristic 2).
    """
    gamma_rows = np.linspace(-1.0, 1.0, grid.n_gamma)
    gamma_rows[0], gamma_rows[-1] = -1.0, 1.0
    return _revolved_exp_mesh(gamma_rows, grid.n_phi, grid.radius)


def plane_exp_surface(
    theta_range: tuple[float, float] = (0.0, TWO_PI),
    s_range: tuple[float, float] = (0.0, 6.0),
    resolution: tuple[int, int] = (128, 96),
) -> TriMesh:
    """Exp-image of the {X, T} tangent plane at the origin.

    Vertex (i, j) is exp(0, s_j * (cos theta_i, 0, sin theta_i)).  When the
    theta range spans the full circle the seam is closed; when s starts at
    zero the first column collapses to the single origin vertex.
    """
    theta_lo, theta_hi = theta_range
    s_lo, s_hi = s_range
    if s_lo < 0.0 or s_hi <= s_lo:
        raise ValueError("s_range must satisfy 0 <= s_lo < s_hi")
    n_theta, n_s = resolution
    if n_theta < 3 or n_s < 2:
        raise ValueError("resolution must be at least (3, 2)")

    full_circle = abs((theta_hi - theta_lo) - TWO_PI) < 1e-12
    thetas = np.linspace(theta_lo, theta_hi, n_theta, endpoint=not full_circle)
    s_values = np.linspace(s_lo, s_hi, n_s)

    gammas = np.sin(thetas)
    planar = np.cos(thetas)
    # Snap directions that are axis-aligned up to the rounding of theta
    # itself, so the two coordinate-axis columns come out exactly straight.
    vertical = np.abs(planar) < 1e-12
    planar = np.where(vertical, 0.0, planar)
    gammas = np.where(vertical, np.copysign(1.0, gammas), gammas)
    horizontal = np.abs(gammas) < 1e-12
    gammas = np.where(horizontal, 0.0, gammas)
    planar = np.where(horizontal, np.copysign(1.0, planar), planar)
    r = np.abs(planar)
    phi = np.where(planar >= 0.0, 0.0, math.pi)

    vertices = []
    scal_theta = []
    scal_s = []
    col_start = []
    col_is_apex = []
    for s in s_values:
        col_start.append(len(vertices))
        if s == 0.0:
            vertices.append([0.0, 0.0, 0.0])
            scal_theta.append(0.0)
            scal_s.append(0.0)
            col_is_apex.append(True)
        else:
            x, y, z = origin_coordinates(r, phi, gammas, s)
            vertices.extend(np.column_stack([x, y, z]).tolist())
            scal_theta.extend(thetas.tolist())
            scal_s.extend([s] * n_theta)
            col_is_apex.append(False)

    wrap = n_theta if full_circle else n_theta - 1
    faces = []
    for j in range(n_s - 1):
        lo, hi = col_start[j], col_start[j + 1]
        if col_is_apex[j]:
            for i in range(wrap):
                nxt = (i + 1) % n_theta
                faces.append([lo, hi + i, hi + nxt])
        else:
            for i in range(wrap):
                nxt = (i + 1) % n_theta
                faces.append([lo + i, lo + nxt, hi + nxt])
                faces.append([lo + i, hi + nxt, hi + i])

    return TriMesh(
        vertices=np.array(vertices),
        faces=np.array(faces, dtype=np.int64).reshape(-1, 3),
        vertex_scalars={
            "theta": np.array(scal_theta),
            "s": np.array(scal_s),
        },
    )


def _submesh(mesh: TriMesh, keep: np.ndarray) -> TriMesh:
    """The vertices where keep is true, their scalar channels and the faces
    entirely kept, reindexed."""
    index_map = -np.ones(mesh.n_vertices, dtype=np.int64)
    index_map[keep] = np.arange(int(keep.sum()))
    face_keep = keep[mesh.faces].all(axis=1)
    return TriMesh(
        vertices=mesh.vertices[keep],
        faces=index_map[mesh.faces[face_keep]],
        vertex_scalars={k: np.asarray(v)[keep] for k, v in mesh.vertex_scalars.items()},
    )


def clip_mesh_to_halfspace(
    mesh: TriMesh, normal, keep_tol: float = 1e-12
) -> TriMesh:
    """Keep vertices with <v, normal> <= keep_tol and faces entirely kept.

    The cut boundary is left open (no cap).
    """
    n = np.asarray(normal, dtype=float)
    return _submesh(mesh, mesh.vertices @ n <= keep_tol)


def ball_cutaway_mesh(
    radius: float,
    cut_plane_normal=(0.0, 1.0, 0.0),
    n_phi: int = DEFAULT_DETECTION_GRID[0],
    n_gamma: int = DEFAULT_DETECTION_GRID[1],
) -> TriMesh:
    """Geodesic sphere clipped to one side of a plane through the origin."""
    n = np.asarray(cut_plane_normal, dtype=float)
    norm = np.linalg.norm(n)
    if not norm > 0.0:
        raise ValueError("cut plane normal must be nonzero")
    mesh = sphere_exp_mesh(SphereGrid(n_phi=n_phi, n_gamma=n_gamma, radius=radius))
    return clip_mesh_to_halfspace(mesh, n / norm)


def clip_sphere_to_metric(mesh: TriMesh, radius: float, tol: float = 1e-3) -> TriMesh:
    """Drop sphere vertices that are metrically closer to the origin.

    Every exp-sphere vertex satisfies distance <= radius (its generating
    geodesic realizes the radius); beyond the cut locus a strictly shorter
    geodesic exists and the vertex no longer lies on the metric sphere.
    Attaches the per-vertex shortfall as scalar channel "distance_defect".
    """
    defects = radius - riemannian_distance_many(mesh.vertices)
    keep = defects <= tol
    clipped = _submesh(mesh, keep)
    clipped.vertex_scalars["distance_defect"] = defects[keep]
    return clipped


@dataclass(frozen=True)
class ProximityEvent:
    """A pair of parameter-distant vertices in spatial contact."""

    vertex_a: int
    vertex_b: int
    separation: float
    gamma_mid: float
    planar_radius_mid: float


def _sphere_rows_cols(grid: SphereGrid) -> tuple[np.ndarray, np.ndarray]:
    """Parameter-grid row and column of every sphere vertex (pole col = -1)."""
    rows = [0]
    cols = [-1]
    for j in range(1, grid.n_gamma - 1):
        rows.extend([j] * grid.n_phi)
        cols.extend(range(grid.n_phi))
    rows.append(grid.n_gamma - 1)
    cols.append(-1)
    return np.array(rows), np.array(cols)


_PROXIMITY_RATIO = 0.1
_PARAM_ADJACENCY = 2
_POLE_CLOSURE_RATIO = 0.15


def sphere_proximity_events(grid: SphereGrid) -> list[ProximityEvent]:
    """Self-contact events of the exp-sphere at the given resolution.

    A vertex pair is an event when its Euclidean separation is below
    0.1 x median edge length, the pair is more than two steps apart in the
    parameter grid (phi circular), and the separation is small compared
    with the pair's distance to the nearest pole.  The last condition
    rejects the legitimate closing of rings near the poles.
    """
    mesh = sphere_exp_mesh(grid)
    rows, cols = _sphere_rows_cols(grid)
    edges = mesh.edges()
    edge_lengths = np.linalg.norm(
        mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1
    )
    threshold = _PROXIMITY_RATIO * float(np.median(edge_lengths))

    tree = cKDTree(mesh.vertices)
    pairs = tree.query_pairs(r=threshold, output_type="ndarray")
    if pairs.size == 0:
        return []

    south = mesh.vertices[0]
    north = mesh.vertices[-1]

    events = []
    for a, b in pairs:
        d_row = abs(int(rows[a]) - int(rows[b]))
        if cols[a] < 0 or cols[b] < 0:
            param_close = d_row <= _PARAM_ADJACENCY
        else:
            d_col = abs(int(cols[a]) - int(cols[b]))
            d_col = min(d_col, grid.n_phi - d_col)
            param_close = d_row <= _PARAM_ADJACENCY and d_col <= _PARAM_ADJACENCY
        if param_close:
            continue
        va, vb = mesh.vertices[a], mesh.vertices[b]
        separation = float(np.linalg.norm(va - vb))
        pole_distance = min(
            np.linalg.norm(va - south),
            np.linalg.norm(va - north),
            np.linalg.norm(vb - south),
            np.linalg.norm(vb - north),
        )
        if separation >= _POLE_CLOSURE_RATIO * pole_distance:
            continue
        mid = 0.5 * (va + vb)
        gammas = mesh.vertex_scalars["gamma"]
        events.append(
            ProximityEvent(
                vertex_a=int(a),
                vertex_b=int(b),
                separation=separation,
                gamma_mid=float(0.5 * (gammas[a] + gammas[b])),
                planar_radius_mid=float(math.hypot(mid[0], mid[1])),
            )
        )
    events.sort(
        key=lambda e: (e.planar_radius_mid, -abs(e.gamma_mid), e.vertex_a, e.vertex_b)
    )
    return events


def singular_point_closeup(
    radius: float,
    window: float = 0.08,
    resolution: tuple[int, int] = (96, 48),
    detection_grid: tuple[int, int] = DEFAULT_DETECTION_GRID,
) -> TriMesh:
    """Amplified patch around the sphere's self-contact nearest the axis.

    The sphere is scanned at the detection resolution; among the contact
    events the one closest to the z-axis (ties broken towards the poles)
    selects a gamma neighborhood of half-width `window`, which is re-meshed
    over the full phi circle at the requested patch resolution.  Raises
    NoSingularityError when the sphere has no self-contact, i.e. the radius
    is below the first conjugate radius.
    """
    if not window > 0.0:
        raise ValueError("window must be positive")
    grid = SphereGrid(n_phi=detection_grid[0], n_gamma=detection_grid[1], radius=radius)
    events = sphere_proximity_events(grid)
    if not events:
        raise NoSingularityError(
            f"no singularity found below radius {radius}; the sphere appears embedded"
        )
    center = events[0].gamma_mid
    lo = max(-1.0, center - window)
    hi = min(1.0, center + window)
    n_phi, n_gamma = resolution
    gamma_rows = np.linspace(lo, hi, max(n_gamma, 3))
    if lo == -1.0:
        gamma_rows[0] = -1.0
    if hi == 1.0:
        gamma_rows[-1] = 1.0
    return _revolved_exp_mesh(gamma_rows, max(n_phi, 3), radius)


def geodesic_polyline(spec: GeodesicSpec, s_max: float, n: int) -> list[HeisPoint]:
    """n + 1 points sampled uniformly in arc length from the closed form."""
    if n < 2:
        raise ValueError("polyline needs n >= 2 segments")
    if not s_max > 0.0:
        raise ValueError("s_max must be positive")
    s_values = np.linspace(0.0, s_max, n + 1)
    x, y, z = origin_coordinates(spec.r, spec.phi, spec.gamma, s_values)
    points = []
    for xi, yi, zi in zip(x, y, z):
        points.append(group_mul(spec.base, HeisPoint(float(xi), float(yi), float(zi))))
    return points


def first_singular_radius(
    lo: float = 2.0,
    hi: float = 5.0,
    iterations: int = 18,
    detection_grid: tuple[int, int] = DEFAULT_DETECTION_GRID,
) -> float:
    """Empirical onset radius of sphere self-contact, located by bisection.

    The value depends on the detection resolution (the detector needs the
    contact features to separate from the pole scale), so it is a property
    of the discretized artifact, recorded as a regression constant rather
    than a geometric assertion.
    """

    def has_contact(radius: float) -> bool:
        grid = SphereGrid(detection_grid[0], detection_grid[1], radius)
        return bool(sphere_proximity_events(grid))

    if has_contact(lo):
        raise ValueError(f"lower bracket {lo} already shows self-contact")
    if not has_contact(hi):
        raise ValueError(f"upper bracket {hi} shows no self-contact")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if has_contact(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
