"""Tessellated geodesic surfaces: spheres, exp-images of planes, close-ups.

Geodesic spheres are built as exp-images of tangent spheres: vertex (j, i)
is the endpoint of the unit-speed geodesic with vertical component
gamma_j and planar direction phi_i followed for the given radius.  Below
the first conjugate radius this coincides with the metric sphere; beyond
it the image over-covers the metric sphere and develops the singular
points that the close-up meshes amplify.  An optional clip against the
Riemannian distance makes that discrepancy measurable.

Every surface here is the exp-image of a parameter grid (gamma x phi for
spheres and close-ups, s x theta for the plane) and is meshed by one
routine, `_grid_mesh`.  Vertices are the grid points row by row, except
that a collapsed end row (a pole, or the plane's apex at s = 0) keeps only
its first vertex.  Each grid cell is split into two triangles; at a
collapsed row the triangles that repeat a vertex are dropped, and the rest
form the fan around the pole.  The phi seam wraps; a partial theta range
does not.

Self-contact of a sphere is detected by spatial proximity of vertices that
are far apart in parameter space: a pair is an event when its separation
is at most a tenth of the median edge length (pairs from `_close_pairs`, a
cell hash).  Pairs adjacent in the parameter grid are ignored, as are pairs
whose separation is comparable to their distance from the nearest pole (the
mesh legitimately closes up there, which would read as contact near poles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
        """Unique undirected edges referenced by the faces.

        Sorted `(n, 2)` rows `a < b`, in lexicographic order.  Each edge is
        keyed as the single integer `a * n_vertices + b`; one sort of the
        keys and a neighbour-differs mask stand in for the much slower
        row-wise `np.unique(axis=0)`.
        """
        ends = np.roll(self.faces, -1, axis=1)
        keys = np.minimum(self.faces, ends) * self.n_vertices + np.maximum(self.faces, ends)
        keys = np.sort(keys, axis=None)
        first = np.empty(keys.size, dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        return np.stack(np.divmod(keys[first], self.n_vertices), axis=1)

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


def _grid_mesh(points: np.ndarray, scalars: dict, collapse, wrap: bool) -> TriMesh:
    """Mesh the image of an (n_rows, n_cols) parameter grid.

    points has shape (n_rows, n_cols, 3) and every scalar channel broadcasts
    to (n_rows, n_cols).  Vertices are the grid points in row-major order,
    except that a collapsed end row (collapse = (first_row, last_row)) keeps
    only its column-0 vertex.  Cell (j, i) becomes the triangles
    [lo_i, lo_next, hi_next] and [lo_i, hi_next, hi_i], with lo row j, hi
    row j + 1 and next = i + 1 modulo n_cols; without wrap the last column
    starts no cell.  Faces run row by row, column by column, first triangle
    first.  Triangles that repeat an index are dropped, which leaves one fan
    per collapsed row; a last-row fan is rotated to start at its pole.
    """
    n_rows, n_cols = points.shape[:2]
    keep = np.ones((n_rows, n_cols), dtype=bool)
    keep[0, 1:] = not collapse[0]
    keep[-1, 1:] = not collapse[1]
    index = np.cumsum(keep).reshape(keep.shape) - 1
    index = np.where(keep, index, index[:, :1])
    cols = np.arange(n_cols if wrap else n_cols - 1)
    nxt = (cols + 1) % n_cols
    lo, hi = index[:-1], index[1:]
    first = np.stack([lo[:, cols], lo[:, nxt], hi[:, nxt]], axis=-1)
    second = np.stack([lo[:, cols], hi[:, nxt], hi[:, cols]], axis=-1)
    if collapse[1]:
        first[-1] = np.roll(first[-1], 1, axis=-1)
    faces = np.stack([first, second], axis=2).reshape(-1, 3)
    a, b, c = faces.T
    return TriMesh(
        vertices=points[keep],
        faces=faces[(a != b) & (b != c) & (a != c)],
        vertex_scalars={k: np.broadcast_to(v, keep.shape)[keep] for k, v in scalars.items()},
    )


def _revolved_exp_mesh(gamma_rows: np.ndarray, n_phi: int, radius: float) -> TriMesh:
    """Mesh the exp-image of the gamma rows x full phi circle grid.

    An end row with |gamma| = 1 collapses to its pole vertex.
    """
    phis = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
    gammas = gamma_rows[:, None]
    r = np.sqrt(np.maximum(0.0, 1.0 - gammas * gammas))
    points = np.stack(origin_coordinates(r, phis, gammas, radius), axis=-1)
    collapse = tuple(np.abs(gamma_rows[[0, -1]]) == 1.0)
    return _grid_mesh(points, {"gamma": gammas, "phi": phis}, collapse, wrap=True)


def sphere_exp_mesh(grid: SphereGrid) -> TriMesh:
    """Geodesic sphere as the exp-image of the tangent sphere of the radius.

    gamma runs uniformly over [-1, 1] including both poles, phi uniformly
    over [0, 2pi).  Vertex layout: index 0 is the south pole (gamma = -1),
    interior ring j (1 <= j <= n_gamma - 2) occupies indices
    1 + (j - 1) * n_phi ... and the north pole comes last.  The mesh is
    combinatorially closed (Euler characteristic 2).
    """
    gamma_rows = np.linspace(-1.0, 1.0, grid.n_gamma)
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
    s_values = np.linspace(s_lo, s_hi, n_s)[:, None]

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

    points = np.stack(origin_coordinates(r, phi, gammas, s_values), axis=-1)
    apex = s_lo == 0.0
    mesh = _grid_mesh(points, {"theta": thetas, "s": s_values}, (apex, False), full_circle)
    if apex:
        # One origin vertex with theta = s = 0, whatever the theta range.
        mesh.vertices[0] = 0.0
        mesh.vertex_scalars["theta"][0] = 0.0
        mesh.vertex_scalars["s"][0] = 0.0
        # Apex fan wound against the quads, kept for fig1's bytes (CHANGES.md FOUND).
        fan = mesh.faces[:, 0] == 0
        mesh.faces[fan] = mesh.faces[fan][:, [0, 2, 1]]
    return mesh


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


def clip_mesh_to_halfspace(mesh: TriMesh, normal) -> TriMesh:
    """Keep vertices with <v, normal> <= 1e-12 and faces entirely kept.

    The fixed slack of 1e-12 keeps vertices that lie on the plane up to
    rounding.  The cut boundary is left open (no cap).
    """
    n = np.asarray(normal, dtype=float)
    return _submesh(mesh, mesh.vertices @ n <= 1e-12)


def ball_cutaway_mesh(
    radius: float,
    cut_plane_normal=(0.0, 1.0, 0.0),
    n_phi: int = DEFAULT_DETECTION_GRID[0],
    n_gamma: int = DEFAULT_DETECTION_GRID[1],
) -> TriMesh:
    """Geodesic sphere clipped to one side of a plane through the origin."""
    n = np.asarray(cut_plane_normal, dtype=float)
    if not np.isfinite(n).all():
        raise ValueError("cut plane normal must be finite")
    # Scaled by the power of two that brings max |n_i| into [0.5, 1): the norm
    # neither overflows nor underflows, and every 2^k n gives one unit normal.
    n = np.ldexp(n, -math.frexp(np.max(np.abs(n)))[1])
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
    if not tol > 0.0:
        raise ValueError("metric clip tol must be positive")
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


_PROXIMITY_RATIO = 0.1
_PARAM_ADJACENCY = 2
_POLE_CLOSURE_RATIO = 0.15


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Norms of the rows of d, each equal to np.linalg.norm of the row alone."""
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def _close_pairs(points: np.ndarray, r: float) -> np.ndarray:
    """Index pairs (i, j), i < j, of the points at most r >= 0 apart.

    Exactly the pairs of cKDTree.query_pairs: (dx^2 + dy^2) + dz^2 <= r * r.
    Cubic cells of side 1.0000001 max(r, 1e-150) + 1e-15 max|coordinate|
    hold each such pair in adjacent cells despite rounding and underflow,
    with exact integer indices.  Keys (cx * ny + cy) * nz + cz make a cell's
    z-neighbours consecutive, so after one sort a point finds its candidates
    in 5 ranges: its own column after itself through dz = +1, and the
    forward columns (0, 1), (1, -1), (1, 0) and (1, 1) over dz = -1..1.  If
    the keys would overflow int64, each axis is renumbered first, with
    non-adjacent cells 2 apart; ValueError if they still would.
    """
    xyz = np.asarray(points, dtype=float).reshape(-1, 3).T.copy()
    n, r2 = xyz.shape[1], r * r
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    side = 1.0000001 * max(r, 1e-150) + 1e-15 * float(np.abs(xyz).max())
    cells = np.floor(xyz / side).astype(np.int64)
    cells -= cells.min(axis=1, keepdims=True) - 1
    if math.prod(int(m) + 2 for m in cells.max(axis=1)) >= 2**63:
        for c in cells:
            values, inverse = np.unique(c, return_inverse=True)
            c[:] = np.cumsum(np.minimum(np.diff(values, prepend=values[0] - 1), 2))[inverse]
    _, ny, nz = sizes = [int(m) + 2 for m in cells.max(axis=1)]
    if math.prod(sizes) >= 2**63:
        raise ValueError(f"{n} points span too many cells for int64 cell keys")
    key = (cells[0] * ny + cells[1]) * nz + cells[2]
    order = np.argsort(key)
    skey = key[order]
    column = (skey + np.array([[nz], [ny * nz - nz], [ny * nz], [ny * nz + nz]])).ravel()
    found = np.searchsorted(skey, np.concatenate([skey + 2, column - 1, column + 2]))
    starts = np.concatenate([np.arange(1, n + 1), found[n : 5 * n]])
    counts = np.concatenate([found[:n], found[5 * n :]]) - starts
    first = np.repeat(np.tile(np.arange(n), 5), counts)
    second = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(len(first))
    sorted_xyz = np.take(xyz, order, axis=1)
    d = np.take(sorted_xyz, first, axis=1) - np.take(sorted_xyz, second, axis=1)
    d *= d
    keep = (d[0] + d[1]) + d[2] <= r2
    i, j = order[first[keep]], order[second[keep]]
    return np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)


def sphere_proximity_events(grid: SphereGrid) -> list[ProximityEvent]:
    """Self-contact events of the exp-sphere at the given resolution.

    A vertex pair is an event when its Euclidean separation is at most
    0.1 x median edge length, the pair is more than two steps apart in the
    parameter grid (phi circular), and the separation is small compared
    with the pair's distance to the nearest pole.  The last condition
    rejects the legitimate closing of rings near the poles.
    """
    mesh = sphere_exp_mesh(grid)
    edges = mesh.edges()
    edge_lengths = np.linalg.norm(
        mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1
    )
    threshold = _PROXIMITY_RATIO * float(np.median(edge_lengths))

    pairs = _close_pairs(mesh.vertices, threshold)
    # Vertex v lies on ring (v - 1) // n_phi at column (v - 1) % n_phi; the
    # ring formula also puts each pole one ring beyond its neighbor ring.
    ring, col = np.divmod(pairs - 1, grid.n_phi)
    d_col = np.abs(col[:, 0] - col[:, 1])
    d_col = np.minimum(d_col, grid.n_phi - d_col)
    at_pole = ((pairs == 0) | (pairs == mesh.n_vertices - 1)).any(axis=1)
    param_close = (np.abs(ring[:, 0] - ring[:, 1]) <= _PARAM_ADJACENCY) & (
        at_pole | (d_col <= _PARAM_ADJACENCY)
    )

    va, vb = mesh.vertices[pairs[:, 0]], mesh.vertices[pairs[:, 1]]
    separation = _row_norms(va - vb)
    pole_distance = np.min(
        [_row_norms(v - pole) for v in (va, vb) for pole in mesh.vertices[[0, -1]]], axis=0
    )
    hit = ~param_close & (separation < _POLE_CLOSURE_RATIO * pole_distance)

    a, b = pairs[hit].T
    gammas = mesh.vertex_scalars["gamma"]
    gamma_mid = 0.5 * (gammas[a] + gammas[b])
    mid = 0.5 * (va[hit] + vb[hit])
    events = [
        ProximityEvent(i, j, sep, g, math.hypot(x, y))
        for i, j, sep, g, (x, y, _) in zip(
            a.tolist(), b.tolist(), separation[hit].tolist(), gamma_mid.tolist(), mid.tolist()
        )
    ]
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
    over the full phi circle at the requested patch resolution, at least
    (3, 3) (ValueError).  Raises NoSingularityError when the sphere has no
    self-contact, i.e. the radius is below the first conjugate radius.
    """
    if not window > 0.0:
        raise ValueError("window must be positive")
    n_phi, n_gamma = resolution
    if n_phi < 3 or n_gamma < 3:
        raise ValueError("closeup resolution needs n_phi >= 3 and n_gamma >= 3")
    grid = SphereGrid(n_phi=detection_grid[0], n_gamma=detection_grid[1], radius=radius)
    events = sphere_proximity_events(grid)
    if not events:
        raise NoSingularityError(
            f"no singularity found below radius {radius}; the sphere appears embedded"
        )
    center = events[0].gamma_mid
    lo = max(-1.0, center - window)
    hi = min(1.0, center + window)
    return _revolved_exp_mesh(np.linspace(lo, hi, n_gamma), n_phi, radius)


def geodesic_polyline(spec: GeodesicSpec, s_max: float, n: int) -> list[HeisPoint]:
    """n + 1 points sampled uniformly in arc length from the closed form."""
    if n < 2:
        raise ValueError("polyline needs n >= 2 segments")
    if not s_max > 0.0:
        raise ValueError("polyline needs arc length smax > 0")
    s_values = np.linspace(0.0, s_max, n + 1)
    x, y, z = origin_coordinates(spec.r, spec.phi, spec.gamma, s_values)
    return [group_mul(spec.base, HeisPoint(*map(float, xyz))) for xyz in zip(x, y, z)]


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
