"""Tessellated geodesic surfaces: spheres, exp-images of planes, close-ups.

Geodesic spheres are built as exp-images of tangent spheres: vertex (j, i)
is the endpoint of the unit-speed geodesic with vertical component
gamma_j and planar direction phi_i followed for the given radius.  Below
the first conjugate radius this coincides with the metric sphere; beyond
it the image over-covers the metric sphere and develops the singular
points that the close-up meshes amplify.  An optional clip against the
Riemannian distance makes that discrepancy measurable.

Every surface here is the exp-image of a parameter grid (gamma x phi for
spheres and close-ups, s x theta for the plane), given as the x, y and z
planes `origin_coordinates` returns, and is meshed by one routine,
`_grid_mesh`.  One rule, `_kept`, says which grid points are vertices and
in what order: every point, row by row, except that a collapsed end row
(a pole, or the plane's apex at s = 0) keeps only its first point.  Each
grid cell is split into two triangles; at a collapsed row the triangles
that repeat a vertex are dropped, and the rest form the fan around the
pole.  The phi seam wraps; a partial theta range does not.  The faces
depend only on the grid's shape, so `_grid_topology` builds them once per
shape and keeps the last few shapes' faces, read-only int32; each mesh
gathers its own vertices and gets its own writable int64 copy of the
faces.

Self-contact of a sphere is detected by spatial proximity of vertices that
are far apart in parameter space: a pair is an event when its separation
is at most the threshold, a tenth of the median edge length (pairs from
`_close_pairs`, a cell hash).  The detector builds no faces: its sphere is
the point grid's planes, and its vertex array and each vertex's grid row
and column come from `_kept`.  Each edge is taken once, as slices of each
plane, and its length is sqrt((dx*dx + dy*dy) + dz*dz), the order in which
`np.linalg.norm(axis=1)` sums a 3-vector, so the threshold keeps the bits
of the norm over the mesh's face edges.  Pairs adjacent in the parameter
grid are dropped before any coordinate is gathered, and so are pairs
whose separation is comparable to their distance from the nearest pole (the
mesh legitimately closes up there, which would read as contact near poles).
`_hits` finds the events as unordered arrays; `_ordered` puts them in the
order of one lexsort, by planar distance of the midpoint from the z-axis
(math.hypot) first, and only `sphere_proximity_events` turns them into
objects.  The close-up searches only the vertices within 8 thresholds of
the z-axis, where the sphere's singular points lie, and is centred on the
first event there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import HeisPoint
from .distances import riemannian_distance_many
from .geodesics import TWO_PI, GeodesicSpec, _polyline_columns, origin_coordinates

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


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise MeshError("mesh has non-finite vertex coordinates")


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
        _require_finite(self.vertices)
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


def _kept(shape: tuple[int, int], collapse) -> np.ndarray:
    """The vertex rule of every grid here, as an (n_rows, n_cols) mask: all
    points but columns 1.. of a collapsed end row (collapse = (first_row,
    last_row)), numbered row by row, in the mask's flat order."""
    keep = np.ones(shape, dtype=bool)
    keep[0, 1:] = not collapse[0]
    keep[-1, 1:] = not collapse[1]
    return keep


@functools.lru_cache(maxsize=8)
def _grid_topology(
    n_rows: int, n_cols: int, collapse_first: bool, collapse_last: bool, wrap: bool
) -> np.ndarray:
    """The faces of an (n_rows, n_cols) grid, read-only int32; see `_grid_mesh`.

    Memoized, faces only: the figures mesh several spheres on one grid, and
    the faces cost most of a mesh.  Eight shapes hold the plane, the close-up
    patch and three sphere grids with room to spare, in int32: it indexes
    any grid under 2**31 points, whose points alone would take 48 GiB.
    """
    # Each point's vertex index; a dropped point gets its row's column 0.
    index = np.cumsum(_kept((n_rows, n_cols), (collapse_first, collapse_last)), dtype=np.int32) - 1
    cols = np.arange(n_cols if wrap else n_cols - 1)
    nxt = (cols + 1) % n_cols
    # Each cell's six corners lo_i, lo_next, hi_next, lo_i, hi_next, hi_i,
    # as flat grid indices.
    rows = (np.arange(n_rows - 1)[:, None, None] + [0, 0, 1, 0, 1, 1]) * n_cols
    faces = np.take(index, rows + np.where([0, 1, 1, 0, 1, 0], nxt[:, None], cols[:, None]))
    if collapse_last:
        faces[-1, :, :3] = np.roll(faces[-1, :, :3], 1, axis=-1)
    faces = faces.reshape(-1, 3)
    a, b, c = faces.T
    faces = np.compress((a != b) & (b != c) & (a != c), faces, axis=0)
    faces.flags.writeable = False
    return faces


def _grid_mesh(planes, scalars: dict, collapse, wrap: bool) -> TriMesh:
    """Mesh the image of an (n_rows, n_cols) parameter grid.

    planes are its x, y and z coordinate planes and every scalar channel
    broadcasts to (n_rows, n_cols).  Vertices are the grid points of
    `_kept`.  Cell (j, i) becomes the triangles
    [lo_i, lo_next, hi_next] and [lo_i, hi_next, hi_i], with lo row j, hi
    row j + 1 and next = i + 1 modulo n_cols; without wrap the last column
    starts no cell.  Faces run row by row, column by column, first triangle
    first.  Triangles that repeat an index are dropped, which leaves one fan
    per collapsed row; a last-row fan is rotated to start at its pole.

    The faces come from `_grid_topology`, built once per grid shape; the
    mesh gets its own int64 copy, so editing them in place leaves the next
    mesh on the grid alone.
    """
    _require_finite(*planes)
    shape = planes[0].shape
    keep = _kept(shape, collapse)
    return TriMesh(
        vertices=np.stack([c[keep] for c in planes], axis=1),
        faces=_grid_topology(*shape, bool(collapse[0]), bool(collapse[1]), wrap).astype(np.int64),
        vertex_scalars={k: np.broadcast_to(v, shape)[keep] for k, v in scalars.items()},
    )


def _revolved_grid(
    gamma_rows: np.ndarray, n_phi: int, radius: float
) -> tuple[tuple[np.ndarray, ...], dict, tuple]:
    """The x, y and z planes, scalar channels and collapsed end rows of the
    exp-image of the gamma rows x full phi circle grid.

    An end row with |gamma| = 1 collapses to its pole vertex.
    """
    phis = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
    gammas = gamma_rows[:, None]
    r = np.sqrt(np.maximum(0.0, 1.0 - gammas * gammas))
    planes = origin_coordinates(r, phis, gammas, radius)
    collapse = tuple(np.abs(gamma_rows[[0, -1]]) == 1.0)
    return planes, {"gamma": gammas, "phi": phis}, collapse


def sphere_exp_mesh(grid: SphereGrid) -> TriMesh:
    """Geodesic sphere as the exp-image of the tangent sphere of the radius.

    gamma runs uniformly over [-1, 1] including both poles, phi uniformly
    over [0, 2pi).  Vertices, by `_kept`: the south pole (gamma = -1), the
    interior rings from south to north, each from phi = 0, and the north
    pole.  The mesh is combinatorially closed (Euler characteristic 2).
    """
    gamma_rows = np.linspace(-1.0, 1.0, grid.n_gamma)
    return _grid_mesh(*_revolved_grid(gamma_rows, grid.n_phi, grid.radius), wrap=True)


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
    # The span is finite only if both ends are and their difference is; it
    # is zero only if they are equal, when every theta column is one curve.
    span = theta_hi - theta_lo
    if not (math.isfinite(span) and span != 0.0 and 0.0 <= s_lo < s_hi < math.inf):
        raise ValueError(
            "plane needs a finite theta range with theta_lo != theta_hi "
            "and 0 <= s_lo < s_hi < inf"
        )
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

    planes = origin_coordinates(r, phi, gammas, s_values)
    apex = s_lo == 0.0
    mesh = _grid_mesh(planes, {"theta": thetas, "s": s_values}, (apex, False), full_circle)
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
    kept = np.flatnonzero(keep)
    index_map = -np.ones(mesh.n_vertices, dtype=np.int64)
    index_map[kept] = np.arange(len(kept))
    face_keep = np.take(keep, mesh.faces).all(axis=1)
    return TriMesh(
        vertices=np.take(mesh.vertices, kept, axis=0),
        faces=np.take(index_map, np.compress(face_keep, mesh.faces, axis=0)),
        vertex_scalars={k: np.take(v, kept) for k, v in mesh.vertex_scalars.items()},
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
    ValueError unless 0 < radius < inf and 0 < tol < inf.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError("metric clip radius must be positive and finite")
    if not 0.0 < tol < math.inf:
        raise ValueError("metric clip tol must be positive and finite")
    defects = radius - riemannian_distance_many(mesh.vertices)
    keep = defects <= tol
    clipped = _submesh(mesh, keep)
    clipped.vertex_scalars["distance_defect"] = np.compress(keep, defects)
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
# Planar reach, in thresholds, of the close-up's search near the z-axis.
_CLOSEUP_REACH = 8.0


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
    i = np.take(order, np.compress(keep, first))
    j = np.take(order, np.compress(keep, second))
    return np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)


def _detection_sphere(grid: SphereGrid) -> tuple[np.ndarray, float]:
    """The vertex array of `sphere_exp_mesh(grid)`, in its order, and its
    contact threshold, 0.1 x the median edge length; MeshError if a point
    is not finite.

    Both come from the x, y and z planes of the gamma x phi point grid, and
    no face is built.  The edges run along each interior ring, between
    neighbouring rings (meridians and the cell diagonals lo_i -> hi_next)
    and over the two pole fans.  These are the sphere mesh's edges, each
    once, so the median is the one over its face edges a -> b, a < b.  Each
    plane gives its edges' differences, and a length is
    sqrt((dx*dx + dy*dy) + dz*dz), the order `np.linalg.norm(axis=1)` sums
    a row in, so the threshold has the bits of the norm over 3-vectors.
    """
    planes = _revolved_grid(np.linspace(-1.0, 1.0, grid.n_gamma), grid.n_phi, grid.radius)[0]
    _require_finite(*planes)
    n_rings = grid.n_gamma - 2
    # Rows of n_phi edges: the rings, the meridians, the diagonals and the
    # two pole fans.  Each plane's differences go to e and are squared and
    # summed into lengths, one plane at a time: ((0 + dx*dx) + dy*dy) + dz*dz
    # has the bits of (dx*dx + dy*dy) + dz*dz.  The root and the median's
    # partition work in place, so these are the only two arrays of the
    # edges' size.
    lengths = np.zeros((3 * n_rings, grid.n_phi))
    e = np.empty_like(lengths)
    ring, meridian, diagonal, fan = np.split(e, [n_rings, 2 * n_rings - 1, 3 * n_rings - 2])
    for c in planes:
        rings, lo, hi = c[1:-1], c[1:-2], c[2:-1]
        np.subtract(rings[:, 1:], rings[:, :-1], out=ring[:, :-1])
        np.subtract(rings[:, 0], rings[:, -1], out=ring[:, -1])
        np.subtract(hi, lo, out=meridian)
        np.subtract(hi[:, 1:], lo[:, :-1], out=diagonal[:, :-1])
        np.subtract(hi[:, 0], lo[:, -1], out=diagonal[:, -1])
        np.subtract(rings[[0, -1]], c[[0, -1], :1], out=fan)
        lengths += np.multiply(e, e, out=e)
    np.sqrt(lengths, out=lengths)
    keep = _kept(planes[0].shape, (True, True))
    vertices = np.stack([c[keep] for c in planes], axis=1)
    return vertices, _PROXIMITY_RATIO * float(np.median(lengths, overwrite_input=True))


def _hits(
    grid: SphereGrid, xyz: np.ndarray, threshold: float, reach: float = math.inf
) -> tuple[np.ndarray, ...]:
    """The events of `sphere_proximity_events` whose two vertices lie within
    the planar distance reach of the z-axis, in no set order, as six arrays:
    vertex_a, vertex_b, separation, gamma_mid and the midpoint's x and y.

    xyz and threshold are `_detection_sphere(grid)`.  Only the vertices
    within reach are searched for close pairs; the default reach keeps all.
    """
    near = np.flatnonzero(np.hypot(xyz[:, 0], xyz[:, 1]) <= reach)
    pairs = np.take(near, _close_pairs(np.take(xyz, near, axis=0), threshold))
    # Each vertex's grid row and column, from its flat grid index.
    kept = np.flatnonzero(_kept((grid.n_gamma, grid.n_phi), (True, True)))
    row, col = np.divmod(np.take(kept, pairs), grid.n_phi)
    d_col = np.abs(col[:, 0] - col[:, 1])
    d_col = np.minimum(d_col, grid.n_phi - d_col)
    at_pole = ((row == 0) | (row == grid.n_gamma - 1)).any(axis=1)
    param_close = (np.abs(row[:, 0] - row[:, 1]) <= _PARAM_ADJACENCY) & (
        at_pole | (d_col <= _PARAM_ADJACENCY)
    )
    # Parameter-adjacent pairs are dropped before any coordinate is gathered.
    far = ~param_close
    pairs, row = np.compress(far, pairs, axis=0), np.compress(far, row, axis=0)

    va, vb = np.take(xyz, pairs[:, 0], axis=0), np.take(xyz, pairs[:, 1], axis=0)
    separation = _row_norms(va - vb)
    pole_distance = np.min(
        [_row_norms(v - pole) for v in (va, vb) for pole in (xyz[0], xyz[-1])], axis=0
    )
    hit = separation < _POLE_CLOSURE_RATIO * pole_distance

    a, b = np.compress(hit, pairs, axis=0).T
    ga, gb = np.take(np.linspace(-1.0, 1.0, grid.n_gamma), np.compress(hit, row, axis=0).T)
    mid = 0.5 * (np.compress(hit, va[:, :2], axis=0) + np.compress(hit, vb[:, :2], axis=0))
    return a, b, np.compress(hit, separation), 0.5 * (ga + gb), *mid.T


def _ordered(hits) -> tuple[np.ndarray, ...]:
    """`_hits` in event order, as five arrays: vertex_a, vertex_b,
    separation, gamma_mid and planar_radius_mid."""
    a, b, separation, gamma_mid, x, y = hits
    # math.hypot, not np.hypot: the two may differ by an ulp and reorder ties.
    planar = np.fromiter(map(math.hypot, x.tolist(), y.tolist()), float, len(a))
    order = np.lexsort((b, a, -np.abs(gamma_mid), planar))
    return tuple(np.take(e, order) for e in (a, b, separation, gamma_mid, planar))


def sphere_proximity_events(grid: SphereGrid) -> list[ProximityEvent]:
    """Self-contact events of the exp-sphere at the given resolution.

    A vertex pair is an event when its Euclidean separation is at most
    0.1 x median edge length, the pair is more than two steps apart in the
    parameter grid (phi circular), and the separation is small compared
    with the pair's distance to the nearest pole.  The last condition
    rejects the legitimate closing of rings near the poles.  Events are
    ordered by planar_radius_mid, then -|gamma_mid|, vertex_a, vertex_b.
    No events, without a search, when radius <= pi, where the sphere is
    embedded (`first_singular_radius`).
    """
    if grid.radius <= first_singular_radius():
        return []
    events = _ordered(_hits(grid, *_detection_sphere(grid)))
    return [ProximityEvent(*e) for e in zip(*(c.tolist() for c in events))]


def singular_point_closeup(
    radius: float,
    window: float = 0.08,
    resolution: tuple[int, int] = (96, 48),
    detection_grid: tuple[int, int] = DEFAULT_DETECTION_GRID,
) -> TriMesh:
    """Amplified patch around the sphere's singular point on the z-axis.

    For radius > pi the sphere's singular points lie on the axis
    (`first_singular_radius`), so the detector searches only the vertices
    within `_CLOSEUP_REACH` thresholds of it, at the detection resolution.
    The first event there, in `_ordered`'s order (nearest the axis, ties
    broken towards the poles), selects a gamma neighborhood of half-width
    `window`, which is re-meshed over the full phi circle at the requested
    patch resolution, at least (3, 3) (ValueError).  Raises
    NoSingularityError, without a search, when radius <= pi, where the
    sphere is embedded, and when the detector finds no contact within
    reach at its resolution.
    """
    if not window > 0.0:
        raise ValueError("window must be positive")
    n_phi, n_gamma = resolution
    if n_phi < 3 or n_gamma < 3:
        raise ValueError("closeup resolution needs n_phi >= 3 and n_gamma >= 3")
    grid = SphereGrid(n_phi=detection_grid[0], n_gamma=detection_grid[1], radius=radius)
    if radius <= first_singular_radius():
        raise NoSingularityError(f"no self-contact at radius {radius}: the sphere is embedded")
    vertices, threshold = _detection_sphere(grid)
    gamma_mid = _ordered(_hits(grid, vertices, threshold, _CLOSEUP_REACH * threshold))[3]
    if not gamma_mid.size:
        raise NoSingularityError(
            f"no self-contact detected at radius {radius} on the {grid.n_phi}x{grid.n_gamma} "
            f"grid within {_CLOSEUP_REACH:g} thresholds of the z-axis"
        )
    center = float(gamma_mid[0])
    lo = max(-1.0, center - window)
    hi = min(1.0, center + window)
    return _grid_mesh(*_revolved_grid(np.linspace(lo, hi, n_gamma), n_phi, radius), wrap=True)


def geodesic_polyline(spec: GeodesicSpec, s_max: float, n: int) -> list[HeisPoint]:
    """n + 1 points sampled uniformly in arc length from the closed form."""
    _, x, y, z, *_ = _polyline_columns(spec, s_max, n)
    return [HeisPoint(*xyz) for xyz in zip(x, y, z)]


def first_singular_radius() -> float:
    """The radius at which the geodesic sphere first stops being embedded: pi.

    Vertex (gamma, phi) of the radius-R sphere lies at planar radius
    rho = sqrt(1 - gamma^2) R |sinc(gamma R)| and height
    z = (1 + gamma^2) R / (2 gamma) - (1 - gamma^2) sin(2 gamma R) / (4 gamma^2)
    (`origin_coordinates`).  For R < pi, sinc decreases on [0, pi), so rho is
    positive and strictly decreasing in |gamma| < 1.  z is odd in gamma, and
    for gamma > 0 sin x < x gives (1 - gamma^2) sin(2 gamma R) / (4 gamma^2)
    < (1 + gamma^2) R / (2 gamma), so z has the sign of gamma.  The profile
    gamma -> (rho, z) is then one arc meeting the axis only at the poles,
    and no geodesic has a conjugate point before s = R, since
    sin w - r^2 w cos w > 0 for 0 < w < pi.  At R = pi the poles are the
    first conjugate points of the vertical geodesic, and for R > pi the
    ring |gamma| = pi / R < 1 collapses onto one point of the axis.
    """
    return math.pi
