"""Group structure and left-invariant Riemannian geometry of Heis3.

The Heisenberg group is R^3 = {(x, y, z)} with the product

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + x*y' - y*x'),

i.e. the complex form (w, z)*(w', z') = (w + w', z + z' + Im<w, w'>) with
w = x + iy and the Hermitian product taken conjugate-linear in the first
slot, so Im<w, w'> = x*y' - y*x'.  This is the unique sign choice for which
right multiplication by (s, 0, 0) gives (x + s, y, z - s*y) and the
commutator of (1, 0, 0) and (0, 1, 0) equals (0, 0, 2); both facts pin the
convention and are checked in the test suite.

Translating the coordinate directions from the identity gives the global
left-invariant frame

    X = (1, 0, -y),  Y = (0, 1, x),  T = (0, 0, 1),

and the metric is declared by making {X, Y, T} orthonormal.  In coordinates
the metric tensor is

    g = [[1 + y^2, -x*y,  y],
         [-x*y,  1 + x^2, -x],
         [ y,      -x,     1]],

which has unit determinant everywhere (g = (A^T A) for the constant-
determinant matrix A mapping coordinates to frame components).

The Levi-Civita connection of this metric acts on the frame by the constant
table

    nabla_X Y =  T,   nabla_Y X = -T,
    nabla_X T = nabla_T X = -Y,
    nabla_Y T = nabla_T Y =  X,

with vanishing diagonal.  Brackets and the curvature operator are derived
from the frame fields and this table; the derivations live in the code
below rather than as magic constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HeisPoint",
    "FrameVector",
    "CoordVector",
    "MetricTensor",
    "ConnectionTable",
    "ORIGIN",
    "FRAME_NAMES",
    "group_mul",
    "group_inv",
    "left_quotient",
    "commutator",
    "left_jacobian",
    "frame_at",
    "metric_at",
    "inner_product",
    "frame_to_coord",
    "coord_to_frame",
    "nabla",
    "connection_table",
    "frame_bracket",
    "curvature_frame",
    "sectional_curvature",
]


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"a coordinate overflows or is not finite: {values!r}")


@dataclass(frozen=True)
class HeisPoint:
    """Group element (x, y, z); doubles as a point of the manifold."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite(self.x, self.y, self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def of(cls, coords) -> "HeisPoint":
        x, y, z = coords
        return cls(float(x), float(y), float(z))


@dataclass(frozen=True)
class FrameVector:
    """Tangent vector a*X + b*Y + c*T in the left-invariant frame."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        _require_finite(self.a, self.b, self.c)

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c], dtype=float)

    def norm(self) -> float:
        # The frame is orthonormal, so the metric norm is Euclidean in
        # frame components at every point.
        return math.hypot(self.a, self.b, self.c)

    @classmethod
    def of(cls, coords) -> "FrameVector":
        a, b, c = coords
        return cls(float(a), float(b), float(c))


@dataclass(frozen=True)
class CoordVector:
    """Tangent vector u*dx + v*dy + w*dz in the coordinate basis."""

    u: float
    v: float
    w: float

    def __post_init__(self):
        _require_finite(self.u, self.v, self.w)

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v, self.w], dtype=float)


ORIGIN = HeisPoint(0.0, 0.0, 0.0)

FRAME_NAMES = ("X", "Y", "T")


def group_mul(p: HeisPoint, q: HeisPoint) -> HeisPoint:
    """Group product p * q."""
    return HeisPoint(
        p.x + q.x,
        p.y + q.y,
        (p.z + q.z) + (p.x * q.y - p.y * q.x),
    )


def group_inv(p: HeisPoint) -> HeisPoint:
    """Group inverse; p * p^-1 = identity exactly up to rounding."""
    return HeisPoint(-p.x, -p.y, -p.z)


def left_quotient(p: HeisPoint, q: HeisPoint) -> HeisPoint:
    """p^-1 * q from the differences of p and q (the p.x * p.y terms cancel):
    the origin only for p == q, and exact where the planar coordinates agree.
    """
    dx = q.x - p.x
    dy = q.y - p.y
    return HeisPoint(dx, dy, (q.z - p.z) + (p.y * dx - p.x * dy))


def commutator(p: HeisPoint, q: HeisPoint) -> HeisPoint:
    """p * q * p^-1 * q^-1.

    Always central (zero x, y components); any double commutator vanishes,
    which is the nilpotency-2 property of the group.
    """
    return group_mul(group_mul(p, q), group_mul(group_inv(p), group_inv(q)))


def left_jacobian(g: HeisPoint) -> np.ndarray:
    """Differential of the left translation q -> g * q (a constant matrix)."""
    return np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [-g.y, g.x, 1.0],
        ]
    )


def frame_at(p: HeisPoint) -> tuple[CoordVector, CoordVector, CoordVector]:
    """The left-invariant frame {X, Y, T} at p, in coordinate components."""
    return (
        CoordVector(1.0, 0.0, -p.y),
        CoordVector(0.0, 1.0, p.x),
        CoordVector(0.0, 0.0, 1.0),
    )


@dataclass(frozen=True)
class MetricTensor:
    """Metric tensor in coordinates at a point.

    entries is symmetric positive definite with unit determinant; both
    properties hold by construction for every point.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (3, 3):
            raise ValueError("metric entries must be a 3x3 matrix")
        object.__setattr__(self, "entries", e)


def metric_at(p: HeisPoint) -> MetricTensor:
    """Metric tensor making {X, Y, T} orthonormal, in coordinates at p."""
    x, y = p.x, p.y
    return MetricTensor(
        np.array(
            [
                [1.0 + y * y, -x * y, y],
                [-x * y, 1.0 + x * x, -x],
                [y, -x, 1.0],
            ]
        )
    )


def inner_product(p: HeisPoint, u: CoordVector, v: CoordVector) -> float:
    """Riemannian scalar product of coordinate vectors at p."""
    g = metric_at(p).entries
    return float(u.as_array() @ g @ v.as_array())


def frame_to_coord(p: HeisPoint, v: FrameVector) -> CoordVector:
    """Express a*X + b*Y + c*T in coordinates at p."""
    return CoordVector(v.a, v.b, v.c - v.a * p.y + v.b * p.x)


def coord_to_frame(p: HeisPoint, v: CoordVector) -> FrameVector:
    """Inverse of frame_to_coord; uses dx = X + y*T, dy = Y - x*T, dz = T."""
    return FrameVector(v.u, v.v, v.w + v.u * p.y - v.v * p.x)


def _frame_index(i) -> int:
    """Accept 1-based indices 1..3 or the names X/Y/T; return 0-based."""
    if isinstance(i, str):
        name = i.upper()
        if name not in FRAME_NAMES:
            raise IndexError(f"frame index must be one of {FRAME_NAMES}, got {i!r}")
        return FRAME_NAMES.index(name)
    if i not in (1, 2, 3):
        raise IndexError(f"frame index must be in 1..3 or X/Y/T, got {i!r}")
    return int(i) - 1


# Connection coefficients: _NABLA[i][j] holds the frame components of the
# covariant derivative of E_j along E_i for the ordered frame (X, Y, T).
_NABLA = np.array(
    [
        [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
        [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
)

# Frame fields have affine coordinate components E^k(p) = C[k] + M[k] . p;
# only X and Y carry a linear part (in y and x respectively).
_FRAME_CONST = np.eye(3)
_FRAME_LIN = np.zeros((3, 3, 3))
_FRAME_LIN[0, 2, 1] = -1.0  # X^z = -y
_FRAME_LIN[1, 2, 0] = 1.0  # Y^z = x


def _bracket_coord(i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate components of [E_i, E_j] as an affine function of p.

    [V, W]^k = V^m d_m W^k - W^m d_m V^k with d_m E^k constant, so the
    bracket is affine; for this frame the linear part cancels identically
    (asserted in tests) and the constant part is returned first.
    """
    const = _FRAME_LIN[j] @ _FRAME_CONST[i] - _FRAME_LIN[i] @ _FRAME_CONST[j]
    lin = _FRAME_LIN[j] @ _FRAME_LIN[i] - _FRAME_LIN[i] @ _FRAME_LIN[j]
    return const, lin


# Coordinate (0, 0, c) converts to frame components (0, 0, c) at every
# point, and the only nonzero bracket is [X, Y] = 2T, so the constant
# coordinate part is already the frame expression.
_BRACKET = np.array([[_bracket_coord(i, j)[0] for j in range(3)] for i in range(3)])


# R(E_i, E_j)E_k = nabla_i nabla_j E_k - nabla_j nabla_i E_k - nabla_[E_i, E_j] E_k.
# Every coefficient is constant, so nabla_i of sum_m c_m E_m is
# sum_m c_m _NABLA[i][m], and each term is one contraction over m.
_CURVATURE = (
    np.einsum("jkm,iml->ijkl", _NABLA, _NABLA)
    - np.einsum("ikm,jml->ijkl", _NABLA, _NABLA)
    - np.einsum("ijm,mkl->ijkl", _BRACKET, _NABLA)
)


@dataclass(frozen=True)
class ConnectionTable:
    """Covariant derivatives nabla_{E_i} E_j for the frame (X, Y, T)."""

    table: tuple

    def entry(self, i, j) -> FrameVector:
        return self.table[_frame_index(i)][_frame_index(j)]


def nabla(i, j) -> FrameVector:
    """Connection coefficient nabla_{E_i} E_j; indices 1..3 or X/Y/T."""
    return FrameVector.of(_NABLA[_frame_index(i)][_frame_index(j)])


def connection_table() -> ConnectionTable:
    return ConnectionTable(
        tuple(tuple(FrameVector.of(_NABLA[i][j]) for j in range(3)) for i in range(3))
    )


def frame_bracket(i, j) -> FrameVector:
    """Lie bracket [E_i, E_j] in frame components ([X, Y] = 2T, rest zero)."""
    return FrameVector.of(_BRACKET[_frame_index(i)][_frame_index(j)])


def curvature_frame(i, j, k) -> FrameVector:
    """Curvature operator R(E_i, E_j)E_k in frame components.

    Constant over the manifold; antisymmetric in (i, j).
    """
    return FrameVector.of(_CURVATURE[_frame_index(i), _frame_index(j), _frame_index(k)])


def sectional_curvature(i, j) -> float:
    """Sectional curvature of the plane spanned by distinct frame vectors.

    Equals <R(E_i, E_j)E_j, E_i> for the orthonormal pair: -3 for the
    (X, Y) plane and +1 for the (X, T) and (Y, T) planes.
    """
    ii, jj = _frame_index(i), _frame_index(j)
    if ii == jj:
        raise ValueError("sectional curvature needs two distinct frame directions")
    return float(_CURVATURE[ii, jj, jj, ii])
