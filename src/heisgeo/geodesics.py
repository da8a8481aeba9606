"""Geodesics of the left-invariant metric: closed forms and an integrator.

A unit-speed geodesic from the origin is determined by its initial velocity
r*cos(phi)*X + r*sin(phi)*Y + gamma*T with r = sqrt(1 - gamma^2).  The
frame components of the velocity rotate at constant rate,

    alpha(s) = r*cos(2*gamma*s + phi),
    beta(s)  = r*sin(2*gamma*s + phi),
    gamma(s) = gamma,

and integrating dx = alpha, dy = beta, dz = gamma - alpha*y + beta*x gives
the closed form (gamma != 0)

    x(s) = (r / 2*gamma) * (sin(2*gamma*s + phi) - sin(phi))
    y(s) = (r / 2*gamma) * (cos(phi) - cos(2*gamma*s + phi))
    z(s) = ((1 + gamma^2) / 2*gamma) * s
           - ((1 - gamma^2) / 4*gamma^2) * sin(2*gamma*s)

with the straight line (r*s*cos(phi), r*s*sin(phi), 0) in the limit
gamma = 0 and the vertical line (0, 0, s) at gamma = 1.

Evaluating these expressions directly loses digits as gamma -> 0, so this
module uses the algebraically identical, branch-free form

    x(s) = r*s * cos(phi + w) * sinc(w)            with w = gamma*s
    y(s) = r*s * sin(phi + w) * sinc(w)
    z(s) = gamma*s/2 + sin(2w)/4 + 2*gamma*s^3 * m(2w)

where sinc(w) = sin(w)/w and m(w) = (w - sin w)/w^3 are evaluated stably
(power series near w = 0).  Sum-to-product identities show the x, y lines;
for z, split (1 + g^2)/2g * s - (1 - g^2)/4g^2 * sin(2gs) into the three
terms above.  The rewrite is exact, uniformly accurate in gamma including
gamma = 0 and |gamma| = 1, and is validated in the tests against direct
high-precision evaluation and against the Runge-Kutta integrator below.

The integrator solves the equivalent first-order system

    alpha' = -2*gamma*beta,  beta' = 2*gamma*alpha,  gamma' = 0,
    x' = alpha,  y' = beta,  z' = gamma - alpha*y + beta*x

with fixed-step classical RK4.  It exists as an independent check of the
closed form; fixed stepping keeps runs bit-for-bit reproducible.  One RK4
step runs over the six rows (x, y, z, alpha, beta, gamma): Python floats
for one geodesic, arrays for a batch, rounded in the same order, so a
geodesic has the same bits alone or in a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ORIGIN,
    CoordVector,
    FrameVector,
    HeisPoint,
    frame_to_coord,
    group_mul,
)

__all__ = [
    "GeodesicSpec",
    "GeodesicSample",
    "velocity_frame_at",
    "geodesic_from_origin",
    "geodesic_from_point",
    "exp_map",
    "integrate_geodesic",
    "integrate_geodesic_batch",
    "origin_coordinates",
]

TWO_PI = 2.0 * math.pi

_UNIT_TOL = 1e-12


def _select(condition, a, b):
    """np.where(condition, a, b) on arrays, a plain conditional on one value.

    Lets one function body serve a batch (arrays) and a single target
    (float64 scalars) with the same expressions, hence the same bits; the
    conditions themselves combine with numpy's | and &, on arrays or on
    numpy bool scalars alike.
    """
    if isinstance(condition, np.ndarray):
        return np.where(condition, a, b)
    return a if condition else b


def _as_float(a):
    """A float64 scalar for a number, else a float64 array.

    Scalars are np.float64, not Python floats, so that overflow and division
    by zero give inf or nan under np.errstate as they do in an array.
    """
    return np.float64(a) if isinstance(a, (float, int)) else np.asarray(a, dtype=float)


def _sinc(w):
    """sin(w)/w, equal to 1 at w = 0; stable for all w."""
    zero = w == 0.0
    safe = _select(zero, 1.0, w)
    return _select(zero, 1.0, np.sin(safe) / safe)


def _sin_defect(w):
    """(w - sin w)/w^3, equal to 1/6 at w = 0.

    Direct evaluation cancels catastrophically for small w; below |w| = 0.5
    the alternating series sum (-1)^k w^(2k) / (2k+3)! is used, truncated
    where the next term falls below double precision.  A scalar w evaluates
    only the form it takes.
    """
    small = abs(w) < 0.5
    if not isinstance(small, np.ndarray):
        return _defect_series(w) if small else _defect_direct(w)
    return np.where(small, _defect_series(w), _defect_direct(np.where(small, 1.0, w)))


def _defect_series(w):
    w2 = w * w
    w4 = w2 * w2
    w6 = w4 * w2
    w8 = w6 * w2
    return (
        1.0 / 6.0
        - w2 / 120.0
        + w4 / 5040.0
        - w6 / 362880.0
        + w8 / 39916800.0
        - w8 * w2 / 6227020800.0
    )


def _defect_direct(w):
    return (w - np.sin(w)) / (w * w * w)


def origin_coordinates(r, phi, gamma, s):
    """Coordinates of the geodesic from the origin, vectorized.

    Arguments broadcast; returns (x, y, z) arrays, or float64 scalars when
    every argument is a scalar.  Grid evaluation over many parameters is a
    plain broadcast with no shared state.  Past s ~ 5.6e102, s**3
    overflows: the result is non-finite, without a warning.
    """
    r, phi, gamma, s = _as_float(r), _as_float(phi), _as_float(gamma), _as_float(s)
    with np.errstate(over="ignore", invalid="ignore"):
        w = gamma * s
        rs_sinc = r * s * _sinc(w)
        x = rs_sinc * np.cos(phi + w)
        y = rs_sinc * np.sin(phi + w)
        # np.power, not **: on a float64 scalar, ** calls the C library's pow,
        # which can differ from the ufunc an array takes in the last bit.
        cube = np.power(s, 3)
        z = 0.5 * gamma * s + 0.25 * np.sin(2.0 * w) + 2.0 * gamma * cube * _sin_defect(2.0 * w)
    # x and y depend on every argument and so have the full shape; z has no
    # r or phi dependence.  Give callers uniformly shaped outputs.
    if z.shape != x.shape:
        z = np.ascontiguousarray(np.broadcast_to(z, x.shape))
    return x, y, z


@dataclass(frozen=True)
class GeodesicSpec:
    """Initial data of a unit-speed geodesic.

    r >= 0 is the planar speed, phi the initial planar direction (stored
    normalized to [0, 2pi), forced to 0 when r = 0 so equal directions
    compare equal), gamma the vertical component; r^2 + gamma^2 = 1.
    """

    base: HeisPoint = ORIGIN
    r: float = 1.0
    phi: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.phi) and math.isfinite(self.gamma)):
            raise ValueError("geodesic parameters must be finite")
        if self.r < 0.0:
            raise ValueError(f"planar speed r must be nonnegative, got {self.r}")
        if abs(self.gamma) > 1.0 + _UNIT_TOL:
            raise ValueError(f"|gamma| must not exceed 1, got {self.gamma}")
        if abs(self.r**2 + self.gamma**2 - 1.0) > _UNIT_TOL:
            raise ValueError(
                f"unit speed violated: r^2 + gamma^2 = {self.r ** 2 + self.gamma ** 2}"
            )
        phi = 0.0 if self.r == 0.0 else self.phi % TWO_PI
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "gamma", float(min(max(self.gamma, -1.0), 1.0)))

    @classmethod
    def from_direction(cls, gamma: float, phi: float = 0.0, base: HeisPoint = ORIGIN) -> "GeodesicSpec":
        """Unit-speed spec with the given vertical component."""
        r = math.sqrt(max(0.0, 1.0 - gamma * gamma))
        return cls(base=base, r=r, phi=phi, gamma=gamma)

    def initial_velocity(self) -> FrameVector:
        return FrameVector(self.r * math.cos(self.phi), self.r * math.sin(self.phi), self.gamma)


@dataclass(frozen=True)
class GeodesicSample:
    """One integrator sample: position plus velocity in both bases."""

    s: float
    point: HeisPoint
    velocity_frame: FrameVector
    velocity_coord: CoordVector


def velocity_frame_at(spec: GeodesicSpec, s: float) -> FrameVector:
    """Velocity frame components at arc length s."""
    angle = 2.0 * spec.gamma * s + spec.phi
    return FrameVector(spec.r * math.cos(angle), spec.r * math.sin(angle), spec.gamma)


def _polyline_columns(spec: GeodesicSpec, s_max: float, n: int) -> tuple[list[float], ...]:
    """Columns (s, x, y, z, alpha, beta, gamma) of n + 1 samples uniform in arc length.

    The points are group_mul(spec.base, p) of the closed-form points p, with
    its arithmetic run on whole columns; the velocity is velocity_frame_at's,
    with math's cos and sin.  ValueError, HeisPoint's own, names the first
    sample that is not finite (past s ~ 5.6e102, or where the translation
    overflows).
    """
    if n < 2:
        raise ValueError("polyline needs n >= 2 segments")
    if not 0.0 < s_max < math.inf:
        raise ValueError("polyline needs arc length 0 < smax < inf")
    s = np.linspace(0.0, s_max, n + 1)
    x, y, z = origin = origin_coordinates(spec.r, spec.phi, spec.gamma, s)
    b = spec.base
    with np.errstate(over="ignore", invalid="ignore"):
        point = (b.x + x, b.y + y, (b.z + z) + (b.x * y - b.y * x))
    finite = np.isfinite(point).all(axis=0)
    if not finite.all():
        k = int(np.argmin(finite))
        # A closed-form point that is not finite makes its translate so too;
        # HeisPoint refuses the first of the two that is not.
        for coords in (origin, point):
            HeisPoint(*(float(c[k]) for c in coords))
    s = s.tolist()
    angles = [2.0 * spec.gamma * t + spec.phi for t in s]
    alpha = [spec.r * math.cos(angle) for angle in angles]
    beta = [spec.r * math.sin(angle) for angle in angles]
    return (s, *(c.tolist() for c in point), alpha, beta, [spec.gamma] * len(s))


def geodesic_from_origin(spec: GeodesicSpec, s: float) -> HeisPoint:
    """Point at arc length s along the geodesic from the origin."""
    if spec.base != ORIGIN:
        raise ValueError("geodesic_from_origin requires base = origin; use geodesic_from_point")
    x, y, z = origin_coordinates(spec.r, spec.phi, spec.gamma, float(s))
    return HeisPoint(float(x), float(y), float(z))


def geodesic_from_point(spec: GeodesicSpec, s: float) -> HeisPoint:
    """Geodesic from an arbitrary base point via left translation."""
    x, y, z = origin_coordinates(spec.r, spec.phi, spec.gamma, float(s))
    return group_mul(spec.base, HeisPoint(float(x), float(y), float(z)))


def exp_map(base: HeisPoint, v: FrameVector) -> HeisPoint:
    """Riemannian exponential: follow the geodesic with velocity v for |v|."""
    length = v.norm()
    if length == 0.0:
        return base
    planar = math.hypot(v.a, v.b)
    spec = GeodesicSpec(
        base=base,
        r=planar / length,
        phi=math.atan2(v.b, v.a) if planar > 0.0 else 0.0,
        gamma=v.c / length,
    )
    return geodesic_from_point(spec, length)


def _initial_rows(gammas, phis, bases):
    """Starting rows (x, y, z, alpha, beta, gamma) of a batch, each of shape (B,)."""
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    gammas, phis = np.broadcast_arrays(gammas, np.asarray(phis, dtype=float))
    base = np.asarray(0.0 if bases is None else bases, dtype=float)
    start = np.broadcast_to(base, (len(gammas), 3))
    r = np.sqrt(np.clip(1.0 - gammas**2, 0.0, None))
    return (*start.T, r * np.cos(phis), r * np.sin(phis), gammas)


def _trajectory(rows, s_max: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(s_values, states) of n_steps of classical RK4 from rows.

    rows (x, y, z, alpha, beta, gamma) are floats for one geodesic or arrays
    for a batch; states[k] holds the rows after k steps, each rounded in the
    order of v + (c h) k and v + (h/6) (((k1 + 2 k2) + 2 k3) + k4).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not s_max > 0.0:
        raise ValueError("s_max must be positive")

    def rhs(x, y, _z, a, b, g):
        return a, b, g - a * y + b * x, -2.0 * g * b, 2.0 * g * a, 0.0
    h = s_max / n_steps
    states = np.empty((n_steps + 1, 6, *np.shape(rows[0])))
    states[0] = rows
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            k = [rhs(*rows)]
            for c in (0.5 * h, 0.5 * h, h):
                k.append(rhs(*[v + c * dv for v, dv in zip(rows, k[-1])]))
            rows = tuple(
                v + h / 6.0 * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
                for v, k1, k2, k3, k4 in zip(rows, *k)
            )
            states[step] = rows
    if not np.isfinite(states).all():
        # The exact flow stays finite, but RK4 grows the velocity, which
        # turns at rate 2 gamma, by a factor above 1 per step once
        # 2 |gamma| h > 2 sqrt(2); a coarse enough step overflows
        # (gamma = 0.5, s_max = 1e100 in 1000 steps does).
        raise RuntimeError("non-finite state encountered during integration")
    return np.linspace(0.0, s_max, n_steps + 1), states


def integrate_geodesic_batch(
    gammas,
    phis,
    s_max: float,
    n_steps: int,
    bases: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 for a batch of unit-speed geodesics.

    Returns (s_values, states) with states of shape (n_steps + 1, B, 6) in
    the order (x, y, z, alpha, beta, gamma).  bases is an optional (B, 3)
    array of starting coordinates (default: origin).  RuntimeError if the
    state overflows.
    """
    s_values, states = _trajectory(_initial_rows(gammas, phis, bases), s_max, n_steps)
    return s_values, states.transpose(0, 2, 1)


def integrate_geodesic(spec: GeodesicSpec, s_max: float, n_steps: int) -> list[GeodesicSample]:
    """RK4 trajectory of a single geodesic, including both endpoints."""
    rows = _initial_rows(spec.gamma, spec.phi, spec.base.as_array())
    s_values, states = _trajectory(tuple(float(v[0]) for v in rows), s_max, n_steps)
    samples = []
    for s, (x, y, z, a, b, g) in zip(s_values, states):
        point, vel = HeisPoint(x, y, z), FrameVector(a, b, g)
        samples.append(GeodesicSample(float(s), point, vel, frame_to_coord(point, vel)))
    return samples
