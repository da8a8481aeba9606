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
closed form; fixed stepping keeps runs bit-for-bit reproducible.
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


def _sinc(w):
    """sin(w)/w, equal to 1 at w = 0; stable for all w."""
    w = np.asarray(w, dtype=float)
    safe = np.where(w == 0.0, 1.0, w)
    return np.where(w == 0.0, 1.0, np.sin(safe) / safe)


def _sin_defect(w):
    """(w - sin w)/w^3, equal to 1/6 at w = 0.

    Direct evaluation cancels catastrophically for small w; below |w| = 0.5
    the alternating series sum (-1)^k w^(2k) / (2k+3)! is used, truncated
    where the next term falls below double precision.
    """
    w = np.asarray(w, dtype=float)
    w2 = w * w
    series = (
        1.0 / 6.0
        - w2 / 120.0
        + w2 * w2 / 5040.0
        - w2 * w2 * w2 / 362880.0
        + w2 * w2 * w2 * w2 / 39916800.0
        - w2 * w2 * w2 * w2 * w2 / 6227020800.0
    )
    safe = np.where(np.abs(w) < 0.5, 1.0, w)
    direct = (safe - np.sin(safe)) / (safe * safe * safe)
    return np.where(np.abs(w) < 0.5, series, direct)


def origin_coordinates(r, phi, gamma, s):
    """Coordinates of the geodesic from the origin, vectorized.

    Arguments broadcast; returns (x, y, z) arrays.  Grid evaluation over
    many parameters is a plain broadcast with no shared state.
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    s = np.asarray(s, dtype=float)
    w = gamma * s
    rs_sinc = r * s * _sinc(w)
    x = rs_sinc * np.cos(phi + w)
    y = rs_sinc * np.sin(phi + w)
    z = 0.5 * gamma * s + 0.25 * np.sin(2.0 * w) + 2.0 * gamma * s**3 * _sin_defect(2.0 * w)
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


def _rhs(state: np.ndarray, out: np.ndarray) -> None:
    """Right-hand side of the 6-dimensional geodesic system, into out.

    state and out have rows (x, y, z, alpha, beta, gamma) over the batch;
    row 5 of out (d gamma / ds) is left as it is, zero.
    """
    x, y, _z, a, b, g = state
    out[:2] = state[3:5]
    out[2] = g - a * y + b * x
    out[3] = -2.0 * g * b
    out[4] = 2.0 * g * a


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
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not s_max > 0.0:
        raise ValueError("s_max must be positive")
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    gammas, phis = np.broadcast_arrays(gammas, phis)
    n = gammas.shape[0]
    r = np.sqrt(np.clip(1.0 - gammas**2, 0.0, None))
    state = np.zeros((n, 6))
    if bases is not None:
        state[:, :3] = np.asarray(bases, dtype=float)
    state[:, 3] = r * np.cos(phis)
    state[:, 4] = r * np.sin(phis)
    state[:, 5] = gammas

    h = s_max / n_steps
    out = np.empty((n_steps + 1, n, 6))
    out[0] = state
    # (6, n) buffers updated in place; every sum and product is rounded in
    # the order of state + c k and state + (h/6) (((k1 + 2 k2) + 2 k3) + k4).
    state = state.T.copy()
    k1, k2, k3, k4, stage = np.zeros((5, 6, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            _rhs(state, k1)
            for slope, nxt, c in ((k1, k2, 0.5 * h), (k2, k3, 0.5 * h), (k3, k4, h)):
                np.multiply(slope, c, out=stage)
                stage += state
                _rhs(stage, nxt)
            k1 += 2.0 * k2
            k1 += 2.0 * k3
            k1 += k4
            state += h / 6.0 * k1
            out[k + 1] = state.T
    if not np.isfinite(out).all():
        # The exact flow stays finite, but RK4 grows the velocity, which
        # turns at rate 2 gamma, by a factor above 1 per step once
        # 2 |gamma| h > 2 sqrt(2); a coarse enough step overflows
        # (gamma = 0.5, s_max = 1e100 in 1000 steps does).
        raise RuntimeError("non-finite state encountered during integration")
    s_values = np.linspace(0.0, s_max, n_steps + 1)
    return s_values, out


def integrate_geodesic(spec: GeodesicSpec, s_max: float, n_steps: int) -> list[GeodesicSample]:
    """RK4 trajectory of a single geodesic, including both endpoints."""
    bases = spec.base.as_array()[None, :]
    s_values, states = integrate_geodesic_batch(
        [spec.gamma], [spec.phi], s_max, n_steps, bases=bases
    )
    samples = []
    for s, row in zip(s_values, states[:, 0, :]):
        point = HeisPoint(row[0], row[1], row[2])
        vel = FrameVector(row[3], row[4], row[5])
        samples.append(
            GeodesicSample(
                s=float(s),
                point=point,
                velocity_frame=vel,
                velocity_coord=frame_to_coord(point, vel),
            )
        )
    return samples
