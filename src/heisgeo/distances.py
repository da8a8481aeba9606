"""Distance functions: the Cygan gauge metric and the Riemannian distance.

The Cygan distance is the gauge quantity

    rho_c(p, q) = ( |w - w'|^4 + (z - z' + Im<w, w'>)^2 )^(1/4)

with the same Hermitian convention Im<w, w'> = x*y' - y*x' as the group
law, which makes rho_c(p, q) = rho_c(0, p^-1 * q) and hence exactly
left-invariant.  It is homogeneous of degree one under the anisotropic
dilation (x, y, z) -> (lam*x, lam*y, lam^2*z): balls grow linearly in the
horizontal directions and quadratically in the vertical one.

The Riemannian distance is solved in the cut-time window.  Left
translation moves p to the origin; rotation about the z-axis and the
reflection z -> -z reduce the target to rho = hypot(x, y) >= 0 and |z|.
The shortest geodesic from the origin turns by at most w = gamma*s <= pi
(the cut time s = pi/|gamma|, where the rotation family first returns to
the z-axis; V. Marenich, Geodesics in Heisenberg groups, Geom. Dedicata
66, 1997).  In that window the two boundary conditions collapse to one
monotone equation in w,

    |z| = F(w) = w + 2 rho^2 w^3 m(2w) / sin(w)^2,   0 <= w < pi,
    d   = sqrt(w^2 + (rho / sinc(w))^2),

with m = _sin_defect.  Two charts keep it well conditioned:

- near half, |z| <= pi/2 + pi rho^2 / 4: F is solved for w in [0, pi/2];
- far half: F is solved for t = -rho cot(w) >= 0, with q = rho / sin(w),
  w = pi - atan2(rho, t), |z| = w (1 + q^2/2) + rho t/2 and
  d = w sqrt(1 + q^2).  Solving for w itself there would lose the digits
  of pi - w near the axis.

On the axis (rho = 0) the closed form is d = |z| up to the conjugate
height pi and d = sqrt(2 pi |z| - pi^2) beyond it; far-half targets with
a subnormal rho take it too, as their t would be subnormal.  Each 1-D
solve is a safeguarded Newton-bisection, vectorized over targets
(riemannian_distance_many).  Every result is certified before it is
returned: the geodesic's endpoint, rebuilt with origin_coordinates, must
hit the target to tol * max(1, |target|) plus one rounding unit, and d
must lie in rho <= d <= rho + min(|z|, sqrt(2 pi |z|)) (the planar
projection is a submersion; a segment followed by a vertical line or a
horizontal circle reaches the target).  A failure raises
ShootingConvergenceError; no uncertified number is returned.

shoot_candidates lists every connecting geodesic, one winding window
k pi < w < (k+1) pi at a time.  The far-half chart covers each whole
window: with t = -rho cot(w) in R, w = (k+1) pi - atan2(rho, t) and
q = hypot(rho, t), the geodesics in window k are the roots of

    G_k(t) = w (1 + q^2/2) + rho t/2 - |z|,   G_k'(t) = rho/q^2 + rho + w t,

with s = w sqrt(1 + q^2) and |gamma| = 1 / sqrt(1 + q^2).  Window 0 holds
exactly the cut-time solution.  For k >= 1, G_k' > 0 on t >= 0 and G_k'
increases on t < 0, so G_k has one minimizer t* < 0 and a root on each
side of it when G_k(t*) < 0; since G_k > k pi - |z|, windows beyond
k = floor(|z| / pi) are empty.  All three 1-D solves of a target (t*,
left and right root) are vectorized over its windows.

brute_force_distance is an independent validation oracle: a dense lattice
over (gamma, phi, s) followed by a derivative-free shrinking-lattice
refinement.  It shares only the forward closed form with the solvers, not
the inversion strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ORIGIN, HeisPoint, left_quotient
from .geodesics import TWO_PI, GeodesicSpec, _sinc, _sin_defect, origin_coordinates

__all__ = [
    "ShootingSolution",
    "ShootingConvergenceError",
    "TargetUnreachableError",
    "cygan_distance",
    "cygan_scaling_check",
    "dilate",
    "shoot_candidates",
    "riemannian_distance",
    "riemannian_distance_many",
    "brute_force_distance",
]


class ShootingConvergenceError(RuntimeError):
    """Raised when no geodesic to a target can be certified within tolerance."""


class TargetUnreachableError(RuntimeError):
    """Raised by the grid oracle when no geodesic of length <= s_max fits."""


def cygan_distance(p: HeisPoint, q: HeisPoint) -> float:
    """Cygan gauge distance; zero iff p = q, symmetric, left-invariant.

    The fourth powers are taken of the pair dilated by lam = 2^-k, which puts
    max(|dx|, |dy|, sqrt|cross|) in [0.5, 1]; the dilation and its undoing
    are exact, so the gauge neither underflows nor overflows anywhere in the
    double range.  ValueError where left_quotient(p, q) overflows.
    """
    d = left_quotient(p, q)
    k = math.frexp(max(abs(d.x), abs(d.y), math.sqrt(abs(d.z))))[1]
    dx, dy, cross = math.ldexp(d.x, -k), math.ldexp(d.y, -k), math.ldexp(d.z, -2 * k)
    planar_sq = dx * dx + dy * dy
    # sqrt of sqrt keeps exact values (e.g. fourth roots of perfect fourth
    # powers) exact to rounding, unlike a pow(0.25) call.
    return math.ldexp(math.sqrt(math.sqrt(planar_sq * planar_sq + cross * cross)), k)


def dilate(p: HeisPoint, lam: float) -> HeisPoint:
    """Anisotropic dilation (x, y, z) -> (lam*x, lam*y, lam^2*z)."""
    return HeisPoint(lam * p.x, lam * p.y, lam * lam * p.z)


def cygan_scaling_check(p: HeisPoint, q: HeisPoint, lam: float) -> tuple[float, float]:
    """Return (rho_c(dilated pair), lam * rho_c(pair)); equal identically."""
    if not lam > 0.0:
        raise ValueError(f"dilation factor must be positive, got {lam}")
    return cygan_distance(dilate(p, lam), dilate(q, lam)), lam * cygan_distance(p, q)


@dataclass(frozen=True)
class ShootingSolution:
    """A geodesic from the origin reaching the target within tolerance.

    axis_family marks targets folded onto the z-axis (see shoot_candidates),
    where the planar direction is arbitrary by rotational symmetry and one
    representative (phi = 0) of a whole circle of solutions is reported.
    """

    spec: GeodesicSpec
    s: float
    residual: float
    axis_family: bool = False


_CUT_ITERATIONS = 60
_CUT_STEP_TOL = 1e-9
_BOUND_SLACK = 1e-12
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Most geodesics shoot_candidates lists (~2 |z| / pi, ~0.8 KiB each in memory).
_MAX_CANDIDATES = 1_000_000


def _near_half(w, rho, z):
    """F(w) - |z| and F'(w) for 0 <= w <= pi/2.

    With h(w) = 4 w m(2w) / sinc(w)^2, F = w + rho^2 h / 2 and
    h' = 2 (1 - h cot(w)), where h cot(w) = 4 m(2w) cos(w) / sinc(w)^3 stays
    accurate as w -> 0.
    """
    defect = _sin_defect(2.0 * w)
    sinc = _sinc(w)
    rho2 = rho * rho
    value = w + 2.0 * rho2 * w * defect / (sinc * sinc) - z
    slope = 1.0 + rho2 * (1.0 - 4.0 * defect * np.cos(w) / sinc**3)
    return value, slope


def _window(t, rho, z, end):
    """G_k(t) = F(w) - |z| and its t-derivative in window k (module docstring).

    Windows are passed by their end angle, end = (k + 1) pi.  t = -rho cot(w)
    runs over all of R in each window; the equation is smooth in t at
    w = (k + 1/2) pi (t = 0), unlike in q = rho / |sin(w)|.
    """
    q = np.hypot(rho, t)
    w = end - np.arctan2(rho, t)
    value = w * (1.0 + 0.5 * q * q) + 0.5 * rho * t - z
    slope = rho / q / q + rho + w * t
    return value, slope


def _window_slope(t, rho, end):
    """G_k'(t) and G_k''(t).

    For k >= 1, G_k' is positive on t >= 0 and increases on t < 0, where
    G_k'' >= k pi - 1/2.
    """
    q2 = rho * rho + t * t
    w = end - np.arctan2(rho, t)
    return rho / q2 + rho + w * t, w + rho * t * (q2 - 2.0) / (q2 * q2)


def _falling(t, rho, z, end):
    """-G_k and its slope, increasing left of the window's minimizer."""
    value, slope = _window(t, rho, z, end)
    return -value, -slope


def _window_geodesics(t, rho, end):
    """(s, |gamma|, r) of the geodesic at t in the window ending at end."""
    q = np.hypot(rho, t)
    root = np.hypot(1.0, q)
    w = end - np.arctan2(rho, t)
    return w * root, 1.0 / root, q / root


def _solve_increasing(residual, x, lo, hi, *params):
    """Root in [lo, hi] of an increasing residual(x, *params), vectorized.

    lo, hi and params (such as rho, |z| and the window's end) broadcast
    against x.  Safeguarded Newton: every evaluation shrinks the bracket by
    the sign of the residual, and a step that leaves the bracket is replaced
    by bisection.  An entry stops on an exact zero, after a Newton step
    below _CUT_STEP_TOL relative (the convergence is quadratic, so the point
    it lands on is accurate to rounding), or when its bracket has collapsed
    to rounding; a stopped entry keeps its x, lo and hi.  Entries still
    moving at the iteration cap return their last iterate, for the caller's
    certificate to judge.
    """
    done = np.zeros_like(x, dtype=bool)
    for _ in range(_CUT_ITERATIONS):
        if done.all():
            break
        value, slope = residual(x, *params)
        lo = np.where(~done & (value < 0.0), x, lo)
        hi = np.where(~done & (value > 0.0), x, hi)
        new = x - value / slope
        newton = (new >= lo) & (new <= hi)
        new = np.where(newton, new, 0.5 * (lo + hi))
        root = value == 0.0
        stop = (
            root
            | (newton & (np.abs(new - x) <= _CUT_STEP_TOL * np.abs(new)))
            | (hi - lo <= 4.0 * _EPS * np.abs(hi))
        )
        x = np.where(done | root, x, new)
        done |= stop
    return x


def _cut_time_geodesics(x, y, z) -> tuple[np.ndarray, ...]:
    """Shortest geodesic from the origin to each target (x[i], y[i], z[i]).

    Returns (s, gamma, r, phi): the arc length, which is the distance, the
    signed vertical velocity component, the planar speed and the planar
    direction.  Uncertified: the caller passes the geodesics to _certify
    before returning them.
    """
    rho = np.hypot(x, y)
    height = np.abs(z)
    s = np.full_like(rho, np.nan)
    gamma = np.full_like(rho, np.nan)
    r = np.full_like(rho, np.nan)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        split = 0.5 * math.pi * (1.0 + 0.5 * rho * rho)
        # Axis: the vertical line up to the conjugate height pi, then the
        # rotation family returning to the axis at w = pi.  A subnormal
        # planar offset in the far half joins it: the far chart's t would be
        # subnormal too and keep few digits, and the offset is below every
        # tolerance.
        axis = (rho == 0.0) | ((rho < _TINY) & (height > split))
        i = np.flatnonzero(axis)
        h = height[i]
        winds = h > math.pi
        s[i] = np.where(winds, np.sqrt(2.0 * math.pi * h - math.pi**2), h)
        gamma[i] = np.where(winds, math.pi / s[i], 1.0)
        r[i] = np.sqrt((1.0 - gamma[i]) * (1.0 + gamma[i]))

        i = np.flatnonzero((rho > 0.0) & (height <= split))
        if i.size:
            rho_i, h = rho[i], height[i]
            # F is convex with F'(0) = 1 + rho^2/3: its tangent at 0 starts
            # Newton at or above the root.
            start = np.minimum(h / (1.0 + rho_i * rho_i / 3.0), 0.5 * math.pi)
            w = _solve_increasing(_near_half, start, 0.0, 0.5 * math.pi, rho_i, h)
            sinc = _sinc(w)
            # Where w and rho are both subnormal, s is too, and gamma = w / s
            # and r would keep only the few digits s has.  Scaling by 2^600
            # is exact and keeps them all; elsewhere up is 1.
            up = np.where(np.maximum(w, rho_i) < _TINY, 2.0**600, 1.0)
            s_up = np.hypot(w * up, rho_i * up / sinc)
            s[i] = s_up / up
            gamma[i] = w * up / s_up
            r[i] = rho_i * up / (sinc * s_up)

        i = np.flatnonzero(~axis & (height > split))
        if i.size:
            rho_i, h = rho[i], height[i]
            # |z| >= (pi/2)(1 + q^2/2) bounds t above.  The start takes the
            # larger of the far-axis estimate pi (1 + q^2/2) = |z| and the
            # small-q estimate w = |z|.
            top = np.sqrt(np.maximum(4.0 * h / math.pi - 2.0 - rho_i * rho_i, 0.0))
            wide = np.sqrt(np.maximum(2.0 * (h / math.pi - 1.0) - rho_i * rho_i, 0.0))
            turn = rho_i * np.tan(np.minimum(h, math.pi) - 0.5 * math.pi)
            start = np.minimum(np.maximum(wide, turn), top)
            t = _solve_increasing(_window, start, 0.0, top, rho_i, h, math.pi)
            s[i], gamma[i], r[i] = _window_geodesics(t, rho_i, math.pi)

        gamma = np.where(z < 0.0, -gamma, gamma)
        phi = np.arctan2(y, x) - gamma * s
    return s, gamma, r, phi


def _certify(x, y, z, s, gamma, r, phi, tol: float, shortest) -> np.ndarray:
    """Endpoint heights of geodesics from the origin, each certified.

    Arguments broadcast: geodesic i has arc length s[i] and initial data
    (r[i], phi[i], gamma[i]), and its target is (x[i], y[i], z[i]).  Its
    endpoint, rebuilt with origin_coordinates, must hit the target to
    tol * max(1, |target|) plus one rounding unit of the target's scale
    (the rebuild is in double precision, so its miss is known to that unit
    at best).  Every length must be at least rho, and where shortest is
    true at most rho + min(|z|, sqrt(2 pi |z|)) (module docstring).
    Raises ShootingConvergenceError naming the first geodesic that fails.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ex, ey, ez = origin_coordinates(r, phi, gamma, s)
        rho = np.hypot(x, y)
        height = np.abs(z)
        miss = np.hypot(np.hypot(ex - x, ey - y), ez - z)
        scale = np.maximum(1.0, np.hypot(rho, z))
        upper = np.where(
            shortest, rho + np.minimum(height, np.sqrt(2.0 * math.pi * height)), np.inf
        )
        certified = (
            (miss + _EPS * scale <= tol * scale)
            & (s >= rho * (1.0 - _BOUND_SLACK))
            & (s <= upper * (1.0 + _BOUND_SLACK))
        )
    if not certified.all():
        k = int(np.flatnonzero(~certified)[0])
        x, y, z, s, rho, upper, scale = np.broadcast_arrays(x, y, z, s, rho, upper, scale)
        raise ShootingConvergenceError(
            f"cannot certify the geodesic to ({x[k]}, {y[k]}, {z[k]}): endpoint "
            f"miss {miss[k]:.3g} against tolerance {tol * scale[k]:.3g}, length "
            f"{float(s[k])!r} against bounds [{float(rho[k])!r}, {float(upper[k])!r}]"
        )
    return ez


def _winding_geodesics(rho: float, height: float):
    """(s, |gamma|, r) of the geodesics to (rho, 0, height) in windows k >= 1.

    Each G_k is unimodal: its minimizer t* < 0 is the root of G_k', and G_k
    has a root on each side of t* when G_k(t*) < 0, one double root when
    G_k(t*) is zero to rounding, and none otherwise.  G_k > k pi - |z|, so
    no window beyond k = floor(|z| / pi) has a root.
    """
    k = np.arange(1, int(height // math.pi) + 1)
    kpi = k * math.pi
    end = (k + 1) * math.pi
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # G_k' < 0 at t = -(1 + 2 rho / (k pi)) and > 0 at t = 0.
        lo = -(1.0 + 2.0 * rho / kpi)
        t_min = _solve_increasing(_window_slope, lo, lo, 0.0, rho, end)
        g_min = _window(t_min, rho, height, end)[0]
        double = np.abs(g_min) <= 4.0 * _EPS * height
        i = np.flatnonzero((g_min < 0.0) & ~double)
        # G_k >= k pi (1 + t^2/2) + rho t/2 - |z| puts both roots inside
        # [left, right].
        right = np.sqrt(2.0 * height / kpi[i])
        left = -(0.5 * rho + np.sqrt(0.25 * rho * rho + 2.0 * kpi[i] * height)) / kpi[i]
        params = (rho, height, end[i])
        t = np.concatenate(
            [
                t_min[double],
                _solve_increasing(_falling, left, left, t_min[i], *params),
                _solve_increasing(_window, right, t_min[i], right, *params),
            ]
        )
        end = np.concatenate([end[double], end[i], end[i]])
        return _window_geodesics(t, rho, end)


def riemannian_distance_many(points, tol: float = 1e-8) -> np.ndarray:
    """Riemannian distance from the origin to each row of an (n, 3) array.

    One cut-time solve per target, vectorized over targets (see the module
    docstring); every value is certified or ShootingConvergenceError is
    raised.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x, y, z = np.asarray(points, dtype=float).reshape(-1, 3).T
    s, gamma, r, phi = _cut_time_geodesics(x, y, z)
    _certify(x, y, z, s, gamma, r, phi, tol, shortest=True)
    return s


def shoot_candidates(target: HeisPoint, tol: float = 1e-8) -> list[ShootingSolution]:
    """Every geodesic from the origin to target, the shortest first.

    The first entry is the cut-time solution (window 0), whose length is the
    distance; the others follow by non-decreasing arc length.  Each window
    k >= 1 adds the roots of G_k (module docstring), about 2 |z| / pi
    geodesics in all.  Next to the axis the cut-time geodesic (w just below
    pi) and window 1's first root (w just above pi) differ in length by less
    than the rounding of s, so entry 1 can tie with entry 0 or round one
    unit below it.

    A target with planar distance rho <= eps d (d the distance) is folded
    onto the axis (axis_family): the axis geodesics hit it to rounding, and
    the certificate allows that for any tol.  They form circles, one
    representative each (phi = 0 on every entry): w = k pi with
    s = sqrt(k pi (2 |z| - k pi)) for 1 < k < |z| / pi, and the vertical
    line when |z| > pi.  Every geodesic is certified as in
    riemannian_distance_many, against the upper length bound only for the
    first, else ShootingConvergenceError is raised.  ValueError, before any
    allocation, if 2 |z| / pi > _MAX_CANDIDATES.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if target == ORIGIN:
        raise ValueError("target must be distinct from the origin")

    x, y, z = target.as_array()
    rho = math.hypot(x, y)
    height = abs(z)
    if 2.0 * height / math.pi > _MAX_CANDIDATES:
        raise ValueError(f"2 |z| / pi = {2.0 * height / math.pi:.3g} geodesics; "
                         f"at most {_MAX_CANDIDATES} are listed")
    s, gamma, r, _ = _cut_time_geodesics(np.array([x]), np.array([y]), np.array([z]))
    axis = bool(rho <= _EPS * s[0])
    if axis:
        # Returns to the axis at w = k pi < |z| for k >= 2 (k = 1 is the
        # cut-time solution), then the vertical line as the limit k pi = |z|.
        kpi = np.arange(2, math.ceil(height / math.pi)) * math.pi
        kpi = np.append(kpi[kpi < height], [height] if height > math.pi else [])
        more_s = np.sqrt(kpi * (2.0 * height - kpi))
        more = more_s, kpi / more_s, np.sqrt(2.0 * kpi * (height - kpi)) / more_s
    else:
        more = _winding_geodesics(rho, height)
    s = np.append(s, more[0])
    gamma = np.append(gamma, math.copysign(1.0, z) * more[1])
    r = np.append(r, more[2])

    w = gamma * s
    sinc = _sinc(w)
    # The chord points along phi + w, reversed where sinc(w) < 0.
    phi = np.zeros(s.size) if axis else math.atan2(y, x) - w + np.where(sinc < 0.0, math.pi, 0.0)
    ez = _certify(x, y, z, s, gamma, r, phi, tol, shortest=np.arange(s.size) == 0)
    residual = np.hypot(r * s * np.abs(sinc) - rho, ez - z)

    return [
        ShootingSolution(
            spec=GeodesicSpec(
                base=ORIGIN, r=float(r[i]), phi=float(phi[i]), gamma=float(gamma[i])
            ),
            s=float(s[i]),
            residual=float(residual[i]),
            axis_family=axis,
        )
        for i in [0, *1 + np.argsort(s[1:], kind="stable")]
    ]


def riemannian_distance(p: HeisPoint, q: HeisPoint, tol: float = 1e-8) -> float:
    """Riemannian distance between p and q, certified (see the module docstring).

    Left-invariant by construction: the problem is translated to
    distance(0, p^-1 * q) and solved by riemannian_distance_many.
    """
    delta = left_quotient(p, q)
    return float(riemannian_distance_many([(delta.x, delta.y, delta.z)], tol=tol)[0])


def _refine_lattice(center, halfwidth, target, s_cap):
    """Derivative-free shrinking-lattice descent of the endpoint miss."""
    offsets = np.linspace(-1.0, 1.0, 9)
    og, of, os_ = np.meshgrid(offsets, offsets, offsets, indexing="ij")
    center = np.array(center, dtype=float)
    halfwidth = np.array(halfwidth, dtype=float)
    tx, ty, tz = target
    best = (np.inf, center)
    for _ in range(80):
        g = np.clip(center[0] + og * halfwidth[0], -1.0, 1.0)
        f = center[1] + of * halfwidth[1]
        s = np.clip(center[2] + os_ * halfwidth[2], 1e-9, s_cap)
        r = np.sqrt(np.clip(1.0 - g * g, 0.0, None))
        x, y, z = origin_coordinates(r, f, g, s)
        miss = (x - tx) ** 2 + (y - ty) ** 2 + (z - tz) ** 2
        idx = np.unravel_index(np.argmin(miss), miss.shape)
        value = miss[idx]
        new_center = np.array([g[idx], f[idx], s[idx]])
        if value < best[0]:
            best = (value, new_center)
        on_edge = any(i in (0, 8) for i in idx)
        center = new_center
        if not on_edge:
            halfwidth = halfwidth * 0.5
        if halfwidth.max() < 1e-10:
            break
    return math.sqrt(best[0]), best[1]


def brute_force_distance(
    target: HeisPoint,
    grid: tuple[int, int, int] = (64, 64, 512),
    s_max: float = 10.0,
) -> float:
    """Grid-search upper bound for the distance from the origin to target.

    A dense lattice over gamma in [-1, 1], phi in [0, 2pi), s in (0, s_max]
    is scanned for endpoints within a ball whose radius is derived from the
    lattice spacing (a first-order sensitivity bound per point).  The
    smallest-s qualifying cells seed one local refinement pass each; the
    minimum refined arc length over the verified branches is returned.
    Raises TargetUnreachableError when nothing qualifies, which signals
    that s_max is too small for the target.
    """
    n_gamma, n_phi, n_s = grid
    if min(grid) < 16:
        raise ValueError("grid dimensions must each be at least 16")
    if target == ORIGIN:
        return 0.0

    gammas = np.linspace(-1.0, 1.0, n_gamma)
    phis = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
    lengths = s_max * np.arange(1, n_s + 1) / n_s
    d_gamma = gammas[1] - gammas[0]
    d_phi = phis[1] - phis[0]
    d_s = lengths[1] - lengths[0]

    g = gammas[:, None, None]
    r = np.sqrt(np.clip(1.0 - g * g, 0.0, None))
    x, y, z = origin_coordinates(r, phis[None, :, None], g, lengths)
    miss = np.sqrt(
        (x - target.x) ** 2 + (y - target.y) ** 2 + (z - target.z) ** 2
    )

    # Per-point acceptance radius: displacement of the endpoint across half
    # a cell, from exact radial/angular/arc-length sensitivities plus a
    # finite-difference gamma sensitivity of the profile.
    g2 = gammas[:, None]
    s2 = lengths[None, :]
    r2 = np.sqrt(np.clip(1.0 - g2 * g2, 0.0, None))
    w2 = g2 * s2
    q2 = r2 * s2 * _sinc(w2)
    z2 = origin_coordinates(r2, 0.0, g2, s2)[2]
    dq_dg = np.gradient(q2, gammas, axis=0)
    dz_dg = np.gradient(z2, gammas, axis=0)
    zdot = g2 + r2 * r2 * s2 * _sinc(w2) * np.sin(w2)
    sens_gamma = np.sqrt(dq_dg**2 + (q2 * s2) ** 2 + dz_dg**2)
    sens_s = np.sqrt(r2 * r2 + zdot * zdot)
    sens_phi = np.abs(q2)
    radius = 0.75 * (d_gamma * sens_gamma + d_phi * sens_phi + d_s * sens_s)
    radius = radius[:, None, :]

    qualifying = miss <= radius
    candidates: list[tuple[int, int, int]] = []
    if qualifying.any():
        qi, qj, qk = np.nonzero(qualifying)
        order = np.argsort(lengths[qk], kind="stable")
        for i, j, k in zip(qi[order], qj[order], qk[order]):
            near = False
            for ci, cj, ck in candidates:
                dj = abs(int(j) - cj)
                dj = min(dj, n_phi - dj)
                if abs(int(i) - ci) <= 3 and dj <= 3 and abs(int(k) - ck) <= 3:
                    near = True
                    break
            if not near:
                candidates.append((int(i), int(j), int(k)))
            if len(candidates) >= 12:
                break
    else:
        flat = int(np.argmin(miss))
        i, j, k = np.unravel_index(flat, miss.shape)
        if miss[i, j, k] > 4.0 * radius[i, 0, k]:
            raise TargetUnreachableError(
                f"no lattice endpoint near target within s_max = {s_max}"
            )
        candidates.append((int(i), int(j), int(k)))

    hit_tol = 1e-6 * max(1.0, math.sqrt(target.x**2 + target.y**2 + target.z**2))
    verified: list[float] = []
    tgt = (target.x, target.y, target.z)
    for i, j, k in candidates:
        gap, refined = _refine_lattice(
            (gammas[i], phis[j], lengths[k]),
            (d_gamma, d_phi, d_s),
            tgt,
            1.25 * s_max,
        )
        if gap <= hit_tol:
            verified.append(float(refined[2]))
    if not verified:
        raise TargetUnreachableError(
            "no lattice candidate could be refined to a connecting geodesic; "
            "increase the grid resolution or s_max"
        )
    return min(verified)
