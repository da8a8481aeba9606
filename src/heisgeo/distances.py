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
solve is a safeguarded Newton-bisection over float64 scalars for one
target (riemannian_distance, shoot_candidates) and arrays for a batch
(riemannian_distance_many), through the same functions, so a distance has
the same bits alone or in a batch.  One target uses no array machinery:
its stop and chart tests are plain conditions (geodesics._select, and
numpy's | and & on bool scalars), and only the arithmetic and the
transcendental functions stay numpy's, whose array loops math's functions
do not always match in the last bit.  Every result is certified before it is
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
side of it when G_k(t*) < 0.  Since w > k pi in window k, G_k is bounded
below in closed form by

    B(k) = k pi (1 + rho^2/2) - rho^2 / (8 k pi) - |z|,

which increases with k: only the windows up to the largest k with
B(k) <= 0 (and k <= |z| / pi) are solved, up to a rounding margin
(_winding_geodesics).  Where B(1) > 0, that is where
|z| < pi + (pi/2 - 1/(8 pi)) rho^2, none is, and the list is the cut-time
geodesic alone, solved and certified on scalars.  All three 1-D solves of
the other windows (t*, left and right root) are vectorized over them.

brute_force_distance is an independent validation oracle: a dense lattice
over (gamma, s), each point scored by its endpoint miss at the best planar
direction phi (which only turns the endpoint about the z-axis), then a
derivative-free shrinking-lattice refinement.  It scans every gamma in
[-1, 1] and every s up to s_max, and shares only the forward closed form
with the solvers, not the cut time or the inversion strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ORIGIN, HeisPoint, left_quotient
from .geodesics import (
    GeodesicSpec,
    _select,
    _sin_defect,
    _sinc,
    origin_coordinates,
)

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
# A winding window is dropped only where its lower bound B(k) clears 0 by
# this many units of k pi (1 + rho^2/2) + |z| (_winding_geodesics).
_WINDOW_SLACK = 256.0 * _EPS


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
    # np.power, not **, for the same bits on scalars (see origin_coordinates).
    slope = 1.0 + rho2 * (1.0 - 4.0 * defect * np.cos(w) / np.power(sinc, 3))
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
    against x; x is an array, or a float64 scalar for one target.
    Safeguarded Newton: every evaluation shrinks the bracket by the sign of
    the residual, and a step that leaves the bracket is replaced by
    bisection.  An entry stops on an exact zero, after a Newton step below
    _CUT_STEP_TOL relative (the convergence is quadratic, so the point it
    lands on is accurate to rounding), or when its bracket has collapsed to
    rounding; a stopped entry keeps its x.  Entries still moving at the
    iteration cap return their last iterate, for the caller's certificate
    to judge.
    """
    batch = isinstance(x, np.ndarray)
    done = np.zeros(x.shape, dtype=bool) if batch else False
    for _ in range(_CUT_ITERATIONS):
        if done.all() if batch else done:
            break
        value, slope = residual(x, *params)
        lo = _select(value < 0.0, x, lo)
        hi = _select(value > 0.0, x, hi)
        new = x - value / slope
        newton = (new >= lo) & (new <= hi)
        new = _select(newton, new, 0.5 * (lo + hi))
        root = value == 0.0
        step = abs(new - x) <= _CUT_STEP_TOL * abs(new)
        stop = root | (newton & step) | (hi - lo <= 4.0 * _EPS * abs(hi))
        x = _select(done | root, x, new)
        done = done | stop
    return x


def _axis_chart(rho, height):
    """(s, |gamma|, r) on the z-axis, where rho does not enter.

    The vertical line up to the conjugate height pi, then the rotation
    family returning to the axis at w = pi.
    """
    winds = height > math.pi
    s = _select(winds, np.sqrt(2.0 * math.pi * height - math.pi**2), height)
    gamma = _select(winds, math.pi / s, 1.0)
    return s, gamma, np.sqrt((1.0 - gamma) * (1.0 + gamma))


def _near_chart(rho, height):
    """(s, |gamma|, r) in the near half: F is solved for w in [0, pi/2]."""
    # F is convex with F'(0) = 1 + rho^2/3: its tangent at 0 starts Newton
    # at or above the root.
    start = np.minimum(height / (1.0 + rho * rho / 3.0), 0.5 * math.pi)
    w = _solve_increasing(_near_half, start, 0.0, 0.5 * math.pi, rho, height)
    sinc = _sinc(w)
    # Where w and rho are both subnormal, s is too, and gamma = w / s and r
    # would keep only the few digits s has.  Scaling by 2^600 is exact and
    # keeps them all; elsewhere up is 1.
    up = _select(np.maximum(w, rho) < _TINY, 2.0**600, 1.0)
    s_up = np.hypot(w * up, rho * up / sinc)
    return s_up / up, w * up / s_up, rho * up / (sinc * s_up)


def _far_chart(rho, height):
    """(s, |gamma|, r) in the far half: F is solved for t = -rho cot(w) >= 0."""
    # |z| >= (pi/2)(1 + q^2/2) bounds t above.  The start takes the larger
    # of the far-axis estimate pi (1 + q^2/2) = |z| and the small-q estimate
    # w = |z|.
    top = np.sqrt(np.maximum(4.0 * height / math.pi - 2.0 - rho * rho, 0.0))
    wide = np.sqrt(np.maximum(2.0 * (height / math.pi - 1.0) - rho * rho, 0.0))
    turn = rho * np.tan(np.minimum(height, math.pi) - 0.5 * math.pi)
    start = np.minimum(np.maximum(wide, turn), top)
    t = _solve_increasing(_window, start, 0.0, top, rho, height, math.pi)
    return _window_geodesics(t, rho, math.pi)


def _cut_time_geodesics(x, y, z):
    """Shortest geodesic from the origin to each target (x[i], y[i], z[i]).

    Returns (s, gamma, r): the arc length, which is the distance, the
    signed vertical velocity component and the planar speed.  Arrays are
    solved chart by chart under masks; one finite target, given as scalars,
    takes its one chart on float64 scalars through the same chart
    functions, with the same bits.  Uncertified: the caller passes the
    geodesics to _certify before returning them.
    """
    rho = np.hypot(x, y)
    height = np.abs(z)
    split = 0.5 * math.pi * (1.0 + 0.5 * rho * rho)
    # A subnormal planar offset in the far half joins the axis: the far
    # chart's t would be subnormal too and keep few digits, and the
    # offset is below every tolerance.
    axis = (rho == 0.0) | ((rho < _TINY) & (height > split))
    near = (rho > 0.0) & (height <= split)
    if isinstance(rho, np.ndarray):
        s, gamma, r = (np.full_like(rho, np.nan) for _ in range(3))
        for chart, mask in (
            (_axis_chart, axis), (_near_chart, near), (_far_chart, ~axis & (height > split))
        ):
            i = np.flatnonzero(mask)
            if i.size:
                s[i], gamma[i], r[i] = chart(rho[i], height[i])
    else:
        chart = _axis_chart if axis else _near_chart if near else _far_chart
        s, gamma, r = chart(rho, height)
    return s, _select(z < 0.0, -gamma, gamma), r


def _certify(x, y, z, s, gamma, r, phi, tol: float, shortest):
    """Endpoint heights of geodesics from the origin, each certified.

    Arguments broadcast: geodesic i has arc length s[i] and initial data
    (r[i], phi[i], gamma[i]), and its target is (x[i], y[i], z[i]); all of
    them may be scalars, for one geodesic.  Its endpoint, rebuilt with
    origin_coordinates, must hit the target to tol * max(1, |target|) plus
    one rounding unit of the target's scale (the rebuild is in double
    precision, so its miss is known to that unit at best).  Every length
    must be at least rho, and where shortest is true at most
    rho + min(|z|, sqrt(2 pi |z|)) (module docstring).  Raises
    ShootingConvergenceError naming the first geodesic that fails.
    """
    ex, ey, ez = origin_coordinates(r, phi, gamma, s)
    rho = np.hypot(x, y)
    height = np.abs(z)
    miss = np.hypot(np.hypot(ex - x, ey - y), ez - z)
    scale = np.maximum(1.0, np.hypot(rho, z))
    upper = _select(shortest, rho + np.minimum(height, np.sqrt(2.0 * math.pi * height)), np.inf)
    low, high = rho * (1.0 - _BOUND_SLACK), upper * (1.0 + _BOUND_SLACK)
    certified = (miss + _EPS * scale <= tol * scale) & (low <= s) & (s <= high)
    if not (certified.all() if isinstance(certified, np.ndarray) else certified):
        k = int(np.flatnonzero(np.logical_not(certified))[0])
        x, y, z, s, rho, upper, scale, miss = (
            np.ravel(a) for a in np.broadcast_arrays(x, y, z, s, rho, upper, scale, miss)
        )
        raise ShootingConvergenceError(
            f"cannot certify the geodesic to ({x[k]}, {y[k]}, {z[k]}): endpoint "
            f"miss {miss[k]:.3g} against tolerance {tol * scale[k]:.3g}, length "
            f"{float(s[k])!r} against bounds [{float(rho[k])!r}, {float(upper[k])!r}]"
        )
    return ez


def _window_count(rho: float, height: float) -> int:
    """The number of winding windows k >= 1 that _winding_geodesics solves.

    The largest k <= |z| / pi whose lower bound B(k) = k a - c / k - |z|
    (c = rho^2 / (8 pi)) does not clear 0 by the rounding margin of
    _winding_geodesics, B(k) > _WINDOW_SLACK (k a + |z|), evaluated as
    k a (1 - _WINDOW_SLACK) - c / k > |z| (1 + _WINDOW_SLACK).  Since
    B(k) > k a - c - |z|, no window past (|z| + c) / a is kept: the count
    steps down from the next integer, or from floor(|z| / pi) if that is
    smaller.  The window after the count K is dropped, so K + 1 > |z| / a,
    and c / a < 1 / (4 pi^2): the start is at most K + 2, two steps down.
    """
    rho2 = rho * rho
    a = math.pi * (1.0 + 0.5 * rho2)
    if not a < math.inf:
        return 0
    c = rho2 / (8.0 * math.pi)
    k = min(int(height // math.pi), int((height + c) / a) + 1)
    while k > 0 and k * (a * (1.0 - _WINDOW_SLACK)) - c / k > height * (1.0 + _WINDOW_SLACK):
        k -= 1
    return k


def _winding_geodesics(rho: float, height: float, windows: int):
    """(s, |gamma|, r) of the geodesics to (rho, 0, height) in windows 1..windows.

    Each G_k is unimodal: its minimizer t* < 0 is the root of G_k', and G_k
    has a root on each side of t* when G_k(t*) < 0, one double root when
    G_k(t*) is within 4 eps |z| of zero, and none otherwise.  Every entry of
    the solves is independent of the others, so the windows passed change
    no bit of the geodesics found in them.

    windows comes from _window_count.  In window k, w > k pi gives
    G_k(t) > k pi (1 + (rho^2 + t^2)/2) + rho t/2 - |z| >= B(k), with
    a = pi (1 + rho^2/2) and B(k) = k a - rho^2 / (8 k pi) - |z| the minimum
    over t.  On the bracket [lo, 0] that holds t*, |w (1 + q^2/2)| <= 4 k a
    and |rho t / 2| <= k a, so with numpy's functions within 4 ulps the
    computed G_k(t*) lies within 2^7 eps (k a + |z|) of its exact value at
    the computed t*, and the computed B(k) within 2^5 eps (k a + |z|) of
    the exact bound.  A window dropped because B(k) clears 0 by
    2^8 eps (k a + |z|) (_WINDOW_SLACK) therefore has a computed G_k(t*)
    above 4 eps |z|: it holds neither a root nor a double root, whether
    solved or not.  Where a overflows (rho^2 > ~1.1e308), B(1) > 0 at every
    height shoot_candidates lists (|z| <= pi _MAX_CANDIDATES / 2) and no
    window is solved.
    """
    if not windows:
        empty = np.empty(0)
        return empty, empty, empty
    k = np.arange(1, windows + 1)
    kpi = k * math.pi
    end = (k + 1) * math.pi
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
    x, y, z = np.asarray(points, dtype=float).reshape(-1, 3).T
    return _certified_distance(x, y, z, tol)


def _certified_distance(x, y, z, tol: float):
    """The cut-time length to (x, y, z), arrays or scalars, once certified;
    one np.errstate covers the solve and its certificate."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s, gamma, r = _cut_time_geodesics(x, y, z)
        phi = np.arctan2(y, x) - gamma * s
        _certify(x, y, z, s, gamma, r, phi, tol, shortest=True)
    return s


def shoot_candidates(target: HeisPoint, tol: float = 1e-8) -> list[ShootingSolution]:
    """Every geodesic from the origin to target, the shortest first.

    The first entry is the cut-time solution (window 0), whose length is the
    distance; the others follow by non-decreasing arc length.  The first is
    solved and certified on float64 scalars, with the bits of
    riemannian_distance.  Each window k >= 1 whose lower bound
    B(k) = k pi (1 + rho^2/2) - rho^2 / (8 k pi) - |z| is not clear of 0
    adds the roots of G_k (module docstring), at most about 2 |z| / pi
    geodesics in all, solved and certified as arrays; where B(1) > 0 the
    list is the first entry alone.  Next to the axis the cut-time geodesic
    (w just below pi) and window 1's first root (w just above pi) differ in
    length by less than the rounding of s, so entry 1 can tie with entry 0
    or round one unit below it.

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
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if target == ORIGIN:
        raise ValueError("target must be distinct from the origin")

    x, y, z = target.as_array()
    rho = math.hypot(x, y)
    height = abs(z)
    if 2.0 * height / math.pi > _MAX_CANDIDATES:
        raise ValueError(f"2 |z| / pi = {2.0 * height / math.pi:.3g} geodesics; "
                         f"at most {_MAX_CANDIDATES} are listed")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s, gamma, r = _cut_time_geodesics(x, y, z)
        axis = bool(rho <= _EPS * s)
        phi, residual = _listed(x, y, z, rho, s, gamma, r, axis, tol, shortest=True)
        columns = [[float(a)] for a in (r, phi, gamma, s, residual)]
        if axis:
            s, gamma, r = _axis_returns(height)
        else:
            s, gamma, r = _winding_geodesics(rho, height, _window_count(rho, height))
        if s.size:
            gamma = math.copysign(1.0, z) * gamma
            phi, residual = _listed(x, y, z, rho, s, gamma, r, axis, tol, shortest=False)
            order = np.argsort(s, kind="stable")
            columns = [
                column + np.take(a, order).tolist()
                for column, a in zip(columns, (r, phi, gamma, s, residual))
            ]
    return [
        ShootingSolution(
            spec=GeodesicSpec(base=ORIGIN, r=r_i, phi=phi_i, gamma=gamma_i),
            s=s_i,
            residual=residual_i,
            axis_family=axis,
        )
        for r_i, phi_i, gamma_i, s_i, residual_i in zip(*columns)
    ]


def _axis_returns(height):
    """(s, |gamma|, r) of the axis circles past the cut-time one.

    Returns to the axis at w = k pi < |z| for k >= 2 (k = 1 is the cut-time
    solution), then the vertical line as the limit k pi = |z|; none at or
    below the conjugate height pi.
    """
    if not height > math.pi:
        empty = np.empty(0)
        return empty, empty, empty
    kpi = np.arange(2, math.ceil(height / math.pi)) * math.pi
    kpi = np.append(kpi[kpi < height], [height])
    s = np.sqrt(kpi * (2.0 * height - kpi))
    return s, kpi / s, np.sqrt(2.0 * kpi * (height - kpi)) / s


def _listed(x, y, z, rho, s, gamma, r, axis: bool, tol: float, shortest: bool):
    """(phi, residual) of geodesics to (x, y, z), certified by _certify.

    Arrays for the winding geodesics, float64 scalars for the cut-time one,
    through the same expressions and so with the same bits.
    """
    w = gamma * s
    sinc = _sinc(w)
    # The chord points along phi + w, reversed where sinc(w) < 0; on the
    # axis phi = 0 represents each circle (0 * turn is +0.0, as turn >= 0).
    turn = _select(sinc < 0.0, math.pi, 0.0)
    phi = 0.0 * turn if axis else math.atan2(y, x) - w + turn
    ez = _certify(x, y, z, s, gamma, r, phi, tol, shortest)
    return phi, np.hypot(r * s * np.abs(sinc) - rho, ez - z)


def riemannian_distance(p: HeisPoint, q: HeisPoint, tol: float = 1e-8) -> float:
    """Riemannian distance between p and q, certified (see the module docstring).

    Left-invariant by construction: the problem is translated to
    distance(0, p^-1 * q).  The one target is solved on float64 scalars by
    the same functions as riemannian_distance_many, with the same bits.
    """
    delta = left_quotient(p, q)
    return float(_certified_distance(delta.x, delta.y, delta.z, tol))


def _lattice_miss(gamma, s, rho, z_t):
    """Endpoint miss of the geodesic (gamma, s) at its best planar direction.

    Rotation about the z-axis turns the endpoint's planar part by phi and
    leaves its length |r s sinc(w)| and its height alone, so over phi the
    miss to a target at planar distance rho and height z_t is smallest at
    hypot(|x + iy| - rho, z - z_t).
    """
    r = np.sqrt(np.clip(1.0 - gamma * gamma, 0.0, None))
    x, y, z = origin_coordinates(r, 0.0, gamma, s)
    return np.hypot(np.hypot(x, y) - rho, z - z_t)


def _refine_lattice(center, halfwidth, rho, z_t, s_cap):
    """Derivative-free shrinking-lattice descent of _lattice_miss over (gamma, s).

    A 9x9 lattice around the centre moves to its best point and halves when
    that point is interior.  Points are ranked by distance from the centre,
    so a tie (rows clipped onto gamma = +-1 all miss alike) goes inward.
    """
    offsets = np.linspace(-1.0, 1.0, 9)
    og, os_ = (a.ravel() for a in np.meshgrid(offsets, offsets, indexing="ij"))
    order = np.argsort(np.abs(og) + np.abs(os_), kind="stable")
    og, os_ = og[order], os_[order]
    on_edge = np.maximum(np.abs(og), np.abs(os_)) == 1.0
    center = np.array(center, dtype=float)
    halfwidth = np.array(halfwidth, dtype=float)
    best = (np.inf, center)
    for _ in range(80):
        g = np.clip(center[0] + og * halfwidth[0], -1.0, 1.0)
        s = np.clip(center[1] + os_ * halfwidth[1], 1e-9, s_cap)
        miss = _lattice_miss(g, s, rho, z_t)
        i = int(np.argmin(miss))
        center = np.array([g[i], s[i]])
        if miss[i] < best[0]:
            best = (float(miss[i]), center)
        if not on_edge[i]:
            halfwidth = halfwidth * 0.5
        if halfwidth.max() < 1e-10:
            break
    return best


def brute_force_distance(
    target: HeisPoint,
    grid: tuple[int, int] = (64, 512),
    s_max: float = 10.0,
) -> float:
    """Grid-search upper bound for the distance from the origin to target.

    A dense lattice over gamma in [-1, 1] and s in (0, s_max] is scanned
    for geodesics whose endpoint, turned about the z-axis to the best
    planar direction (_lattice_miss), lies within a ball whose radius is
    derived from the lattice spacing (a first-order sensitivity bound per
    point).  The smallest-s qualifying cells seed one local refinement pass
    each; the minimum refined arc length over the verified branches is
    returned.  Raises TargetUnreachableError when nothing qualifies, which
    signals that s_max is too small for the target.
    """
    if len(grid) != 2 or min(grid) < 16:
        raise ValueError("grid must be (n_gamma, n_s), each at least 16")
    if target == ORIGIN:
        return 0.0

    n_gamma, n_s = grid
    rho = math.hypot(target.x, target.y)
    gammas = np.linspace(-1.0, 1.0, n_gamma)
    lengths = s_max * np.arange(1, n_s + 1) / n_s
    d_gamma = gammas[1] - gammas[0]
    d_s = lengths[1] - lengths[0]
    g2 = gammas[:, None]
    s2 = lengths[None, :]
    miss = _lattice_miss(g2, s2, rho, target.z)

    # Per-point acceptance radius: displacement of the endpoint across half
    # a cell, from the exact arc-length and turning sensitivities plus a
    # finite-difference gamma sensitivity of the profile.
    r2 = np.sqrt(np.clip(1.0 - g2 * g2, 0.0, None))
    w2 = g2 * s2
    q2 = r2 * s2 * _sinc(w2)
    z2 = origin_coordinates(r2, 0.0, g2, s2)[2]
    dq_dg = np.gradient(q2, gammas, axis=0)
    dz_dg = np.gradient(z2, gammas, axis=0)
    zdot = g2 + r2 * r2 * s2 * _sinc(w2) * np.sin(w2)
    sens_gamma = np.sqrt(dq_dg**2 + (q2 * s2) ** 2 + dz_dg**2)
    sens_s = np.sqrt(r2 * r2 + zdot * zdot)
    radius = 0.75 * (d_gamma * sens_gamma + d_s * sens_s)

    qualifying = miss <= radius
    candidates: list[tuple[int, int]] = []
    if qualifying.any():
        qi, qk = np.nonzero(qualifying)
        order = np.argsort(lengths[qk], kind="stable")
        for i, k in zip(qi[order], qk[order]):
            if all(abs(int(i) - ci) > 3 or abs(int(k) - ck) > 3 for ci, ck in candidates):
                candidates.append((int(i), int(k)))
            if len(candidates) >= 12:
                break
    else:
        i, k = np.unravel_index(int(np.argmin(miss)), miss.shape)
        if miss[i, k] > 4.0 * radius[i, k]:
            raise TargetUnreachableError(
                f"no lattice endpoint near target within s_max = {s_max}"
            )
        candidates.append((int(i), int(k)))

    hit_tol = 1e-6 * max(1.0, math.hypot(rho, target.z))
    verified: list[float] = []
    for i, k in candidates:
        gap, refined = _refine_lattice(
            (gammas[i], lengths[k]), (d_gamma, d_s), rho, target.z, 1.25 * s_max
        )
        if gap <= hit_tol:
            verified.append(float(refined[1]))
    if not verified:
        raise TargetUnreachableError(
            "no lattice candidate could be refined to a connecting geodesic; "
            "increase the grid resolution or s_max"
        )
    return min(verified)
