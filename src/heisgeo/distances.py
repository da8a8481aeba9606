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
- far half: F is solved for t = sqrt(q^2 - rho^2) >= 0 with
  q = rho / sin(w), so w = pi - atan2(rho, t), |z| = w (1 + q^2/2) + rho t/2
  and d = w sqrt(1 + q^2).  Solving for w itself there would lose the
  digits of pi - w near the axis.

On the axis (rho = 0) the closed form is d = |z| up to the conjugate
height pi and d = sqrt(2 pi |z| - pi^2) beyond it.  Each 1-D solve is a
safeguarded Newton-bisection, vectorized over targets
(riemannian_distance_many).  Every result is certified before it is
returned: the geodesic's endpoint, rebuilt with origin_coordinates, must
hit the target to tol * max(1, |target|) plus one rounding unit, and d
must lie in rho <= d <= rho + min(|z|, sqrt(2 pi |z|)) (the planar
projection is a submersion; a segment followed by a vertical line or a
horizontal circle reaches the target).  A failure raises
ShootingConvergenceError; no uncertified number is returned.

shoot_candidates enumerates connecting geodesics, including those beyond
the cut time, by Newton's method from a deterministic lattice of
starting values in the two unknowns (gamma, s): for a unit-speed geodesic
from the origin the planar distance and height are

    planar(gamma, s) = r * s * |sinc(gamma*s)|,   r = sqrt(1 - gamma^2)
    height(gamma, s) = z(gamma, s),

and the initial planar direction phi is recovered afterwards from the
chord direction of the target.  Each iteration evaluates the residual and
its analytic Jacobian in one pass; solving in the angle theta with
gamma = sin(theta) avoids the square-root singularity of r at |gamma| = 1.
Seeds still short of the Newton tolerance at the iteration cap but within
1e-6 of a root get a few more steps before their residual is taken.  The
converged seeds and the cut-time solution are reduced to one
representative per geodesic.

brute_force_distance is an independent validation oracle: a dense lattice
over (gamma, phi, s) followed by a derivative-free shrinking-lattice
refinement.  It shares only the forward closed form with the solvers, not
the inversion strategy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ORIGIN, HeisPoint, group_inv, group_mul
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
    """Cygan gauge distance; zero iff p = q, symmetric, left-invariant."""
    dx = p.x - q.x
    dy = p.y - q.y
    planar_sq = dx * dx + dy * dy
    cross = p.z - q.z + p.x * q.y - p.y * q.x
    # sqrt of sqrt keeps exact values (e.g. fourth roots of perfect fourth
    # powers) exact to rounding, unlike a pow(0.25) call.
    return math.sqrt(math.sqrt(planar_sq * planar_sq + cross * cross))


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

    axis_family marks targets on the z-axis, where the planar direction is
    arbitrary by rotational symmetry and one representative (phi = 0) of a
    whole circle of solutions is reported.
    """

    spec: GeodesicSpec
    s: float
    residual: float
    axis_family: bool = False


def _height(gamma, s):
    w = gamma * s
    return 0.5 * gamma * s + 0.25 * np.sin(2.0 * w) + 2.0 * gamma * s**3 * _sin_defect(2.0 * w)


def _shoot_residuals(theta, s, rho_t, z_t, sign):
    """Smooth 2-vector residual in the (theta, s) chart, vectorized."""
    gamma = np.sin(theta)
    w = gamma * s
    q = np.cos(theta) * s * _sinc(w)
    return q - sign * rho_t, _height(gamma, s) - z_t


def _shoot_jacobian(theta, s, rho_t, z_t, sign):
    """Residual and its analytic Jacobian in the (theta, s) chart, fused.

    Returns (f1, f2, j11, j12, j21, j22) with j11 = df1/dtheta, j12 =
    df1/ds, j21 = df2/dtheta, j22 = df2/ds.  With gamma = sin(theta),
    c = cos(theta), w = gamma*s and m = _sin_defect:

        df1/ds     = c cos(w)
        df1/dtheta = -s gamma sinc(w) + c^2 s^2 sinc'(w)
        df2/ds     = gamma + c^2 s sinc(w) sin(w)
        df2/dtheta = c (s cos(w)^2 + s^3 (sinc(w)^2 - 4 m(2w)))

    where sinc'(w) = -w (sinc(w/2)^2 / 2 - m(w)) stays accurate as w -> 0.
    """
    gamma = np.sin(theta)
    c = np.cos(theta)
    w = gamma * s
    sin_w = np.sin(w)
    cos_w = np.cos(w)
    sinc_w = _sinc(w)
    defect_2w = _sin_defect(2.0 * w)
    s2 = s * s
    f1 = c * s * sinc_w - sign * rho_t
    f2 = 0.5 * w + 0.25 * np.sin(2.0 * w) + 2.0 * gamma * s * s2 * defect_2w - z_t
    d_sinc = -w * (0.5 * _sinc(0.5 * w) ** 2 - _sin_defect(w))
    j11 = -s * gamma * sinc_w + c * c * s2 * d_sinc
    j12 = c * cos_w
    j21 = c * (s * cos_w * cos_w + s * s2 * (sinc_w * sinc_w - 4.0 * defect_2w))
    j22 = gamma + c * c * s * sinc_w * sin_w
    return f1, f2, j11, j12, j21, j22


_SEED_GAMMAS = 32
_SEED_LENGTHS = 128
_NEWTON_ITERATIONS = 50
_NEWTON_TOL = 1e-10
_POLISH_RESIDUAL = 1e-6
_POLISH_STEPS = 8
_DEDUP_TOL = 1e-6
_AXIS_TOL = 1e-12


def _seed_lattice() -> tuple[np.ndarray, np.ndarray]:
    """Deterministic multistart lattice over (theta, s).

    gamma runs uniformly over [-1, 1]; each row gets arc lengths up to
    4*pi / max(|gamma|, 0.05) capped at 100, enough for several windings of
    the planar circle at that pitch.
    """
    gammas = np.linspace(-1.0, 1.0, _SEED_GAMMAS)
    s_caps = np.minimum(4.0 * np.pi / np.maximum(np.abs(gammas), 0.05), 100.0)
    fractions = np.arange(1, _SEED_LENGTHS + 1) / _SEED_LENGTHS
    theta = np.repeat(np.arcsin(gammas), _SEED_LENGTHS)
    s = (s_caps[:, None] * fractions[None, :]).ravel()
    return theta, s


def _newton_step(theta, s, f1, f2, j11, j12, j21, j22):
    """Damped Newton update; returns (theta, s, singular)."""
    det = j11 * j22 - j12 * j21
    singular = np.abs(det) < 1e-14
    det = np.where(singular, 1.0, det)
    d_theta = np.clip(-(j22 * f1 - j12 * f2) / det, -0.5, 0.5)
    d_s = np.clip(-(-j21 * f1 + j11 * f2) / det, -2.0, 2.0)
    return theta + d_theta, np.maximum(s + d_s, 1e-9), singular


def _newton_shoot(rho_t: float, z_t: float) -> tuple[np.ndarray, np.ndarray]:
    """Run damped Newton from every seed; return their final (theta, s).

    Each iteration evaluates the residual and its analytic Jacobian in one
    pass, retires seeds whose residual falls below _NEWTON_TOL and drops
    seeds that leave the chart or hit a singular Jacobian.  Survivors of
    the iteration cap are returned too; the caller filters all seeds by
    its own tolerance.
    """
    theta0, s0 = _seed_lattice()
    if rho_t < _AXIS_TOL:
        signs = np.ones_like(theta0)
    else:
        # Chord radius can carry either sign of sinc; both sheets of the
        # residual map are explored.
        theta0 = np.concatenate([theta0, theta0])
        s0 = np.concatenate([s0, s0])
        signs = np.concatenate([np.ones(theta0.size // 2), -np.ones(theta0.size // 2)])

    theta, s, sign = theta0.copy(), s0.copy(), signs
    done_theta, done_s = [], []

    for _ in range(_NEWTON_ITERATIONS):
        f1, f2, j11, j12, j21, j22 = _shoot_jacobian(theta, s, rho_t, z_t, sign)
        res = np.hypot(f1, f2)
        conv = res < _NEWTON_TOL
        if conv.any():
            done_theta.append(theta[conv])
            done_s.append(s[conv])
            keep = ~conv
            theta, s, sign, f1, f2, j11, j12, j21, j22, res = (
                a[keep] for a in (theta, s, sign, f1, f2, j11, j12, j21, j22, res)
            )
        if theta.size == 0:
            break

        theta, s, singular = _newton_step(theta, s, f1, f2, j11, j12, j21, j22)
        alive = ~singular & (np.abs(theta) <= 3.2) & (s <= 150.0) & np.isfinite(res)
        theta, s, sign = theta[alive], s[alive], sign[alive]

    if theta.size:
        # Survivors of the iteration cap may still be acceptable at the
        # caller's (looser) tolerance, e.g. near conjugate points where the
        # Jacobian degenerates and convergence slows.  Those already close
        # to a root get a few more steps first: a seed that reaches a root
        # only in the last iterations would otherwise be reported as a
        # separate, less accurate copy of it.
        f1, f2 = _shoot_residuals(theta, s, rho_t, z_t, sign)
        near = np.flatnonzero(np.hypot(f1, f2) < _POLISH_RESIDUAL)
        if near.size:
            t, arc, sg = theta[near], s[near], sign[near]
            for _ in range(_POLISH_STEPS):
                f1, f2, j11, j12, j21, j22 = _shoot_jacobian(t, arc, rho_t, z_t, sg)
                moving = np.hypot(f1, f2) >= _NEWTON_TOL
                if not moving.any():
                    break
                new_t, new_arc, singular = _newton_step(t, arc, f1, f2, j11, j12, j21, j22)
                step = moving & ~singular
                t = np.where(step, new_t, t)
                arc = np.where(step, new_arc, arc)
            theta[near], s[near] = t, arc
        done_theta.append(theta)
        done_s.append(s)

    if not done_theta:
        return np.empty(0), np.empty(0)
    return np.concatenate(done_theta), np.concatenate(done_s)


def _dedup(gamma, phi, s, residual) -> np.ndarray:
    """Indices of the best-converged representative of each duplicate cluster.

    Candidates are visited in order of ascending residual (ties keep input
    order); each is kept unless it lies within L1 distance _DEDUP_TOL of an
    already kept one, phi compared circularly.  Equivalently: keep the
    first remaining candidate, drop everything near it, repeat.  Returned
    in visiting order.
    """
    order = np.argsort(residual, kind="stable")
    gamma, phi, s = gamma[order], phi[order], s[order]
    remaining = np.arange(order.size)
    kept = []
    while remaining.size:
        first, rest = remaining[0], remaining[1:]
        kept.append(first)
        d_phi = np.abs(phi[rest] - phi[first])
        d_phi = np.minimum(d_phi, TWO_PI - d_phi)
        gap = np.abs(gamma[rest] - gamma[first]) + d_phi + np.abs(s[rest] - s[first])
        remaining = rest[~(gap < _DEDUP_TOL)]
    return order[np.array(kept, dtype=np.intp)]


_CUT_ITERATIONS = 60
_CUT_STEP_TOL = 1e-9
_BOUND_SLACK = 1e-12
_EPS = float(np.finfo(float).eps)


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


def _far_half(t, rho, z):
    """The window equation minus |z|, and its t-derivative, for w >= pi/2.

    t = sqrt(q^2 - rho^2) = -rho cot(w) with q = rho / sin(w); the equation
    is smooth in t at w = pi/2 (t = 0), unlike in q.
    """
    q = np.hypot(rho, t)
    w = math.pi - np.arctan2(rho, t)
    value = w * (1.0 + 0.5 * q * q) + 0.5 * rho * t - z
    slope = rho / q / q + rho + w * t
    return value, slope


def _solve_increasing(residual, x, lo, hi, rho, z):
    """Root in [lo, hi] of an increasing residual(x, rho, z), vectorized.

    Safeguarded Newton: every evaluation shrinks the bracket by the sign of
    the residual, and a step that leaves the bracket is replaced by
    bisection.  An entry stops on an exact zero, after a Newton step below
    _CUT_STEP_TOL relative (the convergence is quadratic, so the point it
    lands on is accurate to rounding), or when its bracket has collapsed to
    rounding.  Entries still moving at the iteration cap return their last
    iterate, for the caller's certificate to judge.
    """
    x, lo, hi = x.copy(), lo.copy(), hi.copy()
    active = np.arange(x.size)
    for _ in range(_CUT_ITERATIONS):
        if active.size == 0:
            break
        xa, la, ha = x[active], lo[active], hi[active]
        value, slope = residual(xa, rho[active], z[active])
        la = np.where(value < 0.0, xa, la)
        ha = np.where(value > 0.0, xa, ha)
        new = xa - value / slope
        newton = (new >= la) & (new <= ha)
        new = np.where(newton, new, 0.5 * (la + ha))
        root = value == 0.0
        done = (
            root
            | (newton & (np.abs(new - xa) <= _CUT_STEP_TOL * np.abs(new)))
            | (ha - la <= 4.0 * _EPS * ha)
        )
        x[active] = np.where(root, xa, new)
        lo[active], hi[active] = la, ha
        active = active[~done]
    return x


def _cut_time_geodesics(points, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Certified shortest geodesic from the origin to each row of points.

    Returns (s, gamma): the arc length, which is the distance, and the
    signed vertical velocity component; the planar direction is
    atan2(y, x) - gamma * s.  Raises ShootingConvergenceError naming the
    first target that fails its certificate.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    rho = np.hypot(x, y)
    height = np.abs(z)
    s = np.full_like(rho, np.nan)
    gamma = np.full_like(rho, np.nan)
    r = np.full_like(rho, np.nan)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Axis: the vertical line up to the conjugate height pi, then the
        # rotation family returning to the axis at w = pi.
        i = np.flatnonzero(rho == 0.0)
        h = height[i]
        winds = h > math.pi
        s[i] = np.where(winds, np.sqrt(2.0 * math.pi * h - math.pi**2), h)
        gamma[i] = np.where(winds, math.pi / s[i], 1.0)
        r[i] = np.sqrt((1.0 - gamma[i]) * (1.0 + gamma[i]))

        split = 0.5 * math.pi * (1.0 + 0.5 * rho * rho)
        i = np.flatnonzero((rho > 0.0) & (height <= split))
        if i.size:
            rho_i, h = rho[i], height[i]
            top = np.full(i.size, 0.5 * math.pi)
            # F is convex with F'(0) = 1 + rho^2/3: its tangent at 0 starts
            # Newton at or above the root.
            start = np.minimum(h / (1.0 + rho_i * rho_i / 3.0), top)
            w = _solve_increasing(_near_half, start, np.zeros(i.size), top, rho_i, h)
            sinc = _sinc(w)
            s[i] = np.hypot(w, rho_i / sinc)
            gamma[i] = w / s[i]
            r[i] = rho_i / (sinc * s[i])

        i = np.flatnonzero((rho > 0.0) & (height > split))
        if i.size:
            rho_i, h = rho[i], height[i]
            # |z| >= (pi/2)(1 + q^2/2) bounds t above.  The start takes the
            # larger of the far-axis estimate pi (1 + q^2/2) = |z| and the
            # small-q estimate w = |z|.
            top = np.sqrt(np.maximum(4.0 * h / math.pi - 2.0 - rho_i * rho_i, 0.0))
            wide = np.sqrt(np.maximum(2.0 * (h / math.pi - 1.0) - rho_i * rho_i, 0.0))
            turn = rho_i * np.tan(np.minimum(h, math.pi) - 0.5 * math.pi)
            start = np.minimum(np.maximum(wide, turn), top)
            t = _solve_increasing(_far_half, start, np.zeros(i.size), top, rho_i, h)
            q = np.hypot(rho_i, t)
            k = np.hypot(1.0, q)
            s[i] = (math.pi - np.arctan2(rho_i, t)) * k
            gamma[i] = 1.0 / k
            r[i] = q / k

        gamma = np.where(z < 0.0, -gamma, gamma)
        phi = np.arctan2(y, x) - gamma * s
        ex, ey, ez = origin_coordinates(r, phi, gamma, s)
        miss = np.sqrt((ex - x) ** 2 + (ey - y) ** 2 + (ez - z) ** 2)
        scale = np.maximum(1.0, np.sqrt(x * x + y * y + z * z))
        upper = rho + np.minimum(height, np.sqrt(2.0 * math.pi * height))
        # The endpoint is rebuilt in double precision, so its miss is known
        # to one rounding unit of the target's scale at best.
        certified = (
            (miss + _EPS * scale <= tol * scale)
            & (s >= rho * (1.0 - _BOUND_SLACK))
            & (s <= upper * (1.0 + _BOUND_SLACK))
        )
    if not certified.all():
        k = int(np.flatnonzero(~certified)[0])
        raise ShootingConvergenceError(
            f"cannot certify the distance to ({x[k]}, {y[k]}, {z[k]}): endpoint "
            f"miss {miss[k]:.3g} against tolerance {tol * scale[k]:.3g}, length "
            f"{float(s[k])!r} against bounds [{float(rho[k])!r}, {float(upper[k])!r}]"
        )
    return s, gamma


def riemannian_distance_many(points, tol: float = 1e-8) -> np.ndarray:
    """Riemannian distance from the origin to each row of an (n, 3) array.

    One cut-time solve per target, vectorized over targets (see the module
    docstring); every value is certified or ShootingConvergenceError is
    raised.
    """
    return _cut_time_geodesics(points, tol)[0]


def shoot_candidates(target: HeisPoint, tol: float = 1e-8) -> list[ShootingSolution]:
    """Geodesics from the origin reaching target within tol.

    The converged lattice seeds (residual below tol) and the cut-time
    solution, which is the shortest geodesic, are deduplicated (two
    solutions are the same when |d gamma| + |d phi| + |d s| < 1e-6, phi
    compared circularly) and sorted by ascending arc length, so the first
    entry is the shortest geodesic.  Geodesics beyond the cut time are found only
    as far as the seed lattice (s <= 100) and Newton (s <= 150) reach: far
    winding branches of targets with |z| above about 90 can be missing.
    Raises ShootingConvergenceError if the cut-time solution cannot be
    certified.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if target == ORIGIN:
        raise ValueError("target must differ from the origin")

    rho_t = math.hypot(target.x, target.y)
    chord_angle = math.atan2(target.y, target.x)
    axis = rho_t < _AXIS_TOL

    theta, arc = _newton_shoot(rho_t, target.z)
    cut_s, cut_gamma = _cut_time_geodesics([(target.x, target.y, target.z)], tol)

    # The cut-time solution goes last; its certificate, relative to the
    # target's scale, replaces the residual filter of the seeds.
    gamma = np.append(np.clip(np.sin(theta), -1.0, 1.0), cut_gamma)
    arc = np.append(arc, cut_s)
    r = np.sqrt(np.maximum(0.0, 1.0 - gamma * gamma))
    w = gamma * arc
    q = r * arc * _sinc(w)
    if axis:
        phi = np.zeros_like(w)
    else:
        phi = np.where(q >= 0.0, chord_angle - w, (chord_angle + math.pi) - w) % TWO_PI
    residual = np.hypot(np.abs(q) - rho_t, _height(gamma, arc) - target.z)
    ok = (residual < tol) & (arc > 0.0)
    ok[-1] = True
    gamma, phi, arc, residual = gamma[ok], phi[ok], arc[ok], residual[ok]

    if axis and abs(target.z) > 0.0:
        # The vertical geodesic reaches every axis point directly.
        gamma = np.append(gamma, math.copysign(1.0, target.z))
        phi = np.append(phi, 0.0)
        arc = np.append(arc, abs(target.z))
        residual = np.append(residual, rho_t)

    kept = _dedup(gamma, phi, arc, residual)
    kept = kept[np.argsort(arc[kept], kind="stable")]

    solutions = []
    for i in kept:
        g = float(gamma[i])
        solutions.append(
            ShootingSolution(
                spec=GeodesicSpec(
                    base=ORIGIN, r=math.sqrt(max(0.0, 1.0 - g * g)), phi=float(phi[i]), gamma=g
                ),
                s=float(arc[i]),
                residual=float(residual[i]),
                axis_family=axis,
            )
        )
    return solutions


def riemannian_distance(p: HeisPoint, q: HeisPoint, tol: float = 1e-8) -> float:
    """Riemannian distance between p and q, certified (see the module docstring).

    Left-invariant by construction: the problem is translated to
    distance(0, p^-1 * q) and solved by riemannian_distance_many.
    """
    delta = group_mul(group_inv(p), q)
    return float(riemannian_distance_many([(delta.x, delta.y, delta.z)], tol=tol)[0])


def _endpoint_grid(gammas, phis, lengths):
    g = gammas[:, None, None]
    f = phis[None, :, None]
    s = lengths[None, None, :]
    r = np.sqrt(np.clip(1.0 - g * g, 0.0, None))
    return origin_coordinates(r, f, g, s)


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

    x, y, z = _endpoint_grid(gammas, phis, lengths)
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
    z2 = _height(g2, s2)
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
