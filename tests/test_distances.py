"""Cygan metric, geodesic shooting, and the grid-search oracle."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heisgeo.core import ORIGIN, FrameVector, HeisPoint, group_mul
from heisgeo.distances import (
    ShootingConvergenceError,
    TargetUnreachableError,
    brute_force_distance,
    cygan_distance,
    cygan_scaling_check,
    dilate,
    riemannian_distance,
    riemannian_distance_many,
    shoot_candidates,
)
from heisgeo.geodesics import exp_map, origin_coordinates

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)


def random_points(n, seed, box=2.0):
    rng = np.random.default_rng(seed)
    return [HeisPoint(*rng.uniform(-box, box, 3)) for _ in range(n)]


class TestCygan:
    def test_planar_value(self):
        assert cygan_distance(ORIGIN, HeisPoint(3, 4, 0)) == 5.0

    def test_vertical_value(self):
        assert cygan_distance(ORIGIN, HeisPoint(0, 0, 9)) == 3.0

    def test_zero_iff_equal(self):
        for p in random_points(20, 31):
            assert cygan_distance(p, p) == 0.0
        assert cygan_distance(HeisPoint(1, 0, 0), HeisPoint(1, 0, 1e-9)) > 0.0

    def test_symmetry(self):
        for p, q in zip(random_points(50, 32), random_points(50, 33)):
            assert abs(cygan_distance(p, q) - cygan_distance(q, p)) < 1e-12

    def test_left_invariance(self):
        rng = np.random.default_rng(34)
        for p, q in zip(random_points(50, 35), random_points(50, 36)):
            g = HeisPoint(*rng.uniform(-3, 3, 3))
            lhs = cygan_distance(group_mul(g, p), group_mul(g, q))
            assert abs(lhs - cygan_distance(p, q)) < 1e-9

    def test_triangle_inequality(self):
        pts = random_points(600, 37)
        for p, q, r in zip(pts[:200], pts[200:400], pts[400:]):
            assert cygan_distance(p, r) <= (
                cygan_distance(p, q) + cygan_distance(q, r) + 1e-6
            )

    def test_scaling_examples(self):
        a, b = cygan_scaling_check(ORIGIN, HeisPoint(1, 0, 0), 2.0)
        assert a == 2.0 and b == 2.0
        a, b = cygan_scaling_check(ORIGIN, HeisPoint(0, 0, 1), 2.0)
        assert abs(a - 2.0) < 1e-15 and abs(b - 2.0) < 1e-15
        a, b = cygan_scaling_check(HeisPoint(1, 1, 1), HeisPoint(-1, 0, 2), 1.0)
        assert a == b

    def test_dilation_homogeneity(self):
        for lam in (0.5, 2.0, 10.0):
            for p, q in zip(random_points(30, 38), random_points(30, 39)):
                a, b = cygan_scaling_check(p, q, lam)
                assert abs(a - b) < 1e-10

    def test_dilate_validation(self):
        with pytest.raises(ValueError):
            cygan_scaling_check(ORIGIN, HeisPoint(1, 0, 0), 0.0)
        assert dilate(HeisPoint(1, 2, 3), 2.0) == HeisPoint(2, 4, 12)

    @pytest.mark.parametrize(
        "q, want",
        [((1e-100, 0, 0), 1e-100), ((0, 0, 1e-300), 1e-150),
         ((1e80, 0, 0), 1e80), ((0, 0, 1e300), 1e150)],
    )
    def test_no_underflow_or_overflow(self, q, want):
        # The fourth powers of these gauges underflow to 0 or overflow to inf.
        assert cygan_distance(ORIGIN, HeisPoint(*q)) == want

    @pytest.mark.parametrize(
        "q", [(5e-324, 0, 0), (0, 5e-324, 0), (0, 0, 5e-324), (1e-200, -1e-200, 1e-300),
              (1e300, 0, 0), (0, 0, 1.7e308)],
    )
    def test_distinct_points_are_apart(self, q):
        assert 0.0 < cygan_distance(ORIGIN, HeisPoint(*q)) < math.inf

    def test_height_difference_survives_equal_products(self):
        # Summed as ((p.z - q.z) + p.x q.y) - p.y q.x, the 1e-20 was lost
        # against the product 1.0 and the distance came out 0.0.
        assert cygan_distance(HeisPoint(1, 1, 1e-20), HeisPoint(1, 1, 0)) == 1e-10

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-1e150, 1e150),
        st.floats(-1e150, 1e150),
        st.floats(-1e300, 1e300),
        st.floats(-1e300, 1e300),
    )
    def test_vertical_offsets_are_apart(self, x, y, z1, z2):
        # dx = dy = 0: the two products of the cross term are the same
        # double, so the distance is sqrt|z1 - z2| and positive iff z1 != z2.
        d = cygan_distance(HeisPoint(x, y, z1), HeisPoint(x, y, z2))
        assert (d > 0.0) == (z1 != z2)
        assert math.isclose(d, math.sqrt(abs(z1 - z2)), rel_tol=4 * EPS)

    def test_overflowing_cross_term_raises(self):
        with pytest.raises(ValueError, match="overflows"):
            cygan_distance(HeisPoint(1e200, 0, 0), HeisPoint(0, 1e200, 0))

    @pytest.mark.parametrize("lam", [2.0**-500, 2.0**500])
    def test_extreme_power_of_two_dilations_are_exact(self, lam):
        for p, q in zip(random_points(30, 40), random_points(30, 41)):
            a, b = cygan_scaling_check(p, q, lam)
            assert a == b


class TestShooting:
    def test_horizontal_target(self):
        sols = shoot_candidates(HeisPoint(1, 0, 0))
        assert len(sols) >= 1
        best = sols[0]
        assert abs(best.spec.gamma) < 1e-7
        assert best.spec.phi < 1e-6 or TWO_PI - best.spec.phi < 1e-6
        assert abs(best.s - 1.0) < 1e-8
        assert best.residual <= 1e-8

    def test_axis_target_branches(self):
        target = HeisPoint(0, 0, 5 * math.pi / 2)
        sols = shoot_candidates(target)
        s_values = [sol.s for sol in sols]
        assert abs(s_values[0] - TWO_PI) < 1e-8
        assert abs(sols[0].spec.gamma - 0.5) < 1e-8
        # Vertical branch present with s = |z|.
        assert any(abs(sol.s - 5 * math.pi / 2) < 1e-10 and sol.spec.r == 0.0 for sol in sols)
        # Second winding branch at gamma = sqrt(2/3).
        assert any(abs(sol.spec.gamma - math.sqrt(2 / 3)) < 1e-7 for sol in sols)
        assert all(sol.axis_family for sol in sols)
        assert s_values == sorted(s_values)

    @pytest.mark.parametrize(
        "target",
        [
            (1e-3, 0, 0),
            (-1e-3, 0, 0),
            (0, 1e-3, 0),
            (1e-3 / math.sqrt(2), 1e-3 / math.sqrt(2), 0),
            (1e-2, 0, 0),
            (0, -1e-2, 0),
            (1e-1, 0, 0),
        ],
        ids=["x1e-3", "-x1e-3", "y1e-3", "diag1e-3", "x1e-2", "-y1e-2", "x1e-1"],
    )
    def test_short_target_single_solution(self, target):
        sols = shoot_candidates(HeisPoint(*target))
        assert len(sols) == 1
        assert abs(sols[0].s - math.hypot(target[0], target[1])) < 1e-9
        assert abs(sols[0].spec.gamma) < 1e-5

    def test_candidates_hit_target(self):
        target = HeisPoint(0.8, -0.4, 1.1)
        for sol in shoot_candidates(target):
            end = exp_map(
                ORIGIN,
                FrameVector(
                    sol.s * sol.spec.r * math.cos(sol.spec.phi),
                    sol.s * sol.spec.r * math.sin(sol.spec.phi),
                    sol.s * sol.spec.gamma,
                ),
            )
            gap = np.linalg.norm(end.as_array() - target.as_array())
            assert gap < 1e-7
            assert not sol.axis_family

    def test_origin_target_rejected(self):
        with pytest.raises(ValueError):
            shoot_candidates(ORIGIN)

    def test_no_numpy_warning(self):
        # Overflow inside the winding-window solves is judged by the
        # certificate, not reported as a numpy warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(shoot_candidates(HeisPoint(1e102, 0.0, 3.1416))) == 1
            with pytest.raises(ShootingConvergenceError):
                shoot_candidates(HeisPoint(1e154, 0.0, math.pi))

    def test_unreachable_tolerance(self):
        with pytest.raises(ShootingConvergenceError):
            shoot_candidates(HeisPoint(1, 0, 0), tol=1e-30)
        with pytest.raises(ValueError, match="tol must be positive"):
            shoot_candidates(HeisPoint(1, 0, 0), tol=0.0)

    def test_deduplication(self):
        sols = shoot_candidates(HeisPoint(1.2, 0.3, 0.4))
        for a_idx, a in enumerate(sols):
            for b in sols[a_idx + 1 :]:
                d_phi = abs(a.spec.phi - b.spec.phi)
                d_phi = min(d_phi, TWO_PI - d_phi)
                gap = abs(a.spec.gamma - b.spec.gamma) + d_phi + abs(a.s - b.s)
                assert gap >= 1e-6


class TestRiemannianDistance:
    def test_coincident_points(self):
        p = HeisPoint(0.3, 0.4, -0.9)
        assert riemannian_distance(p, p) == 0.0

    def test_straight_segments(self):
        for s in (0.25, 0.6, 1.0):
            assert abs(riemannian_distance(ORIGIN, HeisPoint(s, 0, 0)) - s) < 1e-9

    def test_vertical_segment_regression(self):
        # Empirically (grid oracle) the vertical line is minimizing at this
        # scale; recorded as a regression value.
        d = riemannian_distance(ORIGIN, HeisPoint(0, 0, 0.5))
        assert abs(d - 0.5) < 1e-6
        oracle = brute_force_distance(HeisPoint(0, 0, 0.5), grid=(48, 16, 256), s_max=2.0)
        assert abs(oracle - 0.5) < 1e-4

    def test_tall_axis_target_beats_vertical(self):
        d = riemannian_distance(ORIGIN, HeisPoint(0, 0, 5 * math.pi / 2))
        assert abs(d - TWO_PI) < 1e-8

    def test_radial_isometry_at_small_scale(self):
        rng = np.random.default_rng(40)
        for _ in range(8):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            s = rng.uniform(0.02, 0.1)
            target = exp_map(ORIGIN, FrameVector(s * v[0], s * v[1], s * v[2]))
            assert abs(riemannian_distance(ORIGIN, target) - s) < 1e-6

    def test_symmetry(self):
        for p, q in zip(random_points(6, 41), random_points(6, 42)):
            assert abs(riemannian_distance(p, q) - riemannian_distance(q, p)) < 1e-9

    def test_left_invariance(self):
        rng = np.random.default_rng(43)
        for p, q in zip(random_points(5, 44), random_points(5, 45)):
            g = HeisPoint(*rng.uniform(-2, 2, 3))
            lhs = riemannian_distance(group_mul(g, p), group_mul(g, q))
            assert abs(lhs - riemannian_distance(p, q)) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-1e150, 1e150),
        st.floats(-1e150, 1e150),
        st.floats(-1e300, 1e300),
        st.floats(5e-324, math.pi),
    )
    def test_vertical_offsets_are_exact(self, x, y, z, h):
        # Up to pi the vertical line is the shortest path, so the distance is
        # the height difference itself, however large x * y is.
        p, q = HeisPoint(x, y, z), HeisPoint(x, y, z + h)
        assume(q.z - p.z <= math.pi)
        assert riemannian_distance(p, q) == q.z - p.z

    def test_agrees_with_oracle_on_random_targets(self):
        for target in random_points(6, 46):
            solver = riemannian_distance(ORIGIN, target)
            oracle = brute_force_distance(target, s_max=10.0)
            assert abs(solver - oracle) < 1e-3


class TestBruteForce:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            brute_force_distance(HeisPoint(1, 0, 0), grid=(8, 64, 64))

    def test_origin_short_circuit(self):
        assert brute_force_distance(ORIGIN) == 0.0

    def test_straight_target(self):
        got = brute_force_distance(HeisPoint(1, 0, 0), s_max=2.0)
        assert abs(got - 1.0) < 1e-4

    def test_axis_target_upper_bound(self):
        got = brute_force_distance(
            HeisPoint(0, 0, 5 * math.pi / 2), grid=(64, 16, 512), s_max=3 * math.pi
        )
        assert got <= TWO_PI + 1e-3
        assert got >= TWO_PI - 1e-3

    def test_refinement_monotonicity(self):
        target = HeisPoint(0.9, -0.2, 0.6)
        coarse = brute_force_distance(target, grid=(16, 16, 64), s_max=4.0)
        fine = brute_force_distance(target, grid=(32, 32, 128), s_max=4.0)
        # Both refine to near-exact connecting geodesics; the finer lattice
        # can only find the same branch or a shorter one, up to refinement
        # tolerance.
        assert fine <= coarse + 1e-4

    def test_unreachable_raises(self):
        with pytest.raises(TargetUnreachableError):
            brute_force_distance(HeisPoint(0, 0, 40.0), grid=(24, 16, 64), s_max=2.0)


class TestMetricAxioms:
    def test_riemannian_triangle_inequality_sample(self):
        pts = random_points(9, 47, box=1.5)
        for p, q, r in zip(pts[:3], pts[3:6], pts[6:]):
            d_pr = riemannian_distance(p, r)
            d_pq = riemannian_distance(p, q)
            d_qr = riemannian_distance(q, r)
            assert d_pr <= d_pq + d_qr + 1e-6

    def test_riemannian_dominated_by_segment_paths(self):
        # d(0, target) can never exceed arc length of any explicit geodesic
        # reaching the target.
        target = HeisPoint(0, 0, 5 * math.pi / 2)
        d = riemannian_distance(ORIGIN, target)
        for sol in shoot_candidates(target):
            assert d <= sol.s + 1e-12


def _mp_cut_time_distance(rho, z):
    """Distance from the origin to (rho, 0, z) by 60-digit bisection of F."""
    with mpmath.workdps(60):
        rho, z = mpmath.mpf(rho), abs(mpmath.mpf(z))

        def excess(w):
            sin_w = mpmath.sin(w)
            return w + rho**2 * (w - sin_w * mpmath.cos(w)) / (2 * sin_w**2) - z

        lo, hi = mpmath.mpf(0), mpmath.pi
        for _ in range(220):
            mid = (lo + hi) / 2
            if excess(mid) > 0:
                hi = mid
            else:
                lo = mid
        w = (lo + hi) / 2
        return float(w * mpmath.sqrt(1 + (rho / mpmath.sin(w)) ** 2))


class TestCutTimeSolver:
    def test_tall_axis_target_winds_once(self):
        # The vertical line (length 1e4) is far from minimizing; the circle
        # family returning to the axis at the cut time is.
        d = riemannian_distance(ORIGIN, HeisPoint(0, 0, 1e4))
        assert d == pytest.approx(math.sqrt(2 * math.pi * 1e4 - math.pi**2), rel=1e-14)
        assert 250.6431 < d < 250.6432

    def test_long_straight_segment(self):
        assert riemannian_distance(ORIGIN, HeisPoint(200, 0, 0)) == 200.0

    def test_tiny_target_respects_planar_bound(self):
        d = riemannian_distance(ORIGIN, HeisPoint(1e-6, 0, 1e-9))
        assert d == pytest.approx(1.0000004999998750e-6, rel=1e-15)
        assert d >= 1e-6

    @pytest.mark.parametrize("target", [(1e-5, 0, 1e4), (1e-7, 0, 50), (1e-3, 0, 1e6)])
    def test_near_axis_against_mpmath(self, target):
        d = riemannian_distance(ORIGIN, HeisPoint(*target))
        assert d == pytest.approx(_mp_cut_time_distance(target[0], target[2]), rel=1e-12)

    def test_batch_matches_single_calls(self):
        targets = np.array([[0.3, -0.2, 1.5], [0, 0, -4.0], [2.0, 1.0, 0.0], [0, 0, 0]])
        batch = riemannian_distance_many(targets)
        single = [riemannian_distance(ORIGIN, HeisPoint(*t)) for t in targets]
        assert batch.tolist() == single
        assert batch[-1] == 0.0

    def test_uncertifiable_tolerance_raises(self):
        with pytest.raises(ShootingConvergenceError, match="cannot certify"):
            riemannian_distance_many([[1.0, 0.0, 0.0]], tol=1e-30)
        with pytest.raises(ValueError):
            riemannian_distance_many([[1.0, 0.0, 0.0]], tol=0.0)

    @pytest.mark.parametrize("target", [(1e150, 0, 1e300), (2e154, 0, 0), (1e160, 0, 0.5)])
    def test_overflowing_targets_raise(self, target):
        # The squares of these coordinates overflow; a scale computed from
        # them would be inf and pass any endpoint.
        with pytest.raises(ShootingConvergenceError):
            riemannian_distance_many([target])
        # The tallest target is refused by the candidate bound first.
        with pytest.raises((ShootingConvergenceError, ValueError)):
            shoot_candidates(HeisPoint(*target))

    @pytest.mark.parametrize("length", [0.5, 1.0, 1.5])
    def test_length_bounds_are_certified(self, monkeypatch, length):
        # At tol = 0.9 a segment along x of length 0.5 or 1.5 hits the target
        # (1, 0, 0) closely enough, but only length 1 lies in 1 <= d <= 1.
        def segment(x, y, z):
            one = np.ones_like(x)
            return length * one, 0.0 * one, one, 0.0 * one

        monkeypatch.setattr("heisgeo.distances._cut_time_geodesics", segment)
        if length == 1.0:
            assert riemannian_distance_many([[1.0, 0.0, 0.0]], tol=0.9).tolist() == [1.0]
            return
        with pytest.raises(ShootingConvergenceError, match=r"cannot certify.*\[1.0, 1.0\]"):
            riemannian_distance_many([[1.0, 0.0, 0.0]], tol=0.9)

    def test_candidate_that_misses_raises(self, monkeypatch):
        # A winding geodesic that ends away from the target fails the
        # certificate it shares with the cut-time solution; it is not listed.
        def missing(rho, height):
            return np.array([2.0 * height]), np.array([0.6]), np.array([0.8])

        monkeypatch.setattr("heisgeo.distances._winding_geodesics", missing)
        with pytest.raises(ShootingConvergenceError, match="cannot certify.*length 20.0 "):
            shoot_candidates(HeisPoint(0.5, 0.2, 10.0))

    @pytest.mark.parametrize("target", [(0, 0, 1e4), (200, 0, 0), (1e-5, 0, -1e4)])
    def test_candidates_include_the_minimizer(self, target):
        sols = shoot_candidates(HeisPoint(*target))
        assert sols[0].s == riemannian_distance(ORIGIN, HeisPoint(*target))
        sol = sols[0]
        end = exp_map(
            ORIGIN,
            FrameVector(
                sol.s * sol.spec.r * math.cos(sol.spec.phi),
                sol.s * sol.spec.r * math.sin(sol.spec.phi),
                sol.s * sol.spec.gamma,
            ),
        )
        scale = max(1.0, math.sqrt(sum(c * c for c in target)))
        assert np.linalg.norm(end.as_array() - np.array(target, float)) <= 1e-8 * scale


_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def _targets(draw):
    """Targets at log-uniform scale lam in [1e-6, 1e4]: (lam a, lam b, lam^2 c).

    A third lie exactly on the z-axis and a third next to it, with planar
    distance down to 1e-12 of the height.
    """
    lam = 10.0 ** draw(st.floats(-6.0, 4.0))
    kind = draw(st.sampled_from(["generic", "axis", "near-axis"]))
    z = lam * lam * draw(_unit)
    if kind == "axis":
        return 0.0, 0.0, z
    angle = draw(st.floats(0.0, TWO_PI))
    if kind == "near-axis":
        rho = abs(z) * 10.0 ** draw(st.floats(-12.0, -3.0))
    else:
        rho = lam * abs(draw(_unit))
    return rho * math.cos(angle), rho * math.sin(angle), z


@st.composite
def _near_axis_targets(draw):
    """Planar distance log-uniform in [1e-16, 1e-12), |z| in [1e-6, pi]."""
    rho = 10.0 ** draw(st.floats(-16.0, -12.0, exclude_max=True))
    angle = draw(st.floats(0.0, TWO_PI))
    z = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-6.0, math.log10(math.pi)))
    return rho * math.cos(angle), rho * math.sin(angle), z


def _fold_target(factor, z):
    """A target factor * eps * d from the z-axis, d its distance (|z| > pi)."""
    rho = factor * EPS * math.sqrt(2.0 * math.pi * abs(z) - math.pi**2)
    return rho * math.cos(1.0), rho * math.sin(1.0), z


def _distance(x, y, z):
    return riemannian_distance(ORIGIN, HeisPoint(x, y, z))


class TestCutTimeProperties:
    @settings(max_examples=400, deadline=None)
    @given(_targets())
    def test_bounds(self, target):
        x, y, z = target
        rho = math.hypot(x, y)
        d = _distance(x, y, z)
        upper = rho + min(abs(z), math.sqrt(2.0 * math.pi * abs(z)))
        assert rho * (1 - 1e-12) <= d <= upper * (1 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(_targets(), st.floats(0.0, TWO_PI))
    @example((2.2250738585e-313, 0.0, 0.0), 5.75)
    def test_reflection_and_rotation_invariance(self, target, turn):
        # Rotation invariance in its exact form: d depends on (x, y) only
        # through rho = hypot(x, y).  Rotating a subnormal point changes its
        # rho, so the rotated point is checked against its own rho.
        x, y, z = target
        d = _distance(x, y, z)
        assert _distance(x, y, -z) == pytest.approx(d, rel=1e-14, abs=0.0)
        c, s = math.cos(turn), math.sin(turn)
        for u, v in ((x, y), (c * x - s * y, s * x + c * y)):
            on_axis = _distance(math.hypot(u, v), 0.0, z)
            assert _distance(u, v, z) == pytest.approx(on_axis, rel=1e-12, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e4, 1e4, allow_nan=False).filter(lambda v: v != 0.0))
    def test_straight_line(self, x):
        assert _distance(x, 0.0, 0.0) == abs(x)

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(*[st.floats(-5.0, 5.0)] * 3),
        st.tuples(*[st.floats(-5.0, 5.0)] * 3),
        st.tuples(*[st.floats(-3.0, 3.0)] * 3),
    )
    def test_left_invariance(self, p, q, g):
        p, q, g = HeisPoint(*p), HeisPoint(*q), HeisPoint(*g)
        d = riemannian_distance(p, q)
        assert riemannian_distance(group_mul(g, p), group_mul(g, q)) == pytest.approx(
            d, rel=1e-9, abs=1e-9
        )

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(*[st.floats(-3.0, 3.0)] * 3).filter(lambda t: t != (0.0, 0.0, 0.0)))
    @example((0.0, 5e-324, 5e-324))
    @example((1e-320, 0.0, 2.0))
    @example((1e-320, 0.0, 3.0))
    def test_agrees_with_enumeration(self, target):
        # No geodesic the enumeration finds is shorter.
        target = HeisPoint(*target)
        d = riemannian_distance(ORIGIN, target)
        assert shoot_candidates(target)[0].s == pytest.approx(d, rel=1e-9, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(_near_axis_targets(), st.sampled_from([1e-8, 1e-13]))
    @example((1e-13, 0.0, 0.5), 1e-14)
    @example((4.999999999999999e-13, 0.0, 2.0), 1e-13)
    @example((5e-13, 0.0, 5.0), 1e-14)
    @example(_fold_target(0.5, 5.0), 1e-14)
    @example(_fold_target(2.0, 5.0), 1e-14)
    @example(_fold_target(0.5, -50.0), 1e-14)
    @example(_fold_target(2.0, -50.0), 1e-14)
    @example(_fold_target(0.5, 1e3), 1e-14)
    @example(_fold_target(2.0, 1e3), 1e-14)
    @example(_fold_target(0.5, 1e5), 1e-14)
    @example(_fold_target(2.0, 1e5), 1e-14)
    # Window 1's first root rounds one unit below the distance here.
    @example((5.818148706004426e-16, 4.91832053394698e-16, 3.3227634215189643), 1e-8)
    def test_near_axis_candidates_start_with_the_distance(self, target, tol):
        # Up to one rounding unit of the distance from the axis (rho <= eps d)
        # the list is folded onto the axis; further out the windows are
        # solved.  Either way the shortest geodesic comes first, and every
        # geodesic certifies, even at a tol below the planar distance.
        sols = shoot_candidates(HeisPoint(*target), tol=tol)
        d = riemannian_distance_many([target], tol=tol)[0]
        assert sols[0].s == d
        rest = [sol.s for sol in sols[1:]]
        assert rest == sorted(rest)
        folded = math.hypot(target[0], target[1]) <= EPS * d
        assert all(sol.axis_family == folded for sol in sols)

    def test_exp_is_minimizing_up_to_the_cut_time(self):
        # Scale-free: unit-speed geodesics of length |v| in 1e-6..1e4, half
        # with the vertical component uniform on the unit sphere and half
        # with |gamma| |v| spread over [0, 3 pi].  d(0, exp(v)) never exceeds
        # |v|, equals it before the cut time pi / |gamma| and is shorter
        # after it.
        rng = np.random.default_rng(20)
        n = 20_000
        length = 10.0 ** rng.uniform(-6.0, 4.0, n)
        spread = np.minimum(1.0, rng.uniform(0.0, 3.0 * math.pi, n) / length)
        gamma = np.where(
            np.arange(n) % 2 == 0, rng.uniform(-1.0, 1.0, n), spread * rng.choice([-1, 1], n)
        )
        r = np.sqrt((1.0 - gamma) * (1.0 + gamma))
        end = origin_coordinates(r, rng.uniform(0.0, TWO_PI, n), gamma, length)
        d = riemannian_distance_many(np.column_stack(end))
        w = np.abs(gamma) * length
        assert np.all(d <= length * (1.0 + 1e-12))
        before = w <= math.pi * (1.0 - 1e-9)
        after = w >= math.pi * (1.0 + 1e-6)
        assert before.sum() > 1000 and after.sum() > 1000
        assert np.all(np.abs(d[before] - length[before]) <= 1e-12 * length[before])
        assert np.all(d[after] < length[after])


def _dense_count(rho, z, points=20001):
    """Geodesics to (rho, 0, z) counted as sign changes of F(w) - |z| on a
    dense grid of each window k pi < w < (k+1) pi, clustered at both ends."""
    u = np.linspace(0.0, 1.0, points)[1:-1]
    fraction = 0.5 * (1.0 - np.cos(np.pi * u))
    count = 0
    for k in range(int(abs(z) // math.pi) + 1):
        w = (k + fraction) * math.pi
        sin_w = np.sin(w)
        excess = w + rho**2 * (w - sin_w * np.cos(w)) / (2.0 * sin_w**2) - abs(z)
        count += int(np.count_nonzero(np.diff(np.sign(excess))))
    return count


@st.composite
def _enumeration_targets(draw):
    """|z| and the planar distance log-uniform in [1e-3, 1e3]; a third of
    the targets on the z-axis and a third next to it."""
    z = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["generic", "axis", "near-axis"]))
    if kind == "axis":
        return 0.0, 0.0, z
    if kind == "near-axis":
        rho = abs(z) * 10.0 ** draw(st.floats(-12.0, -3.0))
    else:
        rho = 10.0 ** draw(st.floats(-3.0, 3.0))
    angle = draw(st.floats(0.0, TWO_PI))
    return rho * math.cos(angle), rho * math.sin(angle), z


class TestEnumeration:
    @pytest.mark.parametrize("z", [-127.76, 246.33])
    def test_axis_counts(self, z):
        # One circle per return to the axis at w = k pi < |z|, and the
        # vertical line.
        sols = shoot_candidates(HeisPoint(0, 0, z))
        assert len(sols) == math.ceil(abs(z) / math.pi)
        assert abs(sols[-1].spec.gamma) == 1.0 and sols[-1].s == abs(z)

    @pytest.mark.parametrize(
        "rho, z, count", [(0.5, 20.0, 11), (1e-3, 40.0, 25), (0.3, 200.0, 121)]
    )
    def test_counts_match_dense_scan(self, rho, z, count):
        assert _dense_count(rho, z) == count
        assert len(shoot_candidates(HeisPoint(rho, 0, z))) == count

    def test_long_list_below_the_bound(self):
        # 2 |z| / pi = 63,662 is under the 10^6 that shoot_candidates lists.
        assert len(shoot_candidates(HeisPoint(1e-3, 0, 1e5))) == 63_661

    @settings(max_examples=200, deadline=None)
    @given(_enumeration_targets())
    def test_every_candidate_is_certified(self, target):
        sols = shoot_candidates(HeisPoint(*target))
        s = np.array([sol.s for sol in sols])
        ex, ey, ez = origin_coordinates(
            [sol.spec.r for sol in sols],
            [sol.spec.phi for sol in sols],
            [sol.spec.gamma for sol in sols],
            s,
        )
        miss = np.sqrt((ex - target[0]) ** 2 + (ey - target[1]) ** 2 + (ez - target[2]) ** 2)
        scale = max(1.0, math.sqrt(sum(c * c for c in target)))
        assert np.all(miss <= (1e-8 + EPS) * scale)
        assert np.all(np.diff(s) > 0.0)
        assert s[0] == riemannian_distance(ORIGIN, HeisPoint(*target))
