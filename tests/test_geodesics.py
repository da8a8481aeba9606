"""Closed-form geodesics against the integrator and high-precision values."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from heisgeo.core import ORIGIN, FrameVector, HeisPoint, inner_product
from heisgeo.geodesics import (
    GeodesicSpec,
    _sin_defect,
    _sinc,
    exp_map,
    geodesic_from_origin,
    geodesic_from_point,
    integrate_geodesic,
    integrate_geodesic_batch,
    origin_coordinates,
    velocity_frame_at,
)

TWO_PI = 2.0 * math.pi


def direct_high_precision(gamma, phi, s):
    """Direct evaluation of the closed form with 50-digit arithmetic.

    Uses the raw division-by-gamma expressions, which are exact in exact
    arithmetic; serves as the reference for the numerically stable rewrite.
    """
    with mp.workdps(50):
        gamma = mp.mpf(gamma)
        phi = mp.mpf(phi)
        s = mp.mpf(s)
        r = mp.sqrt(1 - gamma**2)
        if gamma == 0:
            return float(r * s * mp.cos(phi)), float(r * s * mp.sin(phi)), 0.0
        x = r / (2 * gamma) * (mp.sin(2 * gamma * s + phi) - mp.sin(phi))
        y = r / (2 * gamma) * (mp.cos(phi) - mp.cos(2 * gamma * s + phi))
        z = (1 + gamma**2) / (2 * gamma) * s - (1 - gamma**2) / (
            4 * gamma**2
        ) * mp.sin(2 * gamma * s)
        return float(x), float(y), float(z)


class TestSpecValidation:
    def test_unit_speed_enforced(self):
        with pytest.raises(ValueError):
            GeodesicSpec(r=1.0, phi=0.0, gamma=0.5)

    def test_r_nonnegative(self):
        with pytest.raises(ValueError):
            GeodesicSpec(r=-1.0, phi=0.0, gamma=0.0)

    @pytest.mark.parametrize("gamma", [1.5, -1.0 - 1e-11])
    def test_gamma_above_one_rejected(self, gamma):
        with pytest.raises(ValueError, match=r"\|gamma\| must not exceed 1"):
            GeodesicSpec(r=0.0, gamma=gamma)
        with pytest.raises(ValueError, match=r"\|gamma\| must not exceed 1"):
            GeodesicSpec.from_direction(gamma)

    def test_gamma_within_rounding_of_one_is_clamped(self):
        for gamma in (1.0 + 1e-13, -1.0 - 1e-13):
            got = GeodesicSpec.from_direction(gamma, phi=2.0)
            assert got == GeodesicSpec.from_direction(math.copysign(1.0, gamma))

    def test_phi_normalized(self):
        spec = GeodesicSpec.from_direction(0.0, phi=-math.pi / 2)
        assert 0.0 <= spec.phi < TWO_PI
        assert abs(spec.phi - 3 * math.pi / 2) < 1e-15

    def test_vertical_direction_gets_zero_phi(self):
        spec = GeodesicSpec.from_direction(1.0, phi=2.3)
        assert spec.r == 0.0 and spec.phi == 0.0

    def test_initial_velocity_is_unit(self):
        for gamma in (-0.99, -0.4, 0.0, 0.7, 1.0):
            spec = GeodesicSpec.from_direction(gamma, phi=1.0)
            assert abs(spec.initial_velocity().norm() - 1.0) < 1e-12


class TestVelocity:
    def test_vertical_velocity_constant(self):
        spec = GeodesicSpec.from_direction(1.0)
        for s in (0.0, 1.7, 40.0):
            assert velocity_frame_at(spec, s) == FrameVector(0, 0, 1)

    def test_horizontal_velocity_constant(self):
        spec = GeodesicSpec.from_direction(0.0, phi=0.0)
        for s in (0.0, 1.0, 9.5):
            v = velocity_frame_at(spec, s)
            assert v.a == 1.0 and v.b == 0.0 and v.c == 0.0

    def test_rotation_value(self):
        # At gamma = 1/2, phi = 0 the planar part has turned by 2*gamma*s
        # = pi after arc length pi.
        spec = GeodesicSpec.from_direction(0.5)
        v = velocity_frame_at(spec, math.pi)
        assert abs(v.a + math.sqrt(3) / 2) < 1e-15
        assert abs(v.b) < 1e-15
        assert v.c == 0.5

    def test_rotation_against_integrator(self):
        spec = GeodesicSpec.from_direction(0.5)
        samples = integrate_geodesic(spec, math.pi, 4000)
        got = samples[-1].velocity_frame.as_array()
        want = velocity_frame_at(spec, math.pi).as_array()
        assert np.max(np.abs(got - want)) < 1e-10

    def test_finite_difference_rotation_law(self):
        # Central differences of the frame velocity reproduce the rotation
        # system (alpha', beta', gamma') = (-2 g b, 2 g a, 0).
        h = 1e-5
        for gamma in (-0.8, -0.3, 0.2, 0.9):
            spec = GeodesicSpec.from_direction(gamma, phi=0.4)
            for s in (0.5, 2.0, 7.0):
                plus = velocity_frame_at(spec, s + h).as_array()
                minus = velocity_frame_at(spec, s - h).as_array()
                deriv = (plus - minus) / (2 * h)
                here = velocity_frame_at(spec, s)
                want = np.array([-2 * gamma * here.b, 2 * gamma * here.a, 0.0])
                assert np.max(np.abs(deriv - want)) < 1e-6


class TestClosedForm:
    def test_vertical_line(self):
        spec = GeodesicSpec.from_direction(1.0)
        for s in (0.1, 3.7, 25.0):
            p = geodesic_from_origin(spec, s)
            assert p.x == 0.0 and p.y == 0.0
            assert abs(p.z - s) < 1e-12 * max(1.0, s)
        down = GeodesicSpec.from_direction(-1.0)
        p = geodesic_from_origin(down, 2.0)
        assert p.x == 0.0 and p.y == 0.0 and abs(p.z + 2.0) < 1e-12

    def test_horizontal_line(self):
        spec = GeodesicSpec.from_direction(0.0, phi=0.0)
        for s in (0.25, 1.0, 8.0):
            assert geodesic_from_origin(spec, s) == HeisPoint(s, 0, 0)

    def test_axis_return_value(self):
        spec = GeodesicSpec.from_direction(0.5, phi=0.0)
        p = geodesic_from_origin(spec, TWO_PI)
        assert abs(p.x) < 1e-12 and abs(p.y) < 1e-12
        assert abs(p.z - 5 * math.pi / 2) < 1e-12

    def test_requires_origin_base(self):
        spec = GeodesicSpec.from_direction(0.5, base=HeisPoint(1, 0, 0))
        with pytest.raises(ValueError):
            geodesic_from_origin(spec, 1.0)

    def test_against_high_precision_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            gamma = rng.uniform(-1, 1)
            phi = rng.uniform(0, TWO_PI)
            s = rng.uniform(0, 10)
            spec = GeodesicSpec.from_direction(gamma, phi)
            got = geodesic_from_origin(spec, s).as_array()
            want = np.array(direct_high_precision(gamma, phi, s))
            assert np.max(np.abs(got - want)) < 1e-11

    def test_small_gamma_band_matches_reference(self):
        # The rewrite stays accurate where the raw expressions lose digits.
        for gamma in (1e-4 - 1e-6, 1e-4, 1e-4 + 1e-6, 1e-6, 1e-9, -1e-5):
            for s in (0.3, 3.0, 10.0):
                got = np.array(origin_coordinates(
                    math.sqrt(1 - gamma * gamma), 0.7, gamma, s
                ))
                want = np.array(direct_high_precision(gamma, 0.7, s))
                assert np.max(np.abs(got - want)) < 1e-12

    def test_gamma_limit_matches_straight_line(self):
        gamma = 1e-12
        spec = GeodesicSpec.from_direction(gamma, phi=0.7)
        line = GeodesicSpec.from_direction(0.0, phi=0.7)
        for s in (0.5, 2.0, 10.0):
            a = geodesic_from_origin(spec, s).as_array()
            b = geodesic_from_origin(line, s).as_array()
            assert np.max(np.abs(a - b)) < 1e-9

    def test_planar_return(self):
        # The planar projection closes at s = pi/|gamma|; chord length is
        # |r/gamma| * |sin(gamma s)| in between.
        for gamma in (-0.75, -0.5, 0.3, 0.5, 0.95):
            spec = GeodesicSpec.from_direction(gamma, phi=1.1)
            s_return = math.pi / abs(gamma)
            p = geodesic_from_origin(spec, s_return)
            assert math.hypot(p.x, p.y) < 1e-9
            for s in (0.3 * s_return, 0.7 * s_return):
                p = geodesic_from_origin(spec, s)
                want = abs(spec.r / gamma * math.sin(gamma * s))
                assert abs(math.hypot(p.x, p.y) - want) < 1e-9


class TestOriginCoordinates:
    @pytest.mark.parametrize(
        "shapes, full",
        [
            # A sphere's gamma rows (n_gamma, 1) against its phi circle.
            (((7, 1), (12,), (7, 1), ()), (7, 12)),
            # The oracle's lattice: gamma, phi and s on their own axes.
            (((64, 1, 1), (1, 64, 1), (64, 1, 1), (512,)), (64, 64, 512)),
        ],
    )
    def test_narrow_height_is_broadcast(self, shapes, full):
        rng = np.random.default_rng(23)
        gamma = rng.uniform(-1.0, 1.0, shapes[2])
        r = np.sqrt(1.0 - gamma * gamma)
        phi = rng.uniform(0.0, TWO_PI, shapes[1])
        s = rng.uniform(0.0, 10.0, shapes[3])
        out = origin_coordinates(r, phi, gamma, s)
        for a in out:
            assert a.shape == full and a.flags.c_contiguous
        # z does not depend on phi: every phi sees the same heights.
        assert (out[2] == out[2][:, :1]).all()

    @pytest.mark.parametrize("s", [1e35, 1e103])
    def test_huge_arc_length_does_not_warn(self, s):
        # s**3 overflows past ~5.6e102: z turns non-finite, with no warning
        # (a RuntimeWarning fails the suite).
        x, y, z = origin_coordinates(0.6, 0.3, 0.8, s)
        assert np.isfinite([x, y]).all() and np.isfinite(z) == (s < 5.6e102)

    def test_scalars_match_arrays(self):
        # One value takes the scalar branches (only the form it needs);
        # an array takes the masks.  Both give the same bits, including at
        # the series' edge |w| = 0.5, at 0 and at subnormal and huge w.
        w = np.concatenate([
            np.linspace(-4.0, 4.0, 4001),
            [0.5, -0.5, math.nextafter(0.5, 0.0), 5e-324, 1e-300, 1e-8, 1e150],
        ])
        for f in (_sinc, _sin_defect):
            with np.errstate(over="ignore", invalid="ignore"):
                batch = f(w)
                alone = np.array([f(float(v)) for v in w])
            assert alone.tobytes() == batch.tobytes()
        # Arc lengths whose cubes the C library's pow and numpy's ufunc round
        # differently in some last bits.
        rng = np.random.default_rng(24)
        gamma = rng.uniform(-1.0, 1.0, 200)
        r = np.sqrt((1.0 - gamma) * (1.0 + gamma))
        phi = rng.uniform(0.0, TWO_PI, 200)
        s = rng.uniform(0.0, 10.0, 200)
        batch = np.column_stack(origin_coordinates(r, phi, gamma, s))
        alone = np.array([origin_coordinates(*args) for args in zip(r, phi, gamma, s)])
        assert alone.tobytes() == batch.tobytes()


class TestFromPoint:
    def test_base_at_zero_arc_length(self):
        base = HeisPoint(1, 2, 3)
        spec = GeodesicSpec.from_direction(0.37, phi=0.9, base=base)
        assert geodesic_from_point(spec, 0.0) == base

    def test_vertical_from_center_translate(self):
        spec = GeodesicSpec.from_direction(1.0, base=HeisPoint(0, 0, 5))
        for s in (0.5, 2.0):
            assert geodesic_from_point(spec, s) == HeisPoint(0, 0, 5 + s)

    def test_translated_line_picks_up_cross_term(self):
        spec = GeodesicSpec.from_direction(0.0, phi=math.pi / 2, base=HeisPoint(1, 0, 0))
        p = geodesic_from_point(spec, 1.0)
        assert np.max(np.abs(p.as_array() - np.array([1.0, 1.0, 1.0]))) < 1e-15

    def test_matches_integration_from_base(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            base = HeisPoint(*rng.uniform(-1.5, 1.5, 3))
            gamma = rng.uniform(-0.95, 0.95)
            phi = rng.uniform(0, TWO_PI)
            spec = GeodesicSpec.from_direction(gamma, phi, base=base)
            s_max = 4.0
            samples = integrate_geodesic(spec, s_max, 8000)
            closed = geodesic_from_point(spec, s_max).as_array()
            assert np.max(np.abs(samples[-1].point.as_array() - closed)) < 1e-7


class TestExpMap:
    def test_zero_vector(self):
        assert exp_map(ORIGIN, FrameVector(0, 0, 0)) == ORIGIN
        base = HeisPoint(1, -2, 0.5)
        assert exp_map(base, FrameVector(0, 0, 0)) == base

    def test_vertical(self):
        for tau in (0.5, 2.5, 7.0):
            p = exp_map(ORIGIN, FrameVector(0, 0, tau))
            assert p.x == 0.0 and p.y == 0.0 and abs(p.z - tau) < 1e-12 * max(1, tau)

    def test_non_unit_vector_normalization(self):
        # exp(base, s*v) for unit v equals the geodesic at arc length s.
        spec = GeodesicSpec.from_direction(0.6, phi=0.3)
        v = spec.initial_velocity()
        s = 2.4
        scaled = FrameVector(s * v.a, s * v.b, s * v.c)
        got = exp_map(ORIGIN, scaled)
        want = geodesic_from_origin(spec, s)
        assert np.max(np.abs(got.as_array() - want.as_array())) < 1e-12

    @pytest.mark.parametrize("v", [(1e-170, 0.0, 0.0), (3e-162, 4e-162, 0.0)])
    def test_tiny_vector(self, v):
        # |v|^2 underflows at these lengths.
        p = exp_map(ORIGIN, FrameVector(*v))
        assert p.as_array() == pytest.approx(v, rel=4e-16, abs=0.0)

    def test_xt_plane_grid_matches_closed_form(self):
        for theta in np.linspace(0, TWO_PI, 9, endpoint=False):
            for s in (0.5, 1.5, 3.0):
                v = FrameVector(s * math.cos(theta), 0.0, s * math.sin(theta))
                got = exp_map(ORIGIN, v)
                planar = abs(math.cos(theta))
                phi = 0.0 if math.cos(theta) >= 0 else math.pi
                spec = GeodesicSpec(r=planar, phi=phi, gamma=math.sin(theta))
                want = geodesic_from_origin(spec, s)
                assert np.max(np.abs(got.as_array() - want.as_array())) < 1e-12


class TestIntegrator:
    def test_validation(self):
        spec = GeodesicSpec.from_direction(0.5)
        with pytest.raises(ValueError):
            integrate_geodesic(spec, 1.0, 0)
        with pytest.raises(ValueError):
            integrate_geodesic(spec, -1.0, 10)

    def test_linear_case_exact(self):
        spec = GeodesicSpec.from_direction(0.0, phi=0.0)
        samples = integrate_geodesic(spec, 1.0, 100)
        end = samples[-1].point.as_array()
        assert np.max(np.abs(end - np.array([1.0, 0.0, 0.0]))) < 1e-12

    def test_axis_return_agreement(self):
        spec = GeodesicSpec.from_direction(0.5, phi=0.0)
        samples = integrate_geodesic(spec, TWO_PI, 10_000)
        end = samples[-1].point.as_array()
        want = np.array([0.0, 0.0, 5 * math.pi / 2])
        assert np.max(np.abs(end - want)) < 1e-8

    def test_speed_conserved(self):
        spec = GeodesicSpec.from_direction(0.5, phi=0.0)
        samples = integrate_geodesic(spec, TWO_PI, 2000)
        for sample in samples[::100]:
            v = sample.velocity_frame
            assert abs(v.a**2 + v.b**2 + v.c**2 - 1.0) < 1e-10

    def test_sample_count_and_endpoints(self):
        spec = GeodesicSpec.from_direction(-0.3, phi=2.0)
        samples = integrate_geodesic(spec, 3.0, 50)
        assert len(samples) == 51
        assert samples[0].s == 0.0 and samples[-1].s == 3.0
        assert samples[0].point == ORIGIN

    def test_velocity_coord_consistency(self):
        spec = GeodesicSpec.from_direction(0.7, phi=1.0)
        for sample in integrate_geodesic(spec, 5.0, 500)[::50]:
            vf = sample.velocity_frame
            vc = sample.velocity_coord
            expected_w = vf.c - vf.a * sample.point.y + vf.b * sample.point.x
            assert vc.u == vf.a and vc.v == vf.b
            assert abs(vc.w - expected_w) < 1e-15

    def test_unit_speed_under_metric(self):
        spec = GeodesicSpec.from_direction(-0.6, phi=0.8)
        for sample in integrate_geodesic(spec, 6.0, 3000)[::200]:
            speed = inner_product(sample.point, sample.velocity_coord, sample.velocity_coord)
            assert abs(speed - 1.0) < 1e-9

    def test_closed_form_agreement_on_parameter_grid(self):
        gammas = [-0.9, -0.5, -0.1, 0.0, 0.2, 0.6, 0.99]
        phis = [0.0, math.pi / 3, math.pi, 1.9 * math.pi]
        pairs = [(g, f) for g in gammas for f in phis]
        g_arr = np.array([p[0] for p in pairs])
        f_arr = np.array([p[1] for p in pairs])
        s_values, states = integrate_geodesic_batch(g_arr, f_arr, 10.0, 4000)
        r_arr = np.sqrt(1 - g_arr**2)
        x, y, z = origin_coordinates(
            r_arr[None, :], f_arr[None, :], g_arr[None, :], s_values[:, None]
        )
        closed = np.stack([x, y, z], axis=-1)
        err = np.max(np.abs(states[:, :, :3] - closed))
        assert err < 1e-7

    @pytest.mark.parametrize(
        "run",
        [
            lambda: integrate_geodesic_batch(0.5, 0.0, 1e100, 1000),
            lambda: integrate_geodesic(GeodesicSpec.from_direction(0.5), 1e100, 1000),
        ],
        ids=["batch", "single"],
    )
    def test_nonfinite_guard_message(self, run):
        # A step far beyond RK4's stability limit overflows; the error is
        # the only signal, with no numpy warning (or float OverflowError)
        # before it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="non-finite state"):
                run()

    def test_bases_broadcast_to_the_batch(self):
        gammas, phis = [0.3, -0.6], [0.0, 1.0]
        for bad in (np.zeros((2, 2)), np.zeros((3, 3))):
            with pytest.raises(ValueError):
                integrate_geodesic_batch(gammas, phis, 1.0, 10, bases=bad)
        base = np.array([1.0, -2.0, 0.5])
        _, shared = integrate_geodesic_batch(gammas, phis, 1.0, 10, bases=base)
        _, stacked = integrate_geodesic_batch(gammas, phis, 1.0, 10, bases=np.tile(base, (2, 1)))
        assert np.array_equal(shared, stacked)

    @pytest.mark.parametrize(
        "batch, single", [(1, False), (64, False), (1, True)], ids=["1", "64", "single"]
    )
    def test_states_match_the_unbuffered_loop(self, batch, single):
        rng = np.random.default_rng(batch)
        gammas = rng.uniform(-1.0, 1.0, batch)
        gammas[0] = -0.0
        phis = rng.uniform(-4.0, 4.0, batch)
        bases = rng.normal(0.0, 3.0, (batch, 3))
        if single:
            spec = GeodesicSpec.from_direction(gammas[0], phis[0], HeisPoint(*bases[0]))
            phis = np.array([spec.phi])  # normalized into [0, 2pi)
            samples = integrate_geodesic(spec, 9.0, 2000)
            s_values = np.array([sample.s for sample in samples])
            states = np.array(
                [[*sample.point.as_array(), *sample.velocity_frame.as_array()] for sample in samples]
            )[:, None, :]
        else:
            s_values, states = integrate_geodesic_batch(gammas, phis, 9.0, 2000, bases=bases)
        assert np.array_equal(s_values, np.linspace(0.0, 9.0, 2001))
        want = _unbuffered_rk4(gammas, phis, bases, 9.0 / 2000, 2000)
        assert np.array_equal(states, want)
        assert np.array_equal(np.signbit(states), np.signbit(want))


def _unbuffered_rk4(gammas, phis, bases, h, n_steps):
    """RK4 with a fresh array per stage on (B, 6) states, as first written."""

    def rhs(state):
        x, y, _z, a, b, g = (state[..., i] for i in range(6))
        out = np.empty_like(state)
        out[..., 0] = a
        out[..., 1] = b
        out[..., 2] = g - a * y + b * x
        out[..., 3] = -2.0 * g * b
        out[..., 4] = 2.0 * g * a
        out[..., 5] = 0.0
        return out

    r = np.sqrt(np.clip(1.0 - gammas**2, 0.0, None))
    state = np.column_stack([bases, r * np.cos(phis), r * np.sin(phis), gammas])
    out = [state]
    for _ in range(n_steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(state)
    return np.stack(out)
