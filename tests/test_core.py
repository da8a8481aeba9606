"""Group algebra, metric, connection and curvature checks."""

from fractions import Fraction

import numpy as np
import pytest

from heisgeo.core import (
    ORIGIN,
    CoordVector,
    FrameVector,
    HeisPoint,
    _bracket_coord,
    commutator,
    connection_table,
    coord_to_frame,
    curvature_frame,
    frame_at,
    frame_bracket,
    frame_to_coord,
    group_inv,
    group_mul,
    inner_product,
    left_jacobian,
    left_quotient,
    metric_at,
    nabla,
    sectional_curvature,
)

from coordinate_oracle import curvature_operator_at, metric_matrix_at, sectional_at


def random_points(n, seed, box=2.0):
    rng = np.random.default_rng(seed)
    return [HeisPoint(*rng.uniform(-box, box, 3)) for _ in range(n)]


class TestGroupLaw:
    def test_product_example(self):
        assert group_mul(HeisPoint(1, 0, 0), HeisPoint(0, 1, 0)) == HeisPoint(1, 1, 1)

    def test_identity(self):
        p = HeisPoint(0.3, -1.2, 7.5)
        assert group_mul(ORIGIN, p) == p
        assert group_mul(p, ORIGIN) == p

    def test_translation_formulas(self):
        # Right translation by coordinate directions fixes the sign
        # convention of the cross term.
        p = HeisPoint(2.0, 3.0, 5.0)
        assert group_mul(p, HeisPoint(4, 0, 0)) == HeisPoint(6, 3, 5 - 4 * 3)
        assert group_mul(p, HeisPoint(0, 4, 0)) == HeisPoint(2, 7, 5 + 4 * 2)
        assert group_mul(p, HeisPoint(0, 0, 4)) == HeisPoint(2, 3, 9)

    def test_inverse_examples(self):
        assert group_inv(HeisPoint(1, 2, 3)) == HeisPoint(-1, -2, -3)
        assert group_inv(ORIGIN) == ORIGIN
        p = HeisPoint(1, 0, 5)
        assert group_mul(p, group_inv(p)) == ORIGIN

    def test_associativity_exact_on_integers(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c = (
                HeisPoint(*rng.integers(-9, 10, 3).astype(float)) for _ in range(3)
            )
            assert group_mul(group_mul(a, b), c) == group_mul(a, group_mul(b, c))

    def test_associativity_random_floats(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b, c = (HeisPoint(*rng.uniform(-3, 3, 3)) for _ in range(3))
            lhs = group_mul(group_mul(a, b), c).as_array()
            rhs = group_mul(a, group_mul(b, c)).as_array()
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_small_height_is_kept(self):
        # The cross term is summed before it meets the heights.
        got = group_mul(HeisPoint(-1.0, -1.0, 0.0), HeisPoint(1.0, 1.0, 1e-20))
        assert got == HeisPoint(0.0, 0.0, 1e-20)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            HeisPoint(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            HeisPoint(0.0, float("inf"), 0.0)


class TestLeftQuotient:
    def test_is_the_inverse_times_the_point_on_integers(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p, q = (HeisPoint(*rng.integers(-9, 10, 3).astype(float)) for _ in range(2))
            assert left_quotient(p, q) == group_mul(group_inv(p), q)

    def test_origin_only_for_equal_points(self):
        for p in random_points(20, 8):
            assert left_quotient(p, p) == ORIGIN
            q = HeisPoint(p.x, p.y, np.nextafter(p.z, np.inf))
            assert left_quotient(p, q) != ORIGIN

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_nearby_pairs_match_exact_arithmetic(self, scale):
        # The differences are rounded once each and the error of the height
        # is a few units of |dz| + |p.y dx| + |p.x dy|, which is small next
        # to the products p.x q.y of the group law at every offset.
        eps = Fraction(np.finfo(float).eps)
        rng = np.random.default_rng(9)
        for _ in range(400):
            p = HeisPoint(*scale * rng.uniform(-1, 1, 3))
            step = 10.0 ** rng.uniform(-9, -3, 3) * rng.choice([-1.0, 1.0], 3)
            planar = rng.random() < 0.5
            q = HeisPoint(p.x + planar * step[0] * scale, p.y + planar * step[1] * scale,
                          p.z + step[2] * scale**2)
            dx = Fraction(q.x) - Fraction(p.x)
            dy = Fraction(q.y) - Fraction(p.y)
            dz = Fraction(q.z) - Fraction(p.z)
            exact_z = dz + Fraction(p.y) * dx - Fraction(p.x) * dy
            got = left_quotient(p, q)
            assert (got.x, got.y) == (float(dx), float(dy))
            if not planar:
                assert got.z == float(dz)
            bound = 4 * eps * (abs(dz) + abs(p.y * dx) + abs(p.x * dy))
            assert abs(Fraction(got.z) - exact_z) <= bound


class TestCommutator:
    def test_pinned_value(self):
        assert commutator(HeisPoint(1, 0, 0), HeisPoint(0, 1, 0)) == HeisPoint(0, 0, 2)

    def test_parallel_planar_parts_commute(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c, d = rng.uniform(-2, 2, 4)
            got = commutator(HeisPoint(a, b, c), HeisPoint(a, b, d))
            assert abs(got.x) < 1e-14 and abs(got.y) < 1e-14 and abs(got.z) < 1e-12

    def test_commutator_is_central(self):
        for p, q in zip(random_points(100, 4), random_points(100, 5)):
            k = commutator(p, q)
            assert k.x == 0.0 and k.y == 0.0

    def test_triple_commutators_vanish(self):
        pts = random_points(300, 6)
        for p, q, r in zip(pts[:100], pts[100:200], pts[200:]):
            inner = commutator(p, q)
            outer = commutator(inner, r).as_array()
            assert np.max(np.abs(outer)) < 1e-12


class TestFrameAndMetric:
    def test_frame_at_origin(self):
        X, Y, T = frame_at(ORIGIN)
        assert X == CoordVector(1, 0, 0)
        assert Y == CoordVector(0, 1, 0)
        assert T == CoordVector(0, 0, 1)

    def test_frame_substitution(self):
        X, Y, T = frame_at(HeisPoint(2, 3, 7))
        assert X == CoordVector(1, 0, -3)
        assert Y == CoordVector(0, 1, 2)
        assert T == CoordVector(0, 0, 1)

    def test_frame_independent(self):
        for p in random_points(20, 7):
            stack = np.array([v.as_array() for v in frame_at(p)])
            assert abs(np.linalg.det(stack) - 1.0) < 1e-14

    @pytest.mark.parametrize(
        "v, want", [((3e-162, 4e-162, 0), 5e-162), ((1e-170, 0, 0), 1e-170), ((1e200, 0, 0), 1e200)]
    )
    def test_frame_norm_at_extreme_scales(self, v, want):
        # The sum of squares underflows or overflows at these scales.
        assert FrameVector(*v).norm() == pytest.approx(want, rel=1e-15)

    def test_metric_at_origin_is_identity(self):
        assert np.array_equal(metric_at(ORIGIN).entries, np.eye(3))

    def test_metric_substitution(self):
        expected = np.array([[5, -2, 2], [-2, 2, -1], [2, -1, 1]], dtype=float)
        assert np.array_equal(metric_at(HeisPoint(1, 2, -4.5)).entries, expected)

    def test_gram_matrix_is_identity(self):
        for p in random_points(50, 8):
            g = metric_at(p).entries
            stack = np.array([v.as_array() for v in frame_at(p)])
            gram = stack @ g @ stack.T
            assert np.max(np.abs(gram - np.eye(3))) < 1e-12

    def test_unit_determinant_and_positive_definite(self):
        for p in random_points(50, 9, box=5.0):
            g = metric_at(p).entries
            assert abs(np.linalg.det(g) - 1.0) < 1e-10
            assert g[0, 0] > 0
            assert np.linalg.det(g[:2, :2]) > 0
            assert np.linalg.det(g) > 0

    def test_metric_matches_oracle(self):
        for p in random_points(10, 10):
            assert np.max(np.abs(metric_at(p).entries - metric_matrix_at(p))) < 1e-12

    def test_left_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = HeisPoint(*rng.uniform(-2, 2, 3))
            p = HeisPoint(*rng.uniform(-2, 2, 3))
            u = rng.uniform(-1, 1, 3)
            v = rng.uniform(-1, 1, 3)
            jac = left_jacobian(g)
            gp = group_mul(g, p)
            lhs = (jac @ u) @ metric_at(gp).entries @ (jac @ v)
            rhs = u @ metric_at(p).entries @ v
            assert abs(lhs - rhs) < 1e-10

    def test_inner_product_examples(self):
        assert inner_product(ORIGIN, CoordVector(1, 0, 0), CoordVector(1, 0, 0)) == 1.0
        p = HeisPoint(1, 2, 0)
        assert inner_product(p, CoordVector(1, 0, 0), CoordVector(1, 0, 0)) == 5.0
        for q in random_points(20, 12):
            X, Y, _ = frame_at(q)
            assert abs(inner_product(q, X, Y)) < 1e-12


class TestBasisConversion:
    def test_identity_at_origin(self):
        v = FrameVector(0.3, -0.7, 1.1)
        assert frame_to_coord(ORIGIN, v) == CoordVector(0.3, -0.7, 1.1)

    def test_substitution(self):
        got = frame_to_coord(HeisPoint(2, 3, 0), FrameVector(1, 0, 0))
        assert got == CoordVector(1, 0, -3)

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = HeisPoint(*rng.uniform(-2, 2, 3))
            v = FrameVector(*rng.uniform(-2, 2, 3))
            back = coord_to_frame(p, frame_to_coord(p, v))
            assert np.max(np.abs(back.as_array() - v.as_array())) < 1e-14

    def test_frame_vectors_convert_to_frame_fields(self):
        for p in random_points(10, 14):
            X, Y, T = frame_at(p)
            assert frame_to_coord(p, FrameVector(1, 0, 0)) == X
            assert frame_to_coord(p, FrameVector(0, 1, 0)) == Y
            assert frame_to_coord(p, FrameVector(0, 0, 1)) == T


class TestConnection:
    def test_table_entries(self):
        assert nabla(1, 2) == FrameVector(0, 0, 1)
        assert nabla(1, 1) == FrameVector(0, 0, 0)
        assert nabla(2, 3) == FrameVector(1, 0, 0)
        assert nabla(2, 1) == FrameVector(0, 0, -1)
        assert nabla(1, 3) == FrameVector(0, -1, 0)
        assert nabla(3, 1) == FrameVector(0, -1, 0)
        assert nabla(3, 2) == FrameVector(1, 0, 0)

    def test_names_accepted(self):
        assert nabla("X", "Y") == nabla(1, 2)
        assert nabla("y", "t") == nabla(2, 3)
        assert connection_table().entry("T", "X") == nabla(3, 1)

    def test_index_errors(self):
        with pytest.raises(IndexError):
            nabla(0, 1)
        with pytest.raises(IndexError):
            nabla(1, 4)
        with pytest.raises(IndexError):
            nabla("Q", 1)

    def test_brackets(self):
        assert frame_bracket(1, 2) == FrameVector(0, 0, 2)
        assert frame_bracket(1, 3) == FrameVector(0, 0, 0)
        assert frame_bracket(2, 3) == FrameVector(0, 0, 0)
        assert frame_bracket(2, 2) == FrameVector(0, 0, 0)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                lhs = frame_bracket(i, j).as_array()
                rhs = -frame_bracket(j, i).as_array()
                assert np.array_equal(lhs, rhs)

    def test_bracket_fields_are_position_independent(self):
        # The affine derivation leaves a linear-in-position part; for this
        # frame it cancels identically.
        for i in range(3):
            for j in range(3):
                _, lin = _bracket_coord(i, j)
                assert np.array_equal(lin, np.zeros((3, 3)))

    def test_torsion_free(self):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                diff = nabla(i, j).as_array() - nabla(j, i).as_array()
                assert np.array_equal(diff, frame_bracket(i, j).as_array())

    def test_metric_compatibility(self):
        # Frame inner products are constants, so compatibility reduces to
        # <nabla_i E_j, E_k> + <E_j, nabla_i E_k> = 0, exact in floats.
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    lhs = nabla(i, j).as_array()[k - 1] + nabla(i, k).as_array()[j - 1]
                    assert lhs == 0.0


class TestCurvature:
    def test_pinned_values(self):
        assert curvature_frame(1, 2, 2) == FrameVector(-3, 0, 0)
        assert curvature_frame(1, 1, 2) == FrameVector(0, 0, 0)
        assert curvature_frame(1, 3, 3) == FrameVector(1, 0, 0)
        assert curvature_frame(2, 3, 3) == FrameVector(0, 1, 0)

    def test_sectional_values(self):
        assert sectional_curvature(1, 2) == -3.0
        assert sectional_curvature(1, 3) == 1.0
        assert sectional_curvature(2, 3) == 1.0
        assert sectional_curvature("X", "Y") == -3.0

    def test_sectional_rejects_equal_indices(self):
        with pytest.raises(ValueError):
            sectional_curvature(2, 2)

    def test_antisymmetry_in_first_pair(self):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    lhs = curvature_frame(i, j, k).as_array()
                    rhs = -curvature_frame(j, i, k).as_array()
                    assert np.array_equal(lhs, rhs)

    def test_pair_symmetry(self):
        # <R(E_i,E_j)E_k, E_l> = <R(E_k,E_l)E_i, E_j>
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    for l in (1, 2, 3):
                        lhs = curvature_frame(i, j, k).as_array()[l - 1]
                        rhs = curvature_frame(k, l, i).as_array()[j - 1]
                        assert lhs == rhs

    def test_frame_curvature_matches_coordinate_oracle(self):
        # Two fully independent derivations: the frame table from the
        # connection constants versus Christoffel symbols of the metric.
        for p in random_points(12, 15):
            frame_coords = [v.as_array() for v in frame_at(p)]
            g = metric_at(p).entries
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        expected = curvature_operator_at(
                            p, frame_coords[i], frame_coords[j], frame_coords[k]
                        )
                        got = frame_to_coord(
                            p, curvature_frame(i + 1, j + 1, k + 1)
                        ).as_array()
                        assert np.max(np.abs(got - expected)) < 1e-10
            del g

    def test_sectional_matches_coordinate_oracle(self):
        for p in random_points(12, 16):
            frame_coords = [v.as_array() for v in frame_at(p)]
            for i, j in ((0, 1), (0, 2), (1, 2)):
                oracle = sectional_at(p, frame_coords[i], frame_coords[j])
                assert abs(oracle - sectional_curvature(i + 1, j + 1)) < 1e-10
