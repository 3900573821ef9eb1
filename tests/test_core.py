"""Rotation algebra, homomorphism, Euler factorizations, frames, geodesic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaxial import (
    IDENTITY,
    InvalidAxisError,
    InvalidFrameError,
    InvalidRotationError,
    Su2Element,
    compose,
    euler_zyz,
    frame_for,
    from_so3,
    generalized_euler,
    geodesic,
    inverse,
    negate,
    normalize_angle,
    quat_distance,
    rot,
    to_so3,
    unit_axis,
)
from biaxial.core import from_euler_zyz
from _helpers import matrix_distance, random_axis, random_su2, rot_matrix, su2_matrix

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])

angles = st.floats(min_value=-4.0 * math.pi, max_value=4.0 * math.pi,
                   allow_nan=False, allow_infinity=False)


class TestRot:
    def test_zero_angle_is_identity(self):
        for axis in (EX, EY, EZ, np.array([0.6, 0.0, 0.8])):
            assert rot(axis, 0.0) == IDENTITY

    def test_z_half_turn(self):
        u = rot(EZ, math.pi)
        assert u.components() == pytest.approx((0.0, 0.0, 0.0, -1.0), abs=1e-15)

    def test_full_turn_negates(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = random_axis(rng)
            theta = rng.uniform(-6.0, 6.0)
            assert quat_distance(rot(v, theta + 2.0 * math.pi),
                                 negate(rot(v, theta))) < 1e-15

    def test_rejects_non_unit_axis(self):
        with pytest.raises(InvalidAxisError):
            rot([1.0, 1.0, 0.0], 0.3)


class TestUnitAxis:
    @pytest.mark.parametrize("bad", [
        [math.nan, 0.0, 1.0],
        [0.0, math.inf, 0.0],
        [0.0, 0.0, -math.inf],
        [math.nan, math.nan, math.nan],
    ])
    def test_rejects_non_finite_component(self, bad):
        # NaN compares false with everything, so a norm check alone admits it.
        with pytest.raises(InvalidAxisError, match="finite"):
            unit_axis(bad)
        with pytest.raises(InvalidAxisError):
            rot(bad, 0.3)


class TestCompose:
    def test_identity_laws(self):
        rng = np.random.default_rng(2)
        u = random_su2(rng)
        assert quat_distance(compose(IDENTITY, u), u) == 0.0
        assert quat_distance(compose(u, inverse(u)), IDENTITY) < 1e-15

    def test_x_pi_times_z_minus_pi_is_y_pi(self):
        # Independently checked through 2x2 matrix multiplication.
        product = compose(rot(EX, math.pi), rot(EZ, -math.pi))
        oracle = rot_matrix(EX, math.pi) @ rot_matrix(EZ, -math.pi)
        assert matrix_distance(su2_matrix(product), oracle) < 1e-15
        assert quat_distance(product, rot(EY, math.pi)) < 1e-15

    def test_matches_matrix_product(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_su2(rng), random_su2(rng)
            assert matrix_distance(su2_matrix(compose(a, b)),
                                   su2_matrix(a) @ su2_matrix(b)) < 1e-14


class TestInverse:
    def test_identity(self):
        assert inverse(IDENTITY) == IDENTITY

    def test_rot_inverse_is_negative_angle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = random_axis(rng)
            theta = rng.uniform(-6.0, 6.0)
            assert quat_distance(inverse(rot(v, theta)), rot(v, -theta)) < 1e-15

    def test_conjugation_of_minus_iz(self):
        assert inverse(Su2Element(0.0, 0.0, 0.0, -1.0)) == Su2Element(0.0, 0.0, 0.0, 1.0)


class TestToSo3:
    def test_identity(self):
        assert matrix_distance(to_so3(IDENTITY), np.eye(3)) == 0.0

    def test_rot_z_matrix(self):
        theta = 0.87
        expected = np.array([
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ])
        assert matrix_distance(to_so3(rot(EZ, theta)), expected) < 1e-15

    def test_rot_y_matrix(self):
        theta = -1.31
        expected = np.array([
            [math.cos(theta), 0.0, math.sin(theta)],
            [0.0, 1.0, 0.0],
            [-math.sin(theta), 0.0, math.cos(theta)],
        ])
        assert matrix_distance(to_so3(rot(EY, theta)), expected) < 1e-15

    def test_multiplicative(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = random_su2(rng), random_su2(rng)
            assert matrix_distance(to_so3(compose(a, b)),
                                   to_so3(a) @ to_so3(b)) < 1e-12


class TestFromSo3:
    def test_identity_matrix(self):
        assert from_so3(np.eye(3)) == Su2Element(1.0, 0.0, 0.0, 0.0)

    def test_round_trip_canonicalizes_sign(self):
        u = rot(EY, 0.5 * math.pi)
        lifted = from_so3(to_so3(u))
        assert quat_distance(lifted, u) < 1e-12
        lifted_neg = from_so3(to_so3(negate(u)))
        assert quat_distance(lifted_neg, u) < 1e-12

    def test_half_turn_about_z(self):
        # Both lifts of diag(-1,-1,1) are (0,0,0,+-1); enumeration confirms
        # each maps back, and the canonical choice is the positive one.
        d = np.diag([-1.0, -1.0, 1.0])
        for candidate in (Su2Element(0.0, 0.0, 0.0, 1.0),
                          Su2Element(0.0, 0.0, 0.0, -1.0)):
            assert matrix_distance(to_so3(candidate), d) < 1e-15
        assert from_so3(d) == Su2Element(0.0, 0.0, 0.0, 1.0)

    def test_random_round_trip_up_to_lift(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            u = random_su2(rng)
            lifted = from_so3(to_so3(u))
            assert min(quat_distance(lifted, u),
                       quat_distance(lifted, negate(u))) < 1e-9

    def test_rejects_non_rotation(self):
        with pytest.raises(InvalidRotationError):
            from_so3(np.diag([1.0, 1.0, 2.0]))
        with pytest.raises(InvalidRotationError):
            from_so3(np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entry(self, bad):
        d = np.eye(3)
        d[1, 2] = bad
        with pytest.raises(InvalidRotationError, match="finite"):
            from_so3(d)


class TestEulerZyz:
    def test_identity_canonical(self):
        assert euler_zyz(IDENTITY) == (0.0, 0.0, 0.0)

    def test_pure_y(self):
        for beta in (0.3, 1.5, math.pi - 0.2, math.pi):
            triple = euler_zyz(rot(EY, beta))
            assert triple.alpha == 0.0
            assert triple.beta == pytest.approx(beta, abs=1e-12)
            assert triple.gamma == pytest.approx(0.0, abs=1e-12)

    def test_x_quarter_turn(self):
        u = rot(EX, 0.5 * math.pi)
        alpha, beta, gamma = euler_zyz(u)
        assert beta == pytest.approx(0.5 * math.pi, abs=1e-12)
        rebuilt = compose(rot(EZ, alpha), compose(rot(EY, beta), rot(EZ, gamma)))
        assert quat_distance(rebuilt, u) < 1e-14

    def test_exact_sign_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            u = random_su2(rng)
            alpha, beta, gamma = euler_zyz(u)
            assert 0.0 <= beta <= math.pi
            rebuilt = compose(rot(EZ, alpha), compose(rot(EY, beta), rot(EZ, gamma)))
            assert quat_distance(rebuilt, u) < 1e-12

    def test_from_euler_zyz_inverts_euler_zyz(self):
        rng = np.random.default_rng(17)
        targets = [random_su2(rng) for _ in range(500)]
        # Degenerate triples: beta at 0 and pi, both lifts of the identity.
        targets += [IDENTITY, negate(IDENTITY), rot(EZ, 0.7), rot(EY, math.pi),
                    compose(rot(EX, math.pi), rot(EZ, 0.3))]
        for u in targets:
            assert quat_distance(from_euler_zyz(*euler_zyz(u)), u) < 1e-12

    def test_from_euler_zyz_is_the_zyz_product(self):
        alpha, beta, gamma = 0.4, 2.1, -1.3
        expected = compose(rot(EZ, alpha), compose(rot(EY, beta), rot(EZ, gamma)))
        assert from_euler_zyz(alpha, beta, gamma) == expected

    def test_beta_from_first_matrix_row(self):
        # cos(beta/2) and sin(beta/2) are the moduli of the first-row entries.
        rng = np.random.default_rng(13)
        for _ in range(100):
            u = random_su2(rng)
            beta = euler_zyz(u).beta
            a, b = su2_matrix(u)[0]
            assert math.cos(0.5 * beta) == pytest.approx(abs(a), abs=1e-12)
            assert math.sin(0.5 * beta) == pytest.approx(abs(b), abs=1e-12)


class TestFrame:
    def test_canonical_frame_is_identity(self):
        frame = frame_for(EY, EZ)
        assert quat_distance(frame.u, IDENTITY) < 1e-15

    def test_z_x_frame_columns(self):
        frame = frame_for(EZ, EX)
        mat = to_so3(frame.u)
        assert np.allclose(mat @ EY, EZ, atol=1e-12)
        assert np.allclose(mat @ EZ, EX, atol=1e-12)

    def test_flipped_l(self):
        frame = frame_for(-EY, EZ)
        mat = to_so3(frame.u)
        assert np.allclose(mat @ EY, -EY, atol=1e-12)
        assert np.allclose(mat @ EZ, EZ, atol=1e-12)

    def test_random_frames(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            m = random_axis(rng)
            helper = random_axis(rng)
            l = np.cross(m, helper)
            l /= np.linalg.norm(l)
            mat = to_so3(frame_for(l, m).u)
            assert np.allclose(mat @ EY, l, atol=1e-12)
            assert np.allclose(mat @ EZ, m, atol=1e-12)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(InvalidFrameError):
            frame_for(EZ, EZ)


class TestGeneralizedEuler:
    def test_identity(self):
        frame = frame_for(EZ, EX)
        assert generalized_euler(IDENTITY, frame) == (0.0, 0.0, 0.0)

    def test_pure_l_rotation(self):
        frame = frame_for(EZ, EX)
        for beta in (0.4, 1.2, 2.9):
            triple = generalized_euler(rot(EZ, beta), frame)
            assert triple.alpha == pytest.approx(0.0, abs=1e-12)
            assert triple.beta == pytest.approx(beta, abs=1e-12)
            assert triple.gamma == pytest.approx(0.0, abs=1e-12)

    def test_reconstruction_of_known_triple(self):
        rng = np.random.default_rng(9)
        m = random_axis(rng)
        helper = random_axis(rng)
        l = np.cross(m, helper)
        l /= np.linalg.norm(l)
        frame = frame_for(l, m)
        u = compose(rot(m, 0.3), compose(rot(l, 1.1), rot(m, -0.7)))
        alpha, beta, gamma = generalized_euler(u, frame)
        assert (alpha, beta, gamma) == pytest.approx((0.3, 1.1, -0.7), abs=1e-12)
        rebuilt = compose(rot(m, alpha), compose(rot(l, beta), rot(m, gamma)))
        assert quat_distance(rebuilt, u) < 1e-13

    def test_coincides_with_zyz_for_coordinate_frame(self):
        rng = np.random.default_rng(10)
        frame = frame_for(EY, EZ)
        for _ in range(100):
            u = random_su2(rng)
            assert generalized_euler(u, frame) == pytest.approx(euler_zyz(u), abs=1e-12)


class TestGeodesic:
    def test_coincident(self):
        assert geodesic(EZ, EZ) == 0.0

    def test_orthogonal(self):
        assert geodesic(EZ, EX) == pytest.approx(0.5 * math.pi, abs=1e-15)

    def test_antipodal(self):
        assert geodesic(EZ, -EZ) == pytest.approx(math.pi, abs=1e-15)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b, c = (random_axis(rng) for _ in range(3))
            assert geodesic(a, c) <= geodesic(a, b) + geodesic(b, c) + 1e-12


class TestTransport:
    def test_conjugation_moves_the_axis(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            u = random_su2(rng)
            v = random_axis(rng)
            theta = rng.uniform(-6.0, 6.0)
            lhs = compose(u, compose(rot(v, theta), inverse(u)))
            rhs = rot(to_so3(u) @ v, theta)
            assert quat_distance(lhs, rhs) < 1e-12


@settings(max_examples=60, deadline=None)
@given(theta=angles, phi=angles, seed=st.integers(min_value=0, max_value=2**31))
def test_same_axis_additivity(theta, phi, seed):
    v = random_axis(np.random.default_rng(seed))
    lhs = compose(rot(v, theta), rot(v, phi))
    assert quat_distance(lhs, rot(v, theta + phi)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(theta=angles)
def test_normalize_angle_window_preserves_element(theta):
    t = normalize_angle(theta)
    assert -2.0 * math.pi < t <= 2.0 * math.pi + 1e-15
    assert quat_distance(rot(EZ, t), rot(EZ, theta)) < 1e-13
