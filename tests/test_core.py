"""Rotation algebra, homomorphism, Euler factorizations, geodesic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaxial import (
    IDENTITY,
    AxisPair,
    InvalidAxisError,
    InvalidRotationError,
    Su2Element,
    Tolerances,
    compose,
    euler_zyz,
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
from biaxial.core import _admit_unit, from_euler_zyz
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

    def test_divides_admitted_axis_by_its_norm(self):
        loose = Tolerances.uniform(1e-3)
        assert unit_axis([0.0, 0.0, 1.0004], loose).tolist() == [0.0, 0.0, 1.0]
        with pytest.raises(InvalidAxisError):
            unit_axis([0.0, 0.0, 1.0004])
        rng = np.random.default_rng(12)
        for _ in range(2000):
            v = random_axis(rng) * (1.0 + 0.999e-3 * rng.uniform(-1.0, 1.0))
            a = unit_axis(v, loose)
            assert abs(float(a @ a) - 1.0) <= 8.0 * 2.0 ** -52
            # Admitting an admitted or already unit axis leaves its bits alone.
            w = v / np.linalg.norm(v)
            assert unit_axis(a).tolist() == a.tolist()
            assert unit_axis(w).tolist() == w.tolist()

    def test_message_states_deviation_and_bound(self):
        with pytest.raises(InvalidAxisError,
                           match=r"axis must have norm 1: \|n\^2 - 1\| = 2e-06 exceeds 2e-09"):
            unit_axis([0.0, 0.0, 1.0 + 1e-6])
        with pytest.raises(InvalidAxisError, match="finite and nonzero"):
            unit_axis([0.0, 0.0, 0.0], Tolerances.uniform(0.5))


class TestUnitRule:
    """``_admit_unit`` admits axes and targets alike."""

    def test_readmission_keeps_bits(self):
        # Division leaves a 4-vector's squared norm within 3 float spacings
        # of 1, inside the floor of 8, so a second admission returns it as is.
        rng = np.random.default_rng(18)
        q = rng.normal(size=(200_000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        q[::2] *= 1.0 + 0.999e-3 * rng.uniform(-1.0, 1.0, size=(100_000, 1))
        loose = Tolerances.uniform(1e-3)
        for v in q.tolist():
            a = _admit_unit(v, loose, InvalidRotationError, "target")
            assert _admit_unit(a, Tolerances(norm=0.0), InvalidRotationError, "target") is a

    def test_zero_tolerance_keeps_the_rounding_floor(self):
        eps = 2.0 ** -52
        for off in (-8.0 * eps, 8.0 * eps):
            v = [math.sqrt(1.0 + off), 0.0, 0.0, 0.0]
            assert _admit_unit(v, Tolerances(norm=0.0), InvalidRotationError, "target") is v
        with pytest.raises(InvalidRotationError, match="norm 1"):
            _admit_unit([1.0 + 8.0 * eps, 0.0, 0.0, 0.0], Tolerances(norm=0.0),
                  InvalidRotationError, "target")


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

    def test_no_renormalisation(self):
        # The product's norm is the product of the inputs' norms.
        two = Su2Element(2.0, 0.0, 0.0, 0.0)
        assert compose(two, IDENTITY) == two
        u = random_su2(np.random.default_rng(4))
        w = compose(u, Su2Element(0.0, 0.0, 0.0, 1.0 + 1e-6))
        assert abs(sum(c * c for c in w.components()) - 1.0) > 1e-6


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

    def test_lift_ignores_tol(self):
        # Near a half-turn ``w`` is about 1e-7: inside a 1e-6 admission
        # tolerance, but the lift is chosen by DECISION_WINDOW alone.
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = to_so3(rot(random_axis(rng), math.pi - 2e-7))
            lifted = from_so3(d)
            assert lifted.w > 0.0
            for value in (1e-6, 1e-3):
                assert from_so3(d, Tolerances.uniform(value)) == lifted

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entry(self, bad):
        d = np.eye(3)
        d[1, 2] = bad
        with pytest.raises(InvalidRotationError, match="finite"):
            from_so3(d)

    def test_message_states_deviations_and_bound(self):
        with pytest.raises(InvalidRotationError, match=r"\|M\^T M - I\| = 3 and "
                                                       r"\|det - 1\| = 1, bound 4e-09"):
            from_so3(np.diag([1.0, 1.0, 2.0]))

    def test_zero_tolerance_admits_rounded_matrices(self):
        # Matrices of unit quaternions, from to_so3 and from the Hamilton
        # form, are off orthogonal and det 1 by rounding alone.
        rng = np.random.default_rng(14)
        tol = Tolerances(norm=0.0)
        for _ in range(5000):
            u = random_su2(rng)
            w, x, y, z = u.w, -u.x, -u.y, -u.z
            hamilton = np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
            for d in (to_so3(u), hamilton):
                assert from_so3(d, tol) == from_so3(d)


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


def random_frame(rng):
    m = random_axis(rng)
    l = np.cross(m, random_axis(rng))
    return l / np.linalg.norm(l), m


def frame_pair(l, m) -> AxisPair:
    """The axis pair at gap 1 whose Euler frame is the orthonormal (l, m)."""
    return AxisPair.from_axes(m, math.cos(1.0) * m + math.sin(1.0) * np.cross(l, m))


class TestGeneralizedEuler:
    def test_identity(self):
        pair = frame_pair(EZ, EX)
        assert generalized_euler(IDENTITY, pair) == (0.0, 0.0, 0.0)

    def test_pure_l_rotation(self):
        pair = frame_pair(EZ, EX)
        for beta in (0.4, 1.2, 2.9):
            triple = generalized_euler(rot(EZ, beta), pair)
            assert triple.alpha == pytest.approx(0.0, abs=1e-12)
            assert triple.beta == pytest.approx(beta, abs=1e-12)
            assert triple.gamma == pytest.approx(0.0, abs=1e-12)

    def test_reconstruction_of_known_triple(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            l, m = random_frame(rng)
            pair = frame_pair(l, m)
            known = compose(rot(m, 0.3), compose(rot(l, 1.1), rot(m, -0.7)))
            assert generalized_euler(known, pair) == pytest.approx((0.3, 1.1, -0.7),
                                                                   abs=1e-12)
            a, c = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=2)
            # Haar targets, then middle angles 0 and pi, each in both lifts.
            targets = [random_su2(rng), random_su2(rng), known, rot(m, a),
                       compose(rot(m, a), compose(rot(l, math.pi), rot(m, c)))]
            targets += [negate(u) for u in targets]
            for u in targets:
                alpha, beta, gamma = generalized_euler(u, pair)
                rebuilt = compose(rot(m, alpha), compose(rot(l, beta), rot(m, gamma)))
                assert quat_distance(rebuilt, u) < 1e-13

    def test_coincides_with_zyz_for_coordinate_frame(self):
        rng = np.random.default_rng(10)
        pair = frame_pair(EY, EZ)
        targets = [random_su2(rng) for _ in range(100)]
        targets += [IDENTITY, negate(IDENTITY), rot(EZ, 0.7), rot(EY, math.pi),
                    compose(rot(EX, math.pi), rot(EZ, 0.3))]
        for u in targets:
            assert generalized_euler(u, pair) == euler_zyz(u)


class TestGeodesic:
    def test_coincident(self):
        assert geodesic(EZ, EZ) == 0.0

    def test_coincident_random_axes(self):
        # acos(v.v) reads about 1.5e-8 wherever v.v rounds below 1.
        rng = np.random.default_rng(13)
        for _ in range(300):
            v = random_axis(rng)
            assert geodesic(v, v) == 0.0

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
