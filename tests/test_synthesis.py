"""Explicit constructions: slab triples, chains, optimal dispatch."""

import itertools
import math

import numpy as np
import pytest

from biaxial import (
    AxisLabel,
    AxisPair,
    Factor,
    DEFAULT_TOL,
    IDENTITY,
    InfeasibleSlabError,
    InvalidAxisError,
    InvalidRotationError,
    compose,
    count_min,
    decompose_min,
    f_angle,
    g_count,
    generalized_euler,
    inverse,
    negate,
    normalize_angle,
    quat_distance,
    replay_factors,
    rot,
    solve_triple,
    Su2Element,
    Tolerances,
    to_so3,
    unit_axis,
    verify_decomposition,
    worst_case_witness,
)
from biaxial.synthesis import (
    Decomposition,
    decompose_even,
    decompose_even_reversed,
    decompose_odd,
)
import biaxial.synthesis as synthesis
from biaxial.config import DECISION_WINDOW
from biaxial.counting import analyze, reaches_gap
from _helpers import (count_replay_calls, hex_factors, plan_odd, random_axis,
                      random_pair, random_su2, reference_chain,
                      reference_decompose_min, reference_factors)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def pair_with_delta(delta: float) -> AxisPair:
    n = math.sin(delta) * EX + math.cos(delta) * EZ
    return AxisPair.from_axes(EZ, n)


def axes_for(pair: AxisPair):
    """Concrete (l, m, n) for checking slab triples by multiplication."""
    return pair.l, pair.m, pair.n


class TestHParam:
    """``solve_triple``'s ``h``, read back as ``alpha + pi/2``."""

    def test_interior_slab_at_right_angle_gap(self):
        trip = solve_triple(0.5 * math.pi, 0.5 * math.pi)
        assert (trip.alpha, trip.gamma) == (-0.5 * math.pi, 0.5 * math.pi)

    def test_full_slab(self):
        delta = 0.25 * math.pi
        assert solve_triple(2.0 * delta, delta).alpha == 0.0  # h = pi/2

    def test_rejects_out_of_range(self):
        for beta_j, delta in ((1.2, 0.5), (-0.1, 0.5), (0.1, 0.0), (0.1, -0.3),
                              (0.1, 0.5 * math.pi + 1e-6), (0.1, math.nan)):
            with pytest.raises(InfeasibleSlabError):
                solve_triple(beta_j, delta)


class TestSolveTriple:
    def test_degenerate_slab(self):
        pair = pair_with_delta(0.9)
        l, m, n = axes_for(pair)
        alpha, gamma, theta = solve_triple(1e-12, 0.9)
        assert abs(theta) < 1e-11
        product = compose(rot(m, -alpha), compose(rot(n, theta), rot(m, -gamma)))
        assert quat_distance(product, IDENTITY) < 1e-11

    def test_full_slab_closed_form(self):
        # The chains use (0, pi, pi) for every full slab without solving it,
        # and the half-turn pair n: pi, m: -pi for the product rot(l, 2*delta),
        # at a right-angle gap too.
        gaps = list(np.geomspace(4.5e-5, 1.5, 4000)) + [math.pi / 3, 0.5 * math.pi - 2e-9,
                                                        0.5 * math.pi]
        worst = 0.0
        for delta in gaps:
            delta = float(delta)
            assert solve_triple(2.0 * delta, delta) == (0.0, math.pi, math.pi)
            l, m, n = axes_for(pair_with_delta(delta))
            lhs = rot(l, 2.0 * delta)
            rhs = compose(rot(n, math.pi), rot(m, -math.pi))
            worst = max(worst, quat_distance(lhs, rhs))
        assert worst < 1e-14

    def test_half_slab_residual(self):
        delta = math.pi / 3
        alpha, gamma, theta = solve_triple(delta, delta)
        assert theta == pytest.approx(
            2.0 * math.asin(math.sin(0.5 * delta) / math.sin(delta)), abs=1e-12)
        pair = pair_with_delta(delta)
        l, m, n = axes_for(pair)
        lhs = rot(l, delta)
        rhs = compose(rot(m, -alpha), compose(rot(n, theta), rot(m, -gamma)))
        assert quat_distance(lhs, rhs) < 1e-10

    def test_random_slabs(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            delta = rng.uniform(0.05, 0.5 * math.pi)
            beta_j = rng.uniform(1e-6, 2.0 * delta)
            pair = pair_with_delta(delta)
            l, m, n = axes_for(pair)
            alpha, gamma, theta = solve_triple(beta_j, delta)
            lhs = rot(l, beta_j)
            rhs = compose(rot(m, -alpha), compose(rot(n, theta), rot(m, -gamma)))
            assert quat_distance(lhs, rhs) < 1e-12

    def test_rejects_oversized_slab(self):
        with pytest.raises(InfeasibleSlabError):
            solve_triple(1.3, 0.6)


class TestPlanOdd:
    """The reference slab plan the tests build chains from."""

    def test_zero_beta(self):
        assert plan_odd(0.0, 0.7, 1) == ()

    def test_single_slab(self):
        assert plan_odd(math.pi, 0.5 * math.pi, 3) == (math.pi,)

    def test_remainder_schedule(self):
        slabs = plan_odd(0.9, 0.25, 5)
        assert slabs == pytest.approx((0.5, 0.4))
        assert sum(slabs) == pytest.approx(0.9, abs=1e-12)
        assert all(0.0 < s <= 0.5 + 1e-12 for s in slabs)


class TestDecomposeOdd:
    def test_bare_m_rotation(self):
        pair = pair_with_delta(1.1)
        dec = decompose_odd(rot(pair.m, 1.2), pair)
        assert [f.label for f in dec.factors] == [AxisLabel.M]
        assert dec.factors[0].angle == pytest.approx(1.2, abs=1e-12)
        assert dec.residual < 1e-12

    def test_worked_three_factor(self):
        pair = AxisPair.from_axes(EZ, EX)
        u = rot(EY, 0.5 * math.pi)
        dec = decompose_odd(u, pair)
        assert [f.label.value for f in dec.factors] == ["m", "n", "m"]
        assert dec.residual < 1e-12
        assert dec.count == count_min(u, EZ, EX).n_min == 3

    def test_valid_but_not_minimal(self):
        # The odd route must still deliver its formula count even where the
        # even route is shorter.
        pair = pair_with_delta(math.pi / 3)
        u = rot(pair.l, math.pi)
        dec = decompose_odd(u, pair)
        assert dec.count == 5
        assert dec.residual < 1e-9
        assert count_min(u, pair.m, pair.n).n_min == 4


class TestDecomposeEven:
    def test_worked_two_factor(self):
        pair = AxisPair.from_axes(EZ, EX)
        u = rot(EY, math.pi)
        dec = decompose_even(u, pair)
        assert [(f.label.value, pytest.approx(f.angle, abs=1e-12))
                for f in dec.factors] == [("n", math.pi), ("m", -math.pi)]
        assert dec.residual < 1e-12

    def test_pure_n_target(self):
        pair = pair_with_delta(0.9)
        u = rot(pair.n, 0.4)
        dec = decompose_even(u, pair)
        assert dec.residual < 1e-9
        assert dec.count % 2 == 0

    def test_gap_rotation_falls_back_to_four(self):
        pair = pair_with_delta(0.9)
        u = rot(pair.l, 0.9)
        dec = decompose_even(u, pair)
        assert dec.count == 4
        assert dec.residual < 1e-9
        assert dec.beta_prime == pytest.approx(0.0, abs=1e-10)

    def test_beta_prime_equals_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            m, n = random_pair(rng, 0.2, 0.5 * math.pi)
            pair = AxisPair.from_axes(m, n)
            alpha = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
            beta = rng.uniform(0.0, math.pi)
            gamma = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
            u = compose(rot(pair.m, alpha),
                        compose(rot(pair.l, beta), rot(pair.m, gamma)))
            dec = decompose_even(u, pair)
            assert dec.beta_prime == pytest.approx(
                f_angle(alpha, beta, pair.delta), abs=1e-10)


class TestDecomposeEvenReversed:
    def test_identity(self):
        pair = pair_with_delta(0.8)
        dec = decompose_even_reversed(IDENTITY, pair)
        assert dec.count == 2
        assert [f.label.value for f in dec.factors] == ["m", "n"]
        assert all(abs(f.angle) < 1e-12 for f in dec.factors)
        assert dec.residual < 1e-12

    def test_worked_reversed_two_factor(self):
        pair = AxisPair.from_axes(EZ, EX)
        u = rot(EY, math.pi)
        dec = decompose_even_reversed(u, pair)
        assert [f.label.value for f in dec.factors] == ["m", "n"]
        assert dec.residual < 1e-9

    def test_count_matches_reversed_formula(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            m, n = random_pair(rng, 0.25, 0.5 * math.pi)
            pair = AxisPair.from_axes(m, n)
            u = random_su2(rng)
            triple = generalized_euler(u, pair)
            dec = decompose_even_reversed(u, pair)
            assert dec.count == g_count(triple.gamma, -triple.beta, pair.delta)
            assert dec.residual < 1e-9


class TestDecomposeMin:
    def test_identity(self):
        rng = np.random.default_rng(23)
        m, n = random_pair(rng, 0.3, 0.5 * math.pi)
        dec = decompose_min(IDENTITY, m, n)
        assert dec.count == 1
        assert dec.factors[0] == Factor(AxisLabel.M, 0.0)
        assert dec.residual == 0.0

    def test_worked_two_factor(self):
        dec = decompose_min(rot(EY, math.pi), EZ, EX)
        assert dec.count == 2
        assert dec.residual < 1e-12

    def test_worst_case_at_third_gap(self):
        pair = pair_with_delta(math.pi / 3)
        u = rot(pair.l, math.pi)
        dec = decompose_min(u, pair.m, pair.n)
        assert dec.count == 4
        assert dec.residual < 1e-9

    def test_optimality_and_alternation_random(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            m, n = random_pair(rng, 0.15, 0.5 * math.pi)
            u = random_su2(rng)
            dec = decompose_min(u, m, n)
            assert dec.count == count_min(u, m, n).n_min
            assert dec.residual <= 1e-9
            for a, b in zip(dec.factors, dec.factors[1:]):
                assert a.label is not b.label

    def test_flipped_and_swapped_axes_replay_on_raw_axes(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            m, n = random_pair(rng, 0.3, 0.5 * math.pi)
            u = random_su2(rng)
            for mm, nn in ((-m, n), (m, -n), (-m, -n)):
                dec = decompose_min(u, mm, nn)
                rebuilt = replay_factors(dec.factors, mm, nn)
                assert quat_distance(rebuilt, u) <= 1e-9
                assert dec.count == count_min(u, mm, nn).n_min

    def test_transport_invariance(self):
        rng = np.random.default_rng(27)
        for _ in range(50):
            m, n = random_pair(rng, 0.3, 0.5 * math.pi)
            u = random_su2(rng)
            dec = decompose_min(u, m, n)
            w = random_su2(rng)
            mat = to_so3(w)
            moved = compose(w, compose(u, inverse(w)))
            dec_moved = decompose_min(moved, mat @ m, mat @ n)
            assert dec_moved.count == dec.count
            assert [f.label for f in dec_moved.factors] == [f.label for f in dec.factors]
            for f, g in zip(dec.factors, dec_moved.factors):
                assert f.angle == pytest.approx(g.angle, abs=1e-9)


class TestPlanInvariants:
    def test_slab_sums_and_ranges(self):
        # The reference plan cuts the chain's middle angle into slabs in
        # (0, 2*delta], all full but the last, and the chains' last slab is
        # the plan's.
        rng = np.random.default_rng(31)
        for _ in range(200):
            m, n = random_pair(rng, 0.1, 0.5 * math.pi)
            pair = AxisPair.from_axes(m, n)
            u = random_su2(rng)
            delta = pair.delta
            odd = reference_chain(u, pair, "odd")[2]
            beta = generalized_euler(u, pair).beta
            assert sum(odd) == pytest.approx(beta, abs=1e-9)
            even_chain = reference_chain(u, pair, "even-mn")
            even, beta_prime = even_chain[2], even_chain[3]
            assert sum(even) == pytest.approx(beta_prime + delta, abs=1e-9)
            for slabs, total, skip in ((odd, beta, 0), (even, beta_prime + delta, 1)):
                assert all(0.0 < b <= 2.0 * delta + 1e-9 for b in slabs)
                assert all(b == 2.0 * delta for b in slabs[:-1])
                if len(slabs) > skip:
                    rest = total - 2.0 * delta * skip
                    assert synthesis._last_slab(rest, delta, len(slabs) - skip) == slabs[-1]


class TestSlabFeasibility:
    def test_constructed_theta_meets_condition(self):
        # Each n-angle theta_j in the chain satisfies
        # sin(delta)*|sin(theta_j/2)| = |sin(slab_j/2)|.
        rng = np.random.default_rng(28)
        for _ in range(100):
            m, n = random_pair(rng, 0.2, 0.5 * math.pi)
            pair = AxisPair.from_axes(m, n)
            u = random_su2(rng)
            for dec in (decompose_odd(u, pair), decompose_even(u, pair)):
                slabs = reference_chain(u, pair, dec.parity)[2]
                n_angles = [f.angle for f in dec.factors if f.label is AxisLabel.N]
                if dec.parity == "even-mn":
                    # The leading n-factor is the shifted target's alpha',
                    # merged with the pinned first slab's theta if any.
                    n_angles = n_angles[1:]
                    if reaches_gap(dec.beta_prime, pair.delta):
                        slabs = slabs[1:]
                assert len(n_angles) == len(slabs)
                for slab, theta in zip(slabs, n_angles):
                    assert math.sin(pair.delta) * abs(math.sin(0.5 * theta)) == \
                        pytest.approx(abs(math.sin(0.5 * slab)), abs=1e-12)


class TestVerifyDecomposition:
    def test_valid(self):
        dec = decompose_min(rot(EY, math.pi), EZ, EX)
        report = verify_decomposition(dec)
        assert report.ok
        assert report.residual < 1e-12

    def test_tampered_angle(self):
        dec = decompose_min(rot(EY, math.pi), EZ, EX)
        factors = list(dec.factors)
        factors[0] = Factor(factors[0].label, factors[0].angle + 0.1)
        tampered = Decomposition(
            factors=tuple(factors), target=dec.target, axis_m=dec.axis_m,
            axis_n=dec.axis_n, pair=dec.pair, parity=dec.parity,
            residual=dec.residual, beta_prime=dec.beta_prime)
        report = verify_decomposition(tampered)
        assert not report.ok
        assert report.residual > 1e-3

    def test_empty_factors_vs_identity(self):
        one = decompose_min(IDENTITY, EZ, EX)
        dec = Decomposition(factors=(), target=one.target, axis_m=one.axis_m,
                            axis_n=one.axis_n, pair=one.pair, parity=one.parity,
                            residual=0.0)
        report = verify_decomposition(dec)
        assert report.residual == 0.0
        assert report.product == IDENTITY
        assert not report.nonempty
        assert not report.ok

    def test_rejects_non_alternating(self):
        dec = decompose_min(rot(EY, math.pi), EZ, EX)
        repeated = Decomposition(
            factors=(Factor(AxisLabel.M, 0.3), Factor(AxisLabel.M, 0.4)),
            target=dec.target, axis_m=dec.axis_m, axis_n=dec.axis_n,
            pair=dec.pair, parity=dec.parity, residual=dec.residual)
        report = verify_decomposition(repeated)
        assert not report.alternates
        assert not report.ok

    def test_product_is_the_replay(self):
        dec = decompose_min(rot(EY, math.pi), -EZ, EX)
        assert verify_decomposition(dec).product == replay_factors(
            dec.factors, dec.axis_m, dec.axis_n)

    def test_checks_equal_their_per_factor_definitions(self):
        # The checks skip a factor that is the same object as the one two
        # places back.  Lists drawn from a small pool of shared objects, with
        # same-label neighbours and angles on and past the window's ends,
        # must get the verdicts of the plain per-factor definitions.
        rng = np.random.default_rng(150)
        dec = decompose_min(rot(EY, 0.7), EZ, EX)
        top = 2.0 * math.pi + DECISION_WINDOW
        angles = [0.3, -0.0, -2.0 * math.pi, top, 2.0 * top, math.nan, 7.0]
        pool = [Factor(label, a) for label in AxisLabel for a in angles]
        verdicts = set()
        for _ in range(3000):
            picks = rng.choice(len(pool), size=rng.integers(0, 5))
            factors = [pool[i] for i in picks]
            factors = tuple(factors[:2] + factors[2:4] * int(rng.integers(0, 4)) + factors[4:])
            report = verify_decomposition(Decomposition(
                factors=factors, target=dec.target, axis_m=EZ, axis_n=EX,
                pair=dec.pair, parity=dec.parity, residual=0.0))
            alternates = all(a.label is not b.label for a, b in zip(factors, factors[1:]))
            in_window = all(-2.0 * math.pi < f.angle <= top for f in factors)
            assert (report.alternates, report.angles_in_window) == (alternates, in_window)
            verdicts.add((alternates, in_window))
        assert len(verdicts) == 4


def fold_replay(factors, axis_m, axis_n, tol=DEFAULT_TOL):
    """Reference product: the left fold over ``compose`` and ``rot``."""
    acc = IDENTITY
    for f in factors:
        axis = axis_m if f.label is AxisLabel.M else axis_n
        acc = compose(acc, rot(axis, f.angle, tol))
    return acc


def alternating(angles, first=AxisLabel.M):
    labels = (first, first.other)
    return [Factor(labels[i % 2], a) for i, a in enumerate(angles)]


class TestReplayKernel:
    """``replay_factors`` equals the ``compose``/``rot`` fold bit for bit."""

    @pytest.mark.parametrize("length", [1, 2, 3, 20, 500, 20000])
    def test_bit_identical_to_fold(self, length):
        rng = np.random.default_rng(100 + length)
        m, n = random_pair(rng, 1e-3, 0.5 * math.pi)
        angles = list(rng.uniform(-9.0, 9.0, size=length))
        specials = [0.0, 2.0 * math.pi, -2.0 * math.pi]
        for i, angle in zip(rng.choice(length, size=min(length, 9), replace=False),
                            specials * 3):
            angles[i] = angle
        for first in (AxisLabel.M, AxisLabel.N):
            factors = alternating(angles, first)
            got = replay_factors(factors, m, n)
            assert got.components() == fold_replay(factors, m, n).components()

    @pytest.mark.parametrize("first", [AxisLabel.M, AxisLabel.N])
    def test_repeated_block_bit_identical_to_fold(self, first):
        # The replay computes one rotation per distinct Factor object.  Every
        # head, shared two-angle block and tail drawn from the special angles
        # is checked; on the canonical axes the products keep exact zeros
        # whose signs tell 0.0 and -0.0 apart (e.g. m 0.0, n 2*pi, m -0.0),
        # so a replay that shared one rotation between them would differ.
        specials = [0.0, -0.0, 2.0 * math.pi, -2.0 * math.pi]
        hexes = lambda q: [c.hex() for c in q.components()]
        rng = np.random.default_rng(140)
        for m, n in ((EZ, EX), random_pair(rng, 1e-3, 0.5 * math.pi)):
            for head, b0, b1, tail in itertools.product(specials, repeat=4):
                block = tuple(alternating([b0, b1], first.other))
                factors = (alternating([head], first) + list(block * 3)
                           + alternating([tail], first.other))
                got = replay_factors(factors, m, n)
                assert hexes(got) == hexes(fold_replay(factors, m, n))

    @pytest.mark.parametrize("value,scale", [(1e-9, 1e-9), (1e-3, 4e-4)])
    def test_off_unit_axes_replay_unit(self, value, scale):
        # Admission divides an axis off unit norm by its norm, so the
        # product of 300 factors stays unit to rounding with no
        # renormalisation, and the fold stays bit-identical.
        rng = np.random.default_rng(110)
        tol = Tolerances.uniform(value)
        for _ in range(20):
            m = random_axis(rng) * (1.0 + scale * rng.uniform(-1.0, 1.0))
            n = random_axis(rng) * (1.0 + scale * rng.uniform(-1.0, 1.0))
            factors = alternating(list(rng.uniform(-7.0, 7.0, size=300)),
                                  rng.choice([AxisLabel.M, AxisLabel.N]))
            got = replay_factors(factors, m, n, tol)
            assert got.components() == fold_replay(factors, m, n, tol).components()
            assert abs(sum(c * c for c in got.components()) - 1.0) <= 1e-13

    def test_empty_list_is_identity(self):
        assert replay_factors([], EZ, EX) == IDENTITY
        # Neither axis is used, so neither is validated.
        assert replay_factors([], [1.0, 1.0, 0.0], [math.nan, 0.0, 0.0]) == IDENTITY

    def test_unused_invalid_axis_is_not_checked(self):
        factors = [Factor(AxisLabel.M, a) for a in (0.3, -1.1, 2.0)]
        for bad_n in ([1.0, 1.0, 0.0], [math.nan, 0.0, 1.0], [1.0, 0.0]):
            got = replay_factors(factors, EZ, bad_n)
            assert got.components() == fold_replay(factors, EZ, bad_n).components()

    def test_used_invalid_axis_raises(self):
        with pytest.raises(InvalidAxisError):
            replay_factors([Factor(AxisLabel.M, 0.3)], [math.nan, 0.0, 1.0], EX)
        with pytest.raises(InvalidAxisError):
            replay_factors(alternating([0.3, 0.4]), EZ, [1.0, 1.0, 0.0])

    def test_caller_axes_equal_normalized_pair_bit_for_bit(self):
        # rot(-v, t) and rot(v, -t) run the same float operations, so the
        # caller's factors need no re-signing onto the normalized pair.
        rng = np.random.default_rng(130)
        flipped = 0
        for i in range(200):
            m, n = random_pair(rng, 0.05, 0.5 * math.pi)
            mm = m if i % 2 else -m
            dec = decompose_min(random_su2(rng), mm, n)
            flipped += dec.pair.m_flipped
            sign = -1.0 if dec.pair.m_flipped else 1.0
            resigned = [Factor(f.label, sign * f.angle if f.label is AxisLabel.M
                               else f.angle) for f in dec.factors]
            caller = replay_factors(dec.factors, dec.axis_m, dec.axis_n)
            normalized = replay_factors(resigned, dec.pair.m, dec.pair.n)
            assert caller.components() == normalized.components()
        assert 0 < flipped < 200


class TestNonFiniteAxes:
    def test_decompose_min_rejects_nan_axis(self):
        with pytest.raises(InvalidAxisError):
            decompose_min(rot(EY, 0.4), [math.nan, 0.0, 1.0], EX)
        with pytest.raises(InvalidAxisError):
            decompose_min(rot(EY, 0.4), EZ, [1.0, math.inf, 0.0])


class TestNonFiniteTarget:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_decompose_min_rejects_non_finite_target(self, bad):
        with pytest.raises(InvalidRotationError, match="finite"):
            decompose_min(Su2Element(bad, 0.0, 0.0, 1.0), EZ, EX)


PUBLIC_CONSTRUCTION = {
    "odd": decompose_odd,
    "even-mn": decompose_even,
    "even-nm": decompose_even_reversed,
}


def pinned_cases():
    """Seeded (u, m, n) with m.n > 0: four of each (parity, swapped) pair."""
    rng = np.random.default_rng(120)
    want = {(p, s): 4 for p in PUBLIC_CONSTRUCTION for s in (False, True)}
    cases = []
    while any(want.values()):
        m, n = random_pair(rng, 0.2, 1.5)
        u = random_su2(rng)
        analysis = analyze(u, m, n)
        key = (analysis.report.chosen_parity, analysis.governing.swapped)
        if want[key]:
            want[key] -= 1
            cases.append((u, m, n))
    return cases


class TestDecomposeMinPinned:
    """``decompose_min`` is the public construction for the governing pair,
    relabelled for the caller's axes, with one replay."""

    @pytest.mark.parametrize("m_sign", [1.0, -1.0])
    def test_equals_relabelled_public_construction(self, m_sign):
        for u, m, n in pinned_cases():
            mm = m_sign * m
            analysis = analyze(u, mm, n)
            assert analysis.pair.m_flipped is (m_sign < 0)
            build = PUBLIC_CONSTRUCTION[analysis.report.chosen_parity]
            inner = build(u, analysis.governing)
            expected = []
            for f in inner.factors:
                label = f.label.other if analysis.governing.swapped else f.label
                angle = -f.angle if (label is AxisLabel.M and m_sign < 0) else f.angle
                expected.append(Factor(label, normalize_angle(angle)))
            dec = decompose_min(u, mm, n)
            assert dec.factors == tuple(expected)
            assert dec.beta_prime == inner.beta_prime
            assert dec.parity == inner.parity

    def test_one_replay_per_call(self, monkeypatch):
        # The chain reproduces the target with its quaternion sign, so one
        # replay lands on the right lift: on the pinned cases and on edge
        # targets at gaps pi/2 to 1e-3, with m of both signs and n negated.
        calls = count_replay_calls(monkeypatch)
        cases = [(u, mm, n) for u, m, n in pinned_cases() for mm in (m, -m)]
        cases += edge_cases()
        for u, m, n in cases:
            calls.clear()
            dec = decompose_min(u, m, n)
            assert len(calls) == 1
            assert dec.residual <= 1e-9, (u, m, n)
            assert dec.count == count_min(u, m, n).n_min

    def test_wrong_lift_shows_in_the_residual(self, monkeypatch):
        # Shifting a solved slab's n-angle by 2*pi negates that slab's
        # product, so a chain that solves one lands on -u: its one replay
        # reads a residual of about 2.
        solve = synthesis.solve_triple

        def shifted(*args):
            trip = solve(*args)
            return trip._replace(theta=trip.theta + 2.0 * math.pi)

        monkeypatch.setattr(synthesis, "solve_triple", shifted)
        residuals = [decompose_min(u, m, n).residual for u, m, n in pinned_cases()]
        assert max(residuals) > 1.9
        assert all(r <= 1e-9 or r > 1.9 for r in residuals)


def edge_cases():
    """Seeded (u, m, n) at the corners of the count rule.

    Per gap (pi/2, pi/2 - 1e-10, 1, 0.3, 1e-2, 1e-3): +-identity, half-turns
    about m, n and l, ``rot(l, +-2k*delta)`` for k = 1, 2, 3, the worst-case
    witness, products of two and of three factors and Haar targets, each
    about the axes as given, with m negated and with n negated.
    """
    rng = np.random.default_rng(170)
    cases = []
    for delta in (0.5 * math.pi, 0.5 * math.pi - 1e-10, 1.0, 0.3, 1e-2, 1e-3):
        m, n = random_pair(rng, delta, delta)
        pair = AxisPair.from_axes(m, n)
        pm, pn, l = pair.m, pair.n, pair.l
        targets = [IDENTITY, negate(IDENTITY), worst_case_witness(pair)]
        targets += [rot(v, s * math.pi) for v in (pm, pn, l) for s in (1.0, -1.0)]
        targets += [rot(l, s * 2.0 * k * pair.delta) for k in (1, 2, 3) for s in (1.0, -1.0)]
        for _ in range(3):
            a, b, c = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=3)
            targets.append(compose(rot(pn, a), rot(pm, b)))
            targets.append(compose(rot(pm, a), compose(rot(pn, b), rot(pm, c))))
        targets += [random_su2(rng) for _ in range(4)]
        cases += [(u, mm, nn) for u in targets for mm, nn in ((m, n), (-m, n), (m, -n))]
    return cases


class TestOffUnitAxes:
    """Axes off unit norm but within admission decompose exactly as their
    unit versions do: admission divides them by their norms."""

    @pytest.mark.parametrize("value,scale,delta", [
        (1e-9, 1e-9, 1.0), (1e-9, -1e-9, 0.3), (1e-3, 4e-4, 1.0),
        (1e-3, 4e-4, 0.3), (1e-3, 4e-4, 0.05)])
    def test_residuals_of_unit_versions(self, value, scale, delta):
        # Scales stop just inside 1 +- tol.norm, whose squared norm sits on
        # the admission edge.  At gap 0.05 and scale 1.0004, m.n would be
        # 0.99955 before the division, parallel under tol.parallel = 1e-3.
        rng = np.random.default_rng(180)
        tol = Tolerances.uniform(value)
        m = EZ * (1.0 + 0.999 * scale)
        n = (math.sin(delta) * EX + math.cos(delta) * EZ) * (1.0 + 0.999 * scale)
        unit_m, unit_n = unit_axis(m, tol), unit_axis(n, tol)
        for _ in range(50):
            u = random_su2(rng)
            dec = decompose_min(u, m, n, tol)
            unit = decompose_min(u, unit_m, unit_n)
            assert dec.factors == unit.factors
            assert dec.residual == unit.residual <= 1e-13
            assert verify_decomposition(dec, tol).residual <= 1e-13


def small_gap_cases(delta):
    """Seeded (u, m, n) at gap ``delta``: one of each (parity, swapped) pair
    from Haar targets on random axes, then two rotations about ``l`` and the
    identity on canonical axes."""
    rng = np.random.default_rng(round(-math.log10(delta)))
    want = {(p, s) for p in PUBLIC_CONSTRUCTION for s in (False, True)}
    cases = []
    while want:
        m, n = random_pair(rng, delta, delta)
        u = random_su2(rng)
        analysis = analyze(u, m, n)
        key = (analysis.report.chosen_parity, analysis.governing.swapped)
        if key in want:
            want.discard(key)
            cases.append((u, m, n))
    pair = pair_with_delta(delta)
    for u in (rot(pair.l, rng.uniform(0.0, math.pi)), rot(pair.l, -0.5 * math.pi), IDENTITY):
        cases.append((u, pair.m, pair.n))
    return cases


class TestChainReference:
    """The run-length chains equal the slab-by-slab reference chain, factor
    for factor, at gaps where the chains run to thousands of factors."""

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
    def test_decompose_min_equals_reference(self, delta):
        for u, m, n in small_gap_cases(delta):
            for mm in (m, -m):
                dec = decompose_min(u, mm, n)
                factors, residual = reference_decompose_min(u, mm, n)
                assert hex_factors(dec.factors) == hex_factors(factors)
                assert dec.residual.hex() == residual.hex()
                assert dec.residual == verify_decomposition(dec).residual

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
    def test_constructions_equal_reference(self, delta):
        for u, m, n in small_gap_cases(delta)[::2]:
            pair = AxisPair.from_axes(m, n)
            for parity, build in PUBLIC_CONSTRUCTION.items():
                dec = build(u, pair)
                chain = reference_chain(u, pair, parity)
                factors, residual = reference_factors(chain, u, pair.m, pair.n,
                                                      reverse=parity == "even-nm")
                assert hex_factors(dec.factors) == hex_factors(factors)
                assert dec.residual.hex() == residual.hex()
                assert dec.beta_prime == chain[3]

    def test_long_chain_shares_factors(self):
        long_chains = 0
        for u, m, n in small_gap_cases(1e-4):
            dec = decompose_min(u, m, n)
            assert len({id(f) for f in dec.factors}) <= 8
            long_chains += dec.count > 1000
        assert long_chains >= 6


def count_route_targets(pair, rng):
    """Targets on and near count boundaries at one gap: +-identity, half-turns
    about m, n and l, ``rot(l, 2k*delta)``, the worst-case witness, two-factor
    products of either order, then Haar targets."""
    delta = pair.delta
    targets = [IDENTITY, negate(IDENTITY), rot(pair.m, math.pi), rot(pair.n, math.pi),
               rot(pair.l, math.pi), worst_case_witness(pair)]
    targets += [rot(pair.l, 2.0 * k * delta)
                for k in range(1, min(8, math.ceil(math.pi / (2.0 * delta))))]
    for _ in range(6):
        a, b = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 2)
        targets += [compose(rot(pair.n, a), rot(pair.m, b)),
                    compose(rot(pair.m, a), rot(pair.n, b))]
    return targets + [random_su2(rng) for _ in range(12)]


class TestConstructionCounts:
    """The per-parity constructions count by sphere distance, as ``analyze``
    does; the slab-by-slab reference still counts by the chain's own Euler
    angle, and both give the same counts and factors, boundaries included."""

    @pytest.mark.parametrize("delta", [0.5 * math.pi, 1.0, 0.3, 1e-2, 1e-3])
    def test_equal_the_euler_route(self, delta):
        rng = np.random.default_rng(2100)
        for pair in (pair_with_delta(delta), AxisPair.from_axes(*random_pair(rng, delta, delta))):
            for u in count_route_targets(pair, rng):
                for parity, build in PUBLIC_CONSTRUCTION.items():
                    dec = build(u, pair)
                    chain = reference_chain(u, pair, parity)
                    factors, residual = reference_factors(chain, u, pair.m, pair.n,
                                                          reverse=parity == "even-nm")
                    assert hex_factors(dec.factors) == hex_factors(factors), parity
                    assert dec.residual.hex() == residual.hex()


class TestDecomposeMinReport:
    """``decompose_min`` returns the analysis it ran as ``report``."""

    @pytest.mark.parametrize("m_sign", [1.0, -1.0])
    def test_report_equals_count_min(self, m_sign):
        swapped = 0
        for u, m, n in pinned_cases():
            mm = m_sign * m
            dec = decompose_min(u, mm, n)
            assert dec.report == count_min(u, mm, n)
            assert dec.pair.m_flipped is (m_sign < 0)
            swapped += analyze(u, mm, n).governing.swapped
        assert swapped > 0

    def test_public_constructions_carry_no_report(self):
        pair = pair_with_delta(1.0)
        u = rot(EY, 0.8)
        for build in PUBLIC_CONSTRUCTION.values():
            assert build(u, pair).report is None


class TestDecomposeMinEulerCalls:
    def test_one_euler_factoring_per_call(self, monkeypatch):
        # The analysis counts from sphere distances; only the chain factors
        # its target (the odd chain u, the even chains a shifted target).
        calls = []
        factor = synthesis.generalized_euler

        def counted(*args, **kwargs):
            calls.append(1)
            return factor(*args, **kwargs)

        monkeypatch.setattr(synthesis, "generalized_euler", counted)
        seen = set()
        for u, m, n in pinned_cases():
            for mm in (m, -m):
                calls.clear()
                dec = decompose_min(u, mm, n)
                assert len(calls) == 1
                seen.add(dec.parity)
        assert seen == {"odd", "even-mn", "even-nm"}


class TestSmallGapResidual:
    @pytest.mark.parametrize("m_sign", [1.0, -1.0])
    def test_residual_within_recon_at_gap_1e_4(self, m_sign):
        # At this gap acos(m.n) has an absolute error of about 1e-12, which
        # the chain of ~3e4 factors turns into residuals of several 1e-9.
        rng = np.random.default_rng(1004)
        for _ in range(3):
            m, n = random_pair(rng, 1e-4, 1e-4)
            u = random_su2(rng)
            dec = decompose_min(u, m_sign * m, n)
            assert dec.count == count_min(u, m_sign * m, n).n_min
            assert dec.residual <= 1e-9, dec.residual


class TestNearRightAngleResidual:
    @pytest.mark.parametrize("offset", [1e-12, 5e-10, 9e-10])
    def test_residual_just_below_a_right_angle(self, offset):
        # The general slab triple stays exact up to the float pi/2, so a gap
        # within the decision window of a right angle builds as well as any.
        rng = np.random.default_rng(1)
        pair = pair_with_delta(0.5 * math.pi - offset)
        worst = max(decompose_min(random_su2(rng), pair.m, pair.n).residual
                    for _ in range(400))
        assert worst <= 1e-14, worst
