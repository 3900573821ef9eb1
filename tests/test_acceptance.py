"""Acceptance suite.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single pass/fail line (visible with ``pytest -s``).  Corpora are
seeded, so every run sees the same instances.
"""

import math
import time

import numpy as np

from biaxial import (
    AxisLabel,
    AxisPair,
    PatternSpec,
    compose,
    count_min,
    decompose_min,
    f_angle,
    g_count,
    generalized_euler,
    lowenthal_bound,
    m_odd_count,
    minimality_certificate,
    negate,
    numeric_search,
    quat_distance,
    rot,
    to_so3,
    worst_case_witness,
)
from biaxial.synthesis import decompose_even
from _helpers import (
    boundary_margin,
    bounds_of,
    haar_angle_below,
    pair_frame_margin,
    random_axis,
    random_pair,
    random_su2,
)

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])

DELTAS = (0.5 * math.pi, math.pi / 3, 0.25 * math.pi, 1.0)
EXPECTED_BOUNDS = (3, 4, 5, 5)


def pair_for(delta: float) -> AxisPair:
    n = math.sin(delta) * EX + math.cos(delta) * EZ
    return AxisPair.from_axes(EZ, n)


def report(number: int, name: str, failures: list, started: float) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} "
          f"({time.perf_counter() - started:.2f}s)")
    assert not failures, f"criterion {number}: " + "; ".join(str(f) for f in failures)


def test_criterion_1_worst_case_bound_reproduction():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(0)
    ball_rng = np.random.default_rng(3)
    for delta, bound in zip(DELTAS, EXPECTED_BOUNDS):
        pair = pair_for(delta)
        got = lowenthal_bound(pair.m, pair.n)
        if got != bound:
            failures.append(f"bound formula at delta={delta}: {got} != {bound}")
        witness = worst_case_witness(pair)
        witness_count = count_min(witness, pair.m, pair.n).n_min
        if witness_count != bound:
            failures.append(f"witness count at delta={delta}: {witness_count} != {bound}")
        observed = 0
        for _ in range(500):
            u = random_su2(rng)
            n_min = count_min(u, pair.m, pair.n).n_min
            observed = max(observed, n_min)
            if n_min > bound:
                failures.append(f"count {n_min} exceeds bound {bound} at delta={delta}")
        # The bound is attained on a whole ball around the witness W: with
        # nu = ceil(pi/delta), W clears every threshold the bound needs (a
        # middle Euler angle beta or f above (nu-2)*delta or (nu-1)*delta)
        # by rho = pi - (nu-1)*delta, and a left factor of rotation angle
        # theta moves each middle angle by at most theta.  Every target in
        # the ball of radius rho - 1e-3 must therefore count exactly the
        # bound; the ball's Haar mass (rho - sin rho)/pi bounds the mass of
        # the bound-attaining set from below.
        nu = math.ceil(math.pi / delta)
        rho = math.pi - (nu - 1) * delta
        radius = rho - 1e-3
        for i in range(500):
            u = compose(rot(random_axis(ball_rng), haar_angle_below(ball_rng, radius)),
                        witness)
            n_min = count_min(u, pair.m, pair.n).n_min
            if n_min != bound:
                failures.append(
                    f"ball draw {i} at delta={delta} (rho={rho:.4f}) counts {n_min}, "
                    f"not the bound {bound}")
                break
        print(f"[acceptance]   delta={delta:.4f}: rho={rho:.4f}, "
              f"bound-attaining mass >= {(rho - math.sin(rho)) / math.pi:.3e}, "
              f"Haar max over 500 = {observed} (bound {bound})")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5 s")
    report(1, "worst-case bound reproduction", failures, started)


def test_criterion_2_construction_validity():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(1)
    worst_residual = 0.0
    for i in range(1000):
        m, n = random_pair(rng, 0.15, 0.5 * math.pi)
        u = random_su2(rng)
        dec = decompose_min(u, m, n)
        worst_residual = max(worst_residual, dec.residual)
        if dec.residual > 1e-9:
            failures.append(f"instance {i}: residual {dec.residual:.3e}")
        if any(a.label is b.label for a, b in zip(dec.factors, dec.factors[1:])):
            failures.append(f"instance {i}: factors do not alternate")
        expected = count_min(u, m, n).n_min
        if dec.count != expected:
            failures.append(f"instance {i}: count {dec.count} != n_min {expected}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10 s")
    print(f"[acceptance]   worst construction residual: {worst_residual:.3e}")
    report(2, "construction validity on 1000 instances", failures, started)


def test_criterion_3_oracle_agreement():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2)
    for i in range(200):
        m, n = random_pair(rng, 0.3, 0.5 * math.pi)
        u = random_su2(rng)
        # Branch-boundary instances are legitimately ambiguous in floating
        # point and are excluded from the randomized corpus.
        while boundary_margin(u, m, n) <= 1e-3:
            m, n = random_pair(rng, 0.3, 0.5 * math.pi)
            u = random_su2(rng)
        cert = minimality_certificate(u, m, n, starts=64, seed=100 + i)
        if not cert.passed:
            failures.append(
                f"instance {i}: n_min={cert.n_min} "
                f"residual={cert.construction_residual:.3e} "
                f"refutations={cert.refutations}")
    elapsed = time.perf_counter() - started
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5 min")
    report(3, "oracle agreement on 200 instances", failures, started)


def test_criterion_4_closed_form_identities():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(4)

    for beta in np.linspace(0.0, math.pi, 29):
        for delta in (0.2, 0.7854, 1.2, 0.5 * math.pi):
            if abs(f_angle(0.0, beta, delta) - abs(beta - delta)) > 1e-12:
                failures.append(f"f(0,{beta},{delta}) != |beta-delta|")
    for _ in range(200):
        alpha = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        delta = rng.uniform(0.05, 0.5 * math.pi)
        if abs(f_angle(alpha, 0.0, delta) - delta) > 1e-12:
            failures.append(f"f({alpha},0,{delta}) != delta")

    for delta in list(np.linspace(0.05, 0.5 * math.pi, 20)) + [0.5 * math.pi]:
        pair = pair_for(delta)
        lhs = rot(pair.l, 2.0 * delta)
        rhs = compose(rot(pair.n, math.pi), rot(pair.m, -math.pi))
        if quat_distance(lhs, rhs) > 1e-12:
            failures.append(f"two-factor full-slab identity fails at delta={delta}")
        alpha_p = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        conj = compose(rot(pair.l, delta),
                       compose(rot(pair.m, alpha_p), rot(pair.l, -delta)))
        if quat_distance(conj, rot(pair.n, alpha_p)) > 1e-12:
            failures.append(f"gap-conjugation identity fails at delta={delta}")

    for i in range(100):
        m, n = random_pair(rng, 0.2, 0.5 * math.pi)
        pair = AxisPair.from_axes(m, n)
        alpha = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        beta = rng.uniform(0.0, math.pi)
        gamma = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
        u = compose(rot(pair.m, alpha),
                    compose(rot(pair.l, beta), rot(pair.m, gamma)))
        dec = decompose_even(u, pair)
        if abs(dec.beta_prime - f_angle(alpha, beta, pair.delta)) > 1e-10:
            failures.append(f"auxiliary-angle identity fails on triple {i}")
    report(4, "closed-form identities", failures, started)


def test_criterion_5_geodesic_bounds_on_produced_decompositions():
    started = time.perf_counter()
    failures = []

    # Worst-case witnesses for the four calibration gaps.
    for delta in DELTAS:
        pair = pair_for(delta)
        dec = decompose_min(worst_case_witness(pair), pair.m, pair.n)
        if not bounds_of(dec).passed:
            failures.append(f"witness bounds fail at delta={delta}")

    # Same corpus as criterion 2.
    rng = np.random.default_rng(1)
    for i in range(1000):
        m, n = random_pair(rng, 0.15, 0.5 * math.pi)
        u = random_su2(rng)
        dec = decompose_min(u, m, n)
        if not bounds_of(dec).passed:
            failures.append(f"bounds fail on construction corpus instance {i}")

    # Same corpus as criterion 3.
    rng = np.random.default_rng(2)
    for i in range(200):
        m, n = random_pair(rng, 0.3, 0.5 * math.pi)
        u = random_su2(rng)
        while boundary_margin(u, m, n) <= 1e-3:
            m, n = random_pair(rng, 0.3, 0.5 * math.pi)
            u = random_su2(rng)
        dec = decompose_min(u, m, n)
        if not bounds_of(dec).passed:
            failures.append(f"bounds fail on oracle corpus instance {i}")
    report(5, "geodesic necessary conditions", failures, started)


def test_criterion_6_parity_formulas_against_search():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(5)

    for i in range(100):
        while True:
            m, n = random_pair(rng, 0.5, 0.5 * math.pi)
            pair = AxisPair.from_axes(m, n)
            u = random_su2(rng)
            beta = generalized_euler(u, pair).beta
            k = m_odd_count(beta, pair.delta)
            if k >= 3 and pair_frame_margin(u, pair) > 1e-3:
                break
        hit = numeric_search(u, pair, PatternSpec(k, AxisLabel.M),
                             starts=64, seed=200 + i, stop_below=1e-7)
        if hit.best_residual >= 1e-6:
            failures.append(f"odd instance {i}: k={k} residual {hit.best_residual:.3e}")
        miss = numeric_search(u, pair, PatternSpec(k - 2, AxisLabel.M),
                              starts=64, seed=300 + i, stop_below=1e-4)
        if miss.best_residual <= 1e-4:
            failures.append(
                f"odd instance {i}: k-2={k - 2} reached {miss.best_residual:.3e}")

    for i in range(50):
        while True:
            m, n = random_pair(rng, 0.5, 0.5 * math.pi)
            pair = AxisPair.from_axes(m, n)
            u = random_su2(rng)
            triple = generalized_euler(u, pair)
            g = g_count(triple.alpha, triple.beta, pair.delta)
            if g in (4, 6) and pair_frame_margin(u, pair) > 1e-3:
                break
        hit = numeric_search(u, pair, PatternSpec(g, AxisLabel.M),
                             starts=64, seed=400 + i, stop_below=1e-7)
        if hit.best_residual >= 1e-6:
            failures.append(f"even instance {i}: g={g} residual {hit.best_residual:.3e}")
        miss = numeric_search(u, pair, PatternSpec(g - 2, AxisLabel.M),
                              starts=64, seed=500 + i, stop_below=1e-4)
        if miss.best_residual <= 1e-4:
            failures.append(
                f"even instance {i}: g-2={g - 2} reached {miss.best_residual:.3e}")
    report(6, "parity formulas vs restricted search", failures, started)


def test_criterion_7_homomorphism_and_lift_invariance():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(6)
    for i in range(1000):
        a, b = random_su2(rng), random_su2(rng)
        err = np.abs(to_so3(compose(a, b)) - to_so3(a) @ to_so3(b)).max()
        if err > 1e-12:
            failures.append(f"homomorphism violated at pair {i}: {err:.3e}")

    rng = np.random.default_rng(7)
    for i in range(200):
        m, n = random_pair(rng, 0.25, 0.5 * math.pi)
        u = random_su2(rng)
        base = count_min(u, m, n).n_min
        if count_min(negate(u), m, n).n_min != base:
            failures.append(f"negation changes count at instance {i}")
        for mm, nn in ((-m, n), (m, -n), (-m, -n)):
            if count_min(u, mm, nn).n_min != base:
                failures.append(f"axis sign flip changes count at instance {i}")
    report(7, "homomorphism and lift invariance", failures, started)


def test_criterion_8_worked_numeric_anchor():
    started = time.perf_counter()
    failures = []

    u = rot(EY, math.pi)
    rep = count_min(u, EZ, EX)
    dec = decompose_min(u, EZ, EX)
    if rep.n_min != 2 or dec.count != 2:
        failures.append(f"half-turn target: count {rep.n_min}/{dec.count} != 2")
    labels = [f.label.value for f in dec.factors]
    angles = [f.angle for f in dec.factors]
    if labels != ["n", "m"]:
        failures.append(f"half-turn target: labels {labels}")
    if abs(angles[0] - math.pi) > 1e-12 or abs(angles[1] + math.pi) > 1e-12:
        failures.append(f"half-turn target: angles {angles}")
    if dec.residual > 1e-12:
        failures.append(f"half-turn target: residual {dec.residual:.3e}")

    u = rot(EY, 0.5 * math.pi)
    rep = count_min(u, EZ, EX)
    dec = decompose_min(u, EZ, EX)
    if rep.n_min != 3 or dec.count != 3:
        failures.append(f"quarter-turn target: count {rep.n_min}/{dec.count} != 3")
    if dec.residual > 1e-12:
        failures.append(f"quarter-turn target: residual {dec.residual:.3e}")
    report(8, "worked numeric anchors", failures, started)
