"""Seeded workloads, their timed calls and their output checks.

Every workload draws Haar-random unit quaternion targets and axis pairs of
fixed gaps from ``numpy.random.default_rng`` seeded with the run's seed, so
the same seed always gives the same inputs.  Instances are grouped into
rounds: one instance per gap (per gap and target encoding for the CLI), so
every slice of a workload gets the same number of instances whatever the
run length.  Inputs are never repeated within a run, so no cache inside the
program can serve an answer it computed before.

A timed call returns the program's raw output; checking it happens later,
outside the timed region.  An instance *fails* when the call raises, the
reconstruction residual exceeds ``tol.recon``, the factors do not
alternate, the factor count differs from ``count_min``, a certificate does
not pass, or the CLI exits non-zero or verifies with ``ok`` false.  A
failure is *hard* when the answer is wrong rather than imprecise: anything
but a residual above ``tol.recon`` and at most ``FEASIBLE_RESIDUAL`` (the
library's own bound for a product that reaches its target), together with
the CLI exit code that such a residual causes, and a certificate whose
search neither reaches the target with a shorter pattern nor stays above
``INFEASIBLE_RESIDUAL``.  Every failure counts against ``ok_frac``; only
hard ones are failed operations in the result line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

import numpy as np

HALF_PI = 0.5 * math.pi
ENCODINGS = ("su2", "so3", "axis_angle", "euler_zyz")

# Rounds between the decompositions that check count-haar's counts; one in
# 32 keeps the check near a sixth of the timed work.
COUNT_CHECK_EVERY = 32
# Instances per gap and encoding in one CLI batch (60 items per batch).
CLI_PER_CELL = 5
# Rounds drawn from the generator at a time.
CHUNK_ROUNDS = 64


@dataclass(frozen=True)
class Instance:
    gap: float
    q: tuple[float, float, float, float]  # target (w, x, y, z), library sign convention
    m: np.ndarray
    n: np.ndarray
    encoding: str = "su2"


@dataclass
class RoundResult:
    """What one round produced, before any check."""

    outputs: list  # per instance: program output, or the exception it raised
    bytes_in: int = 0
    bytes_out: int = 0


@dataclass
class Verdict:
    fails: bool = False
    hard: bool = False
    residual: float | None = None
    reason: str = ""


@dataclass
class CheckTotals:
    attempted: int = 0
    failed: int = 0
    hard: int = 0
    max_residual: float = 0.0
    residuals: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, verdict: Verdict) -> None:
        self.attempted += 1
        if verdict.fails:
            self.failed += 1
            if verdict.hard:
                self.hard += 1
            if len(self.reasons) < 5:
                self.reasons.append(verdict.reason)
        if verdict.residual is not None:
            self.residuals += 1
            self.max_residual = max(self.max_residual, verdict.residual)


def _hamilton_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton product of (N, 4) quaternion arrays."""
    w1, x1, y1, z1 = a.T
    w2, x2, y2, z2 = b.T
    return np.stack([w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                     w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                     w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                     w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2], axis=1)


def _frame_quaternions(m: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Hamilton quaternions of the rotations taking e_y to ``l`` and e_z to ``m``."""
    x = np.cross(l, m)
    r = np.stack([x, l, m], axis=2)  # columns are the images of e_x, e_y, e_z
    t = r[:, 0, 0] + r[:, 1, 1] + r[:, 2, 2]
    # Every 3x3 rotation has trace > -1 except half-turns; draws land there
    # with probability zero, and a near half-turn only loses accuracy.
    w = 0.5 * np.sqrt(np.maximum(1.0 + t, 0.0))
    s = 0.25 / np.maximum(w, 1e-300)
    q = np.stack([w, (r[:, 2, 1] - r[:, 1, 2]) * s, (r[:, 0, 2] - r[:, 2, 0]) * s,
                  (r[:, 1, 0] - r[:, 0, 1]) * s], axis=1)
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _radical_inverse(index: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse of non-negative integers in ``base``."""
    out = np.zeros(len(index))
    i = index.copy()
    f = 1.0 / base
    while i.any():
        out += f * (i % base)
        i //= base
        f /= base
    return out


class InstanceStream:
    """Endless, seeded stream of rounds of one instance per gap.

    Axes point in uniformly random directions.  Each target is drawn from
    the Haar measure as ``F E F^-1``: ``F`` turns the coordinate frame onto
    the axis frame (``l = m x n / |m x n|``, ``m``) and ``E`` has Haar z-y-z
    Euler angles.  The Euler angles come from a Halton sequence (bases 2, 3
    and 5) shifted modulo 1 by a seeded uniform offset per gap, so every
    target is Haar distributed while every prefix of the stream covers the
    angles evenly.  The middle angle sets the chain length and, with the
    first, the count; a run of any length thus sees nearly the same mix of
    instance sizes whatever its seed.
    """

    def __init__(self, rng: np.random.Generator, gaps: tuple[float, ...]) -> None:
        self.rng = rng
        self.gaps = gaps
        self.shift = rng.uniform(size=(len(gaps), 3))
        self.drawn = 0

    def draw(self, rounds: int) -> list[list[Instance]]:
        """The next ``rounds`` rounds, one instance per gap in gap order."""
        rng, gaps = self.rng, self.gaps
        count = rounds * len(gaps)
        m = rng.normal(size=(count, 3))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        l = rng.normal(size=(count, 3))
        l -= np.sum(l * m, axis=1, keepdims=True) * m
        l /= np.linalg.norm(l, axis=1, keepdims=True)
        g = np.tile(np.asarray(gaps), rounds)[:, None]
        # n = cos(g) m + sin(g) (l x m), so that m x n points along l.
        n = np.cos(g) * m + np.sin(g) * np.cross(l, m)

        index = np.repeat(np.arange(self.drawn, self.drawn + rounds), len(gaps))
        self.drawn += rounds
        shift = np.tile(self.shift, (rounds, 1))
        u = np.stack([_radical_inverse(index, b) for b in (2, 3, 5)], axis=1)
        u = (u + shift) % 1.0
        # Haar z-y-z angles: beta has density sin(beta)/2 on [0, pi].
        beta = np.arccos(np.clip(1.0 - 2.0 * u[:, 0], -1.0, 1.0))
        alpha = 2.0 * math.pi * u[:, 1]
        gamma = 4.0 * math.pi * u[:, 2]
        zero = np.zeros(count)
        qz_a = np.stack([np.cos(0.5 * alpha), zero, zero, np.sin(0.5 * alpha)], axis=1)
        qy_b = np.stack([np.cos(0.5 * beta), zero, np.sin(0.5 * beta), zero], axis=1)
        qz_g = np.stack([np.cos(0.5 * gamma), zero, zero, np.sin(0.5 * gamma)], axis=1)
        e = _hamilton_mul(_hamilton_mul(qz_a, qy_b), qz_g)
        f = _frame_quaternions(m, l)
        conj = np.array([1.0, -1.0, -1.0, -1.0])
        h = _hamilton_mul(_hamilton_mul(f, e), f * conj)
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        q = h * conj  # library sign convention
        out = []
        for r in range(rounds):
            row = []
            for j, gap in enumerate(gaps):
                i = r * len(gaps) + j
                row.append(Instance(gap, tuple(float(v) for v in q[i]), m[i], n[i]))
            out.append(row)
        return out


def encode_target(inst: Instance) -> dict:
    """The target in the instance's encoding, computed without the library.

    The library stores rotation ``theta`` about ``v`` as
    ``(cos(theta/2), -sin(theta/2) v)``: the Hamilton quaternion with its
    vector part negated.
    """
    w, x, y, z = inst.q
    if inst.encoding == "su2":
        return {"su2": [w, x, y, z]}
    hx, hy, hz = -x, -y, -z
    if inst.encoding == "so3":
        return {"so3": [
            1 - 2 * (hy * hy + hz * hz), 2 * (hx * hy - w * hz), 2 * (hx * hz + w * hy),
            2 * (hx * hy + w * hz), 1 - 2 * (hx * hx + hz * hz), 2 * (hy * hz - w * hx),
            2 * (hx * hz - w * hy), 2 * (hy * hz + w * hx), 1 - 2 * (hx * hx + hy * hy)]}
    if inst.encoding == "axis_angle":
        s = math.sqrt(x * x + y * y + z * z)
        return {"axis_angle": {"axis": [hx / s, hy / s, hz / s],
                               "angle": 2.0 * math.atan2(s, w)}}
    beta = 2.0 * math.atan2(math.hypot(hx, hy), math.hypot(w, hz))
    half_sum = math.atan2(hz, w)
    half_diff = math.atan2(-hx, hy)
    return {"euler_zyz": [half_sum + half_diff, beta, half_sum - half_diff]}


def instance_obj(inst: Instance) -> dict:
    return {"m": [float(v) for v in inst.m], "n": [float(v) for v in inst.n],
            "target": encode_target(inst)}


class Workload:
    """One seeded workload: its inputs, its timed calls and its checks."""

    name = ""
    gaps: tuple[float, ...] = ()
    batch = False  # one latency per round (its time per item) instead of per call

    def __init__(self, api: ModuleType, scratch: Path) -> None:
        self.api = api
        self.scratch = scratch
        self.tol = api.DEFAULT_TOL

    def rounds(self, seed: int):
        """Endless stream of rounds, the same for the same seed."""
        stream = InstanceStream(np.random.default_rng(seed), self.gaps)
        while True:
            yield from self.make_rounds(stream, CHUNK_ROUNDS)

    def make_rounds(self, stream: InstanceStream, count: int) -> list:
        return stream.draw(count)

    def call(self, u, inst: Instance) -> object:
        raise NotImplementedError

    def run_round(self, rnd, timer) -> RoundResult:
        """Time each instance of the round as one call through ``timer.call``."""
        su2 = self.api.Su2Element
        outputs = []
        for inst in rnd:
            u = su2(*inst.q)
            outputs.append(timer.call(lambda: self.call(u, inst)))
        return RoundResult(outputs)

    def check_round(self, index: int, rnd, result: RoundResult) -> list[Verdict]:
        return [self.check(index, inst, out) for inst, out in zip(rnd, result.outputs)]

    def check(self, index: int, inst: Instance, out: object) -> Verdict:
        raise NotImplementedError

    def setup_code(self) -> str:
        """Python that answers the instance in ``first.json``; run in a fresh interpreter."""
        raise NotImplementedError

    def setup_answer(self, out: object) -> str:
        """What the set-up code prints for the program output ``out``."""
        raise NotImplementedError

    def setup_input(self, rnd) -> object:
        inst = rnd[0]
        return {"q": list(inst.q), "m": inst.m.tolist(), "n": inst.n.tolist()}

    # Shared checks -------------------------------------------------------

    def check_decomposition(self, dec, u, m, n) -> Verdict:
        """Replay through ``verify_decomposition`` and compare with ``count_min``."""
        api = self.api
        ver = api.verify_decomposition(dec, self.tol)
        n_min = api.count_min(u, m, n, self.tol).n_min
        if not (ver.alternates and ver.angles_in_window and ver.nonempty):
            return Verdict(True, True, ver.residual, f"malformed factors: {ver}")
        if dec.count != n_min:
            return Verdict(True, True, ver.residual,
                           f"count {dec.count} != count_min {n_min}")
        if ver.residual > api.oracle.FEASIBLE_RESIDUAL:
            return Verdict(True, True, ver.residual, f"residual {ver.residual:.3g}")
        if ver.residual > self.tol.recon:
            return Verdict(True, False, ver.residual,
                           f"residual {ver.residual:.3g} > recon {self.tol.recon:g}")
        return Verdict(residual=ver.residual)


def _raised(out: object) -> Verdict | None:
    if isinstance(out, Exception):
        return Verdict(True, True, None, f"raised {type(out).__name__}: {out}")
    return None


class CountHaar(Workload):
    name = "count-haar"
    gaps = (HALF_PI, 1.0, 0.3)

    def call(self, u, inst):
        return self.api.count_min(u, inst.m, inst.n)

    def check(self, index, inst, out):
        bad = _raised(out)
        if bad:
            return bad
        counts = (out.m_odd, out.m_even_mn, out.m_even_nm)
        parity = {"odd": out.m_odd, "even-mn": out.m_even_mn,
                  "even-nm": out.m_even_nm}.get(out.chosen_parity)
        lowenthal = math.ceil(math.pi / inst.gap) + 1
        if out.n_min != min(counts) or parity != out.n_min:
            return Verdict(True, True, None, f"inconsistent report {out}")
        if out.lowenthal != lowenthal or not 1 <= out.n_min <= out.lowenthal:
            return Verdict(True, True, None,
                           f"n_min {out.n_min} vs lowenthal {out.lowenthal} ({lowenthal})")
        if index % COUNT_CHECK_EVERY:
            return Verdict()
        u = self.api.Su2Element(*inst.q)
        dec = self.api.decompose_min(u, inst.m, inst.n, tol=self.tol)
        return self.check_decomposition(dec, u, inst.m, inst.n)

    def setup_answer(self, out):
        return str(out.n_min)

    def setup_code(self):
        return ("r = biaxial.count_min(biaxial.Su2Element(*first['q']), first['m'], first['n'])\n"
                "print(r.n_min)\n")


class DecomposeSmallGap(Workload):
    name = "decompose-small-gap"
    gaps = (1e-2, 1e-3, 1e-4)

    def call(self, u, inst):
        return self.api.decompose_min(u, inst.m, inst.n)

    def check(self, index, inst, out):
        bad = _raised(out)
        if bad:
            return bad
        return self.check_decomposition(out, out.target, inst.m, inst.n)

    def setup_answer(self, out):
        return str(out.count)

    def setup_code(self):
        return ("d = biaxial.decompose_min(biaxial.Su2Element(*first['q']), first['m'], first['n'])\n"
                "print(d.count)\n")


class Certify(Workload):
    """Certificates at the default settings.

    Gap 0.3 is left out: its certificates take from 26 ms to over 1.4 s
    (median 156 ms), so a run holds too few of them for its throughput to
    repeat from seed to seed.
    """

    name = "certify"
    gaps = (HALF_PI, 1.0)

    def call(self, u, inst):
        return self.api.minimality_certificate(u, inst.m, inst.n)

    def check(self, index, inst, out):
        bad = _raised(out)
        if bad:
            return bad
        u = self.api.Su2Element(*inst.q)
        dec = self.api.decompose_min(u, inst.m, inst.n, tol=self.tol)
        verdict = self.check_decomposition(dec, u, inst.m, inst.n)
        residual = max(verdict.residual, out.construction_residual)
        if out.n_min != dec.count or out.construction_count != out.n_min:
            return Verdict(True, True, residual,
                           f"certificate count {out.n_min}/{out.construction_count}"
                           f" vs decomposition {dec.count}")
        if not out.passed:
            # The count is shown wrong only when a shorter pattern reaches
            # the target (FEASIBLE_RESIDUAL); a best search residual between
            # that and INFEASIBLE_RESIDUAL, or a construction that misses
            # tol.recon, leaves the certificate inconclusive.
            shorter = min((res for _, _, res in out.refutations), default=math.inf)
            hard = verdict.hard or shorter <= self.api.oracle.FEASIBLE_RESIDUAL
            return Verdict(True, hard, residual, f"certificate failed: {out}")
        if verdict.fails:
            return Verdict(True, verdict.hard, residual, verdict.reason)
        return Verdict(residual=residual)

    def setup_answer(self, out):
        return str(out.passed)

    def setup_code(self):
        return ("r = biaxial.minimality_certificate(biaxial.Su2Element(*first['q']),"
                " first['m'], first['n'])\n"
                "print(r.passed)\n")


class CliRoundtrip(Workload):
    """``biaxial.cli.main`` on one batch file, then ``verify`` on its output.

    A round is one batch of ``CLI_PER_CELL`` instances per gap and target
    encoding.  Its latency sample is the time of its two CLI calls divided
    by the batch size.
    """

    name = "cli-roundtrip"
    gaps = (HALF_PI, 1.0, 0.3)
    batch = True

    def make_rounds(self, stream, count):
        per_batch = CLI_PER_CELL * len(ENCODINGS)
        flat = stream.draw(count * per_batch)
        out = []
        for b in range(count):
            batch = []
            for r, row in enumerate(flat[b * per_batch:(b + 1) * per_batch]):
                enc = ENCODINGS[r % len(ENCODINGS)]
                batch.extend(Instance(i.gap, i.q, i.m, i.n, enc) for i in row)
            out.append(batch)
        return out

    def run_round(self, rnd, timer):
        cli = self.api.cli
        paths = {k: self.scratch / f"cli-{k}.json"
                 for k in ("batch", "certs", "pairs", "verdicts")}

        def run_cli(command: str, src: str, dst: str):
            return timer.call(lambda: cli.main([command, "--input", str(paths[src]),
                                                "--output", str(paths[dst])]))

        items = [instance_obj(inst) for inst in rnd]
        paths["batch"].write_text(json.dumps(items), encoding="utf-8")
        code_dec = run_cli("decompose", "batch", "certs")
        certs = verdicts = code_ver = None
        # Exit code 4 flags a residual breach; its certificates are still written.
        if code_dec in (0, 4):
            certs = json.loads(paths["certs"].read_text(encoding="utf-8"))
            pairs = [{"instance": i, "certificate": c} for i, c in zip(items, certs)]
            paths["pairs"].write_text(json.dumps(pairs), encoding="utf-8")
            code_ver = run_cli("verify", "pairs", "verdicts")
            if code_ver in (0, 1):
                verdicts = json.loads(paths["verdicts"].read_text(encoding="utf-8"))
        sizes = {k: p.stat().st_size if p.exists() else 0 for k, p in paths.items()}
        for p in paths.values():
            p.unlink(missing_ok=True)
        outputs = [(code_dec, code_ver, certs and certs[i], verdicts and verdicts[i])
                   for i in range(len(rnd))]
        return RoundResult(outputs, bytes_in=sizes["batch"] + sizes["pairs"],
                           bytes_out=sizes["certs"] + sizes["verdicts"])

    def check(self, index, inst, out):
        api = self.api
        code_dec, code_ver, cert, verdict = out
        if cert is None or verdict is None:
            return Verdict(True, True, None, f"exit codes {code_dec}/{code_ver}")
        u = api.Su2Element(*inst.q)
        lift = api.Su2Element(*cert["target_su2"])
        overlap = abs(u.w * lift.w + u.x * lift.x + u.y * lift.y + u.z * lift.z)
        if abs(overlap - 1.0) > 1e-9:
            return Verdict(True, True, None, f"{inst.encoding} target parsed wrong")
        factors = tuple(api.Factor(api.AxisLabel(f["axis"]), float(f["angle"]))
                        for f in cert["factors"])
        dec = api.Decomposition(factors=factors, target=lift, axis_m=inst.m,
                                axis_n=inst.n, pair=api.AxisPair.from_axes(inst.m, inst.n),
                                parity=cert["parity"], residual=cert["residual"])
        mine = self.check_decomposition(dec, u, inst.m, inst.n)
        residual = max(mine.residual, verdict["residual"])
        if mine.fails:
            return Verdict(True, mine.hard, residual, mine.reason)
        if code_dec != 0 or code_ver != 0 or not verdict["ok"]:
            return Verdict(True, True, residual,
                           f"exit codes {code_dec}/{code_ver}, verify {verdict}")
        return Verdict(residual=residual)

    def setup_answer(self, out):
        return str(out[0])

    def setup_input(self, rnd):
        return [instance_obj(rnd[0])]

    def setup_code(self):
        return ("import os\n"
                "out = os.path.join(os.path.dirname(first_path), 'first-out.json')\n"
                "code = biaxial.cli.main(['decompose', '--input', first_path, '--output', out])\n"
                "os.remove(out)\n"
                "print(code)\n")


WORKLOADS = {w.name: w for w in (CountHaar, DecomposeSmallGap, Certify, CliRoundtrip)}
