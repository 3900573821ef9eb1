"""JSON instance/certificate schemas and round trips."""

import json
import math

import numpy as np
import pytest

from biaxial import InvalidRotationError, quat_distance, rot, to_so3
from biaxial.core import from_euler_zyz
from biaxial.counting import analyze
from biaxial.serialization import (
    Certificate,
    certificate_to_obj,
    parse_certificate,
    parse_instance,
)
from biaxial.synthesis import decompose_min
from _helpers import random_pair, random_su2

EX = [1.0, 0.0, 0.0]
EY = [0.0, 1.0, 0.0]
EZ = [0.0, 0.0, 1.0]


def base_instance(target):
    return {"m": EZ, "n": EX, "target": target}


class TestParseInstance:
    def test_su2_target(self):
        inst = parse_instance(base_instance({"su2": [0.0, 0.0, -1.0, 0.0]}))
        assert quat_distance(inst.target, rot(EY, math.pi)) < 1e-15

    def test_so3_target_uses_canonical_lift(self):
        u = rot(EY, 0.5 * math.pi)
        entries = [float(v) for v in to_so3(u).reshape(-1)]
        inst = parse_instance(base_instance({"so3": entries}))
        assert quat_distance(inst.target, u) < 1e-12

    def test_axis_angle_target(self):
        inst = parse_instance(base_instance(
            {"axis_angle": {"axis": EY, "angle": math.pi}}))
        assert quat_distance(inst.target, rot(EY, math.pi)) < 1e-15

    def test_euler_target(self):
        inst = parse_instance(base_instance({"euler_zyz": [0.3, 1.1, -0.7]}))
        assert inst.target == from_euler_zyz(0.3, 1.1, -0.7)

    @pytest.mark.parametrize("bad", [
        {"su2": [1.0, 0.0, 0.0]},
        {"su2": [2.0, 0.0, 0.0, 0.0]},
        {"so3": [1.0] * 8},
        {"axis_angle": {"axis": EY}},
        {"euler_zyz": [0.0]},
        {"nope": []},
        {"su2": [1.0, 0.0, 0.0, 0.0], "so3": [0.0] * 9},
        {"su2": 5},
        {"so3": 5},
        {"euler_zyz": 5},
        {"su2": [[1.0], 0.0, 0.0, 0.0]},
        {"axis_angle": {"axis": EY, "angle": [1.0]}},
        {"axis_angle": {"axis": 5, "angle": 1.0}},
        {"su2": [True, 0, 0, 0]},
        {"su2": ["1", "0", "0", "0"]},
        {"so3": ["1", 0, 0, 0, 1, 0, 0, 0, 1]},
        {"axis_angle": {"axis": EY, "angle": "3.0"}},
        {"axis_angle": {"axis": ["0", "1", "0"], "angle": 3.0}},
        {"euler_zyz": [True, False, False]},
    ])
    def test_rejects_malformed_targets(self, bad):
        # Shapes fail in the parser; an su2 target off unit norm fails where
        # analyze admits it.
        with pytest.raises(ValueError):
            inst = parse_instance(base_instance(bad))
            analyze(inst.target, inst.m, inst.n)

    def test_su2_target_and_axes_are_admitted_by_analyze(self):
        # The parser keeps what it read; analyze admits it once.
        inst = parse_instance({"m": [0.0, 0.0, 2.0], "n": EX,
                               "target": {"su2": [2.0, 0.0, 0.0, 0.0]}})
        assert inst.m == [0.0, 0.0, 2.0]
        assert inst.target.components() == (2.0, 0.0, 0.0, 0.0)
        with pytest.raises(InvalidRotationError, match="^target must have norm 1"):
            analyze(inst.target, inst.m, inst.n)

    @pytest.mark.parametrize("m", [[True, False, False], ["0", "0", "1"]])
    def test_rejects_non_number_axes(self, m):
        # float() takes both; neither is a JSON number.
        with pytest.raises(ValueError, match="m must be a list of 3 numbers"):
            parse_instance({"m": m, "n": EX, "target": {"su2": [1, 0, 0, 0]}})

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            parse_instance({"m": EZ, "target": {"su2": [1, 0, 0, 0]}})


class TestCertificateRoundTrip:
    def test_fields_survive_json(self):
        rng = np.random.default_rng(50)
        m, n = random_pair(rng, 0.4, 0.5 * math.pi)
        u = random_su2(rng)
        dec = decompose_min(u, m, n)
        obj = certificate_to_obj(dec.report, dec.pair, dec.target, dec)
        wire = json.dumps(obj)
        parsed = parse_certificate(json.loads(wire))
        assert parsed == Certificate(
            count=dec.count, parity=dec.parity, lowenthal=dec.report.lowenthal,
            target_su2=dec.target, report=dec.report, delta=dec.pair.delta,
            m_flipped=dec.pair.m_flipped, swapped=dec.swapped,
            factors=dec.factors, residual=dec.residual)
        # Shortest-round-trip decimals are bit-exact through JSON.
        assert json.loads(wire) == obj

    def test_count_only_certificate(self):
        rng = np.random.default_rng(51)
        m, n = random_pair(rng, 0.4, 0.5 * math.pi)
        u = random_su2(rng)
        result = analyze(u, m, n)
        report, governing = result.report, result.governing
        obj = certificate_to_obj(report, governing, result.target)
        assert "factors" not in obj
        assert "residual" not in obj
        assert parse_certificate(obj) == Certificate(
            count=report.n_min, parity=report.chosen_parity,
            lowenthal=report.lowenthal, target_su2=result.target, report=report,
            delta=governing.delta, m_flipped=governing.m_flipped,
            swapped=governing.swapped)

    def test_report_fields_in_field_order(self):
        result = analyze(rot(EY, 2.0), EZ, EX)
        obj = certificate_to_obj(result.report, result.governing, result.target)
        assert list(obj) == ["count", "parity", "lowenthal", "delta", "m_flipped",
                             "swapped", "target_su2", "report", "order"]
        assert list(obj["report"]) == ["n_min", "m_odd", "m_even_mn", "m_even_nm",
                                       "beta", "beta_prime", "lowenthal",
                                       "chosen_parity"]

    def test_rejects_malformed_certificate(self):
        with pytest.raises(ValueError):
            parse_certificate({"count": 2})
