"""JSON instance/certificate schemas and round trips."""

import json
import math

import numpy as np
import pytest

from biaxial import quat_distance, rot, to_so3
from biaxial.counting import analyze
from biaxial.serialization import (
    certificate_to_obj,
    instance_to_obj,
    make_certificate,
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
        assert inst.target_encoding == "su2"

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
        assert inst.target_encoding == "euler_zyz"

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
        with pytest.raises(ValueError):
            parse_instance(base_instance(bad))

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
        result = analyze(u, m, n)
        dec = decompose_min(u, m, n)
        cert = make_certificate(result.report, result.pair, u, dec)
        obj = certificate_to_obj(cert)
        wire = json.dumps(obj)
        parsed = parse_certificate(json.loads(wire))
        assert parsed == cert
        # Shortest-round-trip decimals are bit-exact through JSON.
        assert json.loads(wire) == obj

    def test_count_only_certificate(self):
        rng = np.random.default_rng(51)
        m, n = random_pair(rng, 0.4, 0.5 * math.pi)
        u = random_su2(rng)
        result = analyze(u, m, n)
        cert = make_certificate(result.report, result.pair, u)
        obj = certificate_to_obj(cert)
        assert "factors" not in obj
        assert "residual" not in obj
        assert parse_certificate(obj) == cert

    def test_instance_round_trip(self):
        rng = np.random.default_rng(52)
        m, n = random_pair(rng, 0.4, 0.5 * math.pi)
        u = random_su2(rng)
        obj = instance_to_obj(parse_instance(
            {"m": list(m), "n": list(n), "target": {"su2": list(u.components())}}))
        again = parse_instance(json.loads(json.dumps(obj)))
        assert quat_distance(again.target, u) < 1e-15
        assert np.allclose(again.m, m)

    def test_rejects_malformed_certificate(self):
        with pytest.raises(ValueError):
            parse_certificate({"count": 2})
