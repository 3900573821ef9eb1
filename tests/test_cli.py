"""End-to-end CLI behaviour: commands, batch mode, exit codes."""

import json
import math

import pytest

from biaxial.cli import main

EX = [1.0, 0.0, 0.0]
EY = [0.0, 1.0, 0.0]
EZ = [0.0, 0.0, 1.0]

WORKED = {"m": EZ, "n": EX,
          "target": {"axis_angle": {"axis": EY, "angle": math.pi}}}


def run_cli(tmp_path, capsys, command, payload, extra=None):
    inp = tmp_path / "in.json"
    inp.write_text(json.dumps(payload))
    argv = [command, "--input", str(inp)] + (extra or [])
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestCount:
    def test_identity(self, tmp_path, capsys):
        payload = {"m": EZ, "n": EX, "target": {"su2": [1.0, 0.0, 0.0, 0.0]}}
        code, out = run_cli(tmp_path, capsys, "count", payload)
        assert code == 0
        assert out["count"] == 1
        assert "factors" not in out

    def test_worked_two_factor(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, capsys, "count", WORKED)
        assert code == 0
        assert out["count"] == 2
        assert out["lowenthal"] == 3

    def test_worst_case_target_at_third_gap(self, tmp_path, capsys):
        delta = math.pi / 3
        n = [math.sin(delta), 0.0, math.cos(delta)]
        payload = {"m": EZ, "n": n,
                   "target": {"axis_angle": {"axis": EY, "angle": math.pi}}}
        code, out = run_cli(tmp_path, capsys, "count", payload)
        assert code == 0
        assert out["count"] == 4 == out["lowenthal"]

    def test_parallel_axes_exit_code(self, tmp_path, capsys):
        payload = {"m": EZ, "n": EZ, "target": {"su2": [1.0, 0.0, 0.0, 0.0]}}
        code, _ = run_cli(tmp_path, capsys, "count", payload)
        assert code == 3

    def test_malformed_exit_code(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, capsys, "count", {"m": EZ})
        assert code == 2


class TestDecompose:
    def test_worked_factors(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, capsys, "decompose", WORKED)
        assert code == 0
        assert out["order"] == "right-to-left"
        assert [f["axis"] for f in out["factors"]] == ["n", "m"]
        assert out["factors"][0]["angle"] == pytest.approx(math.pi)
        assert out["factors"][1]["angle"] == pytest.approx(-math.pi)
        assert out["residual"] <= 1e-12

    def test_identity_single_zero_factor(self, tmp_path, capsys):
        payload = {"m": EZ, "n": EX, "target": {"su2": [1.0, 0.0, 0.0, 0.0]}}
        code, out = run_cli(tmp_path, capsys, "decompose", payload)
        assert code == 0
        assert out["factors"] == [{"axis": "m", "angle": 0.0}]

    def test_trim_flag(self, tmp_path, capsys):
        payload = {"m": EZ, "n": EX, "target": {"su2": [1.0, 0.0, 0.0, 0.0]}}
        code, out = run_cli(tmp_path, capsys, "decompose", payload, ["--trim"])
        assert code == 0
        assert out["factors"] == []

    def test_nan_axis_exit_code(self, tmp_path, capsys):
        payload = {"m": [math.nan, 0.0, 1.0], "n": EX,
                   "target": {"su2": [1.0, 0.0, 0.0, 0.0]}}
        code, out = run_cli(tmp_path, capsys, "decompose", payload)
        assert code == 2
        assert out is None

    def test_batch_pipeline_of_100(self, tmp_path, capsys):
        rng = __import__("numpy").random.default_rng(60)
        batch = []
        for _ in range(100):
            axis = rng.normal(size=3)
            axis /= (axis @ axis) ** 0.5
            batch.append({
                "m": EZ, "n": EX,
                "target": {"axis_angle": {"axis": [float(v) for v in axis],
                                          "angle": float(rng.uniform(-6, 6))}},
            })
        code, certs = run_cli(tmp_path, capsys, "decompose", batch)
        assert code == 0
        assert len(certs) == 100
        pairs = [{"instance": inst, "certificate": cert}
                 for inst, cert in zip(batch, certs)]
        code, results = run_cli(tmp_path, capsys, "verify", pairs)
        assert code == 0
        assert all(r["ok"] for r in results)


class TestVerify:
    def _verified_payload(self, tmp_path, capsys):
        code, cert = run_cli(tmp_path, capsys, "decompose", WORKED)
        assert code == 0
        return {"instance": WORKED, "certificate": cert}

    def test_valid_certificate(self, tmp_path, capsys):
        payload = self._verified_payload(tmp_path, capsys)
        code, out = run_cli(tmp_path, capsys, "verify", payload)
        assert code == 0
        assert out["ok"]

    def test_tampered_angle(self, tmp_path, capsys):
        payload = self._verified_payload(tmp_path, capsys)
        payload["certificate"]["factors"][0]["angle"] += 0.05
        code, out = run_cli(tmp_path, capsys, "verify", payload)
        assert code == 1
        assert not out["ok"]

    def test_malformed(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, capsys, "verify", {"instance": WORKED})
        assert code == 2

    def test_obtuse_axes_round_trip(self, tmp_path, capsys):
        # m.n < 0 exercises the sign-normalization mapping inside verify.
        delta = 1.0
        n = [math.sin(delta), 0.0, math.cos(delta)]
        inst = {"m": [0.0, 0.0, -1.0], "n": n,
                "target": {"euler_zyz": [0.4, 1.3, -0.9]}}
        code, cert = run_cli(tmp_path, capsys, "decompose", inst)
        assert code == 0
        assert cert["m_flipped"]
        code, out = run_cli(tmp_path, capsys, "verify",
                            {"instance": inst, "certificate": cert})
        assert code == 0
        assert out["ok"]


class TestWorstCase:
    @pytest.mark.parametrize("delta,count", [
        (0.5 * math.pi, 3),
        (math.pi / 3, 4),
        (0.25 * math.pi, 5),
    ])
    def test_bound_attained(self, tmp_path, capsys, delta, count):
        n = [math.sin(delta), 0.0, math.cos(delta)]
        code, out = run_cli(tmp_path, capsys, "worst-case", {"m": EZ, "n": n})
        assert code == 0
        assert out["count"] == count == out["lowenthal"]
        assert out["residual"] <= 1e-9


class TestOracle:
    def test_worked_instance(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, capsys, "oracle", WORKED,
                            ["--starts", "16", "--seed", "0"])
        assert code == 0
        assert out["passed"]
        assert out["n_min"] == 2

    def test_identity_skip_note(self, tmp_path, capsys):
        payload = {"m": EZ, "n": EX, "target": {"su2": [1.0, 0.0, 0.0, 0.0]}}
        code, out = run_cli(tmp_path, capsys, "oracle", payload,
                            ["--starts", "4"])
        assert code == 0
        assert out["skipped_zero_length"]

    def test_worst_case_target_at_third_gap(self, tmp_path, capsys):
        delta = math.pi / 3
        n = [math.sin(delta), 0.0, math.cos(delta)]
        payload = {"m": EZ, "n": n,
                   "target": {"axis_angle": {"axis": EY, "angle": math.pi}}}
        code, out = run_cli(tmp_path, capsys, "oracle", payload,
                            ["--starts", "32", "--seed", "0"])
        assert code == 0
        assert out["passed"] and out["n_min"] == 4


class TestTolOverride:
    def test_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BIAXIAL_TOL", "1e-6")
        nearly_z = [1e-8, 0.0, math.sqrt(1.0 - 1e-16)]
        payload = {"m": EZ, "n": nearly_z, "target": {"su2": [1.0, 0.0, 0.0, 0.0]}}
        code, _ = run_cli(tmp_path, capsys, "count", payload)
        assert code == 3  # parallel within the loosened tolerance

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BIAXIAL_TOL", "1e-2")
        code, out = run_cli(tmp_path, capsys, "count", WORKED, ["--tol", "1e-9"])
        assert code == 0
        assert out["count"] == 2

    def test_output_file(self, tmp_path, capsys):
        inp = tmp_path / "in.json"
        outp = tmp_path / "out.json"
        inp.write_text(json.dumps(WORKED))
        code = main(["count", "--input", str(inp), "--output", str(outp)])
        assert code == 0
        assert json.loads(outp.read_text())["count"] == 2
