"""End-to-end CLI behaviour: commands, batch mode, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from biaxial import Su2Element, Tolerances, euler_zyz, rot, to_so3
from biaxial.cli import main
from biaxial.counting import analyze
from _helpers import (count_admit_calls, count_analyze_calls, count_from_axes_calls,
                      count_replay_calls)

SRC = Path(__file__).resolve().parent.parent / "src"

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


def batch(count):
    """``count`` instances at three gaps, with m and n flipped in turn."""
    items = []
    for i in range(count):
        delta = (0.5 * math.pi, 1.0, 0.3)[i % 3]
        m = EZ if i % 2 else [0.0, 0.0, -1.0]
        n = [math.sin(delta), 0.0, math.cos(delta) * (-1.0 if i % 4 == 3 else 1.0)]
        angle = 0.4 + 0.7 * i
        items.append({"m": m, "n": n, "target": {"axis_angle": {
            "axis": [math.cos(angle), math.sin(angle), 0.0], "angle": 2.0 + 0.1 * i}}})
    return items


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


class TestRemovedOptions:
    @pytest.mark.parametrize("flags", [["--branch", "minus"], ["--t-params", "0.4"]])
    def test_decompose_rejects(self, tmp_path, capsys, flags):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(WORKED))
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--input", str(inp)] + flags)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--tol", "1e-9"]], ids=["no-flag", "tol-flag"])
    def test_tol_env_var_is_not_read(self, tmp_path, capsys, monkeypatch, flags):
        # The environment sets no tolerance: --tol is the only setting.
        monkeypatch.setenv("BIAXIAL_TOL", "abc")
        code, out = run_cli(tmp_path, capsys, "count", WORKED, flags)
        assert code == 0
        assert out["count"] == 2


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

    def test_non_alternating_certificate(self, tmp_path, capsys):
        payload = self._verified_payload(tmp_path, capsys)
        payload["certificate"]["factors"][0]["axis"] = "m"
        code, out = run_cli(tmp_path, capsys, "verify", payload)
        assert code == 1
        assert not out["bounds_ok"]
        assert not out["ok"]

    def test_empty_factor_certificate(self, tmp_path, capsys):
        # The identity's one zero-angle factor dropped: the empty product
        # is the target, but an empty list fails the bounds and its count
        # 0 is below n_min.
        inst = {"m": EZ, "n": EX, "target": {"su2": [1.0, 0.0, 0.0, 0.0]}}
        code, cert = run_cli(tmp_path, capsys, "decompose", inst)
        assert code == 0
        assert cert["factors"] == [{"axis": "m", "angle": 0.0}]
        cert.update(factors=[], count=0)
        code, out = run_cli(tmp_path, capsys, "verify",
                            {"instance": inst, "certificate": cert})
        assert code == 1
        assert out["residual_ok"]
        assert not out["bounds_ok"]
        assert not out["claims_ok"]

    def test_one_factor_certificate_about_a_non_canonical_axis(self, tmp_path, capsys):
        m = [0.4717, -0.8012, 0.3681]
        norm = math.sqrt(sum(v * v for v in m))
        m = [v / norm for v in m]
        inst = {"m": m, "n": EX,
                "target": {"axis_angle": {"axis": m, "angle": 1.1}}}
        code, cert = run_cli(tmp_path, capsys, "decompose", inst)
        assert code == 0
        assert len(cert["factors"]) == 1
        code, out = run_cli(tmp_path, capsys, "verify",
                            {"instance": inst, "certificate": cert})
        assert code == 0
        assert out["bounds_ok"]

    # A certificate may not excuse a wrong chain by declaring a large residual.
    HALF_TURN = {"m": EZ, "n": EX, "target": {"su2": [0.0, 0.0, 1.0, 0.0]}}

    def _off_by_half(self, tmp_path, capsys, declared):
        code, cert = run_cli(tmp_path, capsys, "decompose", self.HALF_TURN)
        assert code == 0
        cert["factors"][0]["angle"] += 0.5
        cert["residual"] = declared
        return {"instance": self.HALF_TURN, "certificate": cert}

    def test_large_declared_residual_fails(self, tmp_path, capsys):
        payload = self._off_by_half(tmp_path, capsys, 10.0)
        code, out = run_cli(tmp_path, capsys, "verify", payload)
        assert code == 1
        assert out["residual"] > 0.2
        assert not out["residual_ok"]
        assert not out["ok"]

    def test_infinite_declared_residual_exits_2(self, tmp_path, capsys):
        payload = self._off_by_half(tmp_path, capsys, math.inf)
        inp = tmp_path / "pair.json"
        # json.dumps writes Infinity, which json.load reads back.
        inp.write_text(json.dumps(payload))
        code = main(["verify", "--input", str(inp)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "residual must be finite" in captured.err

    def test_one_replay_per_item(self, tmp_path, capsys, monkeypatch):
        items = batch(6)
        code, certs = run_cli(tmp_path, capsys, "decompose", items)
        assert code == 0
        calls = count_replay_calls(monkeypatch)
        pairs = [{"instance": inst, "certificate": cert}
                 for inst, cert in zip(items, certs)]
        code, out = run_cli(tmp_path, capsys, "verify", pairs)
        assert code == 0
        assert all(o["ok"] for o in out)
        assert len(calls) == len(items)


class TestVerifyClaims:
    """``verify`` reads a certificate's count, parity and report against its
    factor list and a fresh analysis of the instance."""

    def _pair(self, tmp_path, capsys, inst):
        code, cert = run_cli(tmp_path, capsys, "decompose", inst)
        assert code == 0
        return {"instance": inst, "certificate": cert}

    def test_edited_worked_certificate_fails(self, tmp_path, capsys):
        payload = self._pair(tmp_path, capsys, WORKED)
        cert = payload["certificate"]
        cert.update(count=7, parity="odd", swapped=True)
        cert["report"]["n_min"] = 1
        code, out = run_cli(tmp_path, capsys, "verify", payload)
        assert code == 1
        assert out["residual_ok"] and out["bounds_ok"]
        assert not out["claims_ok"]
        assert not out["ok"]

    @pytest.mark.parametrize("edit", [
        lambda c: c.update(count=7),
        lambda c: c.update(parity="odd"),
        lambda c: c["report"].update(n_min=1),
    ], ids=["count", "parity", "n_min"])
    def test_single_edit_fails(self, tmp_path, capsys, edit):
        payload = self._pair(tmp_path, capsys, WORKED)
        edit(payload["certificate"])
        code, out = run_cli(tmp_path, capsys, "verify", payload)
        assert code == 1
        assert not out["claims_ok"]

    def test_padded_certificate_fails(self, tmp_path, capsys):
        # Two zero-angle factors keep the product; the claimed count of 4
        # matches the edited report but not the instance's minimum of 2.
        inst = {"m": EZ, "n": EX, "target": {"su2": [0.5, 0.5, 0.5, 0.5]}}
        payload = self._pair(tmp_path, capsys, inst)
        cert = payload["certificate"]
        assert cert["count"] == 2
        cert["factors"] += [{"axis": "n", "angle": 0.0}, {"axis": "m", "angle": 0.0}]
        cert["count"] = cert["report"]["n_min"] = cert["report"]["m_even_mn"] = 4
        code, out = run_cli(tmp_path, capsys, "verify", payload)
        assert code == 1
        assert out["residual_ok"] and out["bounds_ok"]
        assert not out["claims_ok"]

    @pytest.mark.parametrize("edit", [
        lambda c: c.update(target_su2=[1.0, 0.0, 0.0, 0.0]),
        lambda c: c.update(target_su2=[-v for v in c["target_su2"]]),
        lambda c: c.update(delta=0.1),
        lambda c: c.update(swapped=not c["swapped"]),
        lambda c: c.update(m_flipped=not c["m_flipped"]),
        lambda c: (c.update(lowenthal=9), c["report"].update(lowenthal=9)),
        lambda c: c["report"].update(m_odd=5),
        lambda c: c["report"].update(m_even_nm=6),
        lambda c: (c.update(parity="even-nm"),
                   c["report"].update(chosen_parity="even-nm")),
    ], ids=["target", "other-lift", "delta", "swapped", "m_flipped", "lowenthal",
            "m_odd", "m_even_nm", "chosen_parity"])
    def test_claim_against_the_instance_fails(self, tmp_path, capsys, edit):
        inst = {"m": EZ, "n": EX, "target": {"su2": [0.0, 0.0, 1.0, 0.0]}}
        payload = self._pair(tmp_path, capsys, inst)
        edit(payload["certificate"])
        code, out = run_cli(tmp_path, capsys, "verify", payload)
        assert code == 1
        assert out["residual_ok"]
        assert not out["claims_ok"]

    @pytest.mark.parametrize("extra", [[], ["--tol", "1e-2"]], ids=["default", "loose"])
    def test_gap_claim_ignores_tol(self, tmp_path, capsys, extra):
        # --tol loosens admission and the residual bound, not the gap claim.
        inst = {"m": EZ, "n": EX, "target": {"su2": [0.0, 0.0, 1.0, 0.0]}}
        payload = self._pair(tmp_path, capsys, inst)
        payload["certificate"]["delta"] += 1e-4
        code, out = run_cli(tmp_path, capsys, "verify", payload, extra)
        assert code == 1
        assert out["residual_ok"] and out["bounds_ok"]
        assert not out["claims_ok"]

    def test_decompose_certificates_pass(self, tmp_path, capsys):
        pairs = [self._pair(tmp_path, capsys, inst) for inst in batch(6)]
        code, out = run_cli(tmp_path, capsys, "verify", pairs)
        assert code == 0
        assert all(o["claims_ok"] and o["ok"] for o in out)

    def test_worst_case_certificates_pass(self, tmp_path, capsys):
        pairs = []
        for delta in (0.5 * math.pi, math.pi / 3, 0.25 * math.pi, 0.3):
            n = [math.sin(delta), 0.0, math.cos(delta)]
            code, cert = run_cli(tmp_path, capsys, "worst-case", {"m": EZ, "n": n})
            assert code == 0
            inst = {"m": EZ, "n": n, "target": {"su2": cert["target_su2"]}}
            pairs.append({"instance": inst, "certificate": cert})
        code, out = run_cli(tmp_path, capsys, "verify", pairs)
        assert code == 0
        assert all(o["claims_ok"] and o["ok"] for o in out)


class TestBatchErrors:
    """A failing batch item keeps its slot as an error record."""

    PARALLEL = {"m": EZ, "n": EZ, "target": {"su2": [1.0, 0.0, 0.0, 0.0]}}

    def test_good_item_survives_parallel_item(self, tmp_path, capsys):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps([WORKED, self.PARALLEL]))
        code = main(["count", "--input", str(inp)])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert code == 3
        assert out[0]["count"] == 2
        assert out[1]["exit"] == 3
        assert out[1]["error"] in captured.err

    def test_parse_error_and_parallel_pair(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, capsys, "count", [{"m": EZ}, self.PARALLEL])
        assert code == 3
        assert [o["exit"] for o in out] == [2, 3]
        assert all(o["error"] for o in out)


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


class TestOneAnalysis:
    """Each CLI answer comes from one analysis of its target."""

    def test_decompose_runs_one_analysis_per_item(self, tmp_path, capsys, monkeypatch):
        calls = count_analyze_calls(monkeypatch)
        items = batch(6)
        code, out = run_cli(tmp_path, capsys, "decompose", items)
        assert code == 0
        assert len(out) == len(items)
        assert len(calls) == len(items)

    def test_worst_case_runs_one_analysis_per_item(self, tmp_path, capsys, monkeypatch):
        calls = count_analyze_calls(monkeypatch)
        items = [{"m": it["m"], "n": it["n"]} for it in batch(4)]
        code, out = run_cli(tmp_path, capsys, "worst-case", items)
        assert code == 0
        assert all(o["count"] == o["lowenthal"] for o in out)
        assert len(calls) == len(items)

    def test_worst_case_admits_axes_once_per_item(self, tmp_path, capsys, monkeypatch):
        # The witness is built from the pair the analysis then reads.
        calls = count_from_axes_calls(monkeypatch)
        items = [{"m": it["m"], "n": it["n"]} for it in batch(4)]
        code, out = run_cli(tmp_path, capsys, "worst-case", items)
        assert code == 0
        assert all(o["count"] == o["lowenthal"] for o in out)
        assert len(calls) == len(items)


class TestOneAdmission:
    """Each su2 item's axes and target pass the unit rule once, in the
    analysis; ``decompose`` and ``verify`` add the replay's admission of the
    two axes."""

    @staticmethod
    def su2_items():
        rng = np.random.default_rng(21)
        items = []
        for i in range(12):
            delta = (0.5 * math.pi, 1.0, 0.3)[i % 3]
            q = rng.normal(size=4)
            m = EZ if i % 2 else [0.0, 0.0, -1.0]
            items.append({"m": m, "n": [math.sin(delta), 0.0, math.cos(delta)],
                          "target": {"su2": [float(v) for v in q / np.linalg.norm(q)]}})
        return items

    @pytest.mark.parametrize("command,per_item", [("count", 3), ("decompose", 5)])
    def test_admissions_per_item(self, tmp_path, capsys, monkeypatch, command, per_item):
        items = self.su2_items()
        calls = count_admit_calls(monkeypatch)
        code, out = run_cli(tmp_path, capsys, command, items)
        assert code == 0
        assert all(o["count"] >= 2 for o in out)  # the replay uses both axes
        assert len(calls) == per_item * len(items)

    def test_verify_admissions_per_item(self, tmp_path, capsys, monkeypatch):
        items = self.su2_items()
        code, certs = run_cli(tmp_path, capsys, "decompose", items)
        assert code == 0 and all(c["count"] >= 2 for c in certs)
        pairs = [{"instance": i, "certificate": c} for i, c in zip(items, certs)]
        calls = count_admit_calls(monkeypatch)
        code, out = run_cli(tmp_path, capsys, "verify", pairs)
        assert code == 0 and all(o["ok"] for o in out)
        assert len(calls) == 5 * len(items)


class TestOrientation:
    """A certificate's ``swapped`` is the governing swap of its analysis."""

    @pytest.mark.parametrize("command", ["count", "decompose"])
    def test_swapped_is_the_governing_swap(self, tmp_path, capsys, command):
        rng = np.random.default_rng(5)
        delta = 0.7
        n = [math.sin(delta), 0.0, math.cos(delta)]
        items = []
        for i in range(40):
            q = rng.normal(size=4)
            m = EZ if i % 2 else [0.0, 0.0, -1.0]
            items.append({"m": m, "n": n,
                          "target": {"su2": [float(v) for v in q / np.linalg.norm(q)]}})
        code, out = run_cli(tmp_path, capsys, command, items)
        assert code == 0
        want = [analyze(Su2Element(*o["target_su2"]), it["m"], n).governing.swapped
                for it, o in zip(items, out)]
        assert [o["swapped"] for o in out] == want
        assert any(want) and not all(want)


class TestMalformedShapes:
    """A JSON value of the wrong shape or type exits 2 with a message, not a
    traceback."""

    @pytest.mark.parametrize("target", [
        {"su2": 5}, {"so3": 5}, {"axis_angle": 5}, {"euler_zyz": 5},
        {"su2": [True, 0, 0, 0]}, {"euler_zyz": ["0.3", "1.1", "-0.7"]}])
    def test_scalar_target_value(self, tmp_path, capsys, target):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps({"m": EZ, "n": EX, "target": target}))
        code = main(["count", "--input", str(inp)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "target must be" in captured.err

    @pytest.mark.parametrize("edit,message", [
        (lambda c: c["factors"][0].update(angle=str(c["factors"][0]["angle"])),
         "factor angle must be a number"),
        (lambda c: c.update(count="2"), "count must be an integer"),
        (lambda c: c.update(count=2.9), "count must be an integer"),
        (lambda c: c.update(m_flipped="no"), "m_flipped must be true or false"),
        (lambda c: c.update(swapped=0), "swapped must be true or false"),
        (lambda c: c["report"].update(n_min=2.5), "report.n_min must be an integer"),
        (lambda c: c["report"].update(n_min=True), "report.n_min must be an integer"),
        (lambda c: c.update(residual="1e-16"), "residual must be a number"),
        (lambda c: c.update(parity=2), "parity must be a string"),
        (lambda c: c.update(factors={}), "factors must be a list"),
    ], ids=["angle", "count-str", "count-float", "m_flipped", "swapped",
            "n_min-float", "n_min-bool", "residual", "parity", "factors"])
    def test_certificate_field_types(self, tmp_path, capsys, edit, message):
        code, cert = run_cli(tmp_path, capsys, "decompose", WORKED)
        assert code == 0
        edit(cert)
        inp = tmp_path / "pair.json"
        inp.write_text(json.dumps({"instance": WORKED, "certificate": cert}))
        code = main(["verify", "--input", str(inp)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("axis,shown", [
        ("x", "'x'"), (1, "1"), (["m"], "['m']"), (None, "None"), ("M", "'M'")])
    def test_factor_axis(self, tmp_path, capsys, axis, shown):
        # A factor axis other than "m" or "n", hashable or not, is named in
        # the enum's own words, and a batch keeps the item's slot.
        code, cert = run_cli(tmp_path, capsys, "decompose", WORKED)
        assert code == 0
        good = {"instance": WORKED, "certificate": cert}
        bad = json.loads(json.dumps(good))
        bad["certificate"]["factors"][0]["axis"] = axis
        message = f"{shown} is not a valid AxisLabel"
        inp = tmp_path / "pair.json"
        inp.write_text(json.dumps(bad))
        code = main(["verify", "--input", str(inp)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"biaxial: {message}\n"
        code, out = run_cli(tmp_path, capsys, "verify", [good, bad, good])
        assert code == 2
        assert out[0]["ok"] and out[2]["ok"]
        assert out[1] == {"error": message, "exit": 2}

    @pytest.mark.parametrize("axes", [
        {"m": 5, "n": EX}, {"m": EZ, "n": 5},
        {"m": [True, False, False], "n": EX}, {"m": EZ, "n": ["1", "0", "0"]}])
    def test_scalar_worst_case_axis(self, tmp_path, capsys, axes):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(axes))
        code = main(["worst-case", "--input", str(inp)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "must be a list of 3 numbers" in captured.err


class TestNonFiniteTarget:
    @pytest.mark.parametrize("target", [
        {"su2": [math.nan, 0.0, 0.0, 1.0]},
        {"so3": [1.0, 0.0, 0.0, 0.0, 1.0, math.nan, 0.0, 0.0, 1.0]},
        {"axis_angle": {"axis": EY, "angle": math.inf}},
        {"euler_zyz": [0.3, math.nan, 0.1]},
    ])
    @pytest.mark.parametrize("command", ["count", "decompose", "verify"])
    def test_exit_2_with_message(self, tmp_path, capsys, command, target):
        inp = tmp_path / "in.json"
        item = {"m": EZ, "n": EX, "target": target}
        if command == "verify":
            item = {"instance": item, "certificate": {}}
        # json.dumps writes NaN and Infinity, which json.load reads back.
        inp.write_text(json.dumps(item))
        code = main([command, "--input", str(inp)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "finite" in captured.err


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

    @pytest.mark.parametrize("flags", [["--starts", "0"], ["--starts", "-1"], ["--seed", "-1"]])
    @pytest.mark.parametrize("angle", [0.0, 0.5 * math.pi], ids=["identity", "count-3"])
    def test_bad_search_parameters_exit_2(self, tmp_path, capsys, flags, angle):
        payload = {"m": EZ, "n": EX,
                   "target": {"axis_angle": {"axis": EY, "angle": angle}}}
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(payload))
        code = main(["oracle", "--input", str(inp)] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "must be at least" in captured.err


class TestTolOverride:
    # Counts ignore tolerances, so overrides show through admission: at gap
    # 1e-3, 1 - m.n is 5e-7, parallel under 1e-6 but not under 1e-9.
    NEAR = {"m": EZ, "n": [math.sin(1e-3), 0.0, math.cos(1e-3)],
            "target": {"su2": [1.0, 0.0, 0.0, 0.0]}}

    def test_flag_loosens_parallel_admission(self, tmp_path, capsys):
        assert run_cli(tmp_path, capsys, "count", self.NEAR)[0] == 0
        code, _ = run_cli(tmp_path, capsys, "count", self.NEAR, ["--tol", "1e-6"])
        assert code == 3  # parallel within the loosened tolerance

    def test_flag_sets_the_parallel_floor(self, tmp_path, capsys):
        # The floor is sqrt(2*tol): about 0.14 under 1e-2, so gap 0.1 exits 3.
        gap = {"m": EZ, "n": [math.sin(0.1), 0.0, math.cos(0.1)],
               "target": {"su2": [1.0, 0.0, 0.0, 0.0]}}
        for item in (self.NEAR, gap):
            assert run_cli(tmp_path, capsys, "count", item, ["--tol", "1e-2"])[0] == 3
        assert run_cli(tmp_path, capsys, "count", gap)[0] == 0
        code, out = run_cli(tmp_path, capsys, "count", self.NEAR, ["--tol", "1e-9"])
        assert code == 0
        assert out["count"] == 1

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_flag_exits_2(self, tmp_path, capsys, value):
        # With a NaN tolerance every admission comparison is false, so this
        # off-unit axis and target would be answered.
        payload = {"m": [0.0, 0.0, 5.0], "n": EX, "target": {"su2": [3.0, 0.0, 0.0, 0.0]}}
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(payload))
        code = main(["count", "--input", str(inp), "--tol", value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "tolerance must be finite" in captured.err

    def test_loose_flag_keeps_count_reports(self, tmp_path, capsys):
        # Haar targets at gaps 1, 0.3 and 1.5 in turn.
        rng = np.random.default_rng(5)
        items = []
        for i in range(60):
            delta = (1.0, 0.3, 1.5)[i % 3]
            q = rng.normal(size=4)
            items.append({"m": EZ, "n": [math.sin(delta), 0.0, math.cos(delta)],
                          "target": {"su2": (q / np.linalg.norm(q)).tolist()}})
        code, want = run_cli(tmp_path, capsys, "count", items)
        assert code == 0
        code, got = run_cli(tmp_path, capsys, "count", items, ["--tol", "1e-2"])
        assert code == 0
        assert [o["report"] for o in got] == [o["report"] for o in want]

    def test_zero_flag_admits_rounded_inputs(self, tmp_path, capsys):
        # numpy-normalised axes and Haar targets in all four encodings are
        # unit to rounding, which --tol 0 still admits.
        rng = np.random.default_rng(21)
        items = []
        for i in range(60):
            delta = (0.5 * math.pi, 1.0, 0.3)[i // 20]
            m = rng.normal(size=3)
            m /= np.linalg.norm(m)
            p = rng.normal(size=3)
            p -= (p @ m) * m
            n = math.cos(delta) * m + math.sin(delta) * p / np.linalg.norm(p)
            n /= np.linalg.norm(n)
            q = rng.normal(size=4)
            q /= np.linalg.norm(q)
            u = Su2Element(*q.tolist())
            s = float(np.linalg.norm(q[1:]))
            target = ({"su2": q.tolist()},
                      {"so3": to_so3(u).ravel().tolist()},
                      {"axis_angle": {"axis": (-q[1:] / s).tolist(),
                                      "angle": 2.0 * math.atan2(s, q[0])}},
                      {"euler_zyz": list(euler_zyz(u))})[i % 4]
            items.append({"m": m.tolist(), "n": n.tolist(), "target": target})
        code, out = run_cli(tmp_path, capsys, "count", items, ["--tol", "0"])
        assert [o for o in out if "error" in o] == []
        assert code == 0

    def test_loose_flag_keeps_so3_lift(self, tmp_path, capsys):
        # A turn by pi - 2e-7 has w = 1e-7: inside a 1e-6 admission
        # tolerance, outside the decision window that picks the lift.
        axis = np.array([0.3, 0.5, 0.8]) / math.sqrt(0.98)
        item = {"m": EZ, "n": EX,
                "target": {"so3": to_so3(rot(axis, math.pi - 2e-7)).ravel().tolist()}}
        code, want = run_cli(tmp_path, capsys, "decompose", item)
        assert code == 0 and want["target_su2"][0] > 0.0
        code, got = run_cli(tmp_path, capsys, "decompose", item, ["--tol", "1e-6"])
        assert code == 0
        assert (got["target_su2"], got["factors"]) == (want["target_su2"], want["factors"])

    @pytest.mark.parametrize("delta", [1.0, 0.3, 0.05])
    def test_loose_flag_divides_axes_by_their_norms(self, tmp_path, capsys, delta):
        # Axes of norm 1.0004 pass --tol 1e-3 admission and are made unit,
        # so they decompose and verify as unit axes do.  At gap 0.05 their
        # raw m.n, 0.99955, would be parallel under tol.parallel = 1e-3.
        rng = np.random.default_rng(9)
        scale = 1.0004
        items = []
        for _ in range(20):
            q = rng.normal(size=4)
            items.append({"m": [0.0, 0.0, scale],
                          "n": [scale * math.sin(delta), 0.0, scale * math.cos(delta)],
                          "target": {"su2": (q / np.linalg.norm(q)).tolist()}})
        code, certs = run_cli(tmp_path, capsys, "decompose", items, ["--tol", "1e-3"])
        assert code == 0
        assert max(c["residual"] for c in certs) <= 1e-13
        pairs = [{"instance": i, "certificate": c} for i, c in zip(items, certs)]
        code, out = run_cli(tmp_path, capsys, "verify", pairs, ["--tol", "1e-3"])
        assert code == 0
        assert all(o["ok"] for o in out)
        assert max(o["residual"] for o in out) <= 1e-13

    def test_uniform_sets_every_field(self):
        tol = Tolerances.uniform(1e-6)
        assert tol == Tolerances(norm=1e-6, parallel=1e-6, recon=1e-6)
        assert Tolerances.uniform(0.0).recon == 0.0
        for bad in (math.nan, math.inf, -1e-9):
            with pytest.raises(ValueError):
                Tolerances.uniform(bad)

    @pytest.mark.parametrize("field", ["norm", "parallel", "recon"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_every_field_checked_on_construction(self, field, bad):
        with pytest.raises(ValueError, match=f"got {field}="):
            Tolerances(**{field: bad})

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(WORKED))
        outp = tmp_path / "missing" / "out.json"
        code = main(["count", "--input", str(inp), "--output", str(outp)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "cannot write output" in captured.err
        assert not outp.exists()

    def test_output_file(self, tmp_path, capsys):
        inp = tmp_path / "in.json"
        outp = tmp_path / "out.json"
        inp.write_text(json.dumps(WORKED))
        code = main(["count", "--input", str(inp), "--output", str(outp)])
        assert code == 0
        assert json.loads(outp.read_text())["count"] == 2


class TestUnreadableInput:
    """Input that cannot be read as JSON exits 2 with a message."""

    @pytest.mark.parametrize("raw", [
        b'{"m": "\xff"}', b"[" * 100000, b"[" + b"1" * 5000 + b"]"],
        ids=["not-utf8", "nested-past-recursion-limit", "integer-past-digit-limit"])
    @pytest.mark.parametrize("command", ["count", "verify"])
    def test_exit_2_with_message(self, tmp_path, capsys, command, raw):
        inp = tmp_path / "in.json"
        inp.write_bytes(raw)
        code = main([command, "--input", str(inp)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("biaxial: cannot read input: ")


class TestOneParser:
    """One process builds one parser: a command's output does not depend on
    the commands run before it, and every output is compact JSON."""

    def test_sequence_matches_lone_runs(self, tmp_path, capsys):
        # The skewed axis is admitted under --tol 1e-3 only, so a tolerance
        # left over from an earlier call would show in the output.
        skewed = dict(WORKED, m=[0.0, 0.0, 1.0 + 1e-6])
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps([WORKED, skewed]))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for command, *flags in (["oracle", "--starts", "3", "--seed", "5"], ["oracle"],
                                ["decompose", "--tol", "1e-3"], ["decompose"]):
            argv = [command, "--input", str(inp), *flags]
            code = main(argv)
            captured = capsys.readouterr()
            alone = subprocess.run([sys.executable, "-m", "biaxial.cli", *argv],
                                   capture_output=True, text=True, env=env, check=False)
            assert (code, captured.out, captured.err) == (
                alone.returncode, alone.stdout, alone.stderr), argv

    @pytest.mark.parametrize("command,payload", [
        ("count", WORKED), ("decompose", [WORKED, WORKED]), ("oracle", WORKED),
        ("worst-case", {"m": EZ, "n": EX}), ("verify", None)])
    def test_compact_output(self, tmp_path, capsys, command, payload):
        if payload is None:
            _, cert = run_cli(tmp_path, capsys, "decompose", WORKED)
            payload = {"instance": WORKED, "certificate": cert}
        inp = tmp_path / "in.json"
        outp = tmp_path / "out.json"
        inp.write_text(json.dumps(payload))
        assert main([command, "--input", str(inp)]) == 0
        text = capsys.readouterr().out
        assert text == json.dumps(json.loads(text)) + "\n"
        assert main([command, "--input", str(inp), "--output", str(outp)]) == 0
        assert outp.read_text(encoding="utf-8") == text
