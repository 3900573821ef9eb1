"""Command-line interface.

Subcommands read one JSON instance (or an array of instances) from a file
or stdin and write compact JSON, one line ended by a newline, to a file or
stdout::

    biaxial count      --input inst.json
    biaxial decompose  --input inst.json
    biaxial verify     --input pair.json      # {"instance": ..., "certificate": ...}
    biaxial worst-case --input axes.json      # {"m": [...], "n": [...]}
    biaxial oracle     --input inst.json [--starts N] [--seed N]

``decompose`` emits the one closed-form chain of the chosen parity.
``oracle`` writes the minimality certificate, whose shorter patterns are
answered in closed form: ``--starts`` (at least 1) and ``--seed`` (at
least 0) are checked and change nothing.
``verify`` replays a certificate's factors and fails them (exit 1) unless
the residual is within both the declared residual and the reconstruction
tolerance and its claims match a fresh analysis of the instance; a
certificate field of the wrong JSON type exits 2.

Exit codes: 0 success, 1 verification or certificate failure, 2 parse or
validation error or an unreadable input (a missing file, malformed JSON,
bytes that are not UTF-8, nesting past the recursion limit) or unwritable
output, 3 parallel axes, 4 reconstruction residual breach.  A batch exits
with the largest code of its items; an item that fails with 2 or 3 keeps
its slot as ``{"error": message, "exit": code}``.  Parsing checks the JSON
shapes; each command admits the axes and the target once, in the library
call that answers it (an ``so3`` or ``axis_angle`` target is admitted as
it is read), and ``verify`` admits the instance before it reads the
certificate.  ``--tol X`` sets every tolerance to ``X``: the admission of
axes and targets, the parallel floor (gaps below ``sqrt(2*X)`` exit 3) and
the reconstruction bound, not the counts, the lift of a target or the
factors.  A tolerance that is not a finite number >= 0 exits with code 2.
The argument parser is built once per process, on the first call of
:func:`main`.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from .config import DECISION_WINDOW, Tolerances
from .core import quat_distance
from .counting import AxisPair, _analyze_pair, analyze, worst_case_witness
from .errors import AxesParallelError
from .oracle import PatternSpec, geodesic_bound_check, minimality_certificate
from .serialization import (
    _vector3,
    certificate_to_obj,
    parse_certificate,
    parse_instance,
)
from .synthesis import Decomposition, _decompose, decompose_min, verify_decomposition

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_PARALLEL = 3
EXIT_RESIDUAL = 4

VERIFY_SLACK = 1e-12
REPORT_CLAIMS = ("n_min", "m_odd", "m_even_mn", "m_even_nm", "lowenthal",
                 "chosen_parity")


def _read_json(path: str) -> Any:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, obj: Any) -> None:
    # Compact: without an indent json runs its C encoder.
    text = json.dumps(obj)
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _cmd_count(item: Any, args: argparse.Namespace, tol: Tolerances) -> tuple[int, Any]:
    instance = parse_instance(item, tol)
    result = analyze(instance.target, instance.m, instance.n, tol)
    return EXIT_OK, certificate_to_obj(result.report, result.governing, result.target)


def _decomposition_result(dec: Decomposition, tol: Tolerances) -> tuple[int, Any]:
    code = EXIT_RESIDUAL if dec.residual > tol.recon else EXIT_OK
    return code, certificate_to_obj(dec.report, dec.pair, dec.target, dec)


def _cmd_decompose(item: Any, args: argparse.Namespace, tol: Tolerances) -> tuple[int, Any]:
    instance = parse_instance(item, tol)
    dec = decompose_min(instance.target, instance.m, instance.n, tol=tol)
    return _decomposition_result(dec, tol)


def _cmd_verify(item: Any, args: argparse.Namespace, tol: Tolerances) -> tuple[int, Any]:
    if not isinstance(item, dict) or "instance" not in item or "certificate" not in item:
        raise ValueError('verify input must be {"instance": ..., "certificate": ...}')
    instance = parse_instance(item["instance"], tol)
    analysis = analyze(instance.target, instance.m, instance.n, tol)
    report = analysis.report
    cert = parse_certificate(item["certificate"])
    if cert.factors is None:
        raise ValueError("certificate has no factors to replay")
    declared = cert.residual if cert.residual is not None else 0.0
    dec = Decomposition(factors=cert.factors, target=analysis.target,
                        axis_m=instance.m, axis_n=instance.n, pair=analysis.pair,
                        parity=cert.parity, residual=declared)
    ver = verify_decomposition(dec, tol)
    # The declared residual is a claim to check, not a bound to trust.
    residual_ok = ver.residual <= min(declared + VERIFY_SLACK, tol.recon)
    bounds_ok = (ver.nonempty and ver.alternates and geodesic_bound_check(
        ver.product, dec.pair, PatternSpec(dec.count, dec.factors[-1].label)).passed)
    # Claims against the factors and a fresh analysis.
    claims_ok = (cert.count == dec.count == report.n_min
                 and all(getattr(cert.report, key) == getattr(report, key)
                         for key in REPORT_CLAIMS)
                 and cert.parity == report.chosen_parity
                 and cert.lowenthal == report.lowenthal
                 and cert.swapped is analysis.governing.swapped
                 and cert.m_flipped is analysis.pair.m_flipped
                 and quat_distance(cert.target_su2, analysis.target) <= tol.recon
                 and abs(cert.delta - analysis.pair.delta) <= DECISION_WINDOW)
    ok = residual_ok and bounds_ok and claims_ok
    out = {
        "ok": ok,
        "residual": ver.residual,
        "declared_residual": declared,
        "residual_ok": residual_ok,
        "bounds_ok": bounds_ok,
        "claims_ok": claims_ok,
    }
    return (EXIT_OK if ok else EXIT_FAIL), out


def _cmd_worst_case(item: Any, args: argparse.Namespace, tol: Tolerances) -> tuple[int, Any]:
    if not isinstance(item, dict) or "m" not in item or "n" not in item:
        raise ValueError('worst-case input must carry "m" and "n"')
    m = _vector3(item["m"], "m")
    n = _vector3(item["n"], "n")
    # The witness is built from the admitted pair and is unit to rounding,
    # so neither is admitted again.
    pair = AxisPair.from_axes(m, n, tol)
    return _decomposition_result(_decompose(_analyze_pair(worst_case_witness(pair), pair)),
                                 tol)


def _cmd_oracle(item: Any, args: argparse.Namespace, tol: Tolerances) -> tuple[int, Any]:
    instance = parse_instance(item, tol)
    report = minimality_certificate(instance.target, instance.m, instance.n,
                                    starts=args.starts, seed=args.seed, tol=tol)
    out = dict(vars(report))
    out["refutations"] = [dict(zip(("k", "first_axis", "best_residual"), r))
                          for r in report.refutations]
    return (EXIT_OK if report.passed else EXIT_FAIL), out


_HANDLERS = {
    "count": _cmd_count,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "worst-case": _cmd_worst_case,
    "oracle": _cmd_oracle,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="biaxial",
        description="Minimal two-axis rotation counts and explicit decompositions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--input", "-i", default="-", help="input file or - for stdin")
        p.add_argument("--output", "-o", default="-", help="output file or - for stdout")
        p.add_argument("--tol", type=float, default=None,
                       help="set the admission and residual tolerances; gaps "
                            "below sqrt(2*TOL) are then rejected as parallel")
        if name == "oracle":
            p.add_argument("--starts", type=int, default=64,
                           help="checked to be at least 1; has no effect")
            p.add_argument("--seed", type=int, default=0,
                           help="checked to be at least 0; has no effect")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        tol = Tolerances() if args.tol is None else Tolerances.uniform(args.tol)
    except ValueError as exc:
        print(f"biaxial: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        payload = _read_json(args.input)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integers past Python's digit limit; RecursionError, arrays nested
        # past the recursion limit.
        print(f"biaxial: cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE

    batch = isinstance(payload, list)
    items = payload if batch else [payload]
    outputs = []
    code = EXIT_OK
    for item in items:
        try:
            item_code, out = handler(item, args, tol)
        except ValueError as exc:
            # Library errors are ValueErrors; only parallel axes get their own code.
            item_code = EXIT_PARALLEL if isinstance(exc, AxesParallelError) else EXIT_PARSE
            print(f"biaxial: {exc}", file=sys.stderr)
            if not batch:
                return item_code
            out = {"error": str(exc), "exit": item_code}
        outputs.append(out)
        code = max(code, item_code)
    try:
        _write_json(args.output, outputs if batch else outputs[0])
    except OSError as exc:
        print(f"biaxial: cannot write output: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return code


if __name__ == "__main__":
    sys.exit(main())
