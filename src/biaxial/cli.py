"""Command-line interface.

Subcommands read one JSON instance (or an array of instances) from a file
or stdin and write JSON to a file or stdout::

    biaxial count      --input inst.json
    biaxial decompose  --input inst.json [--trim] [--branch plus|minus]
    biaxial verify     --input pair.json      # {"instance": ..., "certificate": ...}
    biaxial worst-case --input axes.json      # {"m": [...], "n": [...]}
    biaxial oracle     --input inst.json [--starts N] [--seed N]

Exit codes: 0 success, 1 verification or certificate failure, 2 parse or
validation error, 3 parallel axes, 4 reconstruction residual breach.  The
environment variable ``BIAXIAL_TOL`` overrides every default tolerance; the
``--tol`` flag overrides both, and the environment is then not read.  A
tolerance that is not a finite number >= 0 exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .config import Tolerances
from .counting import AxisPair, analyze, worst_case_witness
from .errors import AxesParallelError, BiaxialError, PatternError
from .oracle import geodesic_bound_check, minimality_certificate
from .serialization import (
    certificate_to_obj,
    make_certificate,
    parse_certificate,
    parse_instance,
)
from .synthesis import (
    Branch,
    Decomposition,
    decompose_min,
    normalized_factors,
    verify_decomposition,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_PARALLEL = 3
EXIT_RESIDUAL = 4

VERIFY_SLACK = 1e-12


def _read_json(path: str) -> Any:
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, obj: Any) -> None:
    text = json.dumps(obj, indent=2)
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _tolerances(args: argparse.Namespace) -> Tolerances:
    if args.tol is not None:
        return Tolerances.uniform(args.tol)
    return Tolerances.from_env()


def _parse_t_params(text: str | None) -> list[float] | None:
    if text is None:
        return None
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _cmd_count(item: Any, args: argparse.Namespace, tol: Tolerances) -> tuple[int, Any]:
    instance = parse_instance(item, tol)
    result = analyze(instance.target, instance.m, instance.n, tol)
    cert = make_certificate(result.report, result.pair, instance.target)
    return EXIT_OK, certificate_to_obj(cert)


def _decomposition_result(dec: Decomposition, tol: Tolerances) -> tuple[int, Any]:
    cert = make_certificate(dec.report, dec.pair, dec.target, dec)
    code = EXIT_RESIDUAL if dec.residual > tol.recon else EXIT_OK
    return code, certificate_to_obj(cert)


def _cmd_decompose(item: Any, args: argparse.Namespace, tol: Tolerances) -> tuple[int, Any]:
    instance = parse_instance(item, tol)
    branch = Branch(args.branch) if args.branch else None
    dec = decompose_min(instance.target, instance.m, instance.n,
                        t_params=_parse_t_params(args.t_params),
                        branch=branch, trim=args.trim, tol=tol)
    return _decomposition_result(dec, tol)


def _cmd_verify(item: Any, args: argparse.Namespace, tol: Tolerances) -> tuple[int, Any]:
    if not isinstance(item, dict) or "instance" not in item or "certificate" not in item:
        raise ValueError('verify input must be {"instance": ..., "certificate": ...}')
    instance = parse_instance(item["instance"], tol)
    cert = parse_certificate(item["certificate"])
    if cert.factors is None:
        raise ValueError("certificate has no factors to replay")
    declared = cert.residual if cert.residual is not None else 0.0
    dec = Decomposition(factors=cert.factors, target=instance.target,
                        axis_m=instance.m, axis_n=instance.n,
                        pair=AxisPair.from_axes(instance.m, instance.n, tol),
                        parity=cert.parity, residual=declared)
    residual = verify_decomposition(dec, tol).residual
    residual_ok = residual <= declared + VERIFY_SLACK
    try:
        bounds = geodesic_bound_check(normalized_factors(dec, tol), dec.pair, tol=tol)
        bounds_ok = bounds.passed
    except PatternError:
        bounds_ok = False
    ok = residual_ok and bounds_ok
    out = {
        "ok": ok,
        "residual": residual,
        "declared_residual": declared,
        "residual_ok": residual_ok,
        "bounds_ok": bounds_ok,
    }
    return (EXIT_OK if ok else EXIT_FAIL), out


def _cmd_worst_case(item: Any, args: argparse.Namespace, tol: Tolerances) -> tuple[int, Any]:
    if not isinstance(item, dict) or "m" not in item or "n" not in item:
        raise ValueError('worst-case input must carry "m" and "n"')
    m = [float(v) for v in item["m"]]
    n = [float(v) for v in item["n"]]
    witness = worst_case_witness(AxisPair.from_axes(m, n, tol), tol)
    return _decomposition_result(decompose_min(witness, m, n, tol=tol), tol)


def _cmd_oracle(item: Any, args: argparse.Namespace, tol: Tolerances) -> tuple[int, Any]:
    instance = parse_instance(item, tol)
    report = minimality_certificate(instance.target, instance.m, instance.n,
                                    starts=args.starts, seed=args.seed, tol=tol)
    out = {
        "passed": report.passed,
        "n_min": report.n_min,
        "construction_residual": report.construction_residual,
        "construction_count": report.construction_count,
        "refutations": [
            {"k": k, "first_axis": axis, "best_residual": res}
            for (k, axis, res) in report.refutations
        ],
        "skipped_zero_length": report.skipped_zero_length,
    }
    return (EXIT_OK if report.passed else EXIT_FAIL), out


_HANDLERS = {
    "count": _cmd_count,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "worst-case": _cmd_worst_case,
    "oracle": _cmd_oracle,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biaxial",
        description="Minimal two-axis rotation counts and explicit decompositions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--input", "-i", default="-", help="input file or - for stdin")
        p.add_argument("--output", "-o", default="-", help="output file or - for stdout")
        p.add_argument("--tol", type=float, default=None,
                       help="override all tolerances with one value")
        if name == "decompose":
            p.add_argument("--trim", action="store_true",
                           help="elide zero-angle factors at the sequence ends")
            p.add_argument("--branch", choices=["plus", "minus"], default=None)
            p.add_argument("--t-params", dest="t_params", default=None,
                           help="comma-separated free parameters, one per slab")
        if name == "oracle":
            p.add_argument("--starts", type=int, default=64)
            p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        tol = _tolerances(args)
    except ValueError as exc:
        print(f"biaxial: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        payload = _read_json(args.input)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"biaxial: cannot read input: {exc}", file=sys.stderr)
        return EXIT_PARSE

    batch = isinstance(payload, list)
    items = payload if batch else [payload]
    outputs = []
    code = EXIT_OK
    for item in items:
        try:
            item_code, out = handler(item, args, tol)
        except AxesParallelError as exc:
            print(f"biaxial: {exc}", file=sys.stderr)
            return EXIT_PARALLEL
        except (BiaxialError, ValueError) as exc:
            print(f"biaxial: {exc}", file=sys.stderr)
            return EXIT_PARSE
        outputs.append(out)
        code = max(code, item_code)
    _write_json(args.output, outputs if batch else outputs[0])
    return code


if __name__ == "__main__":
    sys.exit(main())
