"""JSON interchange for problem instances and decomposition certificates.

An instance carries the two axes and a target rotation in one of four
encodings::

    {"m": [0,0,1], "n": [1,0,0], "target": {"su2": [w,x,y,z]}}
    {"target": {"so3": [r00, r01, ..., r22]}}          (row-major)
    {"target": {"axis_angle": {"axis": [x,y,z], "angle": t}}}
    {"target": {"euler_zyz": [alpha, beta, gamma]}}

A certificate records the factor sequence in product order (factors apply
right to left), the achieved residual, the counts, and the exact quaternion
lift of the target that was used, so it can be replayed without recomputing
any counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .core import Su2Element, from_euler_zyz, from_so3, rot, unit_axis
from .counting import AxisPair, CountReport
from .errors import InvalidRotationError
from .synthesis import AxisLabel, Decomposition, Factor

__all__ = [
    "ProblemInstance",
    "Certificate",
    "parse_instance",
    "parse_certificate",
    "certificate_to_obj",
    "instance_to_obj",
    "make_certificate",
]

TARGET_ENCODINGS = ("su2", "so3", "axis_angle", "euler_zyz")


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Axes plus a target rotation, already admitted and lifted to SU(2)."""

    m: np.ndarray
    n: np.ndarray
    target: Su2Element
    target_encoding: str


@dataclass(frozen=True)
class Certificate:
    """Self-contained, replayable record of a count or decomposition."""

    count: int
    parity: str
    lowenthal: int
    target_su2: Su2Element
    report: CountReport
    delta: float
    m_flipped: bool
    swapped: bool
    factors: tuple[Factor, ...] | None = None
    residual: float | None = None


def _vector3(obj: Any, name: str) -> list[float]:
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise ValueError(f"{name} must be a list of 3 numbers")
    return [float(v) for v in obj]


def _finite(values: list[float], name: str) -> list[float]:
    # NaN would pass the norm check (comparisons with NaN are false).
    if not all(math.isfinite(v) for v in values):
        raise InvalidRotationError(f"{name} target must be finite, got {values}")
    return values


def _parse_target(obj: Any, tol: Tolerances) -> tuple[Su2Element, str]:
    if not isinstance(obj, Mapping):
        raise ValueError("target must be an object with one encoding key")
    keys = [k for k in TARGET_ENCODINGS if k in obj]
    if len(keys) != 1:
        raise ValueError(
            f"target must carry exactly one of {TARGET_ENCODINGS}, got {sorted(obj)}")
    kind = keys[0]
    value = obj[kind]
    if kind == "su2":
        comp = _finite([float(v) for v in value], kind)
        if len(comp) != 4:
            raise ValueError("su2 target must be [w, x, y, z]")
        norm = sum(c * c for c in comp)
        if abs(norm - 1.0) > 2.0 * tol.norm:
            raise ValueError(f"su2 target norm {norm:.12g} is not 1 within tolerance")
        scale = 1.0 / norm ** 0.5
        return Su2Element(*(c * scale for c in comp)), kind
    if kind == "so3":
        entries = [float(v) for v in value]
        if len(entries) != 9:
            raise ValueError("so3 target must be 9 row-major numbers")
        return from_so3(np.array(entries).reshape(3, 3), tol), kind
    if kind == "axis_angle":
        if not isinstance(value, Mapping) or "axis" not in value or "angle" not in value:
            raise ValueError('axis_angle target must be {"axis": [...], "angle": t}')
        axis = _vector3(value["axis"], "axis_angle.axis")
        angle, = _finite([float(value["angle"])], kind)
        return rot(axis, angle, tol), kind
    triple = _finite([float(v) for v in value], kind)
    if len(triple) != 3:
        raise ValueError("euler_zyz target must be [alpha, beta, gamma]")
    return from_euler_zyz(*triple, tol), kind


def parse_instance(obj: Any, tol: Tolerances = DEFAULT_TOL) -> ProblemInstance:
    if not isinstance(obj, Mapping):
        raise ValueError("instance must be a JSON object")
    for key in ("m", "n", "target"):
        if key not in obj:
            raise ValueError(f"instance is missing required key {key!r}")
    m = unit_axis(_vector3(obj["m"], "m"), tol)
    n = unit_axis(_vector3(obj["n"], "n"), tol)
    target, encoding = _parse_target(obj["target"], tol)
    return ProblemInstance(m=m, n=n, target=target, target_encoding=encoding)


def instance_to_obj(instance: ProblemInstance) -> dict:
    return {
        "m": [float(v) for v in instance.m],
        "n": [float(v) for v in instance.n],
        "target": {"su2": list(instance.target.components())},
    }


def _report_to_obj(report: CountReport) -> dict:
    return {
        "n_min": report.n_min,
        "m_odd": report.m_odd,
        "m_even_mn": report.m_even_mn,
        "m_even_nm": report.m_even_nm,
        "beta": report.beta,
        "beta_prime": report.beta_prime,
        "lowenthal": report.lowenthal,
        "chosen_parity": report.chosen_parity,
    }


def _report_from_obj(obj: Mapping) -> CountReport:
    return CountReport(
        n_min=int(obj["n_min"]),
        m_odd=int(obj["m_odd"]),
        m_even_mn=int(obj["m_even_mn"]),
        m_even_nm=int(obj["m_even_nm"]),
        beta=float(obj["beta"]),
        beta_prime=float(obj["beta_prime"]),
        lowenthal=int(obj["lowenthal"]),
        chosen_parity=str(obj["chosen_parity"]),
    )


def make_certificate(report: CountReport, pair: AxisPair, target: Su2Element,
                     decomposition: Decomposition | None = None) -> Certificate:
    factors = None
    residual = None
    parity = report.chosen_parity
    if decomposition is not None:
        factors = decomposition.factors
        residual = decomposition.residual
        parity = decomposition.parity
    count = report.n_min if decomposition is None else decomposition.count
    return Certificate(count=count, parity=parity, lowenthal=report.lowenthal,
                       target_su2=target, report=report, delta=pair.delta,
                       m_flipped=pair.m_flipped, swapped=pair.swapped,
                       factors=factors, residual=residual)


def certificate_to_obj(cert: Certificate) -> dict:
    obj: dict = {
        "count": cert.count,
        "parity": cert.parity,
        "lowenthal": cert.lowenthal,
        "delta": cert.delta,
        "m_flipped": cert.m_flipped,
        "swapped": cert.swapped,
        "target_su2": list(cert.target_su2.components()),
        "report": _report_to_obj(cert.report),
        # Factors multiply left to right but apply to vectors right to left.
        "order": "right-to-left",
    }
    if cert.factors is not None:
        obj["factors"] = [{"axis": f.label.value, "angle": f.angle}
                          for f in cert.factors]
    if cert.residual is not None:
        obj["residual"] = cert.residual
    return obj


def parse_certificate(obj: Any) -> Certificate:
    if not isinstance(obj, Mapping):
        raise ValueError("certificate must be a JSON object")
    try:
        target = Su2Element(*(float(v) for v in obj["target_su2"]))
        factors = None
        if "factors" in obj:
            factors = tuple(
                Factor(AxisLabel(f["axis"]), float(f["angle"]))
                for f in obj["factors"])
        residual = float(obj["residual"]) if "residual" in obj else None
        return Certificate(
            count=int(obj["count"]),
            parity=str(obj["parity"]),
            lowenthal=int(obj["lowenthal"]),
            target_su2=target,
            report=_report_from_obj(obj["report"]),
            delta=float(obj["delta"]),
            m_flipped=bool(obj["m_flipped"]),
            swapped=bool(obj["swapped"]),
            factors=factors,
            residual=residual,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc
