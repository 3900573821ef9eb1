"""JSON interchange for problem instances and decomposition certificates.

An instance carries the two axes and a target rotation in one of four
encodings::

    {"m": [0,0,1], "n": [1,0,0], "target": {"su2": [w,x,y,z]}}
    {"target": {"so3": [r00, r01, ..., r22]}}          (row-major)
    {"target": {"axis_angle": {"axis": [x,y,z], "angle": t}}}
    {"target": {"euler_zyz": [alpha, beta, gamma]}}

Parsing checks shapes and JSON numbers; the axes and an ``su2`` target are
admitted by the entry point that reads them, while ``so3`` and
``axis_angle`` targets are admitted as they become quaternions.

A certificate records the factor sequence in product order (factors apply
right to left), the achieved residual, the counts, and the exact quaternion
lift of the target that was used, so it can be replayed and its claims
read against a fresh analysis of the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from .config import DEFAULT_TOL, Tolerances
from .core import Su2Element, from_euler_zyz, from_so3, rot
from .counting import AxisPair, CountReport
from .errors import InvalidRotationError
from .synthesis import AxisLabel, Decomposition, Factor

__all__ = [
    "ProblemInstance",
    "Certificate",
    "parse_instance",
    "parse_certificate",
    "certificate_to_obj",
]

TARGET_ENCODINGS = ("su2", "so3", "axis_angle", "euler_zyz")


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """Axes and a target lifted to SU(2), as read: the axes and an ``su2``
    target are not yet admitted (``analyze`` admits them), while an ``so3``
    matrix and an ``axis_angle`` axis were admitted on the way in."""

    m: list[float]
    n: list[float]
    target: Su2Element


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


def _is_number(v: Any) -> bool:
    # Only JSON numbers: float() would also take booleans and numeric strings.
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(obj: Any, length: int, message: str) -> list[float]:
    # A scalar or a nested value is a ValueError here rather than a
    # TypeError later.
    if isinstance(obj, (list, tuple)) and len(obj) == length and all(map(_is_number, obj)):
        return [float(v) for v in obj]
    raise ValueError(message)


def _vector3(obj: Any, name: str) -> list[float]:
    return _numbers(obj, 3, f"{name} must be a list of 3 numbers")


def _finite(values: list[float], name: str,
            error: type[ValueError] = InvalidRotationError) -> list[float]:
    if not all(math.isfinite(v) for v in values):
        raise error(f"{name} must be finite, got {values}")
    return values


# Certificate fields are read by JSON type: int(), bool() and str() would
# truncate 2.9, read "no" as true and take any value at all.

def _real(obj: Any, name: str) -> float:
    if not _is_number(obj):
        raise ValueError(f"{name} must be a number")
    value = float(obj)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {[value]}")
    return value


_LABELS = {"m": AxisLabel.M, "n": AxisLabel.N}


def _label(obj: Any) -> AxisLabel:
    try:
        return _LABELS[obj]
    except (KeyError, TypeError):
        # The enum's own message, also for an unhashable value.
        raise ValueError(f"{obj!r} is not a valid AxisLabel") from None


def _integer(obj: Any, name: str) -> int:
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj
    raise ValueError(f"{name} must be an integer, got {obj!r}")


def _flag(obj: Any, name: str) -> bool:
    if isinstance(obj, bool):
        return obj
    raise ValueError(f"{name} must be true or false, got {obj!r}")


def _text(obj: Any, name: str) -> str:
    if isinstance(obj, str):
        return obj
    raise ValueError(f"{name} must be a string, got {obj!r}")


def _parse_target(obj: Any, tol: Tolerances) -> Su2Element:
    if not isinstance(obj, Mapping):
        raise ValueError("target must be an object with one encoding key")
    keys = [k for k in TARGET_ENCODINGS if k in obj]
    if len(keys) != 1:
        raise ValueError(
            f"target must carry exactly one of {TARGET_ENCODINGS}, got {sorted(obj)}")
    kind = keys[0]
    value = obj[kind]
    if kind == "su2":
        return Su2Element(*_numbers(value, 4, "su2 target must be [w, x, y, z]"))
    if kind == "so3":
        entries = _numbers(value, 9, "so3 target must be 9 row-major numbers")
        return from_so3([entries[0:3], entries[3:6], entries[6:9]], tol)
    if kind == "axis_angle":
        if not isinstance(value, Mapping) or "axis" not in value or "angle" not in value:
            raise ValueError('axis_angle target must be {"axis": [...], "angle": t}')
        axis = _vector3(value["axis"], "axis_angle.axis")
        angle = value["angle"]
        if not _is_number(angle):
            raise ValueError("axis_angle.angle must be a number")
        return rot(axis, _finite([float(angle)], "axis_angle target")[0], tol)
    triple = _finite(_numbers(value, 3, "euler_zyz target must be [alpha, beta, gamma]"),
                     "euler_zyz target")
    return from_euler_zyz(*triple)


def parse_instance(obj: Any, tol: Tolerances = DEFAULT_TOL) -> ProblemInstance:
    if not isinstance(obj, Mapping):
        raise ValueError("instance must be a JSON object")
    for key in ("m", "n", "target"):
        if key not in obj:
            raise ValueError(f"instance is missing required key {key!r}")
    return ProblemInstance(m=_vector3(obj["m"], "m"), n=_vector3(obj["n"], "n"),
                           target=_parse_target(obj["target"], tol))


def _report_from_obj(obj: Mapping) -> CountReport:
    ints = {key: _integer(obj[key], f"report.{key}")
            for key in ("n_min", "m_odd", "m_even_mn", "m_even_nm", "lowenthal")}
    return CountReport(
        beta=_real(obj["beta"], "report.beta"),
        beta_prime=_real(obj["beta_prime"], "report.beta_prime"),
        chosen_parity=_text(obj["chosen_parity"], "report.chosen_parity"),
        **ints,
    )


def certificate_to_obj(report: CountReport, pair: AxisPair, target: Su2Element,
                       decomposition: Decomposition | None = None) -> dict:
    """JSON certificate of a count, or of a decomposition when one is given.

    ``pair`` supplies the gap and the m sign flip.  The count, the parity
    and ``swapped`` come from the decomposition when one is given and from
    ``report`` and ``pair`` otherwise, so a count certificate is made from
    the analysis's governing pair.
    """
    dec = decomposition
    obj: dict = {
        "count": report.n_min if dec is None else dec.count,
        "parity": report.chosen_parity if dec is None else dec.parity,
        "lowenthal": report.lowenthal,
        "delta": pair.delta,
        "m_flipped": pair.m_flipped,
        "swapped": pair.swapped if dec is None else dec.swapped,
        "target_su2": list(target.components()),
        "report": dict(vars(report)),
        # Factors multiply left to right but apply to vectors right to left.
        "order": "right-to-left",
    }
    if dec is not None:
        obj["factors"] = [{"axis": f.label.value, "angle": f.angle} for f in dec.factors]
        obj["residual"] = dec.residual
    return obj


def parse_certificate(obj: Any) -> Certificate:
    if not isinstance(obj, Mapping):
        raise ValueError("certificate must be a JSON object")
    try:
        target = Su2Element(*_finite(_numbers(obj["target_su2"], 4,
                                              "target_su2 must be [w, x, y, z]"),
                                     "target_su2", ValueError))
        factors = None
        if "factors" in obj:
            if not isinstance(obj["factors"], list):
                raise ValueError("factors must be a list")
            factors = tuple([Factor(_label(f["axis"]), _real(f["angle"], "factor angle"))
                             for f in obj["factors"]])
        residual = _real(obj["residual"], "residual") if "residual" in obj else None
        return Certificate(
            count=_integer(obj["count"], "count"),
            parity=_text(obj["parity"], "parity"),
            lowenthal=_integer(obj["lowenthal"], "lowenthal"),
            target_su2=target,
            report=_report_from_obj(obj["report"]),
            delta=_real(obj["delta"], "delta"),
            m_flipped=_flag(obj["m_flipped"], "m_flipped"),
            swapped=_flag(obj["swapped"], "swapped"),
            factors=factors,
            residual=residual,
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed certificate: {exc}") from exc
