"""Unit-quaternion rotation algebra and generalized Euler factorizations.

A rotation is stored as the unit quaternion ``(w, x, y, z)`` of the 2x2
unitary ``w*I + i*(x*X + y*Y + z*Z)`` with Pauli matrices X, Y, Z.  In this
parameterization the rotation about a unit axis ``v`` by angle ``theta`` has

    w = cos(theta/2),   (x, y, z) = -sin(theta/2) * v

All operations are pure functions over immutable values and are safe for
concurrent use.  Angles are accepted anywhere on the real line; reported
angles live in the interval ``(-2*pi, 2*pi]`` (quaternion factors have
period ``4*pi``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .config import DECISION_WINDOW, DEFAULT_TOL, Tolerances
from .errors import InvalidAxisError, InvalidRotationError

if TYPE_CHECKING:
    from .counting import AxisPair

__all__ = [
    "Su2Element",
    "EulerTriple",
    "IDENTITY",
    "rot",
    "compose",
    "inverse",
    "negate",
    "to_so3",
    "from_so3",
    "euler_zyz",
    "from_euler_zyz",
    "generalized_euler",
    "geodesic",
    "rotate_vector",
    "quat_distance",
    "normalize_angle",
    "unit_axis",
]

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
# Squared-norm error of a vector that is unit to rounding: dividing a 3- or
# 4-vector by its norm (200,000 random vectors), and rot, from_euler_zyz
# and from_so3 (20,000 rotations each), leave it within 3 float spacings
# of 1, so eight (1.8e-15) make admission idempotent.
_UNIT_ROUNDING = 8.0 * 2.0 ** -52


@dataclass(frozen=True)
class Su2Element:
    """Unit quaternion (w, x, y, z) encoding ``w*I + i*(x*X + y*Y + z*Z)``."""

    w: float
    x: float
    y: float
    z: float

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)


class EulerTriple(NamedTuple):
    """Angles (alpha, beta, gamma) of a factorization R(alpha) R(beta) R(gamma)."""

    alpha: float
    beta: float
    gamma: float


IDENTITY = Su2Element(1.0, 0.0, 0.0, 0.0)

_EY = (0.0, 1.0, 0.0)
_EZ = (0.0, 0.0, 1.0)


def _admit_unit(v, tol: Tolerances, error: type[ValueError], name: str):
    """Admit the float sequence ``v`` as a unit vector: the one rule for
    axes and targets.

    ``v`` must be finite with squared norm within ``max(2*tol.norm,
    _UNIT_ROUNDING)`` of 1, else ``error``.  It is returned divided by its
    norm, or, if already unit to rounding, as it is (the same object), so
    admitting an admitted vector again keeps its bits.
    """
    n = 0.0
    for c in v:
        n += c * c
    if not 0.0 < n < math.inf:
        # A NaN norm fails this comparison too; it would pass the one below.
        raise error(f"{name} must be finite and nonzero with norm 1, got {list(v)}")
    off = abs(n - 1.0)
    bound = max(2.0 * tol.norm, _UNIT_ROUNDING)
    if off > bound:
        raise error(f"{name} must have norm 1: |n^2 - 1| = {off:.3g} exceeds {bound:.3g}")
    if off <= _UNIT_ROUNDING:
        return v
    s = math.sqrt(n)
    return [c / s for c in v]


def unit_axis(v, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Admit a 3-vector by the unit rule (:func:`_admit_unit`) and return it
    divided by its norm, as a float array."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise InvalidAxisError(f"axis must be a 3-vector, got shape {a.shape}")
    t = a.tolist()
    u = _admit_unit(t, tol, InvalidAxisError, "axis")
    return a if u is t else np.array(u)


def normalize_angle(theta: float) -> float:
    """Reduce an angle modulo 4*pi into the reporting interval (-2*pi, 2*pi]."""
    t = math.fmod(theta, FOUR_PI)
    if t > TWO_PI:
        t -= FOUR_PI
    elif t <= -TWO_PI:
        t += FOUR_PI
    return t


def rot(axis, theta: float, tol: Tolerances = DEFAULT_TOL) -> Su2Element:
    """Rotation about a unit axis by ``theta`` radians.

    Returns ``(cos(theta/2), -v*sin(theta/2))``; note ``rot(v, theta + 2*pi)``
    is the negation of ``rot(v, theta)``.
    """
    return _rot(unit_axis(axis, tol), theta)


def _rot(v, theta: float) -> Su2Element:
    """:func:`rot` about an axis already admitted."""
    half = 0.5 * theta
    c, s = math.cos(half), math.sin(half)
    return Su2Element(c, -v[0] * s, -v[1] * s, -v[2] * s)


def compose(a: Su2Element, b: Su2Element) -> Su2Element:
    """Quaternion product ``a * b`` (matrix product of the 2x2 unitaries).

    The product is not renormalised: unit inputs give a product unit to
    rounding, and the norm of a product of non-unit inputs is the product
    of their norms.
    """
    w1, x1, y1, z1 = a.w, a.x, a.y, a.z
    w2, x2, y2, z2 = b.w, b.x, b.y, b.z
    w = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    x = w1 * x2 + w2 * x1 - (y1 * z2 - z1 * y2)
    y = w1 * y2 + w2 * y1 - (z1 * x2 - x1 * z2)
    z = w1 * z2 + w2 * z1 - (x1 * y2 - y1 * x2)
    return Su2Element(w, x, y, z)


def inverse(u: Su2Element) -> Su2Element:
    """Conjugate quaternion; the group inverse for unit quaternions."""
    return Su2Element(u.w, -u.x, -u.y, -u.z)


def negate(u: Su2Element) -> Su2Element:
    """The other lift of the same spatial rotation."""
    return Su2Element(-u.w, -u.x, -u.y, -u.z)


def quat_distance(a: Su2Element, b: Su2Element) -> float:
    """Euclidean distance between quaternion 4-vectors (sign-sensitive)."""
    return math.sqrt((a.w - b.w) ** 2 + (a.x - b.x) ** 2
                     + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


def rotate_vector(u: Su2Element, v) -> tuple[float, float, float]:
    """``to_so3(u) @ v`` in scalar math: ``v - w t + q x t`` with vector
    part ``q`` and ``t = 2 q x v / |u|^2`` (``u`` acts at unit norm)."""
    vx, vy, vz = v
    w, x, y, z = u.w, u.x, u.y, u.z
    s = 2.0 / (w * w + x * x + y * y + z * z)
    tx = s * (y * vz - z * vy)
    ty = s * (z * vx - x * vz)
    tz = s * (x * vy - y * vx)
    return (vx - w * tx + (y * tz - z * ty),
            vy - w * ty + (z * tx - x * tz),
            vz - w * tz + (x * ty - y * tx))


def to_so3(u: Su2Element) -> np.ndarray:
    """The 3x3 rotation matrix acting on Pauli coordinates by conjugation.

    The map is a two-to-one homomorphism: ``to_so3(compose(a, b))`` equals
    ``to_so3(a) @ to_so3(b)`` and ``u`` and ``negate(u)`` share one image.
    """
    w, x, y, z = u.w, u.x, u.y, u.z
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return np.array([
        [1.0 - 2.0 * (yy + zz), 2.0 * (xy + wz), 2.0 * (xz - wy)],
        [2.0 * (xy - wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz + wx)],
        [2.0 * (xz + wy), 2.0 * (yz - wx), 1.0 - 2.0 * (xx + yy)],
    ])


def from_so3(d, tol: Tolerances = DEFAULT_TOL) -> Su2Element:
    """Canonical quaternion lift of a rotation matrix.

    The two lifts differ by sign; the returned one has ``w > 0``, or if
    ``|w|`` is at most ``DECISION_WINDOW``, the first of ``(x, y, z)``
    beyond that window positive.  ``tol.norm`` admits the matrix only; the
    choice of lift does not read it.
    """
    m = np.asarray(d, dtype=float)
    if m.shape != (3, 3):
        raise InvalidRotationError(f"rotation matrix must be 3x3, got shape {m.shape}")
    if not np.isfinite(m).all():
        # NaN entries would pass the comparisons below, which are false for NaN.
        raise InvalidRotationError("rotation matrix entries must be finite")
    # Entry bound on the unit-norm admission scale, floored at rounding: to_so3
    # of a unit quaternion measures at most 10.5 float spacings in both checks
    # (200,000 random targets), the floor 32.
    bound = 4.0 * max(tol.norm, _UNIT_ROUNDING)
    orth = float(np.abs(m.T @ m - np.eye(3)).max())
    det = abs(float(np.linalg.det(m)) - 1.0)
    if max(orth, det) > bound:
        raise InvalidRotationError(
            f"matrix is not a rotation: max |M^T M - I| = {orth:.3g} and "
            f"|det - 1| = {det:.3g}, bound {bound:.3g}")

    # Shepperd's branch selection on the standard-sign quaternion, then flip
    # the vector part into this library's (w, x, y, z) convention.
    t = m[0, 0] + m[1, 1] + m[2, 2]
    if t > 0.0:
        s = 2.0 * math.sqrt(t + 1.0)
        w = 0.25 * s
        xs = (m[2, 1] - m[1, 2]) / s
        ys = (m[0, 2] - m[2, 0]) / s
        zs = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = 2.0 * math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2])
        w = (m[2, 1] - m[1, 2]) / s
        xs = 0.25 * s
        ys = (m[0, 1] + m[1, 0]) / s
        zs = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = 2.0 * math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2])
        w = (m[0, 2] - m[2, 0]) / s
        xs = (m[0, 1] + m[1, 0]) / s
        ys = 0.25 * s
        zs = (m[1, 2] + m[2, 1]) / s
    else:
        s = 2.0 * math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1])
        w = (m[1, 0] - m[0, 1]) / s
        xs = (m[0, 2] + m[2, 0]) / s
        ys = (m[1, 2] + m[2, 1]) / s
        zs = 0.25 * s

    n = math.sqrt(w * w + xs * xs + ys * ys + zs * zs)
    u = Su2Element(w / n, -xs / n, -ys / n, -zs / n)
    return _canonical_sign(u)


def _canonical_sign(u: Su2Element) -> Su2Element:
    if u.w > DECISION_WINDOW:
        return u
    if u.w < -DECISION_WINDOW:
        return negate(u)
    for comp in (u.x, u.y, u.z):
        if abs(comp) > DECISION_WINDOW:
            return u if comp > 0.0 else negate(u)
    return u


def euler_zyz(u: Su2Element) -> EulerTriple:
    """Factor ``u`` as rot(z, alpha) * rot(y, beta) * rot(z, gamma).

    beta lies in [0, pi]; the reconstruction equals ``u`` with exact
    quaternion sign, not merely up to the two-to-one lift.  On the
    degenerate set (``sin(beta/2)`` or ``cos(beta/2)`` at most
    ``DECISION_WINDOW``) alpha is fixed to 0 and the whole z-phase is
    folded into gamma, making the output deterministic.
    """
    sb = math.hypot(u.x, u.y)  # sin(beta/2)
    cb = math.hypot(u.w, u.z)  # cos(beta/2)
    beta = 2.0 * math.atan2(sb, cb)
    # 0.0 - v maps a negative zero to +0.0 so atan2 branch cuts are stable.
    if sb <= DECISION_WINDOW:
        return EulerTriple(0.0, beta,
                           normalize_angle(2.0 * math.atan2(0.0 - u.z, u.w)))
    if cb <= DECISION_WINDOW:
        return EulerTriple(0.0, beta,
                           normalize_angle(2.0 * math.atan2(0.0 - u.x, 0.0 - u.y)))
    half_sum = math.atan2(0.0 - u.z, u.w)  # (gamma + alpha) / 2
    half_diff = math.atan2(0.0 - u.x, 0.0 - u.y)  # (gamma - alpha) / 2
    return EulerTriple(normalize_angle(half_sum - half_diff), beta,
                       normalize_angle(half_sum + half_diff))


def from_euler_zyz(alpha: float, beta: float, gamma: float) -> Su2Element:
    """The product rot(z, alpha) * rot(y, beta) * rot(z, gamma).

    Reads the ``euler_zyz`` target encoding.  It inverts :func:`euler_zyz`:
    ``from_euler_zyz(*euler_zyz(u))`` reproduces ``u`` with its quaternion
    sign.
    """
    return compose(_rot(_EZ, alpha), compose(_rot(_EY, beta), _rot(_EZ, gamma)))


def generalized_euler(u: Su2Element, pair: AxisPair) -> EulerTriple:
    """Factor ``u`` as rot(m, alpha) * rot(l, beta) * rot(m, gamma).

    ``l`` and ``m`` are the orthonormal frame an :class:`AxisPair` carries.
    The rotation carrying (e_x, e_y, e_z) onto (l x m, l, m) maps the z-y-z
    factors onto the (m, l, m) ones.  Conjugating ``u`` by it only
    re-expresses the vector part ``v = (x, y, z)`` of ``u`` in that basis,
    so the z-y-z factorization of ``(w, v.(l x m), v.l, v.m)`` is the
    triple.
    """
    lx, ly, lz = pair.l.tolist()
    mx, my, mz = pair.m.tolist()
    x, y, z = u.x, u.y, u.z
    return euler_zyz(Su2Element(
        u.w,
        x * (ly * mz - lz * my) + y * (lz * mx - lx * mz) + z * (lx * my - ly * mx),
        x * lx + y * ly + z * lz,
        x * mx + y * my + z * mz))


def geodesic(a, b, tol: Tolerances = DEFAULT_TOL) -> float:
    """Great-circle distance between unit vectors, in [0, pi]."""
    return _arc(unit_axis(a, tol).tolist(), unit_axis(b, tol).tolist())


def _arc(a, b) -> float:
    """:func:`geodesic` of float 3-sequences known to be unit."""
    ax, ay, az = a
    bx, by, bz = b
    # acos(a.b) reads about 1e-8 for coincident vectors; atan2 stays exact.
    # Scalar math: np.cross on 3-vectors costs about ten times as much.
    return math.atan2(math.hypot(ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx),
                      ax * bx + ay * by + az * bz)
