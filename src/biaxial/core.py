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
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import InvalidAxisError, InvalidFrameError, InvalidRotationError

__all__ = [
    "Su2Element",
    "EulerTriple",
    "Frame",
    "IDENTITY",
    "rot",
    "compose",
    "inverse",
    "negate",
    "to_so3",
    "from_so3",
    "euler_zyz",
    "from_euler_zyz",
    "frame_for",
    "generalized_euler",
    "geodesic",
    "quat_distance",
    "normalize_angle",
    "unit_axis",
]

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class Su2Element:
    """Unit quaternion (w, x, y, z) encoding ``w*I + i*(x*X + y*Y + z*Z)``."""

    w: float
    x: float
    y: float
    z: float

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x, self.y, self.z)

    def vector(self) -> np.ndarray:
        """The (x, y, z) part, i.e. ``-sin(theta/2)`` times the rotation axis."""
        return np.array([self.x, self.y, self.z])

    def norm_error(self) -> float:
        return abs(self.w * self.w + self.x * self.x + self.y * self.y
                   + self.z * self.z - 1.0)


class EulerTriple(NamedTuple):
    """Angles (alpha, beta, gamma) of a factorization R(alpha) R(beta) R(gamma)."""

    alpha: float
    beta: float
    gamma: float


IDENTITY = Su2Element(1.0, 0.0, 0.0, 0.0)

_EY = np.array([0.0, 1.0, 0.0])
_EZ = np.array([0.0, 0.0, 1.0])


def unit_axis(v, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Validate and return a finite unit 3-vector as a float array."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise InvalidAxisError(f"axis must be a 3-vector, got shape {a.shape}")
    n = float(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])
    if not math.isfinite(n):
        # A NaN norm would pass the comparison below, which is false for NaN.
        raise InvalidAxisError(f"axis must be finite with norm 1, got {a.tolist()}")
    if abs(n - 1.0) > 2.0 * tol.norm:
        raise InvalidAxisError(f"axis norm {math.sqrt(n):.12g} is not 1 within tolerance")
    return a


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
    v = unit_axis(axis, tol)
    half = 0.5 * theta
    c, s = math.cos(half), math.sin(half)
    return Su2Element(c, -v[0] * s, -v[1] * s, -v[2] * s)


def compose(a: Su2Element, b: Su2Element, tol: Tolerances = DEFAULT_TOL) -> Su2Element:
    """Quaternion product ``a * b`` (matrix product of the 2x2 unitaries)."""
    w1, x1, y1, z1 = a.w, a.x, a.y, a.z
    w2, x2, y2, z2 = b.w, b.x, b.y, b.z
    w = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    x = w1 * x2 + w2 * x1 - (y1 * z2 - z1 * y2)
    y = w1 * y2 + w2 * y1 - (z1 * x2 - x1 * z2)
    z = w1 * z2 + w2 * z1 - (x1 * y2 - y1 * x2)
    n = w * w + x * x + y * y + z * z
    if abs(n - 1.0) > 0.5 * tol.norm:
        inv = 1.0 / math.sqrt(n)
        w, x, y, z = w * inv, x * inv, y * inv, z * inv
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

    The two lifts differ by sign; the returned one has ``w > 0``, or if ``w``
    vanishes, the first nonzero of ``(x, y, z)`` positive.
    """
    m = np.asarray(d, dtype=float)
    if m.shape != (3, 3):
        raise InvalidRotationError(f"rotation matrix must be 3x3, got shape {m.shape}")
    if not np.isfinite(m).all():
        # NaN entries would pass the comparisons below, which are false for NaN.
        raise InvalidRotationError("rotation matrix entries must be finite")
    # Entry tolerance calibrated to the unit-norm admission scale.
    if np.abs(m.T @ m - np.eye(3)).max() > 4.0 * tol.norm:
        raise InvalidRotationError("matrix is not orthogonal within tolerance")
    if abs(np.linalg.det(m) - 1.0) > 4.0 * tol.norm:
        raise InvalidRotationError("matrix determinant is not 1 within tolerance")

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
    return _canonical_sign(u, tol)


def _canonical_sign(u: Su2Element, tol: Tolerances) -> Su2Element:
    if u.w > tol.norm:
        return u
    if u.w < -tol.norm:
        return negate(u)
    for comp in (u.x, u.y, u.z):
        if abs(comp) > tol.norm:
            return u if comp > 0.0 else negate(u)
    return u


def euler_zyz(u: Su2Element, tol: Tolerances = DEFAULT_TOL) -> EulerTriple:
    """Factor ``u`` as rot(z, alpha) * rot(y, beta) * rot(z, gamma).

    beta lies in [0, pi]; the reconstruction equals ``u`` with exact
    quaternion sign, not merely up to the two-to-one lift.  On the
    degenerate set (beta near 0 or pi) alpha is fixed to 0 and the whole
    z-phase is folded into gamma, making the output deterministic.
    """
    sb = math.hypot(u.x, u.y)  # sin(beta/2)
    cb = math.hypot(u.w, u.z)  # cos(beta/2)
    beta = 2.0 * math.atan2(sb, cb)
    # 0.0 - v maps a negative zero to +0.0 so atan2 branch cuts are stable.
    if sb <= tol.angle:
        return EulerTriple(0.0, beta,
                           normalize_angle(2.0 * math.atan2(0.0 - u.z, u.w)))
    if cb <= tol.angle:
        return EulerTriple(0.0, beta,
                           normalize_angle(2.0 * math.atan2(0.0 - u.x, 0.0 - u.y)))
    half_sum = math.atan2(0.0 - u.z, u.w)  # (gamma + alpha) / 2
    half_diff = math.atan2(0.0 - u.x, 0.0 - u.y)  # (gamma - alpha) / 2
    return EulerTriple(normalize_angle(half_sum - half_diff), beta,
                       normalize_angle(half_sum + half_diff))


def from_euler_zyz(alpha: float, beta: float, gamma: float,
                   tol: Tolerances = DEFAULT_TOL) -> Su2Element:
    """The product rot(z, alpha) * rot(y, beta) * rot(z, gamma).

    The inverse of :func:`euler_zyz`: ``from_euler_zyz(*euler_zyz(u))``
    reproduces ``u`` with its quaternion sign.
    """
    return compose(rot(_EZ, alpha, tol),
                   compose(rot(_EY, beta, tol), rot(_EZ, gamma, tol), tol), tol)


@dataclass(frozen=True, eq=False)
class Frame:
    """Orthogonal axis pair (l, m) together with a quaternion ``u`` that
    rotates the coordinate axes onto it: ``to_so3(u) @ e_y = l`` and
    ``to_so3(u) @ e_z = m``."""

    l: np.ndarray
    m: np.ndarray
    u: Su2Element


def frame_for(l, m, tol: Tolerances = DEFAULT_TOL) -> Frame:
    """Construct a frame element for orthogonal unit vectors ``l`` and ``m``.

    ``m`` fixes the polar and azimuthal angles (spherical coordinates) and
    ``l`` fixes the remaining roll angle.
    """
    lv = unit_axis(l, tol)
    mv = unit_axis(m, tol)
    if abs(float(lv @ mv)) > tol.orth:
        raise InvalidFrameError("frame axes are not orthogonal within tolerance")
    beta_t = math.acos(min(1.0, max(-1.0, float(mv[2]))))
    alpha_t = math.atan2(mv[1], mv[0]) if math.hypot(mv[0], mv[1]) > 0.0 else 0.0
    # Undo the first two rotations on l; the image must be (-sin g, cos g, 0).
    ca, sa = math.cos(alpha_t), math.sin(alpha_t)
    cb, sb = math.cos(beta_t), math.sin(beta_t)
    lx = ca * lv[0] + sa * lv[1]
    ly = -sa * lv[0] + ca * lv[1]
    lz = lv[2]
    l1 = np.array([cb * lx - sb * lz, ly, sb * lx + cb * lz])
    gamma_t = math.atan2(0.0 - l1[0], l1[1])
    # Default tolerances: the frame element must not depend on the caller's.
    return Frame(l=lv, m=mv, u=from_euler_zyz(alpha_t, beta_t, gamma_t))


def generalized_euler(u: Su2Element, frame: Frame,
                      tol: Tolerances = DEFAULT_TOL) -> EulerTriple:
    """Factor ``u`` as rot(m, alpha) * rot(l, beta) * rot(m, gamma).

    Conjugating by the frame element reduces the problem to the z-y-z case;
    the triple does not depend on which of the two frame lifts was built.
    """
    conj = compose(inverse(frame.u), compose(u, frame.u))
    return euler_zyz(conj, tol)


def geodesic(a, b, tol: Tolerances = DEFAULT_TOL) -> float:
    """Great-circle distance between unit vectors, in [0, pi]."""
    av = unit_axis(a, tol)
    bv = unit_axis(b, tol)
    return math.acos(min(1.0, max(-1.0, float(av @ bv))))
