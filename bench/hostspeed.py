"""Host-speed calibration for times measured on a shared machine.

On a host shared with other tenants the same code runs at speeds that
drift by up to a factor of two over seconds.  A fixed calibration kernel,
which does the same kind of work as the library (small frozen dataclasses,
scalar float arithmetic, ``math`` calls and a small numpy conversion per
step) but never calls it, is timed between the program's calls.  Every
measured time is scaled by ``REFERENCE_NS / kernel time`` taken around it,
which expresses it on a host where the kernel takes ``REFERENCE_NS``.
Raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Kernel time, in nanoseconds, on the reference host: a round figure near
# its median on a 2-core x86-64 cloud container running CPython 3.11.
REFERENCE_NS = 300_000.0
KERNEL_STEPS = 50
KERNEL_REPEATS = 3


@dataclass(frozen=True)
class _Quat:
    w: float
    x: float
    y: float
    z: float


def _mul(a: _Quat, b: _Quat) -> _Quat:
    return _Quat(a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                 a.w * b.x + b.w * a.x - (a.y * b.z - a.z * b.y),
                 a.w * b.y + b.w * a.y - (a.z * b.x - a.x * b.z),
                 a.w * b.z + b.w * a.z - (a.x * b.y - a.y * b.x))


def _turn(axis, theta: float) -> _Quat:
    a = np.asarray(axis, dtype=float)
    if abs(float(a[0] * a[0] + a[1] * a[1] + a[2] * a[2]) - 1.0) > 1e-9:
        raise ValueError("calibration axis is not a unit vector")
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    return _Quat(c, -a[0] * s, -a[1] * s, -a[2] * s)


_AXIS = np.array([0.0, 0.6, 0.8])


def kernel_ns() -> int:
    """Time one run of the calibration kernel."""
    start = time.perf_counter_ns()
    acc = _Quat(1.0, 0.0, 0.0, 0.0)
    for i in range(KERNEL_STEPS):
        acc = _mul(acc, _turn(_AXIS, 0.001 * i))
        math.atan2(acc.x, acc.w)
    return time.perf_counter_ns() - start


class HostSpeed:
    """Calibration samples taken during a run, in order."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> int:
        """Take one calibration sample; return its index."""
        self.samples.append(statistics.median(kernel_ns() for _ in range(KERNEL_REPEATS)))
        return len(self.samples) - 1

    def scale(self, before: int, after: int) -> float:
        """Factor that puts a time measured between two samples on the reference host."""
        return REFERENCE_NS / (0.5 * (self.samples[before] + self.samples[after]))
