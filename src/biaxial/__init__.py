"""Minimal two-axis rotation synthesis for SU(2)/SO(3).

Given two non-parallel unit axes m and n and a target rotation, this
package computes the exact minimum number of rotations about m or n whose
product equals the target, constructs an explicit optimal factor sequence,
and checks the answer with geodesic bounds and, for every shorter pattern,
its closest product in closed form.
"""

from .config import DEFAULT_TOL, Tolerances
from .core import (
    IDENTITY,
    Su2Element,
    compose,
    euler_zyz,
    from_so3,
    generalized_euler,
    geodesic,
    inverse,
    negate,
    normalize_angle,
    quat_distance,
    rot,
    to_so3,
    unit_axis,
)
from .counting import (
    AxisPair,
    count_min,
    f_angle,
    g_count,
    lowenthal_bound,
    m_odd_count,
    overlap_b,
    worst_case_witness,
)
from .errors import (
    AxesParallelError,
    BiaxialError,
    InfeasibleSlabError,
    InvalidAxisError,
    InvalidRotationError,
)
from .oracle import (
    PatternSpec,
    geodesic_bound_check,
    minimality_certificate,
    numeric_search,
)
from .synthesis import (
    AxisLabel,
    Decomposition,
    Factor,
    decompose_min,
    replay_factors,
    solve_triple,
    verify_decomposition,
)

__version__ = "0.1.0"
