"""Exact rational separation for pointed convex sets.

Sets are given by generators (vertices and rays) with coordinates in a
fixed real quadratic field Q(sqrt(k)); every geometric decision is made
by exact sign determination.  The central operation, ``separate``,
returns a rational halfspace certificate that provably contains the set
and excludes an exterior query point, together with a full exact trace
of how it was built.  Around it: certificate verification, a 2-D
brute-force cross-check, a decision procedure for rational-parallel
directions, and an outer-approximation loop that iterates the oracle.
"""

from .approximation import GridSpec, OuterApprox, excess_measure, outer_approximate
from .certificates import (
    Certificate,
    brute_force_separator,
    rational_parallel_direction,
    verify_certificate,
)
from .errors import (
    DimensionMismatchError,
    NotPointedError,
    PointInSetError,
    SeparationBugError,
)
from .scalars import Surd, Vector
from .separation import SeparationTrace, separate
from .sets import (
    SupportValue,
    VPolyhedron,
    is_pointed,
    membership,
    project,
    support_value,
)
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "Surd",
    "Vector",
    "VPolyhedron",
    "SupportValue",
    "support_value",
    "is_pointed",
    "membership",
    "project",
    "SeparationTrace",
    "separate",
    "Certificate",
    "verify_certificate",
    "brute_force_separator",
    "rational_parallel_direction",
    "OuterApprox",
    "GridSpec",
    "outer_approximate",
    "excess_measure",
    "render_svg",
    "DimensionMismatchError",
    "NotPointedError",
    "PointInSetError",
    "SeparationBugError",
]
