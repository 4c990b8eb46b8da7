"""Exact reconstruction of embedded simplicial complexes from directional
augmented persistence diagrams, plus the diagram/curve machinery itself.

Everything is computed exactly, over arbitrary-precision rationals or, on
the hot paths, over integer-scaled coordinates; see the README for a tour
and ``demos/`` for narrative walkthroughs.
"""

from .complexes import (
    GeneralPositionReport,
    SimplicialComplex,
    build_complex,
    parse_complex,
    serialize_complex,
    validate_general_position,
)
from .descriptors import (
    StepCurve,
    betti_curve_from_apd,
    ecc_value,
    euler_curve_direct,
    euler_curve_from_apd,
)
from .edges import find_edges, find_up_edges, split_wedge
from .errors import (
    ApdrecError,
    DegeneratePosition,
    GeneralPositionViolated,
    GenerationFailure,
    InvalidInput,
    OracleInconsistency,
    ParallelDirections,
    ParseError,
    PreconditionViolated,
)
from .geometry import (
    RadialOrder,
    SweepFrame,
    leftmost_crossing,
    orthogonal_to_affine_hull,
    radial_order,
    second_perpendicular_direction,
    separating_direction,
    standard_frame,
    tilt,
)
from .harness import (
    GeneratorConfig,
    VerificationReport,
    complexes_match,
    edge_query_bound,
    generate_complex,
    verify_roundtrip,
)
from .higher import compute_indegree, is_simplex, reconstruct
from .oracle import (
    INF,
    AugmentedDiagram,
    DiagramPoint,
    Oracle,
    QueryLog,
    compute_apd,
    format_diagram,
    lift,
)

__all__ = [name for name in dir() if not name.startswith("_")]
