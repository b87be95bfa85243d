"""Systolic disks, their squarings, and exact Property A certificates.

The pipeline: build a triangulated disk whose interior vertex links are
large (``generators``), verify the defining local conditions
(``systolic``), square it from a basepoint into a bipartite square complex
(``squaring``), verify the quadric replacement rules and isometric
embedding of balls and intervals (``quadric``), and compute weight
functions whose l1 identities hold exactly (``propa``). Every check
returns a ``CheckReport`` with counterexample certificates.
"""

from .complexes import (
    BasedComplex,
    Graph,
    SimplicialComplex2,
    SquareComplex,
    VertexSubgraph,
    ball,
    bfs_levels,
    canonical_cycle,
    distance,
    enumerate_embedded_4cycles,
    find_K23,
    girth,
    h1_rank_mod2,
    is_connected,
    link,
    sphere,
)
from .fileformat import (
    ComplexFileError,
    ParsedComplex,
    format_complex,
    parse_complex,
    read_complex,
    write_complex,
)
from .generators import (
    Disk,
    DiskSpec,
    non_systolic_counterexamples,
    triangulated_disk,
)
from .propa import (
    NonFlatIntervalError,
    PropertyAReport,
    PropertyARow,
    WeightFunction,
    difference_check,
    norm_check,
    property_a_report,
    weight_at,
)
from .quadric import (
    Interval,
    based_interval,
    check_ball_isometry,
    check_flat_intervals,
    check_interval_isometry,
    check_quadrangle_condition,
    check_replacement_rule_A,
    check_replacement_rule_B,
    descending_reachable,
    interval,
)
from .reports import DEFAULT_CERT_CAP, Certificate, CheckReport
from .squaring import SquaringResult, check_quasi_isometry, squaring
from .systolic import (
    check_ball_neighbours,
    check_spheres_triangle_free,
    check_triangle_condition,
    verify_systolic,
)

__version__ = "0.1.0"

__all__ = [
    "BasedComplex",
    "Certificate",
    "CheckReport",
    "ComplexFileError",
    "DEFAULT_CERT_CAP",
    "Disk",
    "DiskSpec",
    "Graph",
    "Interval",
    "NonFlatIntervalError",
    "ParsedComplex",
    "PropertyAReport",
    "PropertyARow",
    "SimplicialComplex2",
    "SquareComplex",
    "SquaringResult",
    "VertexSubgraph",
    "WeightFunction",
    "ball",
    "based_interval",
    "bfs_levels",
    "canonical_cycle",
    "check_ball_isometry",
    "check_ball_neighbours",
    "check_flat_intervals",
    "check_interval_isometry",
    "check_quadrangle_condition",
    "check_quasi_isometry",
    "check_replacement_rule_A",
    "check_replacement_rule_B",
    "check_spheres_triangle_free",
    "check_triangle_condition",
    "descending_reachable",
    "difference_check",
    "distance",
    "enumerate_embedded_4cycles",
    "find_K23",
    "format_complex",
    "girth",
    "h1_rank_mod2",
    "interval",
    "is_connected",
    "link",
    "non_systolic_counterexamples",
    "norm_check",
    "parse_complex",
    "property_a_report",
    "read_complex",
    "sphere",
    "squaring",
    "triangulated_disk",
    "verify_systolic",
    "weight_at",
    "write_complex",
]
