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
    canonical_cycle,
    distance,
)
from .fileformat import (
    ComplexFileError,
    format_complex,
    parse_complex,
    read_complex,
)
from .generators import DiskSpec, triangulated_disk
from .propa import property_a_report
from .quadric import (
    check_ball_isometry,
    check_flat_intervals,
    check_interval_isometry,
    check_quadrangle_condition,
    check_replacement_rule_A,
    check_replacement_rule_B,
)
from .reports import Certificate, CheckReport
from .squaring import (
    SquaringResult,
    check_quasi_isometry,
    enumerate_embedded_4cycles,
    squaring,
)
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
    "DiskSpec",
    "Graph",
    "SimplicialComplex2",
    "SquareComplex",
    "SquaringResult",
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
    "distance",
    "enumerate_embedded_4cycles",
    "format_complex",
    "parse_complex",
    "property_a_report",
    "read_complex",
    "squaring",
    "triangulated_disk",
    "verify_systolic",
]
