"""Exact combinatorics of Sturm meander permutations.

A Sturm permutation records the two boundary orders of the equilibria of
a one-dimensional reaction-advection-diffusion problem, or equivalently
the crossing sequence of a planar meander in canonical form. This
package computes, exactly and deterministically, everything that
permutation determines: Morse numbers, arc diagrams, crossing and zero
numbers, the heteroclinic connection graph, boundary neighbors and their
minimax identification, windowed local analysis, suspensions, and
exhaustive enumeration at small sizes with a property harness.
"""
from .attractor import (
    AttractorModel,
    MinimaxCase,
    MinimaxExtrema,
    MinimaxReport,
    NeighborQuartet,
    boundary_neighbors,
    build_model,
    connection_graph,
    connects,
    is_z_adjacent,
    minimax,
    minimax_report,
    target_set,
)
from .enumeration import (
    DEFAULT_BOUND,
    HarnessReport,
    count_sturm,
    enumerate_sturm,
    property_harness,
)
from .errors import NotMeanderError, NotSturmError, ParseError, SturmError, WindowError
from .meander import (
    Arc,
    CrossingCount,
    MeanderDiagram,
    build_diagram,
    crossing_number,
    is_meander,
    is_sturm,
    quadrant_parity,
)
from .perm import (
    KleinOrbit,
    SturmPermutation,
    apply_kappa,
    apply_tau,
    format_permutation,
    identity,
    inverse,
    is_dissipative,
    is_morse,
    klein_orbit,
    morse_indices,
    parse_permutation,
)
from .render import RenderStyle, render_svg
from .report import analyze_record, dot_graph, minimax_record, to_json
from .suspension import SuspensionReport, SuspensionResult, suspend, verify_suspension
from .zeros import (
    MeanderWindow,
    SignedZero,
    ZeroMatrix,
    matrix_text,
    signed_z,
    window_morse,
    window_z,
    z_matrix,
    z_pair_nsl,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "AttractorModel",
    "CrossingCount",
    "DEFAULT_BOUND",
    "HarnessReport",
    "KleinOrbit",
    "MeanderDiagram",
    "MeanderWindow",
    "MinimaxCase",
    "MinimaxExtrema",
    "MinimaxReport",
    "NeighborQuartet",
    "NotMeanderError",
    "NotSturmError",
    "ParseError",
    "RenderStyle",
    "SignedZero",
    "SturmError",
    "SturmPermutation",
    "SuspensionReport",
    "SuspensionResult",
    "WindowError",
    "ZeroMatrix",
    "analyze_record",
    "apply_kappa",
    "apply_tau",
    "boundary_neighbors",
    "build_diagram",
    "build_model",
    "connection_graph",
    "connects",
    "count_sturm",
    "crossing_number",
    "dot_graph",
    "enumerate_sturm",
    "format_permutation",
    "identity",
    "inverse",
    "is_dissipative",
    "is_meander",
    "is_morse",
    "is_sturm",
    "is_z_adjacent",
    "klein_orbit",
    "matrix_text",
    "minimax",
    "minimax_record",
    "minimax_report",
    "morse_indices",
    "parse_permutation",
    "property_harness",
    "quadrant_parity",
    "render_svg",
    "signed_z",
    "suspend",
    "target_set",
    "to_json",
    "verify_suspension",
    "window_morse",
    "window_z",
    "z_matrix",
    "z_pair_nsl",
]
