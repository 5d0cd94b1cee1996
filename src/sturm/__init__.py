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
from importlib import import_module

__version__ = "0.1.0"

# The one list of public names, by the submodule that defines them; the
# submodules keep no ``__all__`` of their own. A name is imported on first
# access (PEP 562), so ``import sturm`` loads no submodule and each
# ``sturm`` command loads only the modules it runs.
_EXPORTS = {
    "attractor": (
        "AttractorModel",
        "MinimaxCase",
        "MinimaxExtrema",
        "MinimaxReport",
        "NEIGHBOR_SLOTS",
        "NeighborQuartet",
        "boundary_neighbors",
        "build_model",
        "connection_graph",
        "is_z_adjacent",
        "minimax",
        "minimax_report",
        "target_set",
    ),
    "crossing": ("CrossingCount", "crossing_number"),
    "enumeration": ("DEFAULT_BOUND", "count_sturm", "enumerate_sturm"),
    "errors": ("NotMeanderError", "NotSturmError", "ParseError", "SturmError", "WindowError"),
    "harness": ("HarnessReport", "PropertyResult", "property_harness"),
    "meander": ("Arc", "MeanderDiagram", "build_diagram", "is_meander", "is_sturm"),
    "perm": (
        "SturmPermutation",
        "apply_kappa",
        "apply_tau",
        "format_permutation",
        "identity",
        "is_dissipative",
        "is_morse",
        "parse_permutation",
    ),
    "render": ("RenderStyle", "render_svg"),
    "report": ("analyze_record", "dot_graph", "minimax_record", "to_json"),
    "suspension": (
        "CheckItem",
        "SuspensionReport",
        "SuspensionResult",
        "suspend",
        "verify_suspension",
    ),
    "window": ("MeanderWindow", "matrix_text", "window_morse", "window_z"),
    "zeros": ("SignedZero", "ZeroMatrix", "signed_z", "z_matrix", "z_pair_nsl"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys() | _SUBMODULES)
