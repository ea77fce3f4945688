"""troplag: exact tools for tropical curves in almost toric base diagrams.

The package models base diagrams (polygons with focus-focus nodes and cuts),
tropical curves drawn in them, and computes the topology (Euler
characteristic, orientability, nonorientable genus), mod-2 homology class,
Pontryagin squares and existence thresholds of the associated tropical and
visible Lagrangian surfaces.  All geometry is exact (integers and rationals);
there is no floating point in the core.

Importing the package loads none of its submodules: each public name below
is imported from its submodule on first access (PEP 562), so a command that
needs only parsing and validation never compiles the rest.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "errors": ("TroplagError",),
    "lattice": (
        "DegenerateDirection", "IntVec", "NonUnimodularMap", "RatPoint",
        "UnimodularAffineMap", "pt",
    ),
    "diagram": (
        "BaseDiagram", "BoundaryEdge", "HomologyModel", "InvalidDiagram",
        "LocationKind", "Node", "PointLocation", "UnsupportedDiagram",
        "rectangle", "x_abc",
    ),
    "tropical": (
        "EndKind", "InvalidCurve", "NonIntegralSelfIntersection",
        "NonTrivalentVertex", "NotABoundaryEnd", "TropicalCurve",
        "UnbalancedVertex", "UnsupportedEndMultiplicity", "ValidationIssue",
        "ValidationReport", "check_balancing", "classify_end",
        "end_multiplicity", "validate", "vertex_double_points",
        "vertex_multiplicity",
    ),
    "topology": (
        "CellComplex", "ChiBreakdown", "EmptyCurve", "MalformedPresentation",
        "SurfaceClass", "build_presentation", "classify", "euler_breakdown",
        "oracle_classify", "surface_name",
    ),
    "homology": (
        "InvalidClass", "Mod2Class", "NonGenericWitness", "SweepDirection",
        "SweepParity", "UnsweepableCurve", "audin_check", "mod2_class",
        "pontryagin_square", "sweep_parity",
    ),
    "constructions": (
        "DegenerateConstruction", "DoesNotFit", "FamilyInstance",
        "GenusBound", "InvalidInput", "SqueezeResult", "TriangleResult",
        "genus_bound", "klein_threshold", "rp2_curve", "squeeze_check",
        "triangle_check", "trop_family", "visible_segment",
    ),
    "textio": ("Document", "ParseError", "parse_document",
               "serialize_document"),
    "render": ("render_document",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
