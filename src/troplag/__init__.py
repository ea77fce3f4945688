"""troplag: exact tools for tropical curves in almost toric base diagrams.

The package models base diagrams (polygons with focus-focus nodes and cuts),
tropical curves drawn in them, and computes the topology (Euler
characteristic, orientability, nonorientable genus), mod-2 homology class,
Pontryagin squares and existence thresholds of the associated tropical and
visible Lagrangian surfaces.  All geometry is exact (integers and rationals);
there is no floating point in the core.
"""

from .errors import TroplagError
from .lattice import (
    DegenerateDirection,
    IntVec,
    NonUnimodularMap,
    RatPoint,
    RatVec,
    UnimodularAffineMap,
    pt,
)
from .diagram import (
    BaseDiagram,
    BoundaryEdge,
    HomologyModel,
    InvalidDiagram,
    LocationKind,
    Node,
    PointLocation,
    UnsupportedDiagram,
    rectangle,
    x_abc,
)
from .tropical import (
    BoundaryTerminal,
    CurveEnd,
    InternalEdge,
    InvalidCurve,
    NodeTerminal,
    NonIntegralSelfIntersection,
    NonTrivalentVertex,
    NotABoundaryEnd,
    TropicalCurve,
    TropicalVertex,
    UnbalancedVertex,
    ValidationIssue,
    ValidationReport,
    WeightedVertexUnsupported,
    check_balancing,
    end_multiplicity,
    transformed,
    validate,
    vertex_double_points,
    vertex_multiplicity,
)
from .topology import (
    ChiBreakdown,
    EmptyCurve,
    EndKind,
    MalformedPresentation,
    Piece,
    PieceKind,
    SurfaceClass,
    SurfacePresentation,
    UnsupportedEndMultiplicity,
    build_presentation,
    classify,
    classify_end,
    euler_breakdown,
    oracle_classify,
    surface_name,
)
from .homology import (
    GenusSpectrum,
    InvalidClass,
    Mod2Class,
    NonGenericWitness,
    SweepDirection,
    SweepParity,
    UnsweepableCurve,
    audin_check,
    genus_spectrum,
    mod2_class,
    pontryagin_square,
    sweep_parity,
)
from .constructions import (
    NULL_CLASS_MIN_GENUS,
    RP2_INTEGRAL_CLASS,
    DegenerateConstruction,
    DoesNotFit,
    FamilyInstance,
    GenusBound,
    InvalidInput,
    SqueezeResult,
    TriangleResult,
    genus_bound,
    klein_threshold,
    rp2_curve,
    squeeze_check,
    triangle_check,
    trop_family,
    visible_segment,
)
from .textio import Document, ParseError, parse_document, serialize_document
from .render import render_document

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
