"""Exact lattice widths, lattice sizes and Newton-polygon curve bounds.

The exports are lazy (PEP 562): ``import latsize`` loads only this module
and ``errors``, and ``latsize.<name>`` imports the module that defines the
name on first access. Every CLI call is a fresh process, so it compiles
only the modules its command runs. ``__getattr__`` caches nothing: the
package binds no exported name but the errors, and each access returns the
current binding in the defining module, which it finds in sys.modules and
imports only while it is not there.
"""

import sys
from importlib import import_module

from .errors import (
    CoordinateGuardError,
    DegeneratePolygonError,
    EmptyPolygonError,
    InternalConsistencyError,
    LatsizeError,
    NotTwoDimensionalError,
    ZeroPolynomialError,
)

__version__ = "0.1.0"

# Each exported name but the errors -> the full name of the module that defines it.
_EXPORTS = {
    **dict.fromkeys(("OnionTrace", "interior_hull", "onion_skins"), f"{__name__}.interior"),
    **dict.fromkeys(("LaurentPolynomial", "NewtonAnalysis", "analyze", "newton_polygon",
                     "parse_laurent", "transform_support"), f"{__name__}.newton"),
    **dict.fromkeys(("census", "oracle_box", "oracle_size", "random_polygon",
                     "random_unimodular_map"), f"{__name__}.oracle"),
    **dict.fromkeys(("EMPTY", "AffineUnimodularMap", "LatticePolygon", "Measures", "SpecialShape",
                     "apply_map", "are_equivalent", "hull", "integral_length", "lawrence_prism",
                     "measures", "rectangle", "recognize_special", "standard_triangle",
                     "upsilon"), f"{__name__}.polygon"),
    **dict.fromkeys(("BoxCertificate", "SizeCertificate", "Step", "fit_into", "lattice_size_sigma",
                     "lattice_size_square", "lattice_width_recursive", "minimal_box"), f"{__name__}.size"),
    **dict.fromkeys(("WidthResult", "lattice_width", "width_along"), f"{__name__}.width"),
}

__all__ = sorted(
    [
        "CoordinateGuardError",
        "DegeneratePolygonError",
        "EmptyPolygonError",
        "InternalConsistencyError",
        "LatsizeError",
        "NotTwoDimensionalError",
        "ZeroPolynomialError",
        *_EXPORTS,
    ]
)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(sys.modules.get(_EXPORTS[name]) or import_module(_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
