"""Exact zeta functions of finite quotients of the rank-2 building of PGL3.

The package builds typed 2-complexes from triangle presentations over
PG(2, q), derives the vertex, edge and chamber operators as exact integer
matrices, computes the associated zeta functions as rational functions,
and verifies the determinant identity, the trace/counting theorems and the
Ramanujan / Riemann-hypothesis criteria at desk scale.
"""

from .complexes import TypedComplex, directed_chambers, euler_characteristic, validate
from .errors import A2ZetaError
from .planes import build_plane
from .presentations import (
    TrianglePresentation,
    complex_from_presentation,
    search_triangle_presentations,
)
from .zeta import ramanujan_check, zeta_bundle, zeta_functions

__all__ = [
    "A2ZetaError",
    "TypedComplex",
    "TrianglePresentation",
    "build_plane",
    "complex_from_presentation",
    "directed_chambers",
    "euler_characteristic",
    "ramanujan_check",
    "search_triangle_presentations",
    "validate",
    "zeta_bundle",
    "zeta_functions",
]

__version__ = "0.1.0"
