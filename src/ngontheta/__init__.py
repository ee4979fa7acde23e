"""Indefinite theta series attached to geodesic polygons and dodecahedra."""

__version__ = "0.1.0"

from .qspace import QuadraticSpace, NegativePlane
from .ngon import NGon, validate, epsilon, w_invariant

__all__ = [
    "QuadraticSpace", "NegativePlane",
    "NGon", "validate", "epsilon", "w_invariant",
]
