"""picklab: feasibility tests for Nevanlinna-Pick-type interpolation.

Subpackages cover the classical disk criteria (with tangential and
operator-argument variants), the commutative and free unit ball, Toeplitz
algebras of directed graphs (quivers), semidefinite Agler decompositions on
the polydisk, and the complete-positivity (Choi-matrix) route to the same
verdicts.  A sampling oracle produces certified Schur-class elements for
necessity testing, and a JSON CLI exposes every criterion.

The setting modules (agler, ball, cp, disk, oracle, quiver) are imported on
first attribute access, so a CLI call loads only the one it runs.
"""

import importlib

from . import matcore
from .matcore import (
    hermitize,
    is_psd,
    min_eigenvalue,
    operator_norm,
    solve_lyapunov_rhp,
    solve_stein,
    spectral_radius,
)
from .reports import FeasibilityReport

__all__ = [
    "agler",
    "ball",
    "cp",
    "disk",
    "matcore",
    "oracle",
    "quiver",
    "hermitize",
    "is_psd",
    "min_eigenvalue",
    "operator_norm",
    "solve_lyapunov_rhp",
    "solve_stein",
    "spectral_radius",
    "FeasibilityReport",
]

__version__ = "0.1.0"

_LAZY = frozenset({"agler", "ball", "cp", "disk", "oracle", "quiver"})


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
