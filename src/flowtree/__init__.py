"""Computational harmonic analysis for flow Laplacians on trees.

Windows into trees with a root at infinity, flow measures, exact shift
calculus with certified safe regions, the radial kernel formulas on
homogeneous trees, quotient transference, and the estimate-scaling
experiments, with a CLI front end (see flowtree.cli).
"""

from .exactnum import QSurd
from .ncpoly import NcPolynomial, Z1, Z2
from .trees import (FlowMeasure, InsufficientMarginError, TreeError,
                    TreeWindow, ball_window, constant_ratio_window,
                    load_window, safe_region, spine_window,
                    validate_measure, validate_window, window_to_json)

__all__ = [
    "FlowMeasure", "InsufficientMarginError", "NcPolynomial", "QSurd",
    "TreeError", "TreeWindow", "Z1", "Z2", "ball_window",
    "constant_ratio_window", "load_window", "safe_region", "spine_window",
    "validate_measure", "validate_window", "window_to_json",
]

__version__ = "0.1.0"
