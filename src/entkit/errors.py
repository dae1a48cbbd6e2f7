"""Exception types shared across the package.

The CLI maps these onto its exit-code contract, so keep the taxonomy small
and stable.
"""

from __future__ import annotations


class DimensionError(ValueError):
    """Shape or dimension mismatch between operands."""


class NonUnitaryError(ValueError):
    """Matrix fails the unitarity check beyond the allowed tolerance."""

    def __init__(self, message: str, defect: float = float("nan")):
        super().__init__(message)
        self.defect = defect


class NormalizationError(ValueError):
    """Vector is not normalized within tolerance."""


class SliceHypothesisError(ValueError):
    """A probed slice input has a non-product image.

    ``indices`` identifies the offending object-basis vector (one index) or
    superposition pair (two indices).
    """

    def __init__(self, message: str, indices: tuple[int, ...]):
        super().__init__(message)
        self.indices = indices


class SlicePatternError(RuntimeError):
    """Every probed slice image is a product, yet neither slice form predicts
    every unit input within tolerance.

    Impossible for exact non-entangling slices; signals numerical breakdown
    or a misconfigured tolerance. The message gives the smaller of the two
    forms' residuals.
    """


class InvalidPOVMError(ValueError):
    """POVM violates positivity, Hermiticity or completeness."""

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}


class WitnessSearchError(RuntimeError):
    """No product or swap form reconstructs U within 10 * tol, and no probed
    image has a second Schmidt coefficient above it.

    Signals an input near that boundary or a tolerance too loose, not a
    genuine counterexample to the product/swap dichotomy.
    """
