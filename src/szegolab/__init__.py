"""Numerical toolkit for weighted-L2 completeness of exponential systems.

Builds the two explicit objects behind the removal dichotomy (dropping the
cubes keeps the exponentials complete, dropping the squares does not): a
slit-plane product vanishing on a sparse frequency set, and a lacunary
sine series with a deep zero at the origin, plus projection probes that
measure completeness residuals in weighted L2 on the circle.  Library names
are imported from their modules (``from szegolab.probe import
residual_curve``); the package exports only ``__version__``.
"""

__version__ = "0.1.0"
