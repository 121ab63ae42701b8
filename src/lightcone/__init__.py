"""Verification library for light-cone distribution kernels, piecewise
line-integral functions, shell convolutions, Dirac/Clifford algebra, and
surface-layer functionals of finite-box field configurations."""

from . import clifford, convolution, errors, fields, kernels, lineint, quadrature, slayer

__all__ = [
    "clifford",
    "convolution",
    "errors",
    "fields",
    "kernels",
    "lineint",
    "quadrature",
    "slayer",
]

__version__ = "0.1.0"
