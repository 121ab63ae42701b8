"""Verification library for light-cone distribution kernels, piecewise
line-integral functions, shell convolutions, Dirac/Clifford algebra, and
surface-layer functionals of finite-box field configurations.  Importing
the package loads no submodule: `from lightcone import slayer` loads one."""

__all__ = [
    "checks",
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
