"""Renormalized-volume calculus for 4d asymptotically hyperbolic collar metrics."""

__version__ = "0.1.0"
