"""Numerical laboratory for mixture-of-low-rank-MoG diffusion models."""

__version__ = "0.1.0"
