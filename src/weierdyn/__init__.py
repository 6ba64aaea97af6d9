"""Dynamics of Weierstrass elliptic functions on triangular and square
lattices: classification of parameters, Misiurewicz (prepole) parameter
location, and the expansion estimates behind them."""

from .lattice import (
    Lattice,
    LatticeKind,
    PoleHit,
    ToleranceConfig,
    ZeroParameter,
    make_lattice,
    reduce,
    sph_deriv,
    sph_dist,
    wp,
    wp_array,
    wp_pair,
)

__all__ = [
    "Lattice",
    "LatticeKind",
    "PoleHit",
    "ToleranceConfig",
    "ZeroParameter",
    "make_lattice",
    "reduce",
    "sph_deriv",
    "sph_dist",
    "wp",
    "wp_array",
    "wp_pair",
]
