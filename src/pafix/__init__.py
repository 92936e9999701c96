"""Exact computation with affine pseudo-Anosov maps on half-translation
surfaces: number fields, flat surfaces, saddle connections, veering
triangulations, fixed-point counts, Lefschetz numbers and Markov bounds."""

__version__ = "0.1.0"
