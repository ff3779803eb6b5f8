"""Gauss-Legendre quadrature helpers shared by the surface, wavelet and BEM code."""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre


@lru_cache(maxsize=64)
def unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the `order`-point Gauss-Legendre rule on [0, 1]."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    x, w = roots_legendre(order)
    return 0.5 * (x + 1.0), 0.5 * w
