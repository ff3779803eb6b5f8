"""Gauss-Legendre quadrature helpers shared by the surface, wavelet and BEM code."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

# Non-negative halves of scipy.special.roots_legendre(n) on [-1, 1], nodes then
# weights, for the orders the package's defaults use.  Those rules are exactly
# symmetric, so mirroring a half reproduces them bit for bit without importing
# scipy.special (most of the package's import time otherwise).
_HALF_RULES = {
    4: ("0x1.5c23fd9dd3dfdp-2 0x1.b8e6dbcf63985p-1",
        "0x1.4de5f840c24cbp-1 0x1.64340f7e7b66ap-2"),
    8: ("0x1.77ac94f3c7346p-3 0x1.0d129583284b4p-1 0x1.97e4ab249f41ep-1 "
        "0x1.ebab1cb0acc67p-1",
        "0x1.736360b199344p-2 0x1.413c50a25561bp-2 0x1.c76fb531d2b9fp-3 "
        "0x1.9ea1d04ca0346p-4"),
    12: ("0x1.007a5f8f630e6p-3 0x1.78a8d20a8b19cp-2 0x1.2cb4f05c077f9p-1 "
         "0x1.8a30aeed88f36p-1 0x1.cee874ffb88b4p-1 0x1.f68f1d8e42e81p-1",
         "0x1.fe40ce6d4f01fp-3 0x1.de3155c256ab1p-3 0x1.a0163e6b1ab6bp-3 "
         "0x1.47d7258f22d8ap-3 0x1.b60602bce6155p-4 0x1.8275d9dea6e53p-5"),
}


@lru_cache(maxsize=64)
def unit_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the `order`-point Gauss-Legendre rule on [0, 1]."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if order in _HALF_RULES:
        hx, hw = (np.array([float.fromhex(h) for h in s.split()])
                  for s in _HALF_RULES[order])
        # an odd order's half starts at its 0.0 middle node, kept once
        x = np.concatenate([-hx[::-1][:order // 2], hx])
        w = np.concatenate([hw[::-1][:order // 2], hw])
    else:
        from scipy.special import roots_legendre
        x, w = roots_legendre(order)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w
