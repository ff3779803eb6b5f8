import numpy as np
import pytest
from scipy.special import roots_legendre

from patchwave._gauss import _HALF_RULES, unit_rule


@pytest.mark.parametrize("order", sorted(_HALF_RULES) + [13, 24, 40])
def test_rule_is_bitwise_roots_legendre(order):
    # the tabulated halves, mirrored, and the lazy fallback both reproduce
    # scipy's rule on [0, 1] bit for bit
    x, w = roots_legendre(order)
    nodes, wts = unit_rule(order)
    assert nodes.view(np.int64).tolist() == (0.5 * (x + 1.0)).view(np.int64).tolist()
    assert wts.view(np.int64).tolist() == (0.5 * w).view(np.int64).tolist()


@pytest.mark.parametrize("order", [4, 13])
def test_cached_rule_is_read_only(order):
    nodes, wts = unit_rule(order)
    for a in (nodes, wts):
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0
