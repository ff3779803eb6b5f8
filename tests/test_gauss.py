import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import roots_legendre

import patchwave
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


def test_assembly_with_its_lower_far_order_imports_no_scipy_special():
    # at L=4 on the cube distant far classes take order 3; untabulated, it
    # cost the first assembly a 0.25 s import of scipy.special
    code = ("import sys\n"
            "import patchwave.bem as bem\n"
            "from patchwave import load_surface, unit_cube\n"
            "orders, rule = set(), bem.unit_rule\n"
            "bem.unit_rule = lambda order: orders.add(order) or rule(order)\n"
            "bem.assemble(load_surface(unit_cube()), 4)\n"
            "print(sorted(orders), 'scipy.special' in sys.modules)\n")
    src = str(Path(patchwave.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, cwd=src)
    assert out.stdout.split("\n")[0] == "[3, 4] False"
