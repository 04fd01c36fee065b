import os
from pathlib import Path

import pytest
from hypothesis import settings

import zdgraph as z
from table_rings import nonprincipal_rings

settings.register_profile("ci", max_examples=60, derandomize=True, deadline=None)
settings.load_profile("ci")

# child interpreters import the zdgraph under test, as this one does, also
# in a checkout that is not installed
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(z.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def rings():
    """Shared pool of validated test rings (immutable, safe to share)."""
    pool = {f"Z{n}": z.make_cyclic_ring(n) for n in range(1, 17)}
    z2, z3, z4 = pool["Z2"], pool["Z3"], pool["Z4"]
    pool["Z2xZ2"] = z.make_product_ring(z2, z2)
    pool["Z2xZ3"] = z.make_product_ring(z2, z3)
    pool["Z2xZ4"] = z.make_product_ring(z2, z4)
    pool["Z3xZ3"] = z.make_product_ring(z3, z3)
    pool["Z2xZ2xZ2"] = z.make_product_ring(pool["Z2xZ2"], z2)
    pool["M2(Z2)"] = z.make_matrix_ring(z2, 2)
    pool["M2(Z3)"] = z.make_matrix_ring(z3, 2)
    return pool


@pytest.fixture(scope="session")
def nonprincipal():
    """Validated rings with a one-sided ideal that is not principal."""
    return nonprincipal_rings()
