import numpy as np
import pytest
from hypothesis import strategies as st

from wignerlab.ensemble import Ensemble
from wignerlab.grid import (
    catalog_state,
    hermite_combination,
    make_grid,
    make_self_reciprocal_grid,
)
from wignerlab.modspace import modulation_norm
from wignerlab.wigner import mixed_wigner


def compact_values(draw, rng, n, empty=False):
    """Random complex samples that are 0 outside a drawn index interval.

    The interval may touch either end of the grid, and is empty in some
    draws when empty is set.  About half of the zero parts are -0.
    """
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    lo = draw(st.one_of(st.just(0), st.integers(0, n - 1)))
    hi = draw(st.one_of(st.just(n), st.integers(lo if empty else lo + 1, n)))
    values[:lo] = 0.0
    values[hi:] = 0.0
    parts = values.view(np.float64)
    zeros = np.flatnonzero(parts == 0.0)
    parts[zeros[rng.random(zeros.size) < 0.5]] = -0.0
    return values


@pytest.fixture(scope="session")
def g512():
    return make_grid(512, 10.0, 1.0)


@pytest.fixture(scope="session")
def g1024():
    return make_grid(1024, 12.0, 1.0)


@pytest.fixture(scope="session")
def g51():
    # dx = 1/51 exactly, so the momentum band reaches 51*pi/2
    return make_grid(1024, 512.0 / 51.0, 1.0)


@pytest.fixture(scope="session")
def sr1024():
    return make_self_reciprocal_grid(1024, 1.0)


@pytest.fixture(scope="session")
def sr2048():
    return make_self_reciprocal_grid(2048, 1.0)


@pytest.fixture(scope="session")
def hadamard_pair_512(g512):
    h0 = catalog_state("hermite:0", g512)
    h1 = catalog_state("hermite:1", g512)
    plus = hermite_combination(g512, (1.0, 1.0), "mix:+")
    minus = hermite_combination(g512, (1.0, -1.0), "mix:-")
    e1 = Ensemble(((h0, 0.5), (h1, 0.5)), "pair:eigen")
    e2 = Ensemble(((plus, 0.5), (minus, 0.5)), "pair:rotated")
    return e1, e2


@pytest.fixture(scope="session")
def eigen_pair_1024(g1024):
    h0 = catalog_state("hermite:0", g1024)
    h1 = catalog_state("hermite:1", g1024)
    return Ensemble(((h0, 0.5), (h1, 0.5)), "pair:eigen")


@pytest.fixture(scope="session")
def mix_field_1024(g1024, eigen_pair_1024):
    return mixed_wigner(eigen_pair_1024)


@pytest.fixture(scope="session")
def cov_inputs_sr2048(sr2048):
    h0 = catalog_state("hermite:0", sr2048)
    h1 = catalog_state("hermite:1", sr2048)
    ens = Ensemble(((h0, 0.5), (h1, 0.5)), "pair:eigen")
    verdicts = [modulation_norm(st, 2.0) for st, _ in ens.members]
    field = mixed_wigner(ens)
    return ens, field, verdicts
