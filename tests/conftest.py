import pytest

from wignerlab.ensemble import Ensemble
from wignerlab.grid import (
    catalog_state,
    hermite_combination,
    make_grid,
    make_self_reciprocal_grid,
)
from wignerlab.modspace import modulation_norm
from wignerlab.wigner import mixed_wigner


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
    return mixed_wigner(eigen_pair_1024, g1024)


@pytest.fixture(scope="session")
def cov_inputs_sr2048(sr2048):
    h0 = catalog_state("hermite:0", sr2048)
    h1 = catalog_state("hermite:1", sr2048)
    ens = Ensemble(((h0, 0.5), (h1, 0.5)), "pair:eigen")
    verdicts = [modulation_norm(st, 2.0, sr2048) for st, _ in ens.members]
    field = mixed_wigner(ens, sr2048)
    return ens, field, verdicts
