import numpy as np
import pytest

from betalab import sampler
from betalab.equilibrium import equilibrium_cached
from betalab.potential import Potential


@pytest.fixture(scope="session")
def gauss():
    return Potential.gaussian()


@pytest.fixture(scope="session")
def quartic():
    return Potential.quartic()


@pytest.fixture(scope="session")
def eq_gauss(gauss):
    return equilibrium_cached(gauss)


@pytest.fixture(scope="session")
def eq_quartic(quartic):
    return equilibrium_cached(quartic)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture()
def eigensolve_calls(monkeypatch):
    """The select_range of every sampler.eigh_tridiagonal call, in order."""
    calls = []
    solve = sampler.eigh_tridiagonal

    def counted(*args, **kwargs):
        calls.append(kwargs.get("select_range"))
        return solve(*args, **kwargs)

    monkeypatch.setattr(sampler, "eigh_tridiagonal", counted)
    return calls

