import math

import pytest

from hypersint import potential1 as p1
from hypersint.potential1 import P1Params
from hypersint.potential2 import P2Params

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="session")
def p1_fixture() -> P1Params:
    """Three bound levels E = -10, -3, 0 with degeneracies 1, 2, 3."""
    return P1Params(alpha=1.0, beta=1.0 / SQRT2, gamma=2.0 * SQRT2)


@pytest.fixture(scope="session")
def p2_fixture() -> P2Params:
    """Single bound level E ~ -1.565."""
    return P2Params(alpha=0.1, beta=3.0, gamma=1.0)


@pytest.fixture(scope="session")
def p2_deep() -> P2Params:
    """Deeper well (four bound levels) for semi-hyperbolic root tests."""
    return P2Params(alpha=0.1, beta=6.0, gamma=1.0)


@pytest.fixture
def level_builds(monkeypatch) -> list:
    """The EquidistantBasis instances constructed from here on."""
    built, init = [], p1.EquidistantBasis.__init__

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)
    monkeypatch.setattr(p1.EquidistantBasis, "__init__", counted_init)
    return built
