import numpy as np
import pytest

from worldsheet import catalog, constructions


@pytest.fixture(scope="session")
def circle():
    return catalog.circle_gauge()


@pytest.fixture(scope="session")
def hopf():
    return catalog.hopf_gauge()


@pytest.fixture(scope="session")
def meridian_loops():
    return catalog.meridian_loops_gauge()


@pytest.fixture(scope="session")
def wavy_pair():
    return catalog.wavy_pair_gauge()


@pytest.fixture(scope="session")
def cantor_k1():
    spec = constructions.CantorSpec.single_mode(1, m=8, depth=8)
    return constructions.sharp_example_gauge(spec)


@pytest.fixture(scope="session")
def cantor_k2():
    spec = constructions.CantorSpec.single_mode(2, m=8, depth=8)
    return constructions.sharp_example_gauge(spec)


@pytest.fixture(scope="session")
def nonuniq():
    return constructions.nonuniqueness_pair()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def equality_gauges(circle, hopf, nonuniq):
    """Gauges on which the grid shortcuts must match the direct formulations
    bit for bit: the benchmark census's gauges 0-3, circle, hopf and both
    gauges of the nonuniqueness pair."""
    gauges = {f"census{s}": catalog.random_planar_gauge(seed=s)
              for s in range(4)}
    gauges.update(circle=circle, hopf=hopf, nonuniq_id=nonuniq[0],
                  nonuniq_pi=nonuniq[1])
    return gauges
