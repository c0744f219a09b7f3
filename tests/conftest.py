import numpy as np
import pytest

from gridevade import detector as det
from gridevade.grid_traces import BusCase, TraceScenario, generate_trace, split_dataset


@pytest.fixture(scope="session")
def nine_bus_case():
    return BusCase(
        bus_count=9,
        nominal_voltage=np.array([1.04, 1.025, 1.025, 1.026, 0.996, 1.013,
                                  1.026, 1.016, 1.032]),
        fault_coupling=np.array([0.35, 0.45, 0.40, 0.60, 1.00, 0.75,
                                 0.50, 0.65, 0.45]),
    )


@pytest.fixture(scope="session")
def default_scenario(nine_bus_case):
    return TraceScenario(case=nine_bus_case)


@pytest.fixture(scope="session")
def trained_detector(default_scenario):
    """A detector trained once per session on the default scenario family."""
    traces = [generate_trace(default_scenario.with_seed(s)) for s in range(12)]
    config = det.DetectorConfig(epochs=40, seed=0)
    train_set, _ = split_dataset(traces, config.window, 0.75, seed=1)
    model, _ = det.train_detector(train_set, config, bus_count=9)
    return model


@pytest.fixture
def clamp_inputs():
    """Draws of random vectors in which a third of the entries are NaN, +-0.0,
    +-inf or huge: inputs on which a clamp must give np.clip's bits."""
    special = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e300, -1e300])

    def draw(size, scale, count=300, seed=0):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            v = rng.normal(0.0, scale, size)
            hit = rng.random(size) < 1 / 3
            v[hit] = rng.choice(special, hit.sum())
            yield v

    return draw
