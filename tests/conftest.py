from dataclasses import replace

import numpy as np
import pytest

from gridevade import detector as det
from gridevade.grid_traces import generate_trace, split_dataset
from gridevade.harness import RunConfig, load_config


def shipped() -> RunConfig:
    """The shipped config's objects, fresh on each call. Tests vary them with
    `dataclasses.replace`, so every value a test does not name is the YAML's."""
    return load_config()


@pytest.fixture(scope="session")
def default_scenario():
    """The shipped scenario, on the shipped 9-bus case, at trace seed 0."""
    return replace(shipped().scenario, seed=0)


@pytest.fixture(scope="session")
def trained_detector(default_scenario):
    """A detector trained once per session on the default scenario family."""
    traces = [generate_trace(default_scenario.with_seed(s)) for s in range(12)]
    config = replace(shipped().detector_config, epochs=40, seed=0)
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
