import numpy as np
import pytest

from qtmchain.cli import random_root_data, random_x  # noqa: F401 - shared with tests


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
