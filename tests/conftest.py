import cvkaf  # noqa: F401  before numpy, so its one-BLAS-thread default takes effect
import numpy as np
import pytest

from cvkaf.kernels import build_dictionary

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def dict4():
    return build_dictionary(4, (-2.0, 2.0))


@pytest.fixture
def dict8():
    return build_dictionary(8, (-2.0, 2.0))


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
