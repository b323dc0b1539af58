import numpy as np
import pytest

from blab.data import gen_gaussian_blobs

# criterion results registered by test_acceptance, printed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def easy_blobs():
    """Well-separated 2D blobs any reasonable training run classifies."""
    return gen_gaussian_blobs(20, (np.array([-2.0, 0.0]), np.array([2.0, 0.0])),
                              0.4, seed=7)
