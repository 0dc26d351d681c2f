import multiprocessing
import os

import numpy as np
import pytest

from daha_cc1.core import Params, Tolerance

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_subprocess_path():
    """The subprocess tests run `python -m daha_cc1.cli`; without an
    install they find the package on PYTHONPATH, as pytest's own
    `pythonpath` setting does not reach a child process."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield


@pytest.fixture(autouse=True)
def _no_child_outlives_its_test():
    """Fail a test that leaves a child process running, such as a scan
    child its scan did not reap; the child is stopped first, so it
    fails that test alone."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert left == [], f"child processes left running: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture
def generic_params():
    """A fixed parameter point far from every stratum."""
    return Params(
        k0=1.3 + 0.4j,
        k1=0.7 - 0.9j,
        u0=-1.1 + 0.6j,
        u1=0.5 + 1.2j,
        q_half=1.25 + 0.3j,
    )


@pytest.fixture
def one_dim_params():
    """k0 k1 u0 u1 = q^{-1/2} with q_half = 2: the 1-dimensional case."""
    return Params(k0=2.0, k1=3.0, u0=5.0, u1=1.0 / 60.0, q_half=2.0)


@pytest.fixture
def loose_tol():
    return Tolerance(eq_tol=1e-6)
