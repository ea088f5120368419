import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from regemb.numkernel import set_precision

# the same examples on every run, however long one takes, and no example
# database written next to the tests
settings.register_profile("regemb", derandomize=True, deadline=None, database=None)
settings.load_profile("regemb")
# Hypothesis's Unicode and constant caches go to a directory that is removed
# at the end of the session, not to a `.hypothesis/` beside the tests
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")


def pytest_configure(config):
    set_hypothesis_home_dir(_hypothesis_home.name)


def pytest_unconfigure(config):
    _hypothesis_home.cleanup()


@pytest.fixture(autouse=True)
def default_precision():
    """Tests run in float64 unless they opt into float32 themselves."""
    set_precision("float64")
    yield
    set_precision("float64")
