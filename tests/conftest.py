"""One Hypothesis profile for every property test: reproducible draws, no
example database and no per-example deadline.  A test that runs for more
than 120 s ends the run with every thread's traceback, so a hang fails."""

import faulthandler
import os

import pytest
from hypothesis import settings

settings.register_profile("mmsfair", derandomize=True, database=None, deadline=None)
settings.load_profile("mmsfair")

_STDERR = pytest.StashKey()  # stderr as it was before pytest captured it


def pytest_configure(config):
    config.stash[_STDERR] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_STDERR].close()


@pytest.fixture(autouse=True)
def _hang_fails_the_run(pytestconfig):
    faulthandler.dump_traceback_later(120, exit=True, file=pytestconfig.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
