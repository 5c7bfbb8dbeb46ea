"""A time bound on every test: one that runs past ``TEST_SECONDS`` (the
slowest takes about 7 s) prints every thread's traceback and ends the
run, rather than hanging it, as a search whose deduplication is broken
would."""

from __future__ import annotations

import faulthandler
import os

import pytest

TEST_SECONDS = 120

_STDERR = pytest.StashKey()


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while no output is captured:
    # during a test, fd 2 is a capture file that the exit would discard
    config.stash[_STDERR] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_STDERR].close()


@pytest.fixture(autouse=True)
def time_bound(request):
    stderr = request.config.stash[_STDERR]
    faulthandler.dump_traceback_later(TEST_SECONDS, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
