"""Shared test set-up."""

import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

# The property tests keep no example database (database=None), but the
# Hypothesis pytest plugin still caches the constants it reads from local
# source files.  Keep that cache in a temporary directory, out of the
# checkout, and remove it after the run.
_HYPOTHESIS_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[_HYPOTHESIS_HOME] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    config.stash[_HYPOTHESIS_HOME].cleanup()
