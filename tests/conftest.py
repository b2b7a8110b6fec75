"""Suite-wide test settings.

Hypothesis draws the same examples on every run (derandomize), seeded from
each test function, so two runs of the suite test the same cases. The
per-test settings (max_examples, deadline) still apply.

A run of the suite leaves nothing new in the directory it runs from,
apart from pytest's and hypothesis's caches: a test writes under its
tmp_path.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("cutflow", derandomize=True)
settings.load_profile("cutflow")

CACHES = {".pytest_cache", ".hypothesis"}


@pytest.fixture(scope="session", autouse=True)
def working_directory_stays_clean():
    before = set(os.listdir())
    yield
    left = sorted(set(os.listdir()) - before - CACHES)
    assert not left, f"the suite left {left} in {os.getcwd()}"
