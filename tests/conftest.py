import os
from pathlib import Path

import pytest
from hypothesis import settings

from discern.scheme import load_scheme

# HYPOTHESIS_PROFILE=ci replays the same examples on every run and draws
# more of them for tests that do not fix their own count.
settings.register_profile("ci", derandomize=True, max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def s1():
    return load_scheme(str(FIXTURES / "s1.json"))


@pytest.fixture(scope="session")
def s2():
    return load_scheme(str(FIXTURES / "s2.json"))


@pytest.fixture(scope="session")
def s3():
    return load_scheme(str(FIXTURES / "s3.json"))


@pytest.fixture()
def fixtures_dir():
    return FIXTURES


@pytest.fixture()
def golden_dir():
    return GOLDEN
