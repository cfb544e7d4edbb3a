import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest


def _suite_seed() -> int:
    text = os.environ.get("KVERTEX_SUITE_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise pytest.UsageError(
            f"KVERTEX_SUITE_SEED must be an integer, got {text!r}") from None


def pytest_configure(config):
    # a malformed seed stops the session with one line, before any test runs
    _suite_seed()


@pytest.fixture(scope="session")
def suite_seed() -> int:
    return _suite_seed()
