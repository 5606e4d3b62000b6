import pytest

from homreg.cli import golden_artifacts


@pytest.fixture(scope="session")
def golden():
    """The golden algebra artifacts, shared (and lazily filled) per session."""
    return golden_artifacts()
