"""Fixtures shared by the test modules."""
import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def streams_tool():
    """tools/streams.py, whose FAULTS are the programs it records both
    engines' outcomes on."""
    path = Path(__file__).resolve().parents[1] / "tools" / "streams.py"
    spec = importlib.util.spec_from_file_location("streams_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
