"""Fixtures shared by the test modules."""
import importlib.util
from pathlib import Path

import pytest


def _tool(name: str):
    """The module tools/<name>.py."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{name}_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def streams_tool():
    """tools/streams.py, whose FAULTS are the programs it records both
    engines' outcomes on."""
    return _tool("streams")


@pytest.fixture(scope="session")
def ulps_tool():
    """tools/ulps.py, which compares two CSV outputs of `run`."""
    return _tool("ulps")


@pytest.fixture(scope="session")
def census_tool():
    """tools/census.py, which tells which functions of the package what
    reaches."""
    return _tool("census")
