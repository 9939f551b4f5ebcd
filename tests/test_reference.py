"""The frozen oracle tests/_reference.py against the script that makes it."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_frozen_oracle_matches_its_generator():
    pytest.importorskip("mpmath")
    path = ROOT / "scripts" / "make_reference_values.py"
    spec = importlib.util.spec_from_file_location("make_reference_values",
                                                  path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.render() == (ROOT / "tests" / "_reference.py").read_text()
