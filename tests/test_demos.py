"""The narrative scripts in demos/ run to completion."""

import os
import runpy
import sys

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(name, monkeypatch, capsys):
    # the Monte Carlo demo takes its run count from the command line
    argv = [name, "3"] if name.startswith("03_") else [name]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert capsys.readouterr().out
