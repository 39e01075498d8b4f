"""Smoke test: each demo runs to completion on the public API.

Demo 08 grows a 5e6-node network (tens of seconds, ~1 GB) and stays opt-in.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0[1-7]_*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # demo 05 writes sweep_demo.csv into the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
