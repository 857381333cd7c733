"""Every script in demos/ runs to the end against the current package."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, tmp_path, monkeypatch):
    # demos may write files (06 writes landscape.csv) into the working directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
