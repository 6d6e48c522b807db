"""Smoke test: every demo script runs to completion against the current API."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, args", [
    ("01_fundamental_diagram.py", []),
    ("02_braess_baselines.py", ["{tmp}"]),
    ("03_route_choice.py", []),
    ("04_train_policy.py", ["512"]),  # one small PPO update
    ("05_sweeps.py", []),
])
def test_demo_runs(script, args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [a.format(tmp=tmp_path) for a in args]
    monkeypatch.setattr(sys, "argv", [str(DEMOS / script), *argv])
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
    if script.startswith("02"):
        assert sorted(p.name for p in tmp_path.glob("*.svg")) == [
            "heatmap_min.svg", "heatmap_uniform.svg"]
