"""Smoke tests for the experiment scripts under ``scripts/``.

Each script runs in process on a small input, as ``python scripts/<name>``
would run it, and must exit 0 and print its table header.
"""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,args,header",
    [
        (
            "remark12_sweep.py",
            ["--primes", "5", "7", "--trials", "1"],
            ["p", "order", "D", "delta", "K", "3K", "trials"],
        ),
        (
            "covering_growth_profile.py",
            ["--trials", "2"],
            ["density", "worst", "ratio", "mean", "final", "cover", "rate"],
        ),
        (
            "kpn_bounds_sweep.py",
            ["--primes", "2", "--n-max", "2", "--k-max", "2"],
            ["p", "n", "general", "p3", "bound", "search", "k", "exact"],
        ),
    ],
)
def test_script_runs(script, args, header, monkeypatch, capsys):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    code = 0
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        code = exc.code or 0
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert header in [line.split() for line in lines]
