"""Smoke tests for the scripts under ``scripts/``.

Each script runs in process on a small input, as ``python scripts/<name>``
would run it, and must exit 0.  The experiment scripts must print their
table header, and the growth profile must take its worst ratio only over
steps that end below G; each of the three sweeps ends on a refused input
with one error line and exit status 2; ``cli_outputs.py`` must write one masked
envelope per run, and its digests must match ``tests/cli_outputs.sha256``.
``ab_kinds.py``, which swaps the package in ``sys.modules``, runs in its own
process, timing this checkout against itself at the smoke scale.
"""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
DIGESTS = Path(__file__).resolve().parent / "cli_outputs.sha256"


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
    assert _run(script, args, monkeypatch) == 0
    lines = capsys.readouterr().out.splitlines()
    assert header in [line.split() for line in lines]


def test_remark12_sweep_refused_prime_is_usage_error(monkeypatch, capsys):
    """The rows before a refused prime stay; the refusal is one stderr
    line and exit status 2, as on the command line, not a traceback."""
    assert _run("remark12_sweep.py", ["--primes", "5", "7", "1009", "--trials", "0"], monkeypatch) == 2
    out, err = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()[2:]] == ["5", "7"]
    assert err == (
        "remark12_sweep.py: error: SL2 group order has 1027242720 elements, above the cap "
        "of 67108864; raise it with set_order_cap() or $SUMSETLAB_ORDER_CAP\n"
    )
    assert _run("remark12_sweep.py", ["--primes", "9", "--trials", "0"], monkeypatch) == 2
    assert capsys.readouterr().err == "remark12_sweep.py: error: p must be prime, got 9\n"
    args = ["--primes", "7", "--trials", "1", "--density", "0.001"]
    assert _run("remark12_sweep.py", args, monkeypatch) == 2
    assert capsys.readouterr().err == (
        "remark12_sweep.py: error: no hypothesis set found in 200 tries (p=7, density=0.001)\n"
    )


def test_growth_profile_refusal_is_usage_error(monkeypatch, capsys):
    """A group above the order cap is refused before the table; a density
    whose sampler runs out of draws ends it after the rows already printed."""
    assert _run("covering_growth_profile.py", ["--group", "Z2^40"], monkeypatch) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "covering_growth_profile.py: error: group Z2^40 has at least 134217728 elements, "
        "above the cap of 67108864; raise it with set_order_cap() or $SUMSETLAB_ORDER_CAP\n"
    )
    args = ["--trials", "1", "--densities", "0.3", "0.001"]
    assert _run("covering_growth_profile.py", args, monkeypatch) == 2
    out, err = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()[3:]] == ["0.30"]
    assert err == (
        "covering_growth_profile.py: error: no 1-element subset of Z3^4 with 2-fold sumset "
        "covering the group in 200 draws; density 0.001 is likely too low\n"
    )


def test_growth_profile_zero_trials_prints_none(monkeypatch, capsys):
    """With no family drawn there is no mean final card to divide out."""
    assert _run("covering_growth_profile.py", ["--trials", "0", "--densities", "0.5"],
                monkeypatch) == 0
    assert capsys.readouterr().out.splitlines()[3].split() == ["0.50", "none", "none", "0/0"]


def test_kpn_sweep_refusal_is_usage_error(monkeypatch, capsys):
    """The rows before a refused prime stay; the refusal is one stderr line
    and exit status 2.  A refused budget ends the table before any row."""
    args = ["--primes", "2", "4", "--n-max", "1"]
    assert _run("kpn_bounds_sweep.py", args, monkeypatch) == 2
    out, err = capsys.readouterr()
    assert [line.split()[:2] for line in out.splitlines()[2:]] == [["2", "1"]]
    assert err == "kpn_bounds_sweep.py: error: p must be prime, got 4\n"
    assert _run("kpn_bounds_sweep.py", ["--budget", "0"], monkeypatch) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 2
    assert err == "kpn_bounds_sweep.py: error: budget must be >= 1, got 0\n"


@pytest.mark.parametrize("workload", ["sl2-products", "cli-inprocess"])
def test_ab_kinds_runs_the_repo_against_itself(workload):
    """The A/B script loads this checkout twice, runs two rounds of the smoke
    pass, checks every output and prints one row per kind, the pass and the
    two percentiles, with no timing asserted.  It runs in its own process
    because it swaps the package out of ``sys.modules``, and it leaves
    ``perfbench/`` as it found it."""
    bench = ROOT / "perfbench"
    before = sorted(bench.rglob("*"))
    args = [str(ROOT), str(ROOT), "--workload", workload, "--scale", "smoke", "--rounds", "2"]
    proc = subprocess.run([sys.executable, str(SCRIPTS / "ab_kinds.py"), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *kinds, whole, p50, p90, checks = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert kinds and all(len(row) == 4 for row in kinds + [whole])
    assert (whole[0], p50[:2], p90[:2]) == ("pass", ["op", "p50"], ["op", "p90"])
    assert checks == ["checks", "failed:", "parent", "0,", "change", "0"]
    assert sorted(bench.rglob("*")) == before


def _profile_rows(args, monkeypatch, capsys):
    """``covering_growth_profile.py``'s rows, as density -> worst-ratio column."""
    assert _run("covering_growth_profile.py", args, monkeypatch) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    return {row[0]: row[1] for row in rows if len(row) == 4 and row[0][0].isdigit()}


def test_growth_profile_ratio_only_over_steps_below_G(monkeypatch, capsys):
    """A step that ends at G meets the bound trivially, so it sets no ratio.
    On Z3^4 at m = 2 every step ends at G and no ratio prints; at m = 3 and
    density 0.2 some steps end below G, with slack above 1."""
    rows = _profile_rows(["--trials", "2"], monkeypatch, capsys)
    assert len(rows) == 5 and set(rows.values()) == {"none"}
    rows = _profile_rows(
        ["--group", "Z3^4", "--m", "3", "--trials", "5", "--densities", "0.2", "0.9"],
        monkeypatch,
        capsys,
    )
    assert sorted(rows) == ["0.20", "0.90"] and "1.0000" not in rows.values()
    assert float(rows["0.20"]) > 1


def test_cli_outputs_writes_masked_envelopes(tmp_path, monkeypatch, capsys):
    assert _run("cli_outputs.py", [str(tmp_path)], monkeypatch) == 0
    # A deliberate output change regenerates the digest file (see the script).
    assert capsys.readouterr().out == DIGESTS.read_text(encoding="utf-8")
    outputs = sorted(tmp_path.glob("*-seed[01].txt"))
    # 11 README commands, 4 Abelian, 8 SL2, 3 pigeonhole-bound, 2 example1,
    # 5 SL2-constants and 3 zero-trial SL2 runs, at two seeds
    assert len(outputs) == 72
    for out in outputs:
        code, envelope = out.read_text(encoding="utf-8").split("\n", 1)
        assert code == "0"
        assert json.loads(envelope)["wall_time_s"] == "masked"


def _run(script, args, monkeypatch):
    path = SCRIPTS / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        return exc.code or 0
    return 0
