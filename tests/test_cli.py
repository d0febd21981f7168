import argparse
import json
import os
import re
import subprocess
import sys

import pytest

from sumsetlab import cli
from sumsetlab.config import order_cap, set_order_cap
from sumsetlab.groups import parse_group_spec
from sumsetlab.setops import GroupSet, set_to_json
from sumsetlab.sl2 import SL2Set, sl2_group


@pytest.fixture(autouse=True)
def _restore_order_cap():
    cap = order_cap()
    yield
    set_order_cap(cap)


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


# ---------------------------------------------------------------------------
# Exit codes


def test_exit_0_on_pass(capsys):
    code, rep = run_json(capsys, ["example1", "--p", "3", "--k", "1"])
    assert code == 0
    assert rep["passed"] is True


def test_exit_1_on_failed_check(capsys):
    code, rep = run_json(capsys, ["example1", "--p", "2", "--k", "1"])
    assert code == 1
    assert rep["passed"] is False
    assert rep["report"]["p2_degenerate"] is True


def test_exit_2_on_usage_errors(capsys):
    assert cli.run(["theorem1", "--group", "Z3", "--m", "2"]) == 2
    assert "order" in capsys.readouterr().err
    assert cli.run(["theorem1", "--group", "notagroup", "--m", "2"]) == 2
    assert cli.run(["nonsense"]) == 2
    assert cli.run([]) == 2
    assert cli.run(["sumset", "--group", "Z5", "--a", "/nope.json", "--b", "/nope.json"]) == 2
    assert cli.run(["sl2", "ruzsa", "--p", "4", "--trials", "1"]) == 2


def test_help_exits_0(capsys):
    assert cli.run(["--help"]) == 0
    assert "sumsetlab" in capsys.readouterr().out


def test_order_cap_flag(capsys):
    code = cli.run(["theorem1", "--group", "Z2^20", "--m", "2", "--order-cap", "1000"])
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_order_cap_flag_scoped_to_its_run(capsys):
    cap = order_cap()
    assert cli.run(["plunnecke", "--group", "Z16", "--trials", "1", "--order-cap", "200"]) == 0
    assert order_cap() == cap


def test_cached_sl2_group_respects_lowered_cap(capsys):
    assert cli.run(["sl2", "info", "--p", "11"]) == 0
    assert cli.run(["sl2", "info", "--p", "11", "--order-cap", "100"]) == 2
    assert "above the cap of 100" in capsys.readouterr().err


def test_order_cap_env_var():
    env = dict(os.environ, SUMSETLAB_ORDER_CAP="100")
    proc = subprocess.run(
        [sys.executable, "-m", "sumsetlab.cli", "plunnecke", "--group", "Z101", "--trials", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert "cap" in proc.stderr


def test_kpn_budget_below_1_is_usage_error(capsys):
    assert cli.run(["kpn", "--p", "3", "--n", "2", "--exact", "--budget", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "budget must be >= 1" in err


# ---------------------------------------------------------------------------
# One parser per process


def _run_masked(capsys, argv):
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, re.sub(r'"wall_time_s": [^,\n}]+', '"wall_time_s": 0', out), err


def test_parser_built_once_and_reused(capsys, monkeypatch):
    """A usage error, --help, then one command twice, in one process: each
    gives what a freshly built parser gives, and the parser is built once."""
    argvs = [
        ["example1", "--p", "3"],
        ["--help"],
        ["example1", "--p", "3", "--k", "1"],
        ["example1", "--p", "3", "--k", "1"],
    ]
    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(_run_masked(capsys, argv))

    builds = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "sumsetlab":
            builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._build_parser.cache_clear()
    reused = [_run_masked(capsys, argv) for argv in argvs]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 0, 0]
    assert "the following arguments are required: --k" in reused[0][2]
    assert reused[1][1].startswith("usage: sumsetlab")
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# Determinism


def _stripped(rep):
    rep = dict(rep)
    rep.pop("wall_time_s")
    return json.dumps(rep, indent=2)


def test_json_byte_stable(capsys):
    argv = ["theorem1", "--group", "Z3^4", "--m", "2", "--trials", "3", "--seed", "1"]
    _, first = run_json(capsys, argv)
    _, second = run_json(capsys, argv)
    assert _stripped(first) == _stripped(second)


def test_parallel_matches_serial(capsys):
    """``--parallel`` is accepted and changes nothing in the envelope."""
    base = ["plunnecke", "--group", "Z32", "--trials", "8", "--seed", "3"]
    code, parallel = run_json(capsys, base + ["--parallel", "4"])
    assert code == 0
    _, plain = run_json(capsys, base)
    assert _stripped(parallel) == _stripped(plain)


def test_different_seed_changes_report(capsys):
    argv = ["plunnecke", "--group", "Z32", "--trials", "3"]
    _, a = run_json(capsys, argv + ["--seed", "0"])
    _, b = run_json(capsys, argv + ["--seed", "1"])
    assert _stripped(a) != _stripped(b)


# ---------------------------------------------------------------------------
# Command payloads


def test_theorem1_envelope(capsys):
    code, rep = run_json(
        capsys, ["theorem1", "--group", "Z3^4", "--m", "2", "--trials", "2", "--seed", "1"]
    )
    assert code == 0
    assert rep["command"] == "theorem1"
    assert rep["config"]["K"] == 3
    assert len(rep["report"]) == 2
    for trial in rep["report"]:
        assert len(trial["family_cards"]) == 6
        assert trial["passed"]


def test_remark12_envelope(capsys):
    code, rep = run_json(capsys, ["sl2", "remark12", "--p", "7", "--trials", "2"])
    assert code == 0
    assert rep["report"]["K"] == 4
    assert rep["report"]["n_sets"] == 12


def test_remark12_negative_trials_is_usage_error(capsys):
    for p in ("5", "7"):
        assert cli.run(["sl2", "remark12", "--p", p, "--trials", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials must be >= 0" in captured.err


def test_sl2_info(capsys):
    code, rep = run_json(capsys, ["sl2", "info", "--p", "11"])
    assert code == 0
    assert rep["report"]["order"] == 1320
    assert rep["report"]["D"] == 5
    assert rep["report"]["K"] == 4
    assert "table_built" not in rep["report"]


def test_kpn_exact(capsys):
    code, rep = run_json(capsys, ["kpn", "--p", "3", "--n", "2", "--exact"])
    assert code == 0
    assert rep["report"]["upper"]["for_p3"] == pytest.approx(4.0)
    assert rep["report"]["search"]["result_k"] == 3
    assert rep["report"]["search"]["exact"] is True


def test_basis_command(capsys):
    code, rep = run_json(capsys, ["basis", "--p", "2", "--n", "3", "--random", "--seed", "4"])
    assert code == 0
    assert rep["report"]["closure_card"] == 8
    assert rep["report"]["is_additive_basis"] is True


def test_basis_command_standard(capsys):
    code, rep = run_json(capsys, ["basis", "--p", "2", "--n", "3"])
    assert code == 0
    assert rep["report"]["closure_card"] == 8
    assert rep["report"]["rows"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_example1_json_flag(capsys):
    code, rep = run_json(capsys, ["example1", "--p", "3", "--k", "2"])
    assert code == 0
    assert rep["report"]["cards"] == [16, 16, 16]


def test_gowers_command(capsys):
    code, rep = run_json(
        capsys, ["sl2", "gowers", "--p", "5", "--size", "96", "--trials", "3"]
    )
    assert code == 0
    assert all(t["premise_met"] and t["covers"] for t in rep["report"])


# ---------------------------------------------------------------------------
# Output formats


def test_csv_one_line_per_trial(capsys):
    code = cli.run(
        ["plunnecke", "--group", "Z16", "--trials", "4", "--seed", "0", "--output", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5  # header + 4 trials
    assert lines[0].startswith("trial,")


def test_text_output(capsys):
    code = cli.run(["example1", "--p", "3", "--k", "1", "--output", "text"])
    assert code == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "command: example1" in out


# ---------------------------------------------------------------------------
# Set files and the sumset command


def test_sumset_command_both_forms(tmp_path, capsys):
    spec = parse_group_spec("Z6xZ10")
    a = GroupSet.from_coords(spec, [(0, 0), (1, 2), (5, 9)])
    b = GroupSet.from_coords(spec, [(0, 1), (3, 3)])
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps(set_to_json(a, form="elements")))
    pb.write_text(json.dumps(set_to_json(b, form="bitmask")))
    code, rep = run_json(
        capsys, ["sumset", "--group", "Z6xZ10", "--a", str(pa), "--b", str(pb)]
    )
    assert code == 0
    assert rep["report"]["card_sum"] == 6
    assert rep["report"]["covers"] is False


def test_sumset_bad_element_names_tuple(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"elements": [[0], [7]]}))
    code = cli.run(["sumset", "--group", "Z5", "--a", str(bad), "--b", str(bad)])
    assert code == 2
    assert "[7]" in capsys.readouterr().err


def test_load_set_round_trip(tmp_path):
    spec = parse_group_spec("Z3^4")
    a = GroupSet.from_indices(spec, [0, 40, 80])
    path = tmp_path / "s.json"
    path.write_text(json.dumps(set_to_json(a, form="elements")))
    assert cli.load_set(str(path), spec) == a

    g = sl2_group(5)
    s = SL2Set.from_indices(g, [0, 1, 119])
    path2 = tmp_path / "sl2.json"
    path2.write_text(json.dumps(set_to_json(s, form="elements")))
    assert cli.load_set(str(path2), g) == s


def test_load_set_forms_agree(tmp_path):
    spec = parse_group_spec("Z7")
    a = GroupSet.from_indices(spec, [1, 2, 4])
    p1 = tmp_path / "e.json"
    p2 = tmp_path / "m.json"
    p1.write_text(json.dumps(set_to_json(a, form="elements")))
    p2.write_text(json.dumps(set_to_json(a, form="bitmask")))
    assert cli.load_set(str(p1), spec) == cli.load_set(str(p2), spec)
