import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import naive_first_basis_draw, naive_subset_sums
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


def test_example1_above_the_cap_exits_2(capsys):
    """p^(2^k) is refused before any float sees 2^k, so a huge k is a usage
    error with the cap message, not a traceback."""
    assert cli.run(["example1", "--p", "3", "--k", "2000"]) == 2
    err = capsys.readouterr().err
    assert "cap" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["info"],
        ["ruzsa"],
        ["gowers", "--size", "3"],
        ["theorem4"],
        ["remark12"],
    ],
    ids=lambda argv: argv[0],
)
def test_sl2_above_the_cap_exits_2_before_primality(argv, capsys):
    """p^3 - p is tested against the cap before the primality test."""
    assert cli.run(["sl2", *argv, "--p", "1000000000000000003"]) == 2
    assert "SL2 group order" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--random"]], ids=["standard", "random"])
def test_basis_above_the_cap_exits_2_before_any_row(extra, capsys):
    """3^2000 is refused before the 2000 x 2000 rows are built or ranked."""
    start = time.perf_counter()
    assert cli.run(["basis", "--p", "3", "--n", "2000", *extra]) == 2
    assert time.perf_counter() - start < 1.0
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "p, code", [("1000000000000000003", 0), ("3317044064679887385961981", 2)]
)
def test_kpn_decides_primality_at_once(p, code, capsys):
    """A prime near 10^18 is decided by Miller-Rabin, not trial division, and
    a p beyond the proven range of its bases is a usage error."""
    start = time.perf_counter()
    assert cli.run(["kpn", "--p", p, "--n", "2"]) == code
    assert time.perf_counter() - start < 1.0


def test_theorem1_K_just_above_an_integer(capsys):
    """4 * ln(log2 58031783) = 13.0000000004..., so K is 14."""
    code, rep = run_json(capsys, ["theorem1", "--group", "Z58031783", "--m", "4", "--trials", "0"])
    assert code == 0
    assert rep["config"]["K"] == 14


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


def test_seeded_runs_never_import_numpy_random():
    """Sets are drawn from each trial's ``random.Random``; importing
    ``numpy.random`` would add about 6 MiB to every process's RSS."""
    code = """
import contextlib, io, sys
from sumsetlab import cli
commands = [
    "theorem1 --group Z3^4 --m 2 --trials 3 --seed 0",
    "plunnecke --group Z6xZ10 --trials 5 --seed 0",
    "sl2 gowers --p 7 --size 100 --trials 2 --seed 0",
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(command.split()) for command in commands]
print(codes, "numpy.random" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[0,", "0,", "0]", "False"]


@pytest.mark.parametrize(
    "command, message",
    [
        ("sl2 gowers --p 5 --size 1000000000 --trials 0", "size 1000000000 out of range"),
        ("theorem1 --group Z3^4 --m 2 --trials 0 --density 7", "target density must be in"),
        ("sl2 theorem4 --p 7 --trials 0 --density -1", "density must be in (0, 1]"),
        ("sl2 remark12 --p 5 --density 9", "density must be in (0, 1]"),
        ("theorem1 --group Z3^4 --m 1000000000000000000 --trials 1", "above the cap"),
        ("theorem1 --group Z3^4 --m 2 --K 100000000 --trials 1", "above the cap"),
        ("sl2 theorem4 --p 5 --K 100000000 --trials 1", "above the cap"),
        ("example1 --p 3 --k 4611686018427387904 --order-cap 4096", "above the cap"),
        ("example1 --p 3 --k 67108864", "above the cap"),
    ],
)
def test_refused_before_the_first_trial(command, message, capsys):
    """A bad size or density is refused even when no trial runs, and a
    family or a level past the order cap is refused before anything is
    drawn or 2^k is formed."""
    start = time.perf_counter()
    assert cli.run(command.split()) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err


def test_kpn_config_records_the_search_options(capsys):
    argv = ["kpn", "--p", "3", "--n", "2", "--exact", "--budget", "5"]
    _, a = run_json(capsys, argv + ["--seed", "1"])
    _, b = run_json(capsys, argv + ["--seed", "2"])
    assert a["config"] == {"p": 3, "n": 2, "exact": True, "k_max": 4, "budget": 5, "seed": 1}
    assert b["config"]["seed"] == 2


@pytest.mark.parametrize("k_max", ["0", "-5"])
def test_kpn_k_max_below_1_is_usage_error(k_max, capsys):
    """A search that runs no level is refused, not reported as passed."""
    assert cli.run(["kpn", "--p", "3", "--n", "2", "--exact", "--k-max", k_max]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "k_max must be >= 1" in err


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


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_rows_and_closure_match_oracles(p, n, capsys):
    """``basis --random`` prints the oracle's first spanning draw, and the
    closure card of its rows that direct enumeration gives."""
    for seed in range(20):
        argv = ["basis", "--p", str(p), "--n", str(n), "--random", "--seed", str(seed)]
        code, rep = run_json(capsys, argv)
        rows = naive_first_basis_draw(p, n, seed)
        assert code == 0
        assert rep["report"]["rows"] == [list(row) for row in rows]
        assert rep["report"]["closure_card"] == len(naive_subset_sums((p,) * n, rows))


@pytest.mark.parametrize(
    "extra, message",
    [
        (
            [],
            "group Z4^100 has at least 268435456 elements, above the cap of 67108864;"
            " raise it with set_order_cap() or $SUMSETLAB_ORDER_CAP",
        ),
        (["--random"], "p must be prime, got 4"),
    ],
    ids=["standard", "random"],
)
def test_basis_check_order(extra, message, capsys):
    """The standard basis checks the order cap before primality, and the
    random basis checks primality first."""
    assert cli.run(["basis", "--p", "4", "--n", "100", *extra]) == 2
    assert capsys.readouterr().err == f"sumsetlab: error: {message}\n"


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


# ---------------------------------------------------------------------------
# Fuzzing every subcommand in process


def _leaves(parser, words=()):
    """``(words, subparser)`` for every runnable subcommand of ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(list(words), parser)]
    return [leaf for name, p in subs[0].choices.items() for leaf in _leaves(p, (*words, name))]


_FIXED = ("help", "output", "order_cap")  # --order-cap 4096 and JSON output on every case
_INTS = st.sampled_from([-1, 0, 1, 2, 3, 2**26, 2**62])
_VALUES = {
    "trials": st.sampled_from([0, 1, 2]),
    "budget": st.sampled_from([-1, 0, 1, 10]),
    "group": st.sampled_from(["Z1", "Z2", "Z3^2", "Z6xZ10", "Z2^26"]),
    "a": st.sampled_from(["a.json", "missing.json"]),
    "b": st.sampled_from(["a.json", "missing.json"]),
}
_DENSITIES = st.sampled_from([math.nan, math.inf, -1.0, 0.0, 0.25, 1.0])


@st.composite
def _argv(draw):
    """A command line: required options always, the others now and then.
    ``--trials`` and ``--budget`` scale the work by design, so they are
    always given, from small values."""
    words, parser = draw(st.sampled_from(_leaves(cli._build_parser())))
    argv = [*words, "--order-cap", "4096"]
    for action in parser._actions:
        always = action.required or action.dest in ("trials", "budget")
        if action.dest in _FIXED or not (always or draw(st.booleans())):
            continue
        if action.nargs == 0:
            argv.append(action.option_strings[0])
            continue
        values = _VALUES.get(action.dest, _DENSITIES if action.type is float else _INTS)
        argv += [action.option_strings[0], str(draw(values))]
    return argv


@pytest.fixture(scope="module")
def set_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("sets")
    (path / "a.json").write_text(json.dumps({"elements": [[0, 0], [1, 2], [5, 9]]}))
    return path


@settings(max_examples=1000, deadline=None)
@given(argv=_argv())
def test_fuzz_every_subcommand(argv, set_dir):
    """Any command line exits 0, 1 or 2 within 2 s and without a traceback,
    and exit 1 (a failed mathematical check) comes with ``"passed": false``."""
    argv = [str(set_dir / w) if w.endswith(".json") else w for w in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert time.perf_counter() - start < 2.0
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert json.loads(out.getvalue())["passed"] is False
