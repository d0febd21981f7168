"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_within_limits():
    b = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(b["workloads"]) <= 8 and 1 <= len(b["end_to_end"]) <= 16
    assert 1 <= len(b["per_layer"]) <= 128 and 1 <= b["run_seconds"] <= 60
    names = [m["name"] for m in b["workloads"] + b["end_to_end"] + b["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in b["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in b["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in b["end_to_end"] + b["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in b["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in b["end_to_end"])
    assert {w["name"] for w in b["workloads"]} <= set(workloads.WORKLOADS)


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--all", "--scale", "smoke"],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "MISSING" not in proc.stdout


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "abelian-sparse",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_abelian_checks_reject_a_wrong_set():
    from sumsetlab import GroupSet, m_fold, parse_group_spec, sumset

    spec_ = parse_group_spec("Z2xZ6xZ3")
    rng = random.Random(3)
    ia, ib = rng.sample(range(spec_.order), 5), rng.sample(range(spec_.order), 4)
    a, b = GroupSet.from_indices(spec_, ia), GroupSet.from_indices(spec_, ib)
    expected = checks.pair_sums(spec_.factors, np.array(ia), np.array(ib))
    good = sumset(a, b).bits
    assert checks.same_members(good, spec_.order, expected)
    assert not checks.same_members(good ^ 1, spec_.order, expected)
    assert checks.same_members(m_fold(a, 3).bits, spec_.order,
                               checks.m_fold_oracle(spec_.factors, np.array(ia), 3))


def test_pigeonhole_formula_matches_the_frozen_count():
    assert checks.pigeonhole_pairs(16) == 346726611


def test_sl2_check_rejects_a_missing_product():
    from sumsetlab import SL2Set, product_set, sl2_group

    g = sl2_group(5)
    xs, ys = [0, 7, 19], [3, 44]
    out = product_set(SL2Set.from_indices(g, xs), SL2Set.from_indices(g, ys)).bits
    assert checks.sl2_products_ok(g, xs, ys, out, random.Random(0), samples=50)
    lowest = out & -out
    assert not checks.sl2_products_ok(g, xs, ys, out ^ lowest, random.Random(0), samples=50)


def test_self_time_subtracts_the_union_of_overlapping_children():
    S = tracing.Span
    spans = [S("root", 1, None, 0, 100), S("a", 2, 1, 10, 50), S("b", 3, 1, 30, 70),
             S("c", 4, 2, 20, 30)]
    got = tracing.self_times(spans)
    assert got == {1: 40e-9, 2: 30e-9, 3: 40e-9, 4: 10e-9}
