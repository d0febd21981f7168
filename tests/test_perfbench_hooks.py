"""The benchmark's tracing hooks still fit the library.

``perfbench/tracing.py`` rebinds library names to timing wrappers and reads
``SL2Group.table`` and ``GroupSet.spec``.  A library change that renames or
reshapes any of them breaks the benchmark, not the library's own tests, so
this test installs the hooks, runs two commands through them and reads the
per-layer metrics back.
"""

import importlib.util
import json
import sys
from pathlib import Path

import sumsetlab
from sumsetlab import cli, setops, sl2

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_perfbench_hooks_report_every_layer(capsys):
    tracing = _load_tracing()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in benchmark["per_layer"] if not m["name"].startswith("trace.")}
    originals = (sumsetlab.sumset, setops.decode, sl2.SL2Group.__init__, cli.run)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert cli.run(["theorem1", "--group", "Z3^2", "--m", "2", "--trials", "2"]) == 0
        assert cli.run(["sl2", "gowers", "--p", "5", "--size", "40", "--trials", "2"]) == 0
        metrics = tracing.layer_metrics(tracer)
    finally:
        tracing.uninstall(undo)
    capsys.readouterr()
    assert names <= set(metrics)
    for name in (
        "setops.sumset.calls",
        "setops.m_fold.calls",
        "constructions.random_cover_set.calls",
        "sl2.product_set.chunked.calls",
        "sl2.check_gowers.self_s",
        "reports.render.bytes",
        "cli.run.self_s",
    ):
        assert metrics[name] > 0, name
    assert (sumsetlab.sumset, setops.decode, sl2.SL2Group.__init__, cli.run) == originals
