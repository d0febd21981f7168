"""Run one ``sumsetlab`` command with the benchmark's span wrappers installed.

Usage: ``PERFBENCH_SPANS=spans.json python3 perfbench/cli_launcher.py <cli args>``

The command runs in a fresh process exactly as ``python -m sumsetlab.cli``
would, so it still pays interpreter start, imports and group construction;
the recorded spans are written to ``$PERFBENCH_SPANS`` as the process exits.
"""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
from sumsetlab import cli  # noqa: E402

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        cli.main()
    finally:
        Path(os.environ["PERFBENCH_SPANS"]).write_text(tracer.to_json())
