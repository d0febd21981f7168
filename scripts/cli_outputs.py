#!/usr/bin/env python3
"""Capture the CLI's output on a fixed set of commands, for diffing two checkouts.

Usage: python scripts/cli_outputs.py OUTDIR

Writes the set files ``a.json`` and ``b.json`` into OUTDIR, then runs, in
this process through ``sumsetlab.cli.run``:

* every ``sumsetlab ...`` command of the README's command-line section;
* ``theorem1`` at m = 3 and ``theorem1`` and ``plunnecke`` on mixed moduli,
  so that the m = 3 chain step and multi-axis translates are covered;
* ``sl2 ruzsa``, ``sl2 gowers`` and ``sl2 theorem4`` at p = 13 and 17;
* ``sl2 ruzsa`` at p = 7 and 11, so that the representation count runs at
  two more primes.  Under the seeded draws every one of their trials has
  BC^-1 = G (nothing to enumerate).  At p = 5, with either seed, 15 of
  the README's 100 trials have BC^-1 != G, and 12 of those have
  AB^-1 = G (nothing to enumerate either).  The other 3, and 1 of the 3
  trials at p = 13, enumerate the complement of BC^-1, which is more than
  half of G, with the per-target kernel.  No trial here runs the direct
  count or the fibre kernel, which needs denser targets.  The tests force
  each branch directly;
* ``theorem1``, ``sl2 gowers`` and ``plunnecke`` runs whose operand sizes
  meet or straddle the pigeonhole bound |A| + |B| = |G|, at which the
  kernels must still run;
* ``example1`` at (p, k) = (5, 2) and (3, 3), so that the half-zero family
  is pinned at more than one size;
* ``sl2 info`` at p = 2, 3 and 5 and ``sl2 remark12`` at p = 5, so that
  SL2's constants are pinned where D = (p - 1)/2 is 0 (p = 2, all null),
  where it is 1 and no K exists (p = 3), and where K = 5 (p = 5), and
  ``sl2 remark12 --p 7 --trials 0``, where the twelve-set statement
  applies but no trial runs;
* ``sl2 theorem4``, ``sl2 gowers`` and ``sl2 ruzsa`` at p = 13 with
  ``--trials 0``, which print an empty trial list;

each once with ``--seed 0`` and once with ``--seed 1``.  Each run leaves one
file in OUTDIR holding its exit code on the first line and then its JSON
envelope, with the ``wall_time_s`` value masked.  Two checkouts behave the
same on these commands when ``diff -r`` over their OUTDIRs prints nothing.
The script prints one ``sha256  name`` line per output.
``tests/cli_outputs.sha256`` holds these lines for the committed code, and
the test suite compares a fresh run against it, so a change of output shows
up as a failing test.  Regenerate the file with
``python scripts/cli_outputs.py OUTDIR > tests/cli_outputs.sha256``.
The set files are read by relative path, so the envelopes do not depend on
where OUTDIR is.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shlex
from pathlib import Path

from sumsetlab import cli

README = Path(__file__).resolve().parent.parent / "README.md"
SET_FILES = {
    "a.json": {"elements": [[0, 0], [1, 2], [5, 9], [3, 4]]},
    "b.json": {"elements": [[0, 1], [2, 0], [4, 7]]},
}
ABELIAN_COMMANDS = [
    "theorem1 --group Z2^6 --m 3 --trials 5 --density 0.3",
    "theorem1 --group Z6xZ10 --m 2 --trials 5",
    "plunnecke --group Z3^4 --trials 50",
    "plunnecke --group Z6xZ10 --trials 50",
]
SL2_COMMANDS = [
    "sl2 ruzsa --p 13 --trials 3",
    "sl2 gowers --p 13 --size 600 --trials 2",
    "sl2 theorem4 --p 13 --trials 1",
    "sl2 ruzsa --p 17 --trials 3",
    "sl2 gowers --p 17 --size 1500 --trials 2",
    "sl2 theorem4 --p 17 --trials 1",
    "sl2 ruzsa --p 7 --trials 10",
    "sl2 ruzsa --p 11 --trials 3",
]
PIGEONHOLE_COMMANDS = [
    "theorem1 --group Z2^6 --m 2 --trials 5 --density 0.5",
    "sl2 gowers --p 5 --size 60 --trials 5",
    "plunnecke --group Z2^6 --trials 200",
]
EXAMPLE1_COMMANDS = [
    "example1 --p 5 --k 2",
    "example1 --p 3 --k 3",
]
CONSTANTS_COMMANDS = [
    "sl2 info --p 2",
    "sl2 info --p 3",
    "sl2 info --p 5",
    "sl2 remark12 --p 5",
    "sl2 remark12 --p 7 --trials 0",
]
ZERO_TRIAL_COMMANDS = [
    "sl2 theorem4 --p 13 --trials 0",
    "sl2 gowers --p 13 --size 600 --trials 0",
    "sl2 ruzsa --p 13 --trials 0",
]
_WALL_TIME = re.compile(r'"wall_time_s": [^,\n}]+')


def readme_commands() -> list[str]:
    """The README's ``sumsetlab ...`` lines, without the program name."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [m.group(1) for m in re.finditer(r"^sumsetlab (.+)$", section, re.M)]


def capture(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return f"{code}\n" + _WALL_TIME.sub('"wall_time_s": "masked"', out.getvalue())


def main(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    for name, payload in SET_FILES.items():
        (outdir / name).write_text(json.dumps(payload), encoding="utf-8")
    commands = (
        readme_commands() + ABELIAN_COMMANDS + SL2_COMMANDS + PIGEONHOLE_COMMANDS
        + EXAMPLE1_COMMANDS + CONSTANTS_COMMANDS + ZERO_TRIAL_COMMANDS
    )
    lines = []
    cwd = os.getcwd()
    os.chdir(outdir)  # not contextlib.chdir, which Python 3.10 lacks
    try:
        for i, command in enumerate(commands):
            for seed in (0, 1):
                argv = [*shlex.split(command), "--seed", str(seed)]
                words = command.split(" --", 1)[0].replace(" ", "-")
                name = f"{i:02d}-{words}-seed{seed}.txt"
                text = capture(argv).encode("utf-8")
                Path(name).write_bytes(text)
                lines.append(f"{hashlib.sha256(text).hexdigest()}  {name}")
    finally:
        os.chdir(cwd)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("outdir", type=Path, help="directory for the set files and outputs")
    args = parser.parse_args()
    raise SystemExit(main(args.outdir))
