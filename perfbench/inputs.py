"""Seeded inputs for every workload, generated before anything is timed.

Each generator takes the workload seed plus a label naming the input, so the
same seed always gives the same inputs and adding an input leaves the
others unchanged.  Sizes are fixed by the workload definitions; the seed
only chooses which elements are drawn.
"""

from __future__ import annotations

import json
import random
from pathlib import Path


def rng_for(seed: int, *label: object) -> random.Random:
    return random.Random(":".join(map(str, (seed, *label))))


def trial_seed(seed: int, *label: object) -> int:
    """A seed handed to one of the package's seeded trial runners."""
    return rng_for(seed, "trial", *label).getrandbits(31)


def sample_indices(seed: int, order: int, size: int, *label: object) -> list[int]:
    """``size`` distinct element indices in ``[0, order)``."""
    return rng_for(seed, *label).sample(range(order), size)


def multiset_indices(seed: int, order: int, size: int, *label: object) -> list[int]:
    """``size`` element indices drawn with replacement (repeats allowed)."""
    rng = rng_for(seed, *label)
    return [rng.randrange(order) for _ in range(size)]


def write_set_files(seed: int, workdir: Path, factors: tuple[int, ...]) -> tuple[Path, Path, list, list]:
    """Two set files for ``sumset``: A in the ``elements`` form, B in the
    ``bitmask_hex`` form (little-endian, bit i of byte i//8 is element i).

    Returns the paths and both sets' element indices for the output check.
    """
    order = 1
    for d in factors:
        order *= d
    rng = rng_for(seed, "set-files")
    sets = []
    for size in (9, 7):
        idx = sorted(rng.sample(range(order), size))
        coords = []
        for x in idx:
            c = []
            for d in factors:
                x, r = divmod(x, d)
                c.append(r)
            coords.append(c)
        sets.append((idx, coords))
    a_path = workdir / "a.json"
    b_path = workdir / "b.json"
    a_path.write_text(json.dumps({"elements": sets[0][1]}))
    bits = sum(1 << x for x in sets[1][0])
    b_path.write_text(json.dumps({"bitmask_hex": bits.to_bytes((order + 7) // 8, "little").hex()}))
    return a_path, b_path, sets[0][0], sets[1][0]
