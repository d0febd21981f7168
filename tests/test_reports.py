import random

import pytest

from sumsetlab.abelian import plunnecke_trials
from sumsetlab.groups import parse_group_spec
from sumsetlab.reports import Report, map_trials


def _draws(rng: random.Random) -> list[int]:
    return [rng.getrandbits(32) for _ in range(3)]


def test_map_trials_hands_trial_i_random_seed_plus_i():
    got = map_trials(_draws, 5, 40)
    assert got == [_draws(random.Random(40 + i)) for i in range(5)]


def test_map_trials_zero_trials_is_empty():
    calls = []
    assert map_trials(calls.append, 0, 7) == []
    assert calls == []


def test_map_trials_negative_count_raises():
    with pytest.raises(ValueError, match="trials must be >= 0"):
        map_trials(_draws, -1, 0)


def test_trial_runner_seeds_trial_i_with_seed_plus_i():
    spec = parse_group_spec("Z32")
    sweep = plunnecke_trials(spec, 4, 9)
    assert [r.to_dict() for r in sweep] == [
        plunnecke_trials(spec, 1, 9 + i)[0].to_dict() for i in range(4)
    ]


def test_report_to_dict_is_a_fresh_shallow_dict_in_construction_order():
    nested = [1, 2]
    rep = Report(z=1, a=nested, **{"lambda": 0.5}, m={"k": 3})
    out = rep.to_dict()
    assert list(out) == ["z", "a", "lambda", "m"]
    assert out["a"] is nested and out["m"] is rep.m
    out["z"] = 99
    out["new"] = True
    del out["a"]
    assert rep.to_dict() == {"z": 1, "a": [1, 2], "lambda": 0.5, "m": {"k": 3}}
    assert rep.z == 1 and rep.a is nested
