"""BENCHMARK.json agrees with run.py's metric catalogue and the naming limits."""

import json
import re
from pathlib import Path

import loadgen
import run

BENCH = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metrics_match_run_py():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCH["workloads"]] == list(run.RUNNERS)


def test_names_units_and_bounds_are_within_limits():
    names = [w["name"] for w in BENCH["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for m in BENCH[group]:
            names.append(m["name"])
            assert UNIT.match(m["unit"]), m
            assert m["better"] in ("lower", "higher"), m
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert len(BENCH["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_stream_is_seeded_and_keeps_the_mix_exact():
    nodes = {"rmat": 2048, "usa-road": 2304, "twitter": 2000, "random": 2048}
    a = loadgen.make_stream(5, 0, 520, nodes)
    assert a == loadgen.make_stream(5, 0, 520, nodes)
    assert a != loadgen.make_stream(6, 0, 520, nodes)
    counts = {}
    for req in a:
        key = (req["op"], req["graph"])
        counts[key] = counts.get(key, 0) + 1
    expected = loadgen.apportion(520, [m[2] for m in loadgen.MIX])
    assert [counts[(op, g)] for op, g, _ in loadgen.MIX] == expected
    assert sum(expected) == 520


def test_apportion_sums_to_count():
    for count in (1, 7, 250, 1001):
        parts = loadgen.apportion(count, [0.4, 0.1, 0.2, 0.1, 0.1, 0.1])
        assert sum(parts) == count
