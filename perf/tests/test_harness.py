"""Harness tests: run with ``pytest perf/tests`` (outside tier-1 testpaths)."""

import gc
import json
import os
import re

import pytest

from perf import compare, harness, layers, spec
from perf.workloads import BUILDERS, TINY

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        assert json.load(source) == spec.benchmark_json()


def test_names_units_and_counts_meet_the_contract():
    bench = spec.benchmark_json()
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert all(0 <= m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in bench["end_to_end"]
    assert set(spec.WORKLOADS) == set(BUILDERS) == set(TINY)


def test_every_interaction_names_a_layer_metric():
    known = {name for name, _unit, _better in spec.per_layer()}
    for names, _prediction in spec.INTERACTIONS:
        assert set(names) <= known


def test_layer_map_covers_every_module():
    package = os.path.join(ROOT, "src", "repro")
    unmapped = []
    for folder, _dirs, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                relpath = os.path.relpath(os.path.join(folder, name), package)
                if layers.layer_of_module(relpath) not in spec.LAYERS:
                    unmapped.append(relpath)
    assert not unmapped, "give these modules a layer in perf/layers.py: {}".format(unmapped)


def test_layer_map_rejects_a_new_package():
    assert layers.layer_of_module("newpkg/thing.py") == layers.UNMAPPED
    assert layers.layer_of_file(os.path.join(ROOT, "src", "repro", "sim", "resources.py")) == "sim.resources"
    assert layers.layer_of_file("~") == "python"


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_tiny_workload_is_correct_and_deterministic(name):
    first = harness.run_rep(name, seed=7, sizes=TINY[name])
    again = harness.run_rep(name, seed=7, sizes=TINY[name])
    assert first["problems"] == []
    assert first["ok"] == first["planned"] > 0
    assert first["events"] > 0 and first["sim_ns"] > 0
    assert first["digest"] == again["digest"]
    metrics = harness.end_to_end(first, {"setup_s": 1.0, "wall_s": 1.0, "peak_rss_mb": 1.0})
    assert [m[0] for m in spec.END_TO_END] == list(metrics)
    assert all(metric["value"] > 0 for metric in metrics.values())


def test_seed_changes_payloads_not_simulated_results():
    one = harness.run_rep("echo-small", seed=1, sizes=TINY["echo-small"])
    two = harness.run_rep("echo-small", seed=2, sizes=TINY["echo-small"])
    assert one["latencies_ns"] == two["latencies_ns"]
    assert one["events"] == two["events"]


def test_host_times_are_scaled_by_the_yardstick():
    rep = harness.run_rep("echo-small", seed=7, sizes=TINY["echo-small"])
    scale = harness.YARDSTICK_REF_S / rep["yardstick_s"]
    assert rep["wall_s"] == pytest.approx(rep["raw_wall_s"] * scale)
    assert rep["setup_s"] == pytest.approx(rep["raw_setup_s"] * scale)
    assert gc.isenabled()


def test_failed_ops_are_reported_not_hidden():
    rep = harness.run_rep("echo-small", seed=7, sizes=TINY["echo-small"])
    rep["ok"] -= 1
    assert harness.check_outputs(rep)


def _record(wall, spread=0.0, p50=10.0):
    values = {"setup_s": 0.1, "wall_s": wall, "peak_rss_mb": 50.0, "events_per_op": 300.0,
              "sim_lat_p50_us": p50, "sim_lat_tail_us": 20.0, "sim_goodput_mbps": 1000.0,
              "ops_ok_frac": 1.0}
    return {"w": {"rep_spread_frac": spread,
                  "end_to_end": {name: {"value": value} for name, value in values.items()}}}


def _verdicts(a, b):
    return {row[1]: row[4] for row in compare.compare(spec.benchmark_json(), a, b)}


def test_compare_gives_all_four_verdicts():
    assert _verdicts(_record(1.0), _record(1.05))["wall_s"] == "same"
    assert _verdicts(_record(1.0), _record(0.7))["wall_s"] == "better"
    assert _verdicts(_record(1.0), _record(1.3))["wall_s"] == "worse"
    assert _verdicts(_record(1.0, spread=0.3), _record(1.3))["wall_s"] == "unresolved"
    # Simulated metrics are exact: repetition spread never excuses them.
    assert _verdicts(_record(1.0, spread=0.3), _record(1.0, p50=10.5))["sim_lat_p50_us"] == "worse"


def test_compare_exit_status(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"workloads": _record(1.0)}))
    b.write_text(json.dumps({"workloads": _record(1.3)}))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
