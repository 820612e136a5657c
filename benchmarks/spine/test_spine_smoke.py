"""Tier-1 smoke test of the spine benchmark: structure, never numbers.

``--smoke`` shrinks the data and the measuring time, so the values are not
comparable with anything; what is checked is that every workload runs, every
answer matches the oracle, and the output is exactly what ``BENCHMARK.json``
declares.  The children get a hostile ``REPRO_*`` environment (the CI modes
set these for the whole suite): the benchmark must scrub it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
HOSTILE = {"REPRO_SERVICE": "1", "REPRO_PARALLELISM": "4", "REPRO_COMPILED": "0",
           "REPRO_DURABLE": "1", "REPRO_REWRITE_INDEX": "0"}


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def start(*args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env={**os.environ, **HOSTILE},
    )


def finish(child: subprocess.Popen) -> str:
    stdout, stderr = child.communicate(timeout=120)
    assert child.returncode == 0, stderr
    return stdout


def check_result(result: dict, metrics: list[dict], table: str) -> dict[str, float]:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [entry["name"] for entry in metrics]
    for entry in metrics:
        metric = result["metrics"][entry["name"]]
        assert set(metric) == {"value", "unit"} and metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)
        # Printed by name, with its unit, in the human-readable table too.
        assert re.search(rf" {re.escape(entry['name'])} +\S+ +{re.escape(entry['unit'])} ", table)
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_declaration_is_well_formed(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/spine"]
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(name) for name in names)
    for entry in declared["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200
    for entry in declared["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"} and 0 < entry["bound"] <= 0.25
    for entry in declared["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(entry for entry in declared["end_to_end"] if entry["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in declared["end_to_end"])


def test_smoke_run_prints_every_declared_metric(declared, tmp_path):
    out = tmp_path / "spine.json"
    # Started together so tier-1 pays for the slowest, not for the sum.
    everything = start("--trace", "0", "--out", str(out))
    traced = {name: start("--workload", name, "--trace", "1")
              for name in ("write_durable", "service_closed")}

    table = finish(everything)
    collected = json.loads(out.read_text())
    assert collected["smoke"] is True and "SMOKE" in table
    assert list(collected["workloads"]) == [entry["name"] for entry in declared["workloads"]]
    for name, modes in collected["workloads"].items():
        values = check_result(modes["trace0"], declared["end_to_end"], table)
        assert all(value > 0 for value in values.values()), (name, values)
        assert re.search(rf"{name} +failed_share +0 +ratio", table)

    layers = {}
    for name, child in traced.items():
        *lines, last = finish(child).strip().splitlines()
        layers[name] = check_result(json.loads(last), declared["per_layer"], "\n".join(lines))
    for values in layers.values():
        assert values["trace.unresolved"] == 0
        assert values["facade.plan_cache_hit_ratio"] <= 1
    durable, service = layers["write_durable"], layers["service_closed"]
    # The scrubbed environment: no ambient service in front of the facade, and
    # no durable backing behind the in-memory workloads.
    assert durable["service.self_us"] == 0 and service["segment.fsyncs_per_write"] == 0
    assert durable["segment.fsyncs_per_write"] >= 1 and durable["recover_s"] > 0
    assert durable["maintenance.pending_after_run"] == 0
    assert service["service.self_us"] > 0 and service["rewrite.calls_per_stmt"] == 0
    assert service["service.shed"] == 0 and service["service.timed_out"] == 0
