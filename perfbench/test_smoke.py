"""Smoke test of the benchmark command at a few hundred jobs per spec.

    python3 -m pytest perfbench -q

Runs every workload of ``BENCHMARK.json`` untraced and traced through
the one command, and checks that it prints every metric with its unit,
that no output failed its digest check, and that the spans file parses
and nests.  About a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: Layer metrics these workloads never move off zero: nothing is ever
#: refused, and a daemon's cache starts empty while single-flight dedup
#: answers every repeat before the cache could.
ALWAYS_ZERO = {"serve.shed", "serve.cache_hits"}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "0.2", "--trace", str(trace), "--jobs-cap", "300",
        ],  # fmt: skip
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.fixture(scope="module")
def results() -> dict[tuple[str, int], tuple[dict, dict]]:
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            record, final = proc.stdout.strip().splitlines()[-2:]
            out[workload, trace] = json.loads(record), json.loads(final)
    return out


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit_and_no_failures(results, workload, trace):
    record, final = results[workload, trace]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= 1
    assert record["error_rate"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in final["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in final["metrics"].values())


def test_every_layer_metric_is_measured_by_some_workload(results):
    for metric in BENCHMARK["per_layer"]:
        name = metric["name"]
        if name in ALWAYS_ZERO:
            continue
        assert any(results[w, 1][1]["metrics"][name]["value"] != 0 for w in WORKLOADS), name


def test_layer_counts_are_per_traced_operation(results):
    inproc = results["inproc-deep", 1][1]["metrics"]
    sweep = results["sweep-cached", 1][1]["metrics"]
    assert inproc["workloads.jobs"]["value"] == 300
    assert sweep["workloads.jobs"]["value"] == 600  # SDSC and CTC, once each
    assert sweep["batch.cache_hits"]["value"] == sweep["batch.cache_misses"]["value"] == 9


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_parse_and_nest(results, workload):
    record, _final = results[workload, 1]
    with open(ROOT / record["spans_file"], encoding="utf-8") as stream:
        spans = json.load(stream)["spans"]
    assert spans
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans)
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] is None:
            assert span["name"] in ("request", "batch.run")
            continue
        parent = by_id[span["parent"]]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        assert span["request"] == parent["request"]


def test_fails_without_the_package():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
