"""Tests of the benchmark itself: span arithmetic, oracle, wrappers, seeds, counts, host-speed scaling."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import inputs
import layers
import workloads
from hostspeed import REFERENCE_KERNEL_NS, HostSpeed
from tracer import Patcher, Recorder, load_trace, tally, wrap

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_of_synthetic_nested_spans(tmp_path):
    clock = FakeClock()
    recorder = Recorder(roots=("root",), clock=clock)
    root = recorder.enter("core", "root")          # t=0
    clock.now = 10
    child = recorder.enter("client", "child")      # 10..40
    clock.now = 20
    grandchild = recorder.enter("crypto", "grandchild")  # 20..30
    clock.now = 30
    recorder.exit(grandchild)
    clock.now = 40
    recorder.exit(child)
    clock.now = 50
    sibling = recorder.enter("index", "sibling")   # 50..90, with a 5-unit tally inside

    def leaf():
        clock.now += 5

    tally(leaf, recorder, "core", "leaf")()
    clock.now = 90
    recorder.exit(sibling)
    clock.now = 100
    recorder.exit(root)

    recorder.dump(tmp_path / "spans.jsonl")
    spans, _, detached = load_trace(tmp_path / "spans.jsonl")
    by_name = {span["name"]: span for span in spans}
    assert {name: span["self_ns"] for name, span in by_name.items()} == {
        "root": 30, "child": 20, "grandchild": 10, "sibling": 35, "leaf": 5,
    }
    assert by_name["grandchild"]["parent_name"] == "child"
    assert {span["root"] for span in spans if span["name"] != "leaf"} == {"root"}
    assert detached == 0
    # Layer self times add up to the root span's wall time.
    assert sum(layers.layer_self_ns(spans).values()) == 100


def test_spans_off_a_root_are_detached():
    recorder = Recorder(roots=("root",))
    traced = wrap(lambda: None, recorder, "storage", "helper")
    worker = threading.Thread(target=traced)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert recorder.spans == [] and recorder.detached == 1


@pytest.fixture
def embedded():
    data = inputs.Inputs(3)
    session, _ = workloads.setup("ingest-embedded", data, 3)
    yield session, data
    session.close()


def test_oracle_accepts_the_program_and_rejects_corruption(embedded):
    session, data = embedded
    runner = workloads.OpRunner(session, data, 1)
    for _ in range(3):
        runner.ingest(0)
    assert runner.failed == 0
    oracle = inputs.Oracle(data)
    answer = session.owner.get_stat_range(session.uuids[0], 0, 3 * inputs.CHUNK_MS)
    assert oracle.check_stat(0, 0, 3, answer)
    for name, corrupt in (("count", answer["count"] + 1), ("sum", answer["sum"] + 0.1),
                          ("mean", answer["mean"] * 1.0001)):
        assert not oracle.check_stat(0, 0, 3, {**answer, name: corrupt})
    points = session.owner.get_range(session.uuids[0], 5_000, 25_000)
    assert oracle.check_points(0, 5_000, 25_000, points)
    assert not oracle.check_points(0, 5_000, 25_000, points[:-1])


def test_wrappers_restore_every_patched_attribute(embedded):
    session, data = embedded
    engines, owners = [session.engine], [session.owner]
    before = layers.patched_attributes(engines, owners)
    recorder = Recorder(roots=layers.ROOT_NAMES)
    patcher = Patcher()
    layers.install(recorder, patcher, engines, owners)
    try:
        assert not layers.unchanged(before)
        runner = workloads.OpRunner(session, data, 1)
        runner.ingest(1)
        runner.ingest(1)
        runner.stat(1, 0, 1)
    finally:
        patcher.restore()
    assert layers.unchanged(before)
    assert runner.failed == 0
    assert {span[0] for span in recorder.spans} >= {"core", "client", "timeseries", "crypto", "server",
                                                    "index", "storage"}


def test_a_seed_regenerates_identical_inputs():
    first, again, other = inputs.Inputs(21), inputs.Inputs(21), inputs.Inputs(22)
    assert [s.values for s in first.streams] == [s.values for s in again.streams]
    assert [s.values for s in first.streams] != [s.values for s in other.streams]
    assert first.records(4, 30) == again.records(4, 30)
    assert len(first.streams) == 12 and len(first.records(0, 0)) == inputs.RECORDS_PER_CHUNK


COUNT_METRICS = ("net.round_trips_per_op", "index.plan_nodes_per_query", "crypto.leaves_derived_per_query",
                 "storage.bytes_written_per_record", "storage.calls_per_op")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_count_metrics_repeat_exactly(name, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "QUERY_WIRE_PRELOAD", 6)
    monkeypatch.setattr(workloads, "MIXED_PRELOAD", 6)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", {key: 1 for key in workloads.SETUP_REPEATS})
    monkeypatch.setattr(workloads, "READBACK", {key: (0.2, 3, 1) for key in workloads.READBACK})
    monkeypatch.setattr(workloads, "TRACE_DIR", tmp_path)
    runs = [workloads.run(name, 5, 60, trace=True, max_blocks=4) for _ in range(2)]
    for run in runs:
        assert run["correct"] and run["failed"] == 0
        assert set(run["metrics"]) == set(layers.PER_LAYER_UNITS)
    for metric in COUNT_METRICS:
        assert runs[0]["metrics"][metric] == runs[1]["metrics"][metric], metric
    plain = [workloads.run(name, 5, 60, trace=False, max_blocks=2) for _ in range(2)]
    assert plain[0]["correct"] and plain[1]["correct"]
    assert set(plain[0]["metrics"]) == set(workloads.END_TO_END_UNITS)
    assert plain[0]["metrics"]["stored_bytes_per_record"] == plain[1]["metrics"]["stored_bytes_per_record"]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_the_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-wire", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_host_speed_scales_by_the_kernel_median_around_an_op():
    speed = HostSpeed()
    # Kernel runs at t = 0, 10, ..., 290: twice the reference time, then the reference time.
    speed.starts = list(range(0, 300, 10))
    speed.kernel_ns = [2 * REFERENCE_KERNEL_NS] * 15 + [REFERENCE_KERNEL_NS] * 15
    assert speed.scale(5, 8.0) == 4.0          # an op in the slow stretch takes half as long at reference speed
    assert speed.scale(285, 8.0) == 8.0        # and one in the fast stretch is unchanged
    assert speed.scale_interval(0, 60, 8.0) == 4.0
    assert speed.scale_interval(250, 290, 8.0) == 8.0
