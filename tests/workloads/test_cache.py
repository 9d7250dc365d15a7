"""Binary workload cache: round-trips, invalidation, and the XL generator."""

from __future__ import annotations

import os

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.workloads.cache import (
    cached_jobs,
    jobs_from_columns,
    jobs_to_columns,
    read_swf_cached,
    swf_cache_path,
)
from repro.workloads.generator import (
    XL_MAX_UTILIZATION,
    generate_workload,
    generate_workload_xl,
)
from repro.workloads.models import trace_model
from repro.workloads.swf import SwfError, read_swf, write_swf


def jobs_key(jobs):
    return [
        (j.job_id, j.submit_time, j.runtime, j.requested_time, j.size,
         j.user_id, j.group_id, j.executable, j.beta)
        for j in jobs
    ]


@pytest.fixture
def trace_file(tmp_path):
    jobs = generate_workload(trace_model("CTC"), 200, seed=5)
    path = tmp_path / "trace.swf"
    write_swf(path, jobs, max_procs=430, extra_header={"Note": "cache-test"})
    return path


class TestColumnCodec:
    def test_round_trip_preserves_every_field(self):
        jobs = generate_workload(trace_model("SDSC"), 150, seed=9)
        jobs[3] = jobs[3].with_beta(0.25)
        back = jobs_from_columns(jobs_to_columns(jobs))
        assert jobs_key(back) == jobs_key(jobs)
        assert back[3].beta == 0.25
        assert back[0].beta is None


class TestSwfCache:
    def test_warm_load_matches_cold_parse(self, trace_file):
        header_cold, jobs_cold = read_swf_cached(trace_file)
        assert swf_cache_path(trace_file).exists()
        header_warm, jobs_warm = read_swf_cached(trace_file)
        assert jobs_key(jobs_warm) == jobs_key(jobs_cold)
        assert header_warm.fields == header_cold.fields
        assert header_warm.max_procs == 430
        # ... and both match the uncached text parser exactly.
        _header, jobs_text = read_swf(trace_file)
        assert jobs_key(jobs_warm) == jobs_key(jobs_text)

    def test_content_change_invalidates(self, trace_file):
        _h, before = read_swf_cached(trace_file)
        # Append one record: the file hash changes, so the stale entry
        # must be ignored and rewritten.
        with open(trace_file, "a", encoding="utf-8") as stream:
            stream.write("9999 9999999 -1 60 4 -1 -1 4 600 -1 1 1 1 1 -1 -1 -1 -1\n")
        _h, after = read_swf_cached(trace_file)
        assert len(after) == len(before) + 1
        assert after[-1].job_id == 9999

    def test_cleaning_config_is_part_of_the_key(self, trace_file):
        with open(trace_file, "a", encoding="utf-8") as stream:
            stream.write("9998 9999999 -1 -5 4 -1 -1 4 600 -1 1 1 1 1 -1 -1 -1 -1\n")
        _h, dropped = read_swf_cached(trace_file, drop_invalid=True)
        with pytest.raises(SwfError):
            read_swf_cached(trace_file, drop_invalid=False)
        # The failed strict parse must not have poisoned the lenient entry.
        _h, again = read_swf_cached(trace_file, drop_invalid=True)
        assert jobs_key(again) == jobs_key(dropped)

    def test_corrupt_entry_is_reparsed(self, trace_file):
        _h, jobs = read_swf_cached(trace_file)
        swf_cache_path(trace_file).write_bytes(b"not an npz")
        _h, again = read_swf_cached(trace_file)
        assert jobs_key(again) == jobs_key(jobs)

    def test_env_kill_switch(self, trace_file, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE", "0")
        _h, jobs = read_swf_cached(trace_file)
        assert not swf_cache_path(trace_file).exists()
        assert len(jobs) == 200


class TestCachedJobs:
    def test_builder_runs_once_per_key(self, tmp_path):
        calls = []

        def builder():
            calls.append(1)
            return generate_workload(trace_model("CTC"), 50, seed=1)

        key = {"kind": "test", "n": 50, "seed": 1}
        first = cached_jobs(tmp_path, key, builder)
        second = cached_jobs(tmp_path, key, builder)
        assert len(calls) == 1
        assert jobs_key(first) == jobs_key(second)
        # A different key misses and re-runs the builder.
        cached_jobs(tmp_path, {**key, "seed": 2}, builder)
        assert len(calls) == 2

    def test_no_cache_dir_builds_directly(self, tmp_path):
        calls = []

        def builder():
            calls.append(1)
            return generate_workload(trace_model("CTC"), 20, seed=1)

        cached_jobs(None, {"kind": "test"}, builder)
        cached_jobs(None, {"kind": "test"}, builder)
        assert len(calls) == 2
        assert not any(tmp_path.iterdir())

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """A write that fails mid-entry is forgiven (caching is
        best-effort) and cleans up its temp file."""

        def full_disk(stream, **columns):
            stream.write(b"partial")
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez_compressed", full_disk)
        jobs = cached_jobs(
            tmp_path,
            {"kind": "test", "n": 20},
            lambda: generate_workload(trace_model("CTC"), 20, seed=1),
        )
        assert len(jobs) == 20
        assert list(tmp_path.iterdir()) == []


class TestXlGenerator:
    def test_deterministic_and_sorted(self):
        a = generate_workload_xl(trace_model("SDSC"), 2000, seed=3)
        b = generate_workload_xl(trace_model("SDSC"), 2000, seed=3)
        assert jobs_key(a) == jobs_key(b)
        assert all(x.submit_time <= y.submit_time for x, y in zip(a, a[1:], strict=False))
        assert jobs_key(a) != jobs_key(generate_workload_xl(trace_model("SDSC"), 2000, seed=4))

    def test_jobs_respect_model_invariants(self):
        model = trace_model("SDSCBlue")
        jobs = generate_workload_xl(model, 3000, seed=1)
        assert len(jobs) == 3000
        for job in jobs:
            assert 1 <= job.size <= model.cpus
            assert job.size % model.sizes.multiple_of == 0 or job.size == 1
            assert job.runtime <= job.requested_time + 1e-9
            assert job.requested_time <= model.estimates.max_request_seconds + 1e-9

    def test_offered_load_is_clamped(self):
        model = trace_model("SDSC")  # calibrated utilization 1.078 > 1
        assert model.arrivals.utilization > 1.0
        jobs = generate_workload_xl(model, 20000, seed=2)
        span = jobs[-1].submit_time - jobs[0].submit_time
        offered = sum(j.size * j.runtime for j in jobs) / (span * model.cpus)
        # The rescaling targets exactly the clamped utilization.
        assert offered == pytest.approx(XL_MAX_UTILIZATION, rel=0.05)

    def test_runs_through_the_source_registry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE_DIR", str(tmp_path))
        from repro.registry import WORKLOAD_SOURCES

        source = WORKLOAD_SOURCES.get("synthetic-xl")
        bundle = source("CTC", 500, 1)
        assert len(bundle.jobs) == 500
        assert bundle.total_cpus == 430
        cache_files = [p for p in os.listdir(tmp_path) if p.endswith(".npz")]
        assert cache_files, "scale-out source should populate the cache dir"
        again = source("CTC", 500, 1)
        assert jobs_key(again.jobs) == jobs_key(bundle.jobs)
