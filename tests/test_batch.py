"""Tests for the parallel batch runner: determinism, ordering, caching,
fault tolerance (worker exceptions and worker deaths), and the
aggregates-only / streaming fleet-scale modes."""

import json
import multiprocessing
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.batch as batch_module
from repro.batch import BatchRunner
from repro.experiments.config import PolicySpec, RunSpec
from repro.experiments.figures import threshold_grid
from repro.experiments.runner import ExperimentRunner
from repro.serialize import result_to_dict

N_JOBS = 40

#: Fault-injection tests patch ``repro.batch._build_simulation`` in the
#: parent and rely on fork inheriting the patch into pool workers.
fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault injection relies on fork sharing the patched module",
)

CRASH_SEED = 9901  # specs with this seed make the injected builder misbehave


def crash_spec() -> RunSpec:
    return RunSpec(workload="CTC", n_jobs=N_JOBS, seed=CRASH_SEED)


def _inject_builder(monkeypatch, misbehave):
    """Route CRASH_SEED specs through ``misbehave``; others run normally."""
    real = batch_module._build_simulation

    def patched(spec, validate):
        if spec.seed == CRASH_SEED:
            misbehave(spec)
        return real(spec, validate)

    monkeypatch.setattr(batch_module, "_build_simulation", patched)


def _exit_after_cache_fills(cache_dir, expected):
    """A worker death deferred until ``expected`` results are cached.

    Polling the parent's cache directory makes the crash ordering
    deterministic: by the time the pool breaks, the sibling results
    have not just completed but been landed by the parent.
    """

    def misbehave(spec):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if len(list(cache_dir.glob("*.json"))) >= expected:
                break
            time.sleep(0.01)
        os._exit(13)

    return misbehave


def grid_specs() -> list[RunSpec]:
    """A miniature Figure 3-5 style grid (two workloads x three policies)."""
    return [
        RunSpec(workload=workload, n_jobs=N_JOBS, policy=policy)
        for workload in ("CTC", "SDSC")
        for policy in (
            PolicySpec.baseline(),
            PolicySpec.power_aware(2.0, 0),
            PolicySpec.power_aware(2.0, None),
        )
    ]


def as_bytes(results) -> list[str]:
    return [json.dumps(result_to_dict(r), sort_keys=True) for r in results]


class TestDeterminism:
    def test_parallel_equals_serial_byte_identical(self):
        specs = grid_specs()
        serial = BatchRunner(max_workers=1).run(specs)
        parallel = BatchRunner(max_workers=4).run(specs)
        assert serial == parallel
        assert as_bytes(serial) == as_bytes(parallel)

    def test_results_in_input_order(self):
        specs = grid_specs()
        results = BatchRunner(max_workers=2).run(specs)
        assert len(results) == len(specs)
        for spec, result in zip(specs, results, strict=True):
            assert result.machine.name.startswith(spec.workload)
            if spec.policy.kind == "nodvfs":
                assert result.reduced_jobs == 0

    def test_duplicates_deduplicated(self):
        spec = RunSpec(workload="CTC", n_jobs=N_JOBS)
        first, second = BatchRunner(max_workers=1).run([spec, spec])
        assert first is second

    def test_default_n_jobs_applied(self):
        runner = BatchRunner(max_workers=1, default_n_jobs=25)
        (result,) = runner.run([RunSpec(workload="CTC")])
        assert result.job_count == 25

    def test_empty_batch(self):
        assert BatchRunner(max_workers=4).run([]) == []

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            BatchRunner(max_workers=-1)


class TestStreamingAndSharing:
    def test_progress_streams_fresh_results(self, tmp_path):
        """progress fires once per fresh spec (not for cache hits) with
        the exact result the batch returns."""
        specs = grid_specs()
        landed: dict[RunSpec, object] = {}
        runner = BatchRunner(max_workers=2, cache_dir=tmp_path)
        results = runner.run(specs, progress=lambda spec, result: landed.setdefault(spec, result))
        assert set(landed) == set(specs)
        for spec, result in zip(specs, results, strict=True):
            assert as_bytes([landed[spec]]) == as_bytes([result])
        # Second run: everything cached, nothing streams.
        rerun_landed = []
        runner.run(specs, progress=lambda s, r: rerun_landed.append(s))
        assert rerun_landed == []

    def test_shared_workload_store_matches_per_worker_resolution(self):
        """The fork-shared bundle path must not change a single byte.

        Serial execution resolves through the shared store; disabling
        the store forces per-spec resolution — results must agree.
        """
        import repro.batch as batch_module

        specs = grid_specs()
        shared = BatchRunner(max_workers=1).run(specs)
        original = batch_module.BatchRunner.__dict__["_share_workloads"]
        batch_module.BatchRunner._share_workloads = staticmethod(lambda pending: None)
        try:
            unshared = BatchRunner(max_workers=1).run(specs)
        finally:
            batch_module.BatchRunner._share_workloads = original
        assert as_bytes(shared) == as_bytes(unshared)

    def test_store_cleared_after_run(self):
        import repro.batch as batch_module

        BatchRunner(max_workers=1).run(grid_specs()[:2])
        assert batch_module._WORKLOAD_STORE == {}


class TestDiskCache:
    def test_second_run_served_from_disk(self, tmp_path):
        specs = grid_specs()[:3]
        runner = BatchRunner(max_workers=2, cache_dir=tmp_path)
        first = runner.run(specs)
        assert runner.cache_misses == 3
        assert len(list(tmp_path.glob("*.json"))) == 3

        fresh = BatchRunner(max_workers=1, cache_dir=tmp_path)
        second = fresh.run(specs)
        assert fresh.cache_hits == 3
        assert fresh.cache_misses == 0
        assert as_bytes(first) == as_bytes(second)

    def test_store_bytes_splices_into_the_entry_layout(self, tmp_path):
        """An already-encoded result (the serve daemon's canonical bytes)
        makes the same entry as storing the result object."""
        from repro.serve.protocol import canonical_result_bytes

        spec = RunSpec(workload="CTC", n_jobs=N_JOBS, seed=3)
        (result,) = BatchRunner(max_workers=1).run([spec])
        BatchRunner(cache_dir=tmp_path / "bytes").cache_store_bytes(
            spec, canonical_result_bytes(result_to_dict(result))
        )
        BatchRunner(cache_dir=tmp_path / "object").cache_store(spec, result)
        entries = [
            json.loads(next((tmp_path / name).glob("*.json")).read_text())
            for name in ("bytes", "object")
        ]
        assert entries[0] == entries[1]
        assert BatchRunner(cache_dir=tmp_path / "bytes").cache_load(spec) == result

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        spec = RunSpec(workload="CTC", n_jobs=N_JOBS)
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        (result,) = runner.run([spec])
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        again = BatchRunner(max_workers=1, cache_dir=tmp_path)
        (recomputed,) = again.run([spec])
        assert again.cache_misses == 1
        assert recomputed == result

    @given(
        workload=st.sampled_from(["CTC", "SDSC", "LLNLThunder"]),
        n_jobs=st.integers(min_value=5, max_value=30),
        seed=st.integers(min_value=0, max_value=3),
        bsld_threshold=st.sampled_from([1.5, 2.0, 3.0]),
        wq_threshold=st.sampled_from([0, 4, None]),
        scheduler=st.sampled_from(["easy", "fcfs"]),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_cache_round_trip_property(
        self, tmp_path, workload, n_jobs, seed, bsld_threshold, wq_threshold, scheduler
    ):
        """Cached rerun of an arbitrary spec == its fresh run, byte for byte."""
        spec = RunSpec(
            workload=workload,
            n_jobs=n_jobs,
            seed=seed,
            scheduler=scheduler,
            policy=PolicySpec.power_aware(bsld_threshold, wq_threshold),
        )
        cache_dir = tmp_path / f"{workload}-{n_jobs}-{seed}-{bsld_threshold}-{wq_threshold}-{scheduler}"
        first = BatchRunner(max_workers=1, cache_dir=cache_dir)
        fresh = first.run([spec])
        assert first.cache_misses == 1
        again = BatchRunner(max_workers=1, cache_dir=cache_dir)
        cached = again.run([spec])
        assert again.cache_hits == 1 and again.cache_misses == 0
        assert as_bytes(fresh) == as_bytes(cached)
        assert fresh == cached

    def test_cache_ignores_mismatched_spec_payload(self, tmp_path):
        spec = RunSpec(workload="CTC", n_jobs=N_JOBS)
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        runner.run([spec])
        (path,) = tmp_path.glob("*.json")
        data = json.loads(path.read_text())
        data["spec"]["beta"] = 0.123  # simulate a stale/foreign entry
        path.write_text(json.dumps(data))
        again = BatchRunner(max_workers=1, cache_dir=tmp_path)
        again.run([spec])
        assert again.cache_misses == 1

    def test_concurrent_store_and_load_same_key(self, tmp_path):
        """Satellite: many threads hammering one cache key never observe
        a torn entry — every load is None (pre-store) or the exact
        result.  Write-then-rename makes each entry appear atomically."""
        import threading

        spec = RunSpec(workload="CTC", n_jobs=N_JOBS)
        result = ExperimentRunner(n_jobs=N_JOBS).run(spec)
        expected = result_to_dict(result)
        runner = BatchRunner(max_workers=0, cache_dir=tmp_path)
        start = threading.Barrier(8)
        failures: list[str] = []

        def store():
            start.wait()
            for _ in range(20):
                runner.cache_store(spec, result)

        def load():
            start.wait()
            for _ in range(40):
                loaded = runner.cache_load(spec)
                if loaded is not None and result_to_dict(loaded) != expected:
                    failures.append("torn or foreign cache entry observed")

        threads = [threading.Thread(target=store) for _ in range(4)] + [
            threading.Thread(target=load) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        # Settled state: exactly one entry, loadable, byte-exact.
        assert len(list(tmp_path.glob("*.json"))) == 1
        final = runner.cache_load(spec)
        assert final is not None and result_to_dict(final) == expected
        # No abandoned temp files from the concurrent writers.
        assert not list(tmp_path.glob("*.tmp.*"))


class TestFaultTolerance:
    @fork_only
    def test_worker_death_lands_completed_results_before_raising(
        self, tmp_path, monkeypatch
    ):
        """Regression: a dying worker used to abort run() and discard the
        results that completed in the same wait() batch.  Everything
        finished must be landed (cached + streamed) before the raise."""
        from concurrent.futures.process import BrokenProcessPool

        goods = grid_specs()[:3]
        _inject_builder(monkeypatch, _exit_after_cache_fills(tmp_path, len(goods)))
        runner = BatchRunner(max_workers=2, cache_dir=tmp_path)
        landed = []
        with pytest.raises(BrokenProcessPool):
            runner.run(
                [crash_spec(), *goods], progress=lambda spec, result: landed.append(spec)
            )
        assert set(landed) == set(goods)
        assert len(list(tmp_path.glob("*.json"))) == len(goods)
        # The landed work is real: a fresh runner serves it from disk.
        rerun = BatchRunner(max_workers=1, cache_dir=tmp_path)
        rerun.run(goods)
        assert rerun.cache_hits == len(goods)

    @fork_only
    def test_worker_death_skip_attributes_failure_and_finishes_batch(
        self, monkeypatch
    ):
        """on_error='skip': the crashing spec is re-run in isolation and
        failed by identity; every innocent spec still gets its result."""
        _inject_builder(monkeypatch, lambda spec: os._exit(13))
        goods = grid_specs()
        specs = [crash_spec(), *goods]
        runner = BatchRunner(max_workers=2, on_error="skip")
        results = runner.run(specs)
        assert results[0] is None
        assert all(result is not None for result in results[1:])
        (failure,) = runner.failures
        assert failure.spec == crash_spec()
        assert "BrokenProcessPool" in failure.error
        # Innocent results are byte-identical to an uninjected serial run.
        clean = BatchRunner(max_workers=1).run(goods)
        assert as_bytes(results[1:]) == as_bytes(clean)

    @fork_only
    def test_worker_death_retry_counts_attempts(self, monkeypatch):
        _inject_builder(monkeypatch, lambda spec: os._exit(13))
        runner = BatchRunner(max_workers=2, on_error="retry", retries=1)
        results = runner.run([crash_spec(), *grid_specs()[:2]])
        assert results[0] is None
        (failure,) = runner.failures
        assert failure.attempts == 2  # the first try plus one retry

    @fork_only
    def test_worker_exception_raise_is_default(self, monkeypatch):
        def boom(spec):
            raise RuntimeError("injected failure")

        _inject_builder(monkeypatch, boom)
        with pytest.raises(RuntimeError, match="injected failure"):
            BatchRunner(max_workers=2).run([crash_spec(), *grid_specs()[:2]])

    @fork_only
    def test_worker_exception_skip_records_failure(self, monkeypatch):
        def boom(spec):
            raise RuntimeError("injected failure")

        _inject_builder(monkeypatch, boom)
        notified = []
        runner = BatchRunner(max_workers=2, on_error="skip")
        results = runner.run(
            [crash_spec(), *grid_specs()[:2]],
            on_failure=lambda spec, error: notified.append((spec, error)),
        )
        assert results[0] is None and None not in results[1:]
        (failure,) = runner.failures
        assert failure.spec == crash_spec() and failure.attempts == 1
        assert "injected failure" in failure.error
        assert notified == [(crash_spec(), failure.error)]

    @fork_only
    def test_retry_recovers_from_transient_failure(self, tmp_path, monkeypatch):
        """A spec that fails twice then succeeds completes under retry
        and is not recorded as a failure."""
        counter = tmp_path / "attempts"

        def flaky(spec):
            tries = len(counter.read_text().splitlines()) if counter.exists() else 0
            with open(counter, "a") as stream:
                stream.write("x\n")
            if tries < 2:
                raise RuntimeError(f"transient {tries}")

        _inject_builder(monkeypatch, flaky)
        runner = BatchRunner(max_workers=2, on_error="retry", retries=2)
        results = runner.run([crash_spec(), *grid_specs()[:2]])
        assert all(result is not None for result in results)
        assert runner.failures == ()
        assert len(counter.read_text().splitlines()) == 3

    def test_serial_path_honours_on_error(self, monkeypatch):
        """max_workers=1 runs in-process but keeps skip/retry semantics."""

        def boom(spec):
            raise RuntimeError("injected failure")

        _inject_builder(monkeypatch, boom)
        runner = BatchRunner(max_workers=1, on_error="skip")
        results = runner.run([crash_spec(), *grid_specs()[:2]])
        assert results[0] is None and None not in results[1:]
        (failure,) = runner.failures
        assert failure.spec == crash_spec()

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            BatchRunner(on_error="ignore")
        with pytest.raises(ValueError, match="retries"):
            BatchRunner(retries=-1)


def _break_at_submit(monkeypatch, at: int) -> dict[str, int]:
    """Make the ``at``-th ``pool.submit`` raise ``BrokenProcessPool`` once.

    Deterministic stand-in for a pool that broke between ``wait()`` and
    the next ``submit()``: there the executor refuses the submission
    itself, so the failure never surfaces from a future.
    """
    from concurrent.futures.process import BrokenProcessPool

    real_spawn = BatchRunner._spawn_pool
    counts = {"submits": 0, "pools": 0}

    def spawn(self, workers):
        pool = real_spawn(self, workers)
        counts["pools"] += 1
        real_submit = pool.submit

        def submit(*args, **kwargs):
            counts["submits"] += 1
            if counts["submits"] == at:
                raise BrokenProcessPool("injected: the pool broke before this submit")
            return real_submit(*args, **kwargs)

        pool.submit = submit
        return pool

    monkeypatch.setattr(BatchRunner, "_spawn_pool", spawn)
    return counts


class TestSubmitTimePoolBreak:
    @pytest.mark.parametrize("on_error", ["skip", "retry"])
    def test_spec_and_inflight_rerun_in_isolation(self, monkeypatch, on_error):
        counts = _break_at_submit(monkeypatch, at=3)
        specs = grid_specs()
        runner = BatchRunner(max_workers=2, on_error=on_error)
        results = runner.run(specs)
        assert runner.failures == ()  # nobody is blamed for a submit-time break
        assert counts["pools"] == 2  # the pool was respawned once
        assert as_bytes(results) == as_bytes(BatchRunner(max_workers=1).run(specs))

    def test_raise_mode_reraises(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        _break_at_submit(monkeypatch, at=2)
        with pytest.raises(BrokenProcessPool, match="before this submit"):
            BatchRunner(max_workers=2).run(grid_specs())


class TestCacheTempFiles:
    def test_store_temp_names_unique_per_write(self, tmp_path, monkeypatch):
        """Regression: temp names keyed only by pid collide when one
        process stores concurrently (threads, or re-stores)."""
        recorded = []
        real_replace = os.replace

        def spy(src, dst):
            recorded.append(str(src))
            real_replace(src, dst)

        monkeypatch.setattr(batch_module.os, "replace", spy)
        spec = RunSpec(workload="CTC", n_jobs=N_JOBS)
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        (result,) = runner.run([spec])
        for _ in range(4):
            runner.cache_store(spec, result)
        assert len(recorded) == 5
        assert len(set(recorded)) == 5  # every write used a fresh temp name

    def test_concurrent_stores_do_not_tear(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        spec = RunSpec(workload="CTC", n_jobs=N_JOBS)
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        (result,) = runner.run([spec])
        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [
                pool.submit(runner.cache_store, spec, result) for _ in range(32)
            ]:
                future.result()
        # One final file, valid JSON, no leftover temp files.
        (path,) = tmp_path.glob("*.json")
        json.loads(path.read_text())
        assert list(tmp_path.glob("*.tmp.*")) == []
        fresh = BatchRunner(max_workers=1, cache_dir=tmp_path)
        assert fresh.run([spec]) == [result]
        assert fresh.cache_hits == 1


class TestAggregatesMode:
    def test_aggregates_match_full_results(self):
        specs = grid_specs()
        full = BatchRunner(max_workers=1).run(specs)
        reduced = BatchRunner(max_workers=2, aggregates_only=True).run(specs)
        for full_result, agg in zip(full, reduced, strict=True):
            assert agg.is_aggregated
            assert agg.outcomes == ()
            assert as_bytes([agg]) == as_bytes([full_result.to_aggregates()])

    def test_full_cache_entry_serves_aggregates_request(self, tmp_path):
        specs = grid_specs()[:2]
        full = BatchRunner(max_workers=1, cache_dir=tmp_path)
        full_results = full.run(specs)
        agg = BatchRunner(max_workers=1, cache_dir=tmp_path, aggregates_only=True)
        agg_results = agg.run(specs)
        assert agg.cache_hits == 2 and agg.cache_misses == 0
        assert as_bytes(agg_results) == as_bytes(
            [result.to_aggregates() for result in full_results]
        )

    def test_aggregates_cache_entry_never_serves_full_request(self, tmp_path):
        specs = grid_specs()[:2]
        BatchRunner(max_workers=1, cache_dir=tmp_path, aggregates_only=True).run(specs)
        full = BatchRunner(max_workers=1, cache_dir=tmp_path)
        results = full.run(specs)
        assert full.cache_hits == 0 and full.cache_misses == 2
        assert all(not result.is_aggregated for result in results)

    def test_experiment_runner_plumbs_aggregates(self):
        runner = ExperimentRunner(n_jobs=N_JOBS, aggregates_only=True)
        result = runner.run(RunSpec(workload="CTC"))
        assert result.is_aggregated
        full = ExperimentRunner(n_jobs=N_JOBS).run(RunSpec(workload="CTC"))
        assert result.average_bsld() == full.average_bsld()
        assert result.energy == full.energy


class TestStreaming:
    def test_run_streaming_reduces_without_accumulating(self, tmp_path):
        specs = grid_specs()
        reduced: dict[RunSpec, float] = {}
        runner = BatchRunner(max_workers=2, cache_dir=tmp_path, aggregates_only=True)
        report = runner.run_streaming(
            specs, lambda spec, result: reduced.__setitem__(spec, result.average_bsld())
        )
        assert report.total == len(specs)
        assert report.unique == len(set(specs))
        assert report.completed == len(set(specs))
        assert report.failures == ()
        expected = BatchRunner(max_workers=1).run(specs)
        for spec, result in zip(specs, expected, strict=True):
            assert reduced[spec] == result.average_bsld()

    def test_run_streaming_includes_cache_hits(self, tmp_path):
        specs = grid_specs()[:3]
        runner = BatchRunner(max_workers=1, cache_dir=tmp_path)
        runner.run(specs)
        streamed = []
        rerun = BatchRunner(max_workers=1, cache_dir=tmp_path)
        report = rerun.run_streaming(specs, lambda spec, result: streamed.append(spec))
        assert sorted(streamed, key=str) == sorted(set(specs), key=str)
        assert report.cache_hits == 3 and report.completed == 3

    @fork_only
    def test_run_streaming_reports_failures(self, monkeypatch):
        def boom(spec):
            raise RuntimeError("injected failure")

        _inject_builder(monkeypatch, boom)
        runner = BatchRunner(max_workers=2, on_error="skip")
        seen = []
        report = runner.run_streaming(
            [crash_spec(), *grid_specs()[:2]], lambda spec, result: seen.append(spec)
        )
        assert len(seen) == 2
        assert report.completed == 2
        (failure,) = report.failures
        assert failure.spec == crash_spec()


class TestRunnerIntegration:
    """The acceptance path: parallel figure grids match serial ones."""

    def test_parallel_threshold_grid_byte_identical(self):
        workloads = ("CTC", "SDSC")
        kwargs = dict(bsld_thresholds=(2.0,), wq_thresholds=(0, None))
        serial_grid = threshold_grid(
            ExperimentRunner(n_jobs=N_JOBS), workloads=workloads, **kwargs
        )
        parallel_grid = threshold_grid(
            ExperimentRunner(n_jobs=N_JOBS, max_workers=4), workloads=workloads, **kwargs
        )
        assert set(serial_grid.runs) == set(parallel_grid.runs)
        for key, serial_run in serial_grid.runs.items():
            a = json.dumps(result_to_dict(serial_run), sort_keys=True)
            b = json.dumps(result_to_dict(parallel_grid.runs[key]), sort_keys=True)
            assert a == b
        for workload in workloads:
            assert serial_grid.baselines[workload] == parallel_grid.baselines[workload]

    def test_runner_run_uses_disk_cache(self, tmp_path):
        """Single-spec run() paths (advisor, figure 6) persist and reuse
        results when the runner has a cache_dir."""
        spec = RunSpec(workload="CTC")
        runner = ExperimentRunner(n_jobs=25, cache_dir=tmp_path)
        result = runner.run(spec)
        assert len(list(tmp_path.glob("*.json"))) == 1
        fresh = ExperimentRunner(n_jobs=25, cache_dir=tmp_path)
        assert fresh.run(spec) == result

    def test_cache_dir_alone_stays_serial(self, tmp_path):
        """A cache-only runner must not spawn one worker per CPU."""
        runner = ExperimentRunner(n_jobs=25, cache_dir=tmp_path)
        assert runner._batch is not None
        assert runner._batch.max_workers == 1

    def test_run_many_populates_runner_cache(self):
        runner = ExperimentRunner(n_jobs=N_JOBS, max_workers=2)
        specs = grid_specs()
        results = runner.run_many(specs)
        assert runner.cached_runs == len(set(specs))
        # follow-up lookups are cache hits returning identical objects
        for spec, result in zip(specs, results, strict=True):
            assert runner.run(spec) is result
