"""Tests for crash-safe sweeps: the manifest journal and resume."""

import json
import multiprocessing
import os

import pytest

import repro.batch as batch_module
from repro.experiments.config import PolicySpec, RunSpec
from repro.serialize import result_to_dict, spec_key
from repro.sweep import SweepManifest, run_sweep

N_JOBS = 30

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fault injection relies on fork sharing the patched module",
)


def sweep_specs() -> list[RunSpec]:
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


class _InterruptSweep(Exception):
    """Stands in for SIGKILL: aborts the sweep mid-flight."""


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_exactly_the_remaining_work(self, tmp_path):
        """Kill after K of N specs; the resume simulates exactly N - K
        and the final result list is byte-identical to an uninterrupted
        sweep."""
        specs = sweep_specs()
        n, k = len(specs), 2

        uninterrupted = run_sweep(
            specs,
            manifest_path=tmp_path / "reference.jsonl",
            cache_dir=tmp_path / "reference-cache",
            max_workers=1,
        )
        assert uninterrupted.completed == n and uninterrupted.skipped == 0

        manifest_path = tmp_path / "sweep.jsonl"
        cache_dir = tmp_path / "cache"
        landed = []

        def kill_after_k(spec, result):
            landed.append(spec)
            if len(landed) == k:
                raise _InterruptSweep()

        with pytest.raises(_InterruptSweep):
            run_sweep(
                specs,
                manifest_path=manifest_path,
                cache_dir=cache_dir,
                max_workers=1,
                progress=kill_after_k,
            )
        assert len(list(cache_dir.glob("*.json"))) == k
        assert SweepManifest.load(manifest_path).describe().startswith(f"{k}/{n}")

        resumed = run_sweep(
            specs,
            manifest_path=manifest_path,
            cache_dir=cache_dir,
            resume=True,
            max_workers=1,
        )
        assert resumed.completed == n - k  # exactly the unfinished work
        assert resumed.skipped == k
        assert resumed.failures == ()
        assert as_bytes(resumed.results) == as_bytes(uninterrupted.results)

        manifest = SweepManifest.load(manifest_path)
        assert manifest.remaining == 0 and manifest.failed == {}

    def test_completed_sweep_resumes_as_pure_cache_hits(self, tmp_path):
        specs = sweep_specs()[:3]
        first = run_sweep(
            specs, manifest_path=tmp_path / "m.jsonl", cache_dir=tmp_path / "c",
            max_workers=1,
        )
        again = run_sweep(
            specs, manifest_path=tmp_path / "m.jsonl", cache_dir=tmp_path / "c",
            resume=True, max_workers=1,
        )
        assert again.completed == 0 and again.skipped == len(specs)
        assert as_bytes(again.results) == as_bytes(first.results)

    def test_existing_manifest_without_resume_rejected(self, tmp_path):
        specs = sweep_specs()[:2]
        run_sweep(
            specs, manifest_path=tmp_path / "m.jsonl", cache_dir=tmp_path / "c",
            max_workers=1,
        )
        with pytest.raises(FileExistsError, match="resume"):
            run_sweep(
                specs, manifest_path=tmp_path / "m.jsonl", cache_dir=tmp_path / "c",
                max_workers=1,
            )

    def test_resume_with_different_grid_rejected(self, tmp_path):
        run_sweep(
            sweep_specs()[:2], manifest_path=tmp_path / "m.jsonl",
            cache_dir=tmp_path / "c", max_workers=1,
        )
        with pytest.raises(ValueError, match="different spec set"):
            run_sweep(
                sweep_specs()[2:4], manifest_path=tmp_path / "m.jsonl",
                cache_dir=tmp_path / "c", resume=True, max_workers=1,
            )

    def test_torn_trailing_line_tolerated(self, tmp_path):
        specs = sweep_specs()[:3]
        path = tmp_path / "m.jsonl"
        kwargs = dict(manifest_path=path, cache_dir=tmp_path / "c", max_workers=1)
        first = run_sweep(specs, **kwargs)
        body = path.read_bytes()
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"status": "do')  # crash mid-append
        manifest = SweepManifest.load(path)
        assert len(manifest.done) == len(specs)

        # Crash mid-append of a real record: the last "done" line loses
        # its tail.  Each resume must cut the fragment before appending,
        # or the next one finds a corrupt line that is no longer last.
        last = body.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(body[: last + 20])
        assert len(SweepManifest.load(path).done) == len(specs) - 1
        for _ in range(2):
            resumed = run_sweep(specs, resume=True, **kwargs)
            assert as_bytes(resumed.results) == as_bytes(first.results)
            assert resumed.completed == 0
        assert len(SweepManifest.load(path).done) == len(specs)
        assert path.read_bytes().endswith(b"\n")

    def test_corrupt_inner_line_refused(self, tmp_path):
        specs = sweep_specs()[:3]
        path = tmp_path / "m.jsonl"
        run_sweep(specs, manifest_path=path, cache_dir=tmp_path / "c", max_workers=1)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][:20] + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match="line 2"):
            SweepManifest.load(path)

    def test_duplicate_specs_count_once(self, tmp_path):
        spec = sweep_specs()[0]
        report = run_sweep(
            [spec, spec], manifest_path=tmp_path / "m.jsonl",
            cache_dir=tmp_path / "c", max_workers=1,
        )
        assert report.total == 1
        assert len(report.results) == 2
        assert as_bytes(report.results[:1]) == as_bytes(report.results[1:])


class TestFailureJournaling:
    @fork_only
    def test_failed_spec_journaled_by_identity_and_retried_on_resume(
        self, tmp_path, monkeypatch
    ):
        specs = sweep_specs()
        bad = specs[0]
        real = batch_module._build_simulation

        def dying(spec, validate):
            if spec == bad:
                os._exit(13)
            return real(spec, validate)

        monkeypatch.setattr(batch_module, "_build_simulation", dying)
        report = run_sweep(
            specs, manifest_path=tmp_path / "m.jsonl", cache_dir=tmp_path / "c",
            max_workers=2, on_error="skip",
        )
        assert report.results[0] is None
        assert all(result is not None for result in report.results[1:])
        (failure,) = report.failures
        assert failure.spec == bad

        manifest = SweepManifest.load(tmp_path / "m.jsonl")
        (entry,) = manifest.failed.values()
        assert entry["key"] == spec_key(bad)
        assert entry["spec"]["workload"] == bad.workload
        assert "BrokenProcessPool" in entry["error"]

        # "Fix the bug" (drop the injection) and resume: only the failed
        # spec is re-run, and the journal converges to fully done.
        monkeypatch.setattr(batch_module, "_build_simulation", real)
        resumed = run_sweep(
            specs, manifest_path=tmp_path / "m.jsonl", cache_dir=tmp_path / "c",
            resume=True, max_workers=1,
        )
        assert resumed.completed == 1 and resumed.skipped == len(specs) - 1
        assert all(result is not None for result in resumed.results)
        converged = SweepManifest.load(tmp_path / "m.jsonl")
        assert converged.remaining == 0 and converged.failed == {}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unbuildable_workload_journaled_failed(self, tmp_path, workers):
        """One bad SWF path fails its spec; the rest of the sweep lands."""
        good = sweep_specs()[0]
        bad = RunSpec(workload=str(tmp_path / "missing.swf"), source="swf", n_jobs=N_JOBS)
        report = run_sweep(
            [good, bad], manifest_path=tmp_path / "m.jsonl", cache_dir=tmp_path / "c",
            max_workers=workers,
        )
        assert report.results[0] is not None and report.results[1] is None
        (failure,) = report.failures
        assert failure.spec == bad and "FileNotFoundError" in failure.error
        manifest = SweepManifest.load(tmp_path / "m.jsonl")
        assert manifest.done == {spec_key(good)}
        assert set(manifest.failed) == {spec_key(bad)}


class TestManifestFormat:
    def test_header_records_version_total_digest(self, tmp_path):
        specs = sweep_specs()[:3]
        run_sweep(
            specs, manifest_path=tmp_path / "m.jsonl", cache_dir=tmp_path / "c",
            max_workers=1,
        )
        lines = (tmp_path / "m.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "sweep-manifest"
        assert header["total"] == 3
        assert header["digest"] == SweepManifest.digest_of(specs)
        assert all(json.loads(line)["status"] == "done" for line in lines[1:])

    def test_non_manifest_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-manifest.jsonl"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(ValueError, match="not a sweep manifest"):
            SweepManifest.load(path)

    def test_version_mismatch_rejected(self, tmp_path):
        specs = sweep_specs()[:2]
        path = tmp_path / "m.jsonl"
        run_sweep(specs, manifest_path=path, cache_dir=tmp_path / "c", max_workers=1)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 1
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        with pytest.raises(ValueError, match="format version"):
            SweepManifest.load(path)
