"""JSON round-trips for :class:`RunSpec` and :class:`SimulationResult`.

The codecs are exact: every float survives ``dumps``/``loads`` bit-for-bit
(Python serialises floats with their shortest round-tripping repr), so
``spec_from_dict(spec_to_dict(s)) == s`` and
``result_from_dict(result_to_dict(r)) == r`` hold with plain ``==``.
:class:`~repro.batch.BatchRunner` builds its on-disk result cache and
its worker protocol on top of these, and :func:`spec_key` derives the
cache key from the canonical spec JSON.

Results have one canonical encoding, :func:`canonical_result_bytes`
(sorted-key compact JSON of :func:`result_to_dict`), shared by the
result cache and the serve daemon.  Two columnar paths keep the per-job
outcome list off the per-object path where they can:

* :func:`result_to_bytes` writes a column-backed result
  (:class:`~repro.scheduling.columns.OutcomeColumns`, what the fused
  core returns) straight from its columns, byte-equal to the generic
  encoding; any other result takes the generic path.
* :func:`result_from_dict` decodes an outcome list straight into
  ``OutcomeColumns`` when numpy is importable and the columns represent
  the document exactly: every job has all its fields, times are finite
  floats, job ids are ints in strictly ascending order, every gear is on
  the machine's ladder and ``penalized_runtime == finish_time -
  start_time``.  Any other document, and every install without numpy,
  falls back to the per-outcome decoder, so both paths accept and
  reject exactly the same documents.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from math import isfinite, isinf
from operator import attrgetter, itemgetter
from typing import Any, Sequence

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

from repro.cluster.machine import Machine
from repro.cluster.power import SleepPolicy
from repro.core.gears import Gear, GearSet
from repro.experiments.config import InstrumentSpec, PolicySpec, RunSpec, _tupled
from repro.power.energy import EnergyReport, SleepEnergyBreakdown
from repro.scheduling.columns import OutcomeColumns
from repro.scheduling.job import Job, JobOutcome
from repro.scheduling.result import (
    InstrumentReport,
    ResultAggregates,
    SimulationResult,
    TimelinePoint,
)

__all__ = [
    "SpecValidationError",
    "jsonable",
    "spec_to_dict",
    "spec_from_dict",
    "spec_json",
    "spec_key",
    "result_to_dict",
    "result_to_bytes",
    "result_from_dict",
    "canonical_result_bytes",
]

#: Bumped whenever the serialised layout changes; cached results with a
#: different version are ignored rather than misread.
#: v2: specs gained ``instruments``, results gained instrument reports.
#: v3: specs gained ``sleep`` (in-engine node power-down); energy
#:     reports gained the ``sleep`` breakdown.
#: v4: results gained ``aggregates`` (the aggregates-only result mode;
#:     ``None`` for full results, whose layout is unchanged otherwise).
FORMAT_VERSION = 4


class SpecValidationError(ValueError):
    """A submitted document failed to decode.

    ``path`` locates the offending field inside the JSON document —
    ``"policy.kind"``, ``"instruments[2].name"``, ``"sleep"`` — with
    ``""`` standing for the document root, and ``reason`` says what is
    wrong with it.  The decoders below raise this (never a bare
    ``KeyError``) on malformed input, so callers holding untrusted
    documents — the serve daemon's 400 responses in particular — can
    point at the exact field.
    """

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"{path or 'document root'}: {reason}")
        self.path = path
        self.reason = reason


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require_mapping(data: Any, path: str) -> dict[str, Any]:
    if not isinstance(data, dict):
        raise SpecValidationError(
            path, f"expected an object, got {type(data).__name__}"
        )
    return data


def _require_list(data: Any, path: str) -> list[Any]:
    if not isinstance(data, list):
        raise SpecValidationError(path, f"expected an array, got {type(data).__name__}")
    return data


def _get(data: Any, key: str, path: str) -> Any:
    """Mandatory ``data[key]``, raising a located error on absence."""
    mapping = _require_mapping(data, path)
    try:
        return mapping[key]
    except KeyError:
        raise SpecValidationError(_join(path, key), "missing required field") from None


def jsonable(value: Any) -> Any:
    """Recursively coerce tuples to lists so a value JSON-round-trips.

    The encode-side inverse of
    :func:`repro.experiments.config._tupled` (which re-tuples on load
    for hashability); instrument reports and spec params both flow
    through this pair.
    """
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    return value


def _params_to_json(params: tuple[tuple[str, Any], ...]) -> list[list[Any]]:
    """Instrument params as JSON ([[key, value], ...]; tuples become lists)."""
    return [[key, jsonable(value)] for key, value in params]


def _params_from_json(data: list[list[Any]]) -> tuple[tuple[str, Any], ...]:
    return tuple((key, _tupled(value)) for key, value in data)


# -- RunSpec ------------------------------------------------------------------
def _sleep_to_dict(sleep: SleepPolicy | None) -> dict[str, float | None] | None:
    if sleep is None:
        return None
    after = sleep.sleep_after_seconds
    return {
        # ``inf`` (the never-sleeps configuration) maps to null so the
        # emitted document stays strict JSON — json.dump would otherwise
        # write the non-standard ``Infinity`` token.
        "sleep_after_seconds": None if isinf(after) else after,
        "sleep_power_fraction": sleep.sleep_power_fraction,
        "wake_energy_idle_seconds": sleep.wake_energy_idle_seconds,
        "wake_seconds": sleep.wake_seconds,
    }


def _sleep_from_dict(
    data: dict[str, Any] | None, path: str = "sleep"
) -> SleepPolicy | None:
    if data is None:
        return None
    fields = dict(_require_mapping(data, path))
    if fields.get("sleep_after_seconds") is None:
        fields["sleep_after_seconds"] = float("inf")
    try:
        return SleepPolicy(**fields)
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(path, str(exc)) from exc


def spec_to_dict(spec: RunSpec) -> dict[str, Any]:
    """A JSON-ready dict capturing every identity field of ``spec``.

    ``engine`` is deliberately omitted: lanes are pinned byte-identical,
    so the canonical JSON — and therefore :func:`spec_key` — must not
    depend on which core executes the run (cached and served results
    are shared across lanes).
    """
    return {
        "workload": spec.workload,
        "policy": {
            "kind": spec.policy.kind,
            "bsld_threshold": spec.policy.bsld_threshold,
            "wq_threshold": spec.policy.wq_threshold,
            "strict_top_backfill": spec.policy.strict_top_backfill,
            "fixed_frequency": spec.policy.fixed_frequency,
            "boost_trigger": spec.policy.boost_trigger,
        },
        "n_jobs": spec.n_jobs,
        "seed": spec.seed,
        "size_factor": spec.size_factor,
        "beta": spec.beta,
        "scheduler": spec.scheduler,
        "power_model": spec.power_model,
        "source": spec.source,
        "record_timeline": spec.record_timeline,
        "instruments": [
            {"name": inst.name, "params": _params_to_json(inst.params)}
            for inst in spec.instruments
        ],
        "sleep": _sleep_to_dict(spec.sleep),
    }


def spec_from_dict(data: dict[str, Any]) -> RunSpec:
    """Decode :func:`spec_to_dict` output back into a :class:`RunSpec`.

    Malformed documents raise :class:`SpecValidationError` locating the
    offending field — never a bare ``KeyError``/``TypeError``.
    """
    policy = _require_mapping(_get(data, "policy", ""), "policy")
    try:
        decoded_policy = PolicySpec(
            kind=_get(policy, "kind", "policy"),
            bsld_threshold=_get(policy, "bsld_threshold", "policy"),
            wq_threshold=_get(policy, "wq_threshold", "policy"),
            strict_top_backfill=_get(policy, "strict_top_backfill", "policy"),
            fixed_frequency=_get(policy, "fixed_frequency", "policy"),
            boost_trigger=_get(policy, "boost_trigger", "policy"),
        )
    except SpecValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecValidationError("policy", str(exc)) from exc
    instruments: list[InstrumentSpec] = []
    raw_instruments = _require_list(data.get("instruments", []), "instruments")
    for index, inst in enumerate(raw_instruments):
        inst_path = f"instruments[{index}]"
        params = _require_list(
            _get(inst, "params", inst_path), _join(inst_path, "params")
        )
        try:
            instruments.append(
                InstrumentSpec(
                    name=_get(inst, "name", inst_path),
                    params=_params_from_json(params),
                )
            )
        except SpecValidationError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecValidationError(inst_path, str(exc)) from exc
    try:
        return RunSpec(
            workload=_get(data, "workload", ""),
            policy=decoded_policy,
            n_jobs=_get(data, "n_jobs", ""),
            seed=_get(data, "seed", ""),
            size_factor=_get(data, "size_factor", ""),
            beta=_get(data, "beta", ""),
            scheduler=_get(data, "scheduler", ""),
            power_model=_get(data, "power_model", ""),
            source=_get(data, "source", ""),
            record_timeline=_get(data, "record_timeline", ""),
            instruments=tuple(instruments),
            sleep=_sleep_from_dict(data.get("sleep"), "sleep"),
        )
    except SpecValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecValidationError("", str(exc)) from exc


def spec_json(spec: RunSpec) -> str:
    """Canonical (sorted-key, compact) JSON for ``spec``."""
    return json.dumps(spec_to_dict(spec), sort_keys=True, separators=(",", ":"))


def spec_key(spec: RunSpec) -> str:
    """A stable filesystem-safe cache key for ``spec``."""
    return hashlib.sha256(spec_json(spec).encode("utf-8")).hexdigest()[:32]


# -- SimulationResult ---------------------------------------------------------
def _gear_to_dict(gear: Gear) -> dict[str, float]:
    return {"frequency": gear.frequency, "voltage": gear.voltage}


def _gear_from_dict(data: dict[str, float], path: str = "") -> Gear:
    return Gear(
        frequency=_get(data, "frequency", path), voltage=_get(data, "voltage", path)
    )


def _job_to_dict(job: Job) -> dict[str, Any]:
    return {
        "job_id": job.job_id,
        "submit_time": job.submit_time,
        "runtime": job.runtime,
        "requested_time": job.requested_time,
        "size": job.size,
        "user_id": job.user_id,
        "group_id": job.group_id,
        "executable": job.executable,
        "beta": job.beta,
    }


def _job_from_dict(data: dict[str, Any], path: str = "") -> Job:
    try:
        return Job(**_require_mapping(data, path))
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(path, str(exc)) from exc


def _outcome_to_dict(outcome: JobOutcome) -> dict[str, Any]:
    return {
        "job": _job_to_dict(outcome.job),
        "start_time": outcome.start_time,
        "finish_time": outcome.finish_time,
        "gear": _gear_to_dict(outcome.gear),
        "penalized_runtime": outcome.penalized_runtime,
        "energy": outcome.energy,
        "was_reduced": outcome.was_reduced,
    }


def _outcome_from_dict(data: dict[str, Any], path: str = "") -> JobOutcome:
    return JobOutcome(
        job=_job_from_dict(_get(data, "job", path), _join(path, "job")),
        start_time=_get(data, "start_time", path),
        finish_time=_get(data, "finish_time", path),
        gear=_gear_from_dict(_get(data, "gear", path), _join(path, "gear")),
        penalized_runtime=_get(data, "penalized_runtime", path),
        energy=_get(data, "energy", path),
        was_reduced=_get(data, "was_reduced", path),
    )


def _aggregates_to_dict(aggregates: ResultAggregates | None) -> dict[str, Any] | None:
    if aggregates is None:
        return None
    return {
        "job_count": aggregates.job_count,
        "bsld_threshold": aggregates.bsld_threshold,
        "average_bsld": aggregates.average_bsld,
        "bsld_p50": aggregates.bsld_p50,
        "bsld_p90": aggregates.bsld_p90,
        "bsld_p99": aggregates.bsld_p99,
        "bsld_max": aggregates.bsld_max,
        "average_wait": aggregates.average_wait,
        "reduced_jobs": aggregates.reduced_jobs,
        "makespan": aggregates.makespan,
        "gear_histogram": [
            [_gear_to_dict(gear), count] for gear, count in aggregates.gear_histogram
        ],
    }


def _aggregates_from_dict(
    data: dict[str, Any] | None, path: str = "aggregates"
) -> ResultAggregates | None:
    if data is None:
        return None
    fields = dict(_require_mapping(data, path))
    hist_path = _join(path, "gear_histogram")
    entries = _require_list(_get(fields, "gear_histogram", path), hist_path)
    try:
        fields["gear_histogram"] = tuple(
            (_gear_from_dict(gear, f"{hist_path}[{index}]"), count)
            for index, (gear, count) in enumerate(entries)
        )
        return ResultAggregates(**fields)
    except SpecValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(path, str(exc)) from exc


def _result_document(
    result: SimulationResult, outcomes: list[dict[str, Any]]
) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "machine": {
            "name": result.machine.name,
            "total_cpus": result.machine.total_cpus,
            "gears": [_gear_to_dict(g) for g in result.machine.gears],
        },
        "policy": result.policy,
        "outcomes": outcomes,
        "energy": {
            "computational": result.energy.computational,
            "idle": result.energy.idle,
            "busy_cpu_seconds": result.energy.busy_cpu_seconds,
            "idle_cpu_seconds": result.energy.idle_cpu_seconds,
            "span": result.energy.span,
            "sleep": (
                None
                if result.energy.sleep is None
                else {
                    "idle_awake_cpu_seconds": result.energy.sleep.idle_awake_cpu_seconds,
                    "asleep_cpu_seconds": result.energy.sleep.asleep_cpu_seconds,
                    "wake_count": result.energy.sleep.wake_count,
                    "sleep_power_fraction": result.energy.sleep.sleep_power_fraction,
                    "wake_energy_idle_seconds": result.energy.sleep.wake_energy_idle_seconds,
                    "wake_stall_cpu_seconds": result.energy.sleep.wake_stall_cpu_seconds,
                    "wake_delay_seconds_total": result.energy.sleep.wake_delay_seconds_total,
                    "wake_delayed_jobs": result.energy.sleep.wake_delayed_jobs,
                }
            ),
        },
        "events_processed": result.events_processed,
        "timeline": [
            {"time": p.time, "queued_jobs": p.queued_jobs, "busy_cpus": p.busy_cpus}
            for p in result.timeline
        ],
        "instruments": [
            {"name": report.name, "summary": report.summary}
            for report in result.instruments
        ],
        "aggregates": _aggregates_to_dict(result.aggregates),
    }


def result_to_dict(result: SimulationResult) -> dict[str, Any]:
    """A JSON-ready dict capturing the result (full or aggregates-only)."""
    return _result_document(result, [_outcome_to_dict(o) for o in result.outcomes])


#: Sorted-key compact JSON, the canonical encoding of a result document.
_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_result_bytes(payload: dict[str, Any]) -> bytes:
    """The canonical encoding of a result document: sorted-key compact JSON.

    Both sides of the serve daemon's byte-identity contract use it (the
    worker that encodes a finished run, and any client comparing against
    an in-process ``result_to_dict(Simulation(spec).run())``), and the
    result cache stores it.
    """
    return _canonical(payload).encode("utf-8")


def result_to_bytes(result: SimulationResult) -> bytes:
    """``canonical_result_bytes(result_to_dict(result))``, built faster.

    A column-backed result has its outcome list written straight from
    the columns; every other result goes through :func:`result_to_dict`.
    The sorted top-level keys put ``outcomes`` between ``machine`` and
    ``policy``, so the other keys are encoded in two halves around it.
    """
    outcomes = result.outcomes
    if not isinstance(outcomes, OutcomeColumns) or not outcomes:
        return canonical_result_bytes(result_to_dict(result))
    document = _result_document(result, [])
    head = _canonical({key: value for key, value in document.items() if key < "outcomes"})
    tail = _canonical({key: value for key, value in document.items() if key > "outcomes"})
    body = _columns_json(outcomes)
    return f'{head[:-1]},"outcomes":[{body}],{tail[1:]}'.encode("utf-8")


#: Job fields in canonical (sorted) key order, and in declaration order.
_JOB_KEYS = tuple(sorted(field.name for field in fields(Job)))
_JOB_FIELDS = tuple(field.name for field in fields(Job))

_JSON_BOOL = ("false", "true")


def _kinds(values: Sequence[Any]) -> set[type]:
    return set(map(type, values))


def _slot(values: Sequence[Any]) -> tuple[str, Sequence[Any] | None]:
    """How one column is written: a ``%`` slot and the values that fill it.

    ``%r`` writes an int or a finite float exactly as ``json`` does, so
    the common columns are filled as they are; an all-null column is a
    literal, booleans are looked up, and anything else is encoded value
    by value.
    """
    kinds = _kinds(values)
    if kinds == {int} or (kinds == {float} and all(map(isfinite, values))):
        return "%r", values
    if kinds == {type(None)}:
        return "null", None
    if kinds == {bool}:
        return "%s", [_JSON_BOOL[value] for value in values]
    return "%s", [_canonical(value) for value in values]


def _columns_json(columns: OutcomeColumns) -> str:
    """The outcome list of a column-backed result as canonical JSON text.

    One ``%`` template per outcome, its keys in sorted order, filled row
    by row.  ``penalized_runtime`` is ``finish - start`` in float64, the
    expression materialising an outcome uses.
    """
    gear_json = [_canonical(_gear_to_dict(gear)) for gear in columns.ladder]
    jobs = map(attrgetter(*_JOB_KEYS), columns.jobs)
    job_slots = [_slot(values) for values in zip(*jobs, strict=True)]
    slots = [
        _slot(columns.energy.tolist()),
        _slot(columns.finish.tolist()),
        ("%s", [gear_json[index] for index in columns.gear_index.tolist()]),
        *job_slots,
        _slot((columns.finish - columns.start).tolist()),
        _slot(columns.start.tolist()),
        _slot(columns.was_reduced.tolist()),
    ]
    formats = [slot for slot, _ in slots]
    job = ",".join(f'"{key}":{slot}' for key, slot in zip(_JOB_KEYS, formats[3:-3], strict=True))
    template = (
        '{"energy":%s,"finish_time":%s,"gear":%s,"job":{%s},'
        '"penalized_runtime":%s,"start_time":%s,"was_reduced":%s}'
    ) % (*formats[:3], job, *formats[-3:])
    values = [column for _, column in slots if column is not None]
    return ",".join(map(template.__mod__, zip(*values, strict=True)))


_OUTCOME_ITEMS = itemgetter(
    "job", "start_time", "finish_time", "gear", "penalized_runtime", "energy", "was_reduced"
)
_GEAR_ITEMS = itemgetter("frequency", "voltage")
_JOB_ITEMS = itemgetter(*_JOB_FIELDS)


def _outcome_columns(
    outcomes: list[Any], ladder: tuple[Gear, ...]
) -> OutcomeColumns | None:
    """Decode an outcome list straight into columns, or None to fall back.

    Only documents that the per-outcome decoder accepts *and* that the
    columns represent exactly come back decoded; for anything else this
    returns None and the per-outcome decoder judges the document.  The
    checks :class:`Job` and :class:`JobOutcome` make on construction run
    here on whole columns, so the jobs are built without re-running
    them.  Unchecked job fields (``user_id``, ``group_id``,
    ``executable``) are kept as they are, as the per-outcome decoder
    keeps them.
    """
    if _np is None or not outcomes:
        return None
    # Float-valued gears only: an int-valued ladder gear equals, but
    # does not encode like, the float gear an outcome names.
    ladder_index = {
        (gear.frequency, gear.voltage): index
        for index, gear in enumerate(ladder)
        if type(gear.frequency) is float and type(gear.voltage) is float
    }
    try:
        job_docs, start, finish, gears, penalized, energy, reduced = zip(
            *map(_OUTCOME_ITEMS, outcomes), strict=True
        )
        if set(map(len, job_docs)) != {len(_JOB_FIELDS)}:
            return None  # a defaulted or unknown job field
        job_rows = list(map(_JOB_ITEMS, job_docs))
        frequency, voltage = zip(*map(_GEAR_ITEMS, gears), strict=True)
        if _kinds(frequency) != {float} or _kinds(voltage) != {float}:
            return None
        gear_index = [ladder_index[key] for key in zip(frequency, voltage, strict=True)]
    except (KeyError, TypeError):
        return None  # a missing key, a non-object, or a gear off the ladder
    job_id, submit, runtime, requested, size, _user, _group, _exe, beta = zip(
        *job_rows, strict=True
    )
    if not (
        _kinds(job_id) == _kinds(size) == {int}
        and _kinds(reduced) == {bool}
        and _kinds(beta) <= {float, type(None)}
        and all(
            _kinds(column) == {float}
            for column in (submit, runtime, requested, start, finish, penalized, energy)
        )
    ):
        return None  # e.g. int-valued times, which columns would turn into floats
    starts, finishes, energies = _np.array(start), _np.array(finish), _np.array(energy)
    submits = _np.array(submit)
    floats = (starts, finishes, energies, submits, _np.array(runtime), _np.array(requested))
    if not (
        all(_np.isfinite(column).all() for column in floats)
        and all(map(int.__lt__, job_id, job_id[1:]))
        and min(size) > 0
        and min(runtime) >= 0.0
        and min(requested) > 0.0
        and min(submit) >= 0.0
        and all(b is None or 0.0 <= b <= 1.0 for b in beta)
        and (starts >= submits - 1e-9).all()
        and (finishes >= starts - 1e-9).all()
        # Bit for bit, so a -0.0 is not taken for the 0.0 it equals.
        and (_np.array(penalized).view(_np.int64) == (finishes - starts).view(_np.int64)).all()
    ):
        # Either the per-outcome decoder raises here (a failed Job or
        # JobOutcome check, ids out of order) or it keeps what columns
        # cannot hold (equal ids, a non-finite time, a penalized runtime
        # that is not finish - start).
        return None
    new = Job.__new__
    jobs: list[Job] = []
    for row in job_rows:
        job = new(Job)
        job.__dict__.update(zip(_JOB_FIELDS, row, strict=True))
        jobs.append(job)
    return OutcomeColumns(
        tuple(jobs),
        ladder,
        starts,
        finishes,
        _np.array(gear_index, dtype=_np.int64),
        energies,
        _np.array(reduced, dtype=bool),
    )


def _energy_from_dict(data: dict[str, Any], path: str = "energy") -> EnergyReport:
    mapping = _require_mapping(data, path)
    sleep = mapping.get("sleep")
    if sleep is not None:
        _require_mapping(sleep, _join(path, "sleep"))
    try:
        return EnergyReport(
            **{key: value for key, value in mapping.items() if key != "sleep"},
            sleep=None if sleep is None else SleepEnergyBreakdown(**sleep),
        )
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(path, str(exc)) from exc


def _timeline_from_list(data: list[Any]) -> tuple[TimelinePoint, ...]:
    points = []
    for index, point in enumerate(data):
        path = f"timeline[{index}]"
        try:
            points.append(TimelinePoint(**_require_mapping(point, path)))
        except SpecValidationError:
            raise
        except TypeError as exc:
            raise SpecValidationError(path, str(exc)) from exc
    return tuple(points)


def result_from_dict(data: dict[str, Any]) -> SimulationResult:
    """Decode :func:`result_to_dict` output (column-backed where it can be).

    Raises :class:`SpecValidationError` (a ``ValueError``) locating the
    offending field on malformed documents; a plain ``ValueError`` on a
    format-version mismatch.
    """
    version = _require_mapping(data, "").get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported result format version {version!r} (expected {FORMAT_VERSION})"
        )
    machine = _require_mapping(_get(data, "machine", ""), "machine")
    gears = _require_list(_get(machine, "gears", "machine"), "machine.gears")
    outcomes = _require_list(_get(data, "outcomes", ""), "outcomes")
    reports = _require_list(data.get("instruments", []), "instruments")
    try:
        decoded_machine = Machine(
            name=_get(machine, "name", "machine"),
            total_cpus=_get(machine, "total_cpus", "machine"),
            gears=GearSet(
                [
                    _gear_from_dict(g, f"machine.gears[{index}]")
                    for index, g in enumerate(gears)
                ]
            ),
        )
    except SpecValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecValidationError("machine", str(exc)) from exc
    columns = _outcome_columns(outcomes, decoded_machine.gears.ascending())
    try:
        return SimulationResult(
            machine=decoded_machine,
            policy=_get(data, "policy", ""),
            outcomes=columns
            if columns is not None
            else tuple(
                _outcome_from_dict(o, f"outcomes[{index}]")
                for index, o in enumerate(outcomes)
            ),
            energy=_energy_from_dict(_get(data, "energy", ""), "energy"),
            events_processed=_get(data, "events_processed", ""),
            timeline=_timeline_from_list(
                _require_list(_get(data, "timeline", ""), "timeline")
            ),
            instruments=tuple(
                InstrumentReport(
                    name=_get(report, "name", f"instruments[{index}]"),
                    summary=_get(report, "summary", f"instruments[{index}]"),
                )
                for index, report in enumerate(reports)
            ),
            aggregates=_aggregates_from_dict(data.get("aggregates"), "aggregates"),
        )
    except SpecValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecValidationError("", str(exc)) from exc
