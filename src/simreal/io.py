"""Serialization: scenario files, submission archives, configs, and reports.

Two interchange forms exist for scenarios and rollout bundles:

* JSON, the readable reference format.
* A versioned binary format: an 8-byte magic ``SMRLBIN1`` followed by
  records, each ``[kind:u8][length:u64le][payload]``.  Payload scalars are
  little-endian; floats are 64-bit.  Record kinds: 1 = scenario,
  2 = scenario rollouts.  A rollouts payload stores its (K, A, T, 4) pose
  tensor as one contiguous block, so it decodes with a single
  ``np.frombuffer``.  Unknown record kinds and payload bytes left over after
  parsing are errors.

A submission archive is a tar compressed at gzip level 4, holding
``manifest.json`` plus binary shards named ``rollouts.<index>-of-<total>.bin``,
each shard holding many rollout records.  Archives are written
deterministically (fixed timestamps, sorted members) so identical inputs
produce identical bytes.
Reading drains the gzip stream to its end, so a corrupt CRC32 or length
trailer is a ``ParseError`` like any other damage.
"""

from __future__ import annotations

import csv
import gzip
import io as _io
import json
import math
import re
import struct
import tarfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .aggregation import MetricsBundle
from .config import EvalConfig, config_from_dict, config_to_dict
from .errors import ParseError
from .evaluate import DatasetSummary
from .features import METRIC_ORDER
from .scene import (
    DEFAULT_ROLLOUT_COUNT,
    MapFeature,
    MapFeatureKind,
    ObjectType,
    Scenario,
    ScenarioRollouts,
    Track,
    rollout_problems,
)

MAGIC = b"SMRLBIN1"
FORMAT_VERSION = 1
_KIND_SCENARIO = 1
_KIND_ROLLOUTS = 2

SHARD_NAME_RE = re.compile(r"rollouts\.(\d+)-of-(\d+)\.bin$")
_DRAIN_CHUNK = 1 << 16
# Archives compress at gzip level 4: about 7x faster to write than level 9,
# and within 1% of its size on rollout shards.  Readers are level-agnostic.
_ARCHIVE_COMPRESSLEVEL = 4


# ---------------------------------------------------------------------------
# JSON scenario form.


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    return {
        "format_version": FORMAT_VERSION,
        "scenario_id": scenario.scenario_id,
        "timestep": scenario.timestep,
        "history_length": scenario.history_length,
        "future_length": scenario.future_length,
        "av_track_id": scenario.av_track_id,
        "tracks": [
            {
                "object_id": t.object_id,
                "object_type": t.object_type.value,
                "length": t.length,
                "width": t.width,
                "height": t.height,
                "states": [
                    {"x": x, "y": y, "z": z, "heading": h, "valid": v}
                    for (x, y, z, h), v in zip(t.poses.tolist(), t.valid.tolist())
                ],
            }
            for t in scenario.tracks
        ],
        "map_features": [
            {
                "feature_id": f.feature_id,
                "kind": f.kind.value,
                "polyline": [list(p) for p in f.polyline],
            }
            for f in scenario.map_features
        ],
    }


def scenario_from_dict(data: Mapping[str, Any], path: str | None = None) -> Scenario:
    try:
        tracks = tuple(
            Track(
                object_id=int(t["object_id"]),
                object_type=ObjectType(t["object_type"]),
                length=float(t["length"]),
                width=float(t["width"]),
                height=float(t["height"]),
                poses=np.array(
                    [
                        (float(s["x"]), float(s["y"]), float(s["z"]), float(s["heading"]))
                        for s in t["states"]
                    ]
                ).reshape(-1, 4),
                valid=[bool(s["valid"]) for s in t["states"]],
            )
            for t in data["tracks"]
        )
        features = tuple(
            MapFeature(
                feature_id=int(f["feature_id"]),
                kind=MapFeatureKind(f["kind"]),
                polyline=tuple((float(x), float(y)) for x, y in f["polyline"]),
            )
            for f in data["map_features"]
        )
        return Scenario(
            scenario_id=str(data["scenario_id"]),
            tracks=tracks,
            map_features=features,
            av_track_id=int(data["av_track_id"]),
            timestep=float(data.get("timestep", 0.1)),
            history_length=int(data.get("history_length", 11)),
            future_length=int(data.get("future_length", 80)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad scenario document: {exc}", path=path) from exc


# ---------------------------------------------------------------------------
# Binary record framing.


class _Reader:
    """A cursor over ``data``, which starts ``base`` bytes into the file."""

    def __init__(self, data: bytes, path: str | None, base: int = 0):
        self.data = data
        self.path = path
        self.base = base
        self.pos = 0

    def fail(self, message: str):
        raise ParseError(message, path=self.path, offset=self.base + self.pos)

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            self.fail(f"truncated: needed {n} bytes, {len(self.data) - self.pos} left")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def floats(self, *shape: int) -> np.ndarray:
        """A read-only float64 view of the next ``prod(shape)`` values."""
        raw = self.take(8 * math.prod(shape))
        return np.frombuffer(raw, dtype="<f8").reshape(shape)

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.data)


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _read_str(r: _Reader) -> str:
    (n,) = r.unpack("H")
    start = r.pos
    try:
        return r.take(n).decode("utf-8")
    except UnicodeDecodeError as exc:
        r.pos = start + exc.start
        r.fail(f"string is not valid UTF-8: {exc.reason}")


def _scenario_payload(scenario: Scenario) -> bytes:
    parts = [_pack_str(scenario.scenario_id)]
    parts.append(
        struct.pack(
            "<dHHq",
            scenario.timestep,
            scenario.history_length,
            scenario.future_length,
            scenario.av_track_id,
        )
    )
    parts.append(struct.pack("<I", len(scenario.tracks)))
    for t in scenario.tracks:
        parts.append(
            struct.pack("<qB3d", t.object_id, _TYPE_CODE[t.object_type], t.length, t.width, t.height)
        )
        parts.append(t.poses.astype("<f8").tobytes())
        parts.append(t.valid.astype(np.uint8).tobytes())
    parts.append(struct.pack("<I", len(scenario.map_features)))
    for f in scenario.map_features:
        pts = np.array(f.polyline, dtype="<f8")
        parts.append(struct.pack("<qBI", f.feature_id, _MAP_CODE[f.kind], len(f.polyline)))
        parts.append(pts.tobytes())
    return b"".join(parts)


_TYPE_CODE = {ObjectType.VEHICLE: 0, ObjectType.PEDESTRIAN: 1, ObjectType.CYCLIST: 2}
_TYPE_FROM_CODE = {v: k for k, v in _TYPE_CODE.items()}
_MAP_CODE = {MapFeatureKind.ROAD_EDGE: 0, MapFeatureKind.LANE_CENTER: 1, MapFeatureKind.OTHER: 2}
_MAP_FROM_CODE = {v: k for k, v in _MAP_CODE.items()}


def _scenario_from_payload(r: _Reader) -> Scenario:
    scenario_id = _read_str(r)
    timestep, h, t, av_id = r.unpack("dHHq")
    n_states = h + t
    (n_tracks,) = r.unpack("I")
    tracks = []
    for _ in range(n_tracks):
        oid, code, length, width, height = r.unpack("qB3d")
        if code not in _TYPE_FROM_CODE:
            r.fail(f"unknown object type code {code}")
        poses = r.floats(n_states, 4)
        flags = np.frombuffer(r.take(n_states), dtype=np.uint8)
        tracks.append(
            Track(
                object_id=oid,
                object_type=_TYPE_FROM_CODE[code],
                length=length,
                width=width,
                height=height,
                poses=poses,
                valid=flags != 0,
            )
        )
    (n_feats,) = r.unpack("I")
    feats = []
    for _ in range(n_feats):
        fid, code, n_pts = r.unpack("qBI")
        if code not in _MAP_FROM_CODE:
            r.fail(f"unknown map feature code {code}")
        pts = r.floats(n_pts, 2)
        feats.append(
            MapFeature(feature_id=fid, kind=_MAP_FROM_CODE[code], polyline=tuple(map(tuple, pts)))
        )
    return Scenario(
        scenario_id=scenario_id,
        tracks=tuple(tracks),
        map_features=tuple(feats),
        av_track_id=av_id,
        timestep=timestep,
        history_length=h,
        future_length=t,
    )


def _rollouts_payload(rollouts: ScenarioRollouts) -> bytes:
    k, n_ids, n_steps, _ = rollouts.rollouts.shape
    return b"".join(
        [
            _pack_str(rollouts.scenario_id),
            struct.pack("<IIH", k, n_ids, n_steps),
            rollouts.ids.astype("<i8").tobytes(),
            rollouts.rollouts.astype("<f8").tobytes(),
        ]
    )


def _rollouts_from_payload(r: _Reader) -> ScenarioRollouts:
    scenario_id = _read_str(r)
    k, n_ids, n_steps = r.unpack("IIH")
    ids = np.frombuffer(r.take(8 * n_ids), dtype="<i8")
    return ScenarioRollouts(scenario_id, ids, r.floats(k, n_ids, n_steps, 4))


def _write_records(records: Iterable[tuple[int, bytes]]) -> bytes:
    out = [MAGIC]
    for kind, payload in records:
        out.append(struct.pack("<BQ", kind, len(payload)))
        out.append(payload)
    return b"".join(out)


def _read_records(data: bytes, path: str | None) -> list[tuple[int, _Reader]]:
    r = _Reader(data, path)
    if r.take(len(MAGIC)) != MAGIC:
        r.pos = 0
        r.fail("bad magic; not a binary scenario/rollout file")
    out = []
    while not r.exhausted:
        start = r.pos
        kind, length = r.unpack("BQ")
        if kind not in (_KIND_SCENARIO, _KIND_ROLLOUTS):
            r.pos = start
            r.fail(f"unknown record kind {kind}")
        payload = r.take(length)
        out.append((kind, _Reader(payload, path, base=r.pos - length)))
    return out


def _parse_whole(r: _Reader, parse):
    """Parse one record payload, which must be consumed exactly."""
    value = parse(r)
    if not r.exhausted:
        r.fail(f"{len(r.data) - r.pos} unparsed bytes at the end of the record")
    return value


# ---------------------------------------------------------------------------
# Scenario file round trip.


def write_scenario(scenario: Scenario, path: str | Path, fmt: str | None = None) -> None:
    path = Path(path)
    fmt = fmt or ("binary" if path.suffix == ".bin" else "json")
    if fmt == "json":
        path.write_text(json.dumps(scenario_to_dict(scenario), indent=1, sort_keys=True))
    elif fmt == "binary":
        path.write_bytes(_write_records([(_KIND_SCENARIO, _scenario_payload(scenario))]))
    else:
        raise ValueError(f"unknown scenario format {fmt!r}")


def read_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if path.suffix == ".bin":
        records = _read_records(path.read_bytes(), str(path))
        for kind, payload in records:
            if kind == _KIND_SCENARIO:
                return _parse_whole(payload, _scenario_from_payload)
        raise ParseError("no scenario record in file", path=str(path))
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}", path=str(path)) from exc
    return scenario_from_dict(data, path=str(path))


def write_scenario_dir(items: Iterable, out_dir: str | Path, fmt: str = "json") -> list[Path]:
    """Write scenarios (plus fixtures, for synthetic ones) into a directory."""
    from .synth import SynthScenario  # local import to keep io importable standalone

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for item in items:
        fixtures = None
        scenario = item
        if isinstance(item, SynthScenario):
            scenario, fixtures = item.scenario, item.fixtures
        suffix = ".bin" if fmt == "binary" else ".json"
        path = out_dir / f"{scenario.scenario_id}{suffix}"
        write_scenario(scenario, path, fmt)
        written.append(path)
        if fixtures is not None:
            fx_doc = {
                str(oid): {
                    metric.value: {
                        "values": [float(v) for v in series.values],
                        "valid": [bool(b) for b in series.valid],
                    }
                    for metric, series in per_metric.items()
                }
                for oid, per_metric in fixtures.items()
            }
            (out_dir / f"{scenario.scenario_id}.fixtures.json").write_text(
                json.dumps(fx_doc, sort_keys=True)
            )
    return written


def read_scenario_dir(dir_path: str | Path) -> dict[str, Scenario]:
    dir_path = Path(dir_path)
    out: dict[str, Scenario] = {}
    for path in sorted(dir_path.iterdir()):
        if path.name.endswith(".fixtures.json") or path.name.endswith("manifest.json"):
            continue
        if path.suffix not in (".json", ".bin"):
            continue
        scenario = read_scenario(path)
        out[scenario.scenario_id] = scenario
    if not out:
        raise ParseError("no scenario files found", path=str(dir_path))
    return out


# ---------------------------------------------------------------------------
# Submission archives.


@dataclass(frozen=True)
class SubmissionArchive:
    """A parsed submission: manifest plus (shard name, rollouts) entries.

    Entries are as stored; :func:`match_scenarios` pairs them with a scenario set.
    """

    manifest: Mapping[str, Any]
    entries: tuple[tuple[str, ScenarioRollouts], ...]


def write_submission(
    path: str | Path,
    rollouts: Sequence[ScenarioRollouts],
    manifest: Mapping[str, Any] | None = None,
    shard_count: int | None = None,
) -> None:
    """Package rollout bundles into a deterministic .tar.gz archive."""
    path = Path(path)
    records = sorted(rollouts, key=lambda r: r.scenario_id)
    if shard_count is None:
        shard_count = max(1, math.ceil(len(records) / 150))
    shard_count = min(shard_count, max(1, len(records)))
    shards: list[list[ScenarioRollouts]] = [[] for _ in range(shard_count)]
    for i, rec in enumerate(records):
        shards[i % shard_count].append(rec)

    doc = dict(manifest or {})
    doc.setdefault("format_version", FORMAT_VERSION)
    doc["scenario_count"] = len(records)
    doc["shard_count"] = shard_count

    members: list[tuple[str, bytes]] = [
        ("manifest.json", json.dumps(doc, indent=1, sort_keys=True).encode("utf-8"))
    ]
    for i, group in enumerate(shards):
        blob = _write_records((_KIND_ROLLOUTS, _rollouts_payload(r)) for r in group)
        members.append((f"rollouts.{i}-of-{shard_count}.bin", blob))

    with open(path, "wb") as raw:
        with gzip.GzipFile(
            filename="", mode="wb", fileobj=raw, mtime=0, compresslevel=_ARCHIVE_COMPRESSLEVEL
        ) as gz:
            with tarfile.open(fileobj=gz, mode="w") as tar:
                for name, blob in members:
                    info = tarfile.TarInfo(name=name)
                    info.size = len(blob)
                    info.mtime = 0
                    tar.addfile(info, _io.BytesIO(blob))


def read_submission(path: str | Path) -> SubmissionArchive:
    path = Path(path)
    manifest: dict[str, Any] = {}
    entries: list[tuple[str, ScenarioRollouts]] = []
    blobs: list[tuple[str, bytes]] = []
    try:
        with gzip.GzipFile(path, "rb") as gz:
            with tarfile.open(fileobj=gz, mode="r:") as tar:
                for member in tar:
                    if member.isfile() and (
                        member.name.endswith("manifest.json") or SHARD_NAME_RE.search(member.name)
                    ):
                        blobs.append((member.name, tar.extractfile(member).read()))
            # tarfile stops at the end-of-archive marker; only reading the
            # gzip stream to its end checks the CRC32 and length trailer.
            # Members are decoded after that check, so damage is reported as
            # a corrupt archive rather than as whatever the bad bytes decode to.
            while gz.read(_DRAIN_CHUNK):
                pass
        blobs.reverse()
        while blobs:
            name, blob = blobs.pop()  # release each member once it is decoded
            if name.endswith("manifest.json"):
                manifest = json.loads(blob.decode("utf-8"))
                continue
            for kind, payload in _read_records(blob, f"{path}:{name}"):
                if kind == _KIND_ROLLOUTS:
                    entries.append((name, _parse_whole(payload, _rollouts_from_payload)))
    except (tarfile.TarError, OSError, EOFError, zlib.error, ValueError) as exc:
        raise ParseError(f"unreadable archive: {exc}", path=str(path)) from exc
    return SubmissionArchive(manifest=manifest, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Submission validation.


@dataclass(frozen=True)
class Violation:
    code: str
    scenario_id: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    scenario_count: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_lines(self) -> list[str]:
        if self.ok:
            return [f"OK: {self.scenario_count} scenarios validated clean"]
        lines = [f"FAILED: {len(self.violations)} violations across {self.scenario_count} scenarios"]
        lines += [f"  [{v.code}] {v.scenario_id}: {v.detail}" for v in self.violations]
        return lines


def match_scenarios(
    archive: SubmissionArchive, scenarios: Mapping[str, Scenario]
) -> tuple[dict[str, ScenarioRollouts], list[Violation]]:
    """Each scenario's rollouts in ``archive``, and where the archive departs from the set.

    A scenario held a second time (DUPLICATE_SCENARIO; the first copy is
    returned), one outside the set (UNKNOWN_SCENARIO) and one of the set
    with no rollouts (MISSING_SCENARIO) are violations.
    """
    records: dict[str, ScenarioRollouts] = {}
    violations: list[Violation] = []
    seen: dict[str, str] = {}
    for shard, rec in archive.entries:
        sid = rec.scenario_id
        if sid in seen:
            violations.append(
                Violation("DUPLICATE_SCENARIO", sid, f"in {seen[sid]} and again in {shard}")
            )
            continue
        seen[sid] = shard
        if sid not in scenarios:
            violations.append(Violation("UNKNOWN_SCENARIO", sid, "not in the scenario set"))
            continue
        records[sid] = rec
    for sid in scenarios:
        if sid not in seen:
            violations.append(Violation("MISSING_SCENARIO", sid, "no rollouts in archive"))
    return records, violations


def validate_submission(
    archive: SubmissionArchive | str | Path,
    scenarios: Mapping[str, Scenario],
    expected_rollouts: int = DEFAULT_ROLLOUT_COUNT,
) -> ValidationReport:
    """Check an archive against the scenario set it claims to simulate.

    The set-level violations of :func:`match_scenarios` come first, then
    each matched scenario's rollout count and contract problems.
    """
    if not isinstance(archive, SubmissionArchive):
        archive = read_submission(archive)
    records, violations = match_scenarios(archive, scenarios)
    for sid, rec in records.items():
        if len(rec.rollouts) != expected_rollouts:
            violations.append(
                Violation(
                    "BAD_ROLLOUT_COUNT",
                    sid,
                    f"expected {expected_rollouts} rollouts, found {len(rec.rollouts)}",
                )
            )
        violations += [
            Violation(code, sid, detail) for code, detail in rollout_problems(scenarios[sid], rec)
        ]
    return ValidationReport(violations=tuple(violations), scenario_count=len(scenarios))


# ---------------------------------------------------------------------------
# Reports.


def report_to_dict(
    bundles: Sequence[MetricsBundle],
    summary: DatasetSummary | None,
    config: EvalConfig | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    doc: dict[str, Any] = {"format_version": FORMAT_VERSION}
    if extra:
        doc.update(extra)
    if config is not None:
        doc["config"] = config_to_dict(config)
    doc["scenarios"] = [
        {
            "scenario_id": b.scenario_id,
            "components": {m.value: b.components[m] for m in METRIC_ORDER if m in b.components},
            "excluded": [m.value for m in b.excluded],
            "composite": b.composite,
            "ade": b.ade,
            "min_ade": b.min_ade,
        }
        for b in bundles
    ]
    if summary is not None:
        doc["summary"] = {
            "scenario_count": summary.scenario_count,
            "composite": summary.composite,
            "mean_ade": summary.mean_ade,
            "mean_min_ade": summary.mean_min_ade,
            "component_means": {
                m.value: summary.component_means[m]
                for m in METRIC_ORDER
                if m in summary.component_means
            },
        }
    return doc


def write_report(
    bundles: Sequence[MetricsBundle],
    summary: DatasetSummary | None,
    path: str | Path,
    fmt: str = "json",
    config: EvalConfig | None = None,
    extra: Mapping[str, Any] | None = None,
) -> None:
    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(report_to_dict(bundles, summary, config, extra), indent=1))
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["scenario_id"] + [m.value for m in METRIC_ORDER] + ["composite", "ade", "min_ade"]
            )
            for b in bundles:
                row = [b.scenario_id]
                row += [
                    repr(b.components[m]) if m in b.components else "" for m in METRIC_ORDER
                ]
                row += [repr(b.composite), repr(b.ade), repr(b.min_ade)]
                writer.writerow(row)
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def read_report(path: str | Path) -> dict[str, Any]:
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"unreadable report: {exc}", path=str(path)) from exc


# ---------------------------------------------------------------------------
# Config files.


def load_config(path: str | Path) -> EvalConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"unreadable config: {exc}", path=str(path)) from exc
    return config_from_dict(data, path=str(path))


def save_config(config: EvalConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=1, sort_keys=True))
