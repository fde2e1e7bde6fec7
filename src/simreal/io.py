"""Serialization: scenario files, submission archives, configs, and reports.

Two interchange forms exist for scenarios and rollout bundles:

* JSON, the readable reference format.
* A versioned binary format: an 8-byte magic ``SMRLBIN1`` followed by
  records, each ``[kind:u8][length:u64le][payload]``.  Payload scalars are
  little-endian; floats are 64-bit.  Record kinds: 1 = scenario,
  2 = scenario rollouts.  A scenario file holds exactly one scenario record
  and an archive shard only rollouts records.  A scenario payload stores its
  N tracks as one block of packed records, ``[id:i64][type:u8][dims:3 f64]
  [poses:L x 4 f64][valid:L u8]`` (33 + 33 L bytes each), and a rollouts
  payload its (K, A, T, 4) pose tensor as one contiguous block, so each
  decodes with a single ``np.frombuffer``.  A record of another kind and
  payload bytes left over after parsing are errors.

A submission archive is a standard ``.tar.gz`` holding ``manifest.json``
plus binary shards named ``rollouts.<index>-of-<total>.bin``, each shard
holding many rollout records.  The gzip file is a run of members at level 4,
one per rollouts record (:func:`encode_rollouts`), so records compress where
they are rolled out; small members between them hold the manifest, the tar
headers, each shard's magic and the end-of-archive blocks.  gzip and tar
readers see one stream, and its tar bytes are those a single-stream writer
makes, so ``FORMAT_VERSION`` stays 1.  Archives are written
deterministically (fixed timestamps, records sorted by scenario id, one
member per record) so identical inputs produce identical bytes, however the
records were grouped when they were encoded.
Reading drains the gzip stream to its end, so a corrupt CRC32 or length
trailer is a ``ParseError`` like any other damage.  A cut at a member
boundary passes those checks; reading compares the records and shards
found with the counts the manifest declares, so the cut is a ``ParseError``
too.
"""

from __future__ import annotations

import csv
import gzip
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
from .errors import MalformedScenario, OccupiedOutput, ParseError
from .evaluate import DatasetSummary
from .features import METRIC_ORDER
from .scene import (
    DEFAULT_ROLLOUT_COUNT,
    OBJECT_TYPES,
    MapFeature,
    MapFeatureKind,
    ObjectType,
    Scenario,
    ScenarioRollouts,
    Tracks,
    rollout_problems,
)

MAGIC = b"SMRLBIN1"
FORMAT_VERSION = 1
_KIND_SCENARIO = 1
_KIND_ROLLOUTS = 2
_KIND_NAMES = {_KIND_SCENARIO: "scenario", _KIND_ROLLOUTS: "rollouts"}

SHARD_NAME_RE = re.compile(r"rollouts\.(\d+)-of-(\d+)\.bin$")
_DRAIN_CHUNK = 1 << 16
# Archive members compress at gzip level 4: about 7x faster to write than
# level 9, and within 1% of its size on rollout shards.  Readers are
# level-agnostic.  Each rollouts record is its own member, so the archive
# bytes do not depend on which process encoded which record.
_ARCHIVE_COMPRESSLEVEL = 4


# ---------------------------------------------------------------------------
# JSON scenario form.


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    tracks = scenario.tracks
    return {
        "format_version": FORMAT_VERSION,
        "scenario_id": scenario.scenario_id,
        "timestep": scenario.timestep,
        "history_length": scenario.history_length,
        "future_length": scenario.future_length,
        "av_track_id": scenario.av_track_id,
        "tracks": [
            {
                "object_id": oid,
                "object_type": OBJECT_TYPES[code].value,
                "length": length,
                "width": width,
                "height": height,
                "states": [
                    {"x": x, "y": y, "z": z, "heading": h, "valid": v}
                    for (x, y, z, h), v in zip(poses, valid)
                ],
            }
            for oid, code, (length, width, height), poses, valid in zip(
                tracks.ids.tolist(), tracks.types.tolist(), tracks.dims.tolist(),
                tracks.poses.tolist(), tracks.valid.tolist(),
            )
        ],
        "map_features": [
            {"feature_id": f.feature_id, "kind": f.kind.value, "polyline": f.polyline.tolist()}
            for f in scenario.map_features
        ],
    }


def scenario_from_dict(data: Mapping[str, Any], path: str | None = None) -> Scenario:
    try:
        docs = data["tracks"]
        h = int(data.get("history_length", 11))
        t = int(data.get("future_length", 80))
        states = [
            [
                (float(s["x"]), float(s["y"]), float(s["z"]), float(s["heading"]), bool(s["valid"]))
                for s in doc["states"]
            ]
            for doc in docs
        ]
        lengths = {len(rows) for rows in states}
        if len(lengths) > 1:  # a table needs one length; name the first track off the window
            oid, n = next((int(doc["object_id"]), len(rows)) for doc, rows in zip(docs, states)
                          if len(rows) != h + t)
            raise MalformedScenario(f"track {oid}: expected {h + t} poses, got {n}")
        table = np.array(states, dtype=float).reshape(len(docs), max(lengths, default=0), 5)
        tracks = Tracks(
            ids=[int(doc["object_id"]) for doc in docs],
            types=[OBJECT_TYPES.index(ObjectType(doc["object_type"])) for doc in docs],
            dims=np.array([[float(doc[k]) for k in ("length", "width", "height")]
                           for doc in docs]).reshape(-1, 3),
            poses=table[..., :4],
            valid=table[..., 4] != 0.0,
        )
        features = tuple(
            MapFeature(
                feature_id=int(f["feature_id"]),
                kind=MapFeatureKind(f["kind"]),
                polyline=[(float(x), float(y)) for x, y in f["polyline"]],
            )
            for f in data["map_features"]
        )
        return Scenario(
            scenario_id=str(data["scenario_id"]),
            tracks=tracks,
            map_features=features,
            av_track_id=int(data["av_track_id"]),
            timestep=float(data.get("timestep", 0.1)),
            history_length=h,
            future_length=t,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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


def _track_dtype(n_states: int) -> np.dtype:
    """One packed binary track record, fields named as in :class:`Tracks`: 33 + 33 L bytes."""
    return np.dtype([
        ("ids", "<i8"),
        ("types", "u1"),
        ("dims", "<f8", (3,)),
        ("poses", "<f8", (n_states, 4)),
        ("valid", "u1", (n_states,)),
    ])


#: Map feature kinds by their code in binary scenario files.
_MAP_KINDS = tuple(MapFeatureKind)


def _scenario_payload(scenario: Scenario) -> bytes:
    tracks = scenario.tracks
    block = np.empty(len(tracks), _track_dtype(scenario.history_length + scenario.future_length))
    for name in block.dtype.names:
        block[name] = getattr(tracks, name)
    parts = [
        _pack_str(scenario.scenario_id),
        struct.pack(
            "<dHHqI",
            scenario.timestep,
            scenario.history_length,
            scenario.future_length,
            scenario.av_track_id,
            len(tracks),
        ),
        block.tobytes(),
        struct.pack("<I", len(scenario.map_features)),
    ]
    for f in scenario.map_features:
        parts.append(struct.pack("<qBI", f.feature_id, _MAP_KINDS.index(f.kind), len(f.polyline)))
        parts.append(f.polyline.astype("<f8").tobytes())
    return b"".join(parts)


def _scenario_from_payload(r: _Reader) -> Scenario:
    scenario_id = _read_str(r)
    timestep, h, t, av_id, n_tracks = r.unpack("dHHqI")
    dtype = _track_dtype(h + t)
    start = r.pos
    block = np.frombuffer(r.take(n_tracks * dtype.itemsize), dtype=dtype)
    unknown = block["types"] >= len(OBJECT_TYPES)
    if unknown.any():
        row = int(np.argmax(unknown))
        r.pos = start + row * dtype.itemsize + dtype.fields["poses"][1]  # after the row's header
        r.fail(f"unknown object type code {block['types'][row]}")
    tracks = Tracks(*(block[name] for name in dtype.names))
    (n_feats,) = r.unpack("I")
    feats = []
    for _ in range(n_feats):
        fid, code, n_pts = r.unpack("qBI")
        if code >= len(_MAP_KINDS):
            r.fail(f"unknown map feature code {code}")
        feats.append(MapFeature(fid, _MAP_KINDS[code], r.floats(n_pts, 2)))
    return Scenario(
        scenario_id=scenario_id,
        tracks=tracks,
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


def _frame(kind: int, payload: bytes) -> bytes:
    """One record: ``[kind:u8][length:u64le][payload]``."""
    return struct.pack("<BQ", kind, len(payload)) + payload


def _read_records(data: bytes, path: str | None, expected: int) -> list[_Reader]:
    """The payloads of a file's records, which must all be of kind ``expected``."""
    r = _Reader(data, path)
    if r.take(len(MAGIC)) != MAGIC:
        r.pos = 0
        r.fail("bad magic; not a binary scenario/rollout file")
    out = []
    while not r.exhausted:
        start = r.pos
        kind, length = r.unpack("BQ")
        if kind != expected:
            r.pos = start
            if kind not in _KIND_NAMES:
                r.fail(f"unknown record kind {kind}")
            r.fail(f"a {_KIND_NAMES[kind]} record in a file of {_KIND_NAMES[expected]} records")
        payload = r.take(length)
        out.append(_Reader(payload, path, base=r.pos - length))
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
        path.write_bytes(MAGIC + _frame(_KIND_SCENARIO, _scenario_payload(scenario)))
    else:
        raise ValueError(f"unknown scenario format {fmt!r}")


def read_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if path.suffix == ".bin":
        records = _read_records(path.read_bytes(), str(path), _KIND_SCENARIO)
        if len(records) != 1:
            raise ParseError(f"{len(records)} scenario records, expected one", path=str(path))
        return _parse_whole(records[0], _scenario_from_payload)
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ParseError(f"bad JSON: {exc}", path=str(path)) from exc
    return scenario_from_dict(data, path=str(path))


def write_scenario_dir(items: Iterable, out_dir: str | Path, fmt: str = "json") -> list[Path]:
    """Write scenarios (plus fixtures, for synthetic ones) into a directory.

    A directory that already holds ``.json`` or ``.bin`` files raises
    :class:`OccupiedOutput` before anything is written, so two scenario sets
    never mix.
    """
    from .synth import SynthScenario  # local import to keep io importable standalone

    out_dir = Path(out_dir)
    if out_dir.is_dir() and any(p.suffix in (".json", ".bin") for p in out_dir.iterdir()):
        raise OccupiedOutput(f"{out_dir} already holds scenario files; use a new directory")
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
            ids = sorted(scenario.tracks.ids.tolist())  # fixture row order
            fx_doc = {
                str(oid): {
                    metric.value: {"values": values[row].tolist(), "valid": valid[row].tolist()}
                    for metric, (values, valid) in fixtures.items()
                }
                for row, oid in enumerate(ids)
            }
            (out_dir / f"{scenario.scenario_id}.fixtures.json").write_text(
                json.dumps(fx_doc, sort_keys=True)
            )
    return written


def read_scenario_dir(dir_path: str | Path) -> dict[str, Scenario]:
    dir_path = Path(dir_path)
    out: dict[str, Scenario] = {}
    sources: dict[str, Path] = {}
    for path in sorted(dir_path.iterdir()):
        if path.name.endswith(".fixtures.json") or path.name.endswith("manifest.json"):
            continue
        if path.suffix not in (".json", ".bin"):
            continue
        scenario = read_scenario(path)
        first = sources.setdefault(scenario.scenario_id, path)
        if first != path:
            raise ParseError(
                f"scenario {scenario.scenario_id!r} is also declared by {first.name}",
                path=str(path),
            )
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


@dataclass(frozen=True)
class EncodedRollouts:
    """One scenario's rollouts as an archive record, made by :func:`encode_rollouts`.

    ``member`` is one gzip member holding the record's ``size`` bytes: its
    ``[kind][length]`` frame and payload.
    """

    scenario_id: str
    size: int
    member: bytes


def _gzip_member(data: bytes) -> bytes:
    return gzip.compress(data, compresslevel=_ARCHIVE_COMPRESSLEVEL, mtime=0)


def encode_rollouts(rollouts: ScenarioRollouts) -> EncodedRollouts:
    """Encode and compress one rollouts record for :func:`write_submission`."""
    record = _frame(_KIND_ROLLOUTS, _rollouts_payload(rollouts))
    return EncodedRollouts(rollouts.scenario_id, len(record), _gzip_member(record))


def _tar_header(name: str, size: int) -> bytes:
    """The header block(s) ``tarfile`` writes for a regular file ``name`` of ``size`` bytes."""
    info = tarfile.TarInfo(name)
    info.size = size
    info.mtime = 0
    return info.tobuf()


def _tar_padding(offset: int, unit: int = tarfile.BLOCKSIZE) -> bytes:
    return bytes(-offset % unit)


def write_submission(
    path: str | Path,
    records: Iterable[EncodedRollouts],
    manifest: Mapping[str, Any] | None = None,
) -> None:
    """Write encoded rollout records as a deterministic .tar.gz archive, at most 150 records a shard.

    Records are sorted by scenario id and dealt round-robin to the shards.
    The tar stream is the one ``tarfile`` writes for these members; the file
    is a run of gzip members: per shard, one holding the tar header(s) and
    ``MAGIC``, then the shard's record members; last, one holding the tar
    padding and end-of-archive blocks.
    """
    records = sorted(records, key=lambda r: r.scenario_id)
    shard_count = max(1, math.ceil(len(records) / 150))
    shards = [records[i::shard_count] for i in range(shard_count)]

    doc = dict(manifest or {})
    doc.setdefault("format_version", FORMAT_VERSION)
    doc["scenario_count"] = len(records)
    doc["shard_count"] = shard_count
    blob = json.dumps(doc, indent=1, sort_keys=True).encode("utf-8")

    pending = _tar_header("manifest.json", len(blob)) + blob + _tar_padding(len(blob))
    offset = 0  # tar bytes before ``pending``
    with open(path, "wb") as out:
        for i, group in enumerate(shards):
            size = len(MAGIC) + sum(r.size for r in group)
            head = pending + _tar_header(f"rollouts.{i}-of-{shard_count}.bin", size) + MAGIC
            out.write(_gzip_member(head))
            out.writelines(rec.member for rec in group)
            offset += len(head) - len(MAGIC) + size
            pending = _tar_padding(size)
        end = bytes(2 * tarfile.BLOCKSIZE)
        offset += len(pending) + len(end)
        out.write(_gzip_member(pending + end + _tar_padding(offset, tarfile.RECORDSIZE)))


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
        shard_count = sum(not name.endswith("manifest.json") for name, _ in blobs)
        blobs.reverse()
        while blobs:
            name, blob = blobs.pop()  # release each member once it is decoded
            if name.endswith("manifest.json"):
                manifest = json.loads(blob.decode("utf-8"))
                if not isinstance(manifest, dict):
                    raise ParseError(f"{name} is not a JSON object", path=str(path))
                continue
            for payload in _read_records(blob, f"{path}:{name}", _KIND_ROLLOUTS):
                entries.append((name, _parse_whole(payload, _rollouts_from_payload)))
    except (tarfile.TarError, OSError, EOFError, zlib.error, ValueError) as exc:
        raise ParseError(f"unreadable archive: {exc}", path=str(path)) from exc
    # A cut between gzip members leaves a shorter archive that passes the
    # gzip checks; the manifest's counts are what reveal it.
    for key, found in (("shard_count", shard_count), ("scenario_count", len(entries))):
        if key in manifest and manifest[key] != found:
            raise ParseError(
                f"archive does not match its manifest: {key} is {manifest[key]!r}, "
                f"the archive holds {found}",
                path=str(path),
            )
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
    archive: SubmissionArchive,
    scenarios: Mapping[str, Scenario],
    expected_rollouts: int | None = None,
) -> tuple[dict[str, ScenarioRollouts], list[Violation]]:
    """Each scenario's rollouts in ``archive``, and every way the archive breaks the contract.

    Set violations come first: a scenario held a second time
    (DUPLICATE_SCENARIO; the first copy is returned), one outside the set
    (UNKNOWN_SCENARIO) and one of the set with no rollouts
    (MISSING_SCENARIO).  Count violations follow: a returned scenario whose
    rollout count departs from the manifest's ``rollouts_per_scenario`` or,
    when the manifest declares none, from the first returned scenario's count
    (ROLLOUT_COUNT_MISMATCH).  Then, scenario by scenario, a count other than
    ``expected_rollouts`` when one is given (BAD_ROLLOUT_COUNT) and the
    problems of :func:`simreal.scene.rollout_problems`.
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
    want, source = archive.manifest.get("rollouts_per_scenario"), "the manifest declares"
    if want is None and records:
        first = next(iter(records))
        want, source = len(records[first].rollouts), f"{first} holds"
    for sid, rec in records.items():
        if len(rec.rollouts) != want:
            violations.append(Violation(
                "ROLLOUT_COUNT_MISMATCH", sid,
                f"holds {len(rec.rollouts)} rollouts per scenario where {source} {want!r}",
            ))
    for sid, rec in records.items():
        if expected_rollouts is not None and len(rec.rollouts) != expected_rollouts:
            violations.append(Violation(
                "BAD_ROLLOUT_COUNT", sid,
                f"expected {expected_rollouts} rollouts, found {len(rec.rollouts)}",
            ))
        violations += [
            Violation(code, sid, detail) for code, detail in rollout_problems(scenarios[sid], rec)
        ]
    return records, violations


def validate_submission(
    archive: SubmissionArchive | str | Path,
    scenarios: Mapping[str, Scenario],
    expected_rollouts: int = DEFAULT_ROLLOUT_COUNT,
) -> ValidationReport:
    """Check an archive against the scenario set it claims to simulate (see match_scenarios)."""
    if not isinstance(archive, SubmissionArchive):
        archive = read_submission(archive)
    _, violations = match_scenarios(archive, scenarios, expected_rollouts)
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
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ParseError(f"unreadable report: {exc}", path=str(path)) from exc


# ---------------------------------------------------------------------------
# Config files.


def load_config(path: str | Path) -> EvalConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ParseError(f"unreadable config: {exc}", path=str(path)) from exc
    return config_from_dict(data, path=str(path))
