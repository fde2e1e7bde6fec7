"""Serialization: scenario files, submission archives, configs, and reports.

Two interchange forms exist for scenarios and rollout bundles:

* JSON, the readable reference format.
* A versioned binary format: an 8-byte magic ``SMRLBIN1`` followed by
  records, each ``[kind:u8][length:u64le][payload]``.  Payload scalars are
  little-endian; floats are 64-bit.  Record kinds: 1 = scenario,
  3 = scenario rollouts.  A scenario file holds exactly one scenario record
  and an archive shard only rollouts records.  A scenario payload stores its
  N tracks as one block of packed records, ``[id:i64][type:u8][dims:3 f64]
  [poses:L x 4 f64][valid:L u8]`` (33 + 33 L bytes each), decoded with a
  single ``np.frombuffer``.  A rollouts payload holds the scenario id, the
  counts ``K, A, T`` and the A object ids, then the (K, A, T, 4) pose tensor
  channel-major as (4, K, A, T), split into 32 byte planes: for channel c
  (x, y, z, heading) and byte b of the little-endian float64, plane 8c + b
  holds that byte of every channel-c value in (K, A, T) order.  This is the
  shuffle filter of HDF5 and Blosc: sign, exponent and high mantissa bytes
  repeat from value to value and deflate well, while the low mantissa bytes
  of a noisy coordinate barely compress.  Kind 2, the interleaved (K, A, T,
  4) layout of archive format 1, is refused with a ``ParseError`` that names
  it.  A record of another kind and payload bytes left over after parsing
  are errors.

A submission archive is a standard ``.tar.gz`` holding ``manifest.json``
plus binary shards named ``rollouts.<index>-of-<total>.bin``, each shard
holding many rollout records.  The manifest declares ``format_version`` 2
(``ARCHIVE_FORMAT_VERSION``); scenario files and reports stay at
``FORMAT_VERSION`` 1.  The gzip file is a run of members.  Each rollouts
record is one or more of them (:func:`encode_rollouts`), compressed where
the record is rolled out: each byte plane is either stored (level 0) or
deflated (level 1), and adjacent planes with the same choice, the first
with the record's header in front, share one member.  Small members
between records hold the manifest, the tar headers, each shard's magic and
the end-of-archive blocks.  gzip and tar readers see one stream, and its
tar bytes are those a single-stream writer makes.  Archives are written
deterministically (fixed timestamps, records sorted by scenario id, each
record's members a function of that record alone) so identical inputs
produce identical bytes, however the records were grouped when they were
encoded.
Reading decodes each shard's records as the archive is decompressed (see
:func:`read_submission`) and drains the gzip stream to its end, so a
corrupt CRC32 or length trailer is a ``ParseError`` like any other damage.
A cut at a member boundary passes those checks; reading compares the
records and shards found with the counts the manifest declares, so the cut
is a ``ParseError`` too.
"""

from __future__ import annotations

import csv
import gzip
import itertools
import json
import math
import re
import struct
import tarfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .aggregation import MetricsBundle
from .config import EvalConfig, config_from_dict, config_to_dict
from .errors import MalformedScenario, OccupiedOutput, ParseError, SimRealError
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
FORMAT_VERSION = 1  # scenario documents and reports
ARCHIVE_FORMAT_VERSION = 2  # submission manifests: rollouts records in byte planes
_KIND_SCENARIO = 1
_KIND_ROLLOUTS = 3
_KIND_NAMES = {_KIND_SCENARIO: "scenario", _KIND_ROLLOUTS: "rollouts"}
_KIND_INTERLEAVED_ROLLOUTS = 2  # archive format 1; refused

SHARD_NAME_RE = re.compile(r"rollouts\.(\d+)-of-(\d+)\.bin$")
_DRAIN_CHUNK = 1 << 16
# Archive shards are read in pieces of at most this size.  Pieces this small
# come from memory the allocator already holds, while a whole shard read at
# once, and each copy of it the gzip and tar readers make, is a fresh
# multi-megabyte block whose page faults some processes pay on every read
# and others never, so the read's time would depend on the process.
_STREAM_CHUNK = 1 << 16
# Deflated archive members use gzip level 1.  Encoding the seed-0 benchmark
# records takes 1.15-1.6x less time with it than at level 4 (medians of 15
# alternating runs: the 32-agent noisy-plan record 12 against 17 ms, the
# 64-agent constant-velocity record 18 against 28 ms, the 24 mixed-suite
# records 81 against 93 ms) for 1-9% more bytes (1.63 against 1.61 MB, 85
# against 79 KB, 3.31 against 3.28 MB); the interleaved layout at level 4
# took 1.92 MB, 0.90 MB and 3.82 MB.  Readers are level-agnostic.  Each
# record's members depend on that record alone, so the archive bytes do not
# depend on which process encoded which record.
_ARCHIVE_COMPRESSLEVEL = 1
# Store-or-deflate rule for one byte plane.  A plane of at most
# _ALWAYS_DEFLATE_BYTES is always deflated, so each record of 2-4 agents at
# k=32 (5-10 KiB planes, the whole mixed suite) stays one member and pays no
# probe.  A larger plane is deflated only if level 1 shrinks its first
# _PROBE_BYTES by at least _PROBE_MIN_SAVING, and stored (level 0)
# otherwise.  Measured on the seed-0 benchmark rollouts: the low six bytes
# of noisy x, y and heading probe at 100% (incompressible), every other
# plane at 70% or less, so a 10% margin parts them with room to spare.  A
# 4 KiB probe costs about 50 us, 1/30 of deflating an incompressible 80 KiB
# plane (1.7 ms).  A 1 KiB probe is too short: it reads 92-100% on the
# constant-velocity x planes, which deflate to 4-5% whole, and storing them
# grows that record from 85 KB to 1.0 MB.
_ALWAYS_DEFLATE_BYTES = 16 * 1024
_PROBE_BYTES = 4 * 1024
_PROBE_MIN_SAVING = 0.1
_PLANES = 32  # 4 channels x 8 bytes of a float64


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


class _Cursor:
    """``size`` bytes of a file read front to back, starting ``base`` bytes into it."""

    def __init__(self, size: int, path: str | None, base: int):
        self.size = size
        self.path = path
        self.base = base
        self.pos = 0

    def fail(self, message: str):
        raise ParseError(message, path=self.path, offset=self.base + self.pos)

    @property
    def left(self) -> int:
        return self.size - self.pos

    @property
    def exhausted(self) -> bool:
        return self.pos >= self.size

    def _advance(self, n: int) -> int:
        """Move past the next ``n`` bytes, which must be there; returns where they start."""
        if n > self.left:
            self.fail(f"truncated: needed {n} bytes, {self.left} left")
        start = self.pos
        self.pos += n
        return start

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))


class _Reader(_Cursor):
    """A cursor over ``data``, which starts ``base`` bytes into the file.

    It reads through a ``memoryview``, so a record's payload and the arrays
    decoded from it are views of the file's bytes, not copies.
    """

    def __init__(self, data: bytes | memoryview, path: str | None, base: int = 0):
        self.data = memoryview(data)
        super().__init__(len(self.data), path, base)

    def take(self, n: int) -> memoryview:
        start = self._advance(n)
        return self.data[start : start + n]

    def payload(self, n: int) -> _Reader:
        """A reader over the next ``n`` bytes, at their offset in the file."""
        start = self.pos
        return _Reader(self.take(n), self.path, base=self.base + start)

    def floats(self, *shape: int) -> np.ndarray:
        """A read-only float64 view of the next ``prod(shape)`` values."""
        raw = self.take(8 * math.prod(shape))
        return np.frombuffer(raw, dtype="<f8").reshape(shape)


class _StreamReader(_Cursor):
    """A cursor over the next ``size`` bytes of ``stream``, which start ``base`` bytes into the file.

    It reads only what it is asked for, at most ``_STREAM_CHUNK`` bytes at a
    time, so an archive shard is decoded as it is decompressed and never
    held whole (see :func:`read_submission`).
    """

    def __init__(self, stream, size: int, path: str | None, base: int = 0):
        super().__init__(size, path, base)
        self.stream = stream

    def take(self, n: int) -> bytes:
        self._advance(n)
        data = self.stream.read(n)
        if len(data) != n:
            raise EOFError(f"stream ended {n - len(data)} bytes early")
        return data

    def payload(self, n: int) -> _StreamReader:
        """A reader over the next ``n`` bytes; they must be read through it before this one reads on."""
        start = self._advance(n)
        return _StreamReader(self.stream, n, self.path, base=self.base + start)

    def chunks(self, n: int) -> Iterator[bytes]:
        """The next ``n`` bytes, in pieces of at most ``_STREAM_CHUNK``."""
        for start in range(0, n, _STREAM_CHUNK):
            yield self.take(min(_STREAM_CHUNK, n - start))


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _read_str(r: _Reader) -> str:
    (n,) = r.unpack("H")
    start = r.pos
    try:
        return str(r.take(n), "utf-8")
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


def _rollouts_from_payload(r: _StreamReader) -> ScenarioRollouts:
    """Decode a rollouts payload, its byte planes streamed straight into the bundle's poses."""
    scenario_id = _read_str(r)
    k, n_ids, n_steps = r.unpack("IIH")
    ids = np.frombuffer(r.take(8 * n_ids), dtype="<i8")
    n = k * n_ids * n_steps
    if _PLANES * n > r.left:  # before the poses are allocated
        r.fail(f"truncated: needed {_PLANES * n} bytes, {r.left} left")
    # The poses are kept channel-major, as stored: plane 8c + b is byte b of
    # each value in channel c's contiguous (K, A, T) block, so the planes of
    # one channel fill one block, and the bundle sees a (K, A, T, 4) view.
    channels = np.empty((4, k, n_ids, n_steps), dtype="<f8")
    planes = channels.reshape(4, n).view(np.uint8).reshape(4, n, 8).transpose(0, 2, 1)
    done = 0
    for piece in r.chunks(_PLANES * n):
        data = np.frombuffer(piece, dtype=np.uint8)
        while len(data):
            plane, col = divmod(done, n)
            m = min(n - col, len(data))
            planes[plane // 8, plane % 8, col : col + m] = data[:m]
            data = data[m:]
            done += m
    return ScenarioRollouts(scenario_id, ids, np.moveaxis(channels, 0, -1), copy=False)


def _frame(kind: int, length: int) -> bytes:
    """The ``[kind:u8][length:u64le]`` head of a record whose payload is ``length`` bytes."""
    return struct.pack("<BQ", kind, length)


def _read_records(r: _Reader | _StreamReader, expected: int) -> Iterator[_Reader | _StreamReader]:
    """The payloads of a file's records, which must all be of kind ``expected``.

    Each payload is yielded before the next record's frame is read, so a
    stream's payload must be parsed before the iteration goes on.
    """
    if r.take(len(MAGIC)) != MAGIC:
        r.pos = 0
        r.fail("bad magic; not a binary scenario/rollout file")
    while not r.exhausted:
        start = r.pos
        kind, length = r.unpack("BQ")
        if kind != expected:
            r.pos = start
            if kind == _KIND_INTERLEAVED_ROLLOUTS:
                r.fail("a kind-2 rollouts record: the interleaved pose layout of archive "
                       "format 1, which this version no longer reads; roll the submission "
                       "out again")
            if kind not in _KIND_NAMES:
                r.fail(f"unknown record kind {kind}")
            r.fail(f"a {_KIND_NAMES[kind]} record in a file of {_KIND_NAMES[expected]} records")
        yield r.payload(length)


def _parse_whole(r: _Reader | _StreamReader, parse):
    """Parse one record payload, which must be consumed exactly."""
    value = parse(r)
    if not r.exhausted:
        r.fail(f"{r.left} unparsed bytes at the end of the record")
    return value


# ---------------------------------------------------------------------------
# Scenario file round trip.


def write_scenario(scenario: Scenario, path: str | Path, fmt: str | None = None) -> None:
    path = Path(path)
    fmt = fmt or ("binary" if path.suffix == ".bin" else "json")
    if fmt == "json":
        path.write_text(json.dumps(scenario_to_dict(scenario), indent=1, sort_keys=True))
    elif fmt == "binary":
        payload = _scenario_payload(scenario)
        path.write_bytes(MAGIC + _frame(_KIND_SCENARIO, len(payload)) + payload)
    else:
        raise ValueError(f"unknown scenario format {fmt!r}")


def read_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if path.suffix == ".bin":
        records = list(_read_records(_Reader(path.read_bytes(), str(path)), _KIND_SCENARIO))
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

    ``members`` is one or more gzip members that together hold the record's
    ``size`` bytes: its ``[kind][length]`` frame and payload.
    """

    scenario_id: str
    size: int
    members: bytes


def _gzip_member(data, level: int = _ARCHIVE_COMPRESSLEVEL) -> bytes:
    """One gzip member (``mtime`` 0) holding ``data``, any contiguous bytes-like object."""
    return zlib.compress(data, level, 31)


def _deflates(plane: np.ndarray) -> bool:
    """The store-or-deflate rule for one byte plane (see ``_ALWAYS_DEFLATE_BYTES``)."""
    if len(plane) <= _ALWAYS_DEFLATE_BYTES:
        return True
    probe = zlib.compress(plane[:_PROBE_BYTES], _ARCHIVE_COMPRESSLEVEL, -15)
    return len(probe) <= (1.0 - _PROBE_MIN_SAVING) * _PROBE_BYTES


def encode_rollouts(rollouts: ScenarioRollouts) -> EncodedRollouts:
    """Encode and compress one rollouts record for :func:`write_submission`.

    The record is assembled in one buffer: frame, id, counts and ids, then
    the 32 byte planes of the poses (see the module doc).  Each run of
    adjacent planes with the same store-or-deflate choice becomes one gzip
    member, the first run with everything before it.
    """
    poses = rollouts.rollouts
    k, n_ids, n_steps, _ = poses.shape
    n = k * n_ids * n_steps
    head = b"".join([
        _pack_str(rollouts.scenario_id),
        struct.pack("<IIH", k, n_ids, n_steps),
        rollouts.ids.astype("<i8").tobytes(),
    ])
    head = _frame(_KIND_ROLLOUTS, len(head) + _PLANES * n) + head
    record = np.empty(len(head) + _PLANES * n, dtype=np.uint8)
    record[:len(head)] = np.frombuffer(head, dtype=np.uint8)
    planes = record[len(head):].reshape(_PLANES, n)
    channels = np.ascontiguousarray(poses.reshape(n, 4).T, dtype="<f8").view(np.uint8)
    planes.reshape(4, 8, n)[...] = channels.reshape(4, n, 8).transpose(0, 2, 1)
    del channels  # before the members are compressed
    members, start, planes_done = [], 0, 0
    for deflate, run in itertools.groupby(map(_deflates, planes)):
        planes_done += sum(1 for _ in run)
        stop = len(head) + planes_done * n
        members.append(_gzip_member(record[start:stop], _ARCHIVE_COMPRESSLEVEL if deflate else 0))
        start = stop
    return EncodedRollouts(rollouts.scenario_id, len(record), b"".join(members))


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
    doc["format_version"] = ARCHIVE_FORMAT_VERSION
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
            out.writelines(rec.members for rec in group)
            offset += len(head) - len(MAGIC) + size
            pending = _tar_padding(size)
        end = bytes(2 * tarfile.BLOCKSIZE)
        offset += len(pending) + len(end)
        out.write(_gzip_member(pending + end + _tar_padding(offset, tarfile.RECORDSIZE)))


def _drain(stream) -> None:
    while stream.read(_DRAIN_CHUNK):
        pass


def read_submission(path: str | Path) -> SubmissionArchive:
    """Read a submission archive, decoding each shard's records as the archive is decompressed.

    A shard is read in pieces of at most ``_STREAM_CHUNK`` bytes and each
    record's byte planes go straight into its bundle's poses, so no shard
    is held whole.  tarfile stops at the end-of-archive marker; only
    reading the gzip stream to its end checks the CRC32 and length trailer,
    so it is drained before the manifest is parsed, and also before a
    record's decoding error is raised: damage is reported as a corrupt
    archive rather than as whatever the bad bytes decoded to.
    """
    path = Path(path)
    manifest: dict[str, Any] = {}
    manifests: list[tuple[str, bytes]] = []
    entries: list[tuple[str, ScenarioRollouts]] = []
    shard_count = 0
    try:
        with gzip.GzipFile(path, "rb") as gz:
            try:
                with tarfile.open(fileobj=gz, mode="r:") as tar:
                    for member in tar:
                        if not member.isfile():
                            continue
                        if member.name.endswith("manifest.json"):
                            manifests.append((member.name, tar.extractfile(member).read()))
                        elif SHARD_NAME_RE.search(member.name):
                            shard_count += 1
                            shard = _StreamReader(tar.extractfile(member), member.size,
                                                  f"{path}:{member.name}")
                            for payload in _read_records(shard, _KIND_ROLLOUTS):
                                entries.append(
                                    (member.name, _parse_whole(payload, _rollouts_from_payload))
                                )
            except SimRealError:
                _drain(gz)
                raise
            _drain(gz)
        for name, blob in manifests:
            manifest = json.loads(blob.decode("utf-8"))
            if not isinstance(manifest, dict):
                raise ParseError(f"{name} is not a JSON object", path=str(path))
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
