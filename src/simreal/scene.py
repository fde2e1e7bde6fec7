"""Scene and rollout value types shared by every other module.

A scenario is a history/future pair sampled at a fixed rate: 11 history
observations (1.1 s, the last of which is the handover step t=0) followed by
80 future steps (8 s) at 10 Hz.  Time indexing is relative: history steps
-10..0 map to array indices 0..10 and future steps 1..80 map to 11..90, so a
track's pose buffer is one contiguous sequence of length 91.

Poses are float64 arrays of ``[x, y, z, heading]`` everywhere: a track holds
``(L, 4)`` poses with an ``(L,)`` validity mask, and a rollout bundle holds
``(K, A, T, 4)`` poses for K rollouts of A objects over T future steps.
Headings are wrapped into [0, 2*pi) wherever a pose enters one of these
types.  All types are immutable values after construction (their arrays are
read-only) and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .errors import InconsistentRollouts, MalformedScenario

TWO_PI = 2.0 * math.pi

DEFAULT_TIMESTEP = 0.1
DEFAULT_HISTORY_LENGTH = 11
DEFAULT_FUTURE_LENGTH = 80
DEFAULT_ROLLOUT_COUNT = 32
MAX_SIMULATED_OBJECTS = 128


def normalize_heading(theta) -> np.ndarray:
    """Wrap angles into [0, 2*pi) elementwise. Non-finite input is returned unchanged.

    Bit-identical to Python's float ``theta % TWO_PI`` on every finite value,
    including ``-0.0`` (which maps to ``0.0``).
    """
    wrapped = np.array(theta, dtype=float)
    np.remainder(wrapped, TWO_PI, out=wrapped, where=np.isfinite(wrapped))
    # theta % TWO_PI can round up to TWO_PI itself
    np.subtract(wrapped, TWO_PI, out=wrapped, where=wrapped >= TWO_PI)
    return wrapped


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class ObjectType(Enum):
    VEHICLE = "vehicle"
    PEDESTRIAN = "pedestrian"
    CYCLIST = "cyclist"


class MapFeatureKind(Enum):
    ROAD_EDGE = "road_edge"
    LANE_CENTER = "lane_center"
    OTHER = "other"


@dataclass(frozen=True, eq=False)
class Track:
    """An object's box extents plus its pose at every relative time index.

    ``poses`` is (L, 4) as [x, y, z, heading] and ``valid`` is (L,).  Where
    ``valid`` is False the pose carries no meaning and consumers must ignore
    it.  Extents are fixed for the whole window; they are taken once and
    never vary over time.
    """

    object_id: int
    object_type: ObjectType
    length: float
    width: float
    height: float
    poses: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        if min(self.length, self.width, self.height) <= 0.0:
            raise MalformedScenario(
                f"track {self.object_id}: box extents must be strictly positive"
            )
        poses = np.array(self.poses, dtype=float)
        valid = np.array(self.valid, dtype=bool)
        if poses.ndim != 2 or poses.shape[1] != 4 or valid.shape != poses.shape[:1]:
            raise MalformedScenario(
                f"track {self.object_id}: expected (L, 4) poses and (L,) validity, "
                f"got {poses.shape} and {valid.shape}"
            )
        poses[:, 3] = normalize_heading(poses[:, 3])
        object.__setattr__(self, "poses", _frozen(poses))
        object.__setattr__(self, "valid", _frozen(valid))

    def __eq__(self, other):
        if not isinstance(other, Track):
            return NotImplemented
        head = (self.object_id, self.object_type, self.length, self.width, self.height)
        other_head = (other.object_id, other.object_type, other.length, other.width, other.height)
        return (
            head == other_head
            and np.array_equal(self.poses, other.poses)
            and np.array_equal(self.valid, other.valid)
        )


@dataclass(frozen=True)
class MapFeature:
    """A polyline map element (road edge, lane center, or other)."""

    feature_id: int
    kind: MapFeatureKind
    polyline: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.polyline)
        if len(pts) < 2:
            raise MalformedScenario(f"map feature {self.feature_id}: polyline needs >= 2 points")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise MalformedScenario(
                    f"map feature {self.feature_id}: consecutive polyline points must differ"
                )
        object.__setattr__(self, "polyline", pts)


@dataclass(frozen=True)
class Scenario:
    """A logged scene: tracks with validity over history+future, plus the map."""

    scenario_id: str
    tracks: tuple[Track, ...]
    map_features: tuple[MapFeature, ...]
    av_track_id: int
    timestep: float = DEFAULT_TIMESTEP
    history_length: int = DEFAULT_HISTORY_LENGTH
    future_length: int = DEFAULT_FUTURE_LENGTH
    _by_id: Mapping[int, Track] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tracks", tuple(self.tracks))
        object.__setattr__(self, "map_features", tuple(self.map_features))
        if self.timestep <= 0.0:
            raise MalformedScenario("timestep must be positive")
        if self.history_length < 1 or self.future_length < 1:
            raise MalformedScenario("history and future lengths must be >= 1")
        expected = self.history_length + self.future_length
        by_id: dict[int, Track] = {}
        for track in self.tracks:
            if track.object_id in by_id:
                raise MalformedScenario(f"duplicate object_id {track.object_id}")
            if len(track.poses) != expected:
                raise MalformedScenario(
                    f"track {track.object_id}: expected {expected} poses, got {len(track.poses)}"
                )
            by_id[track.object_id] = track
        if self.av_track_id not in by_id:
            raise MalformedScenario(f"AV track {self.av_track_id} not present")
        t0 = self.history_length - 1
        n_simulated = sum(1 for t in self.tracks if t.valid[t0])
        if n_simulated > MAX_SIMULATED_OBJECTS:
            raise MalformedScenario(
                f"{n_simulated} objects valid at t=0 exceeds the {MAX_SIMULATED_OBJECTS} limit"
            )
        object.__setattr__(self, "_by_id", by_id)

    @property
    def t0_index(self) -> int:
        """Array index of the handover step t=0 (last history observation)."""
        return self.history_length - 1

    def track(self, object_id: int) -> Track:
        return self._by_id[object_id]

    def future(self, object_ids: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """Logged future window (steps 1..T) of some tracks, in the given order.

        Returns poses (A, T, 4) and validity (A, T).
        """
        h, t = self.history_length, self.future_length
        tracks = [self._by_id[oid] for oid in object_ids]
        poses = np.array([trk.poses[h:] for trk in tracks]).reshape(len(tracks), t, 4)
        valid = np.array([trk.valid[h:] for trk in tracks], dtype=bool).reshape(len(tracks), t)
        return poses, valid


@dataclass(frozen=True, eq=False)
class ScenarioRollouts:
    """A bundle of sampled joint futures for one scenario (32 for scoring).

    ``rollouts`` is (K, A, T, 4) as [x, y, z, heading] and row ``a`` of every
    rollout is object ``ids[a]``, so all rollouts cover one object set by
    construction.  Simulators always produce poses, so there is no validity
    mask.  Rows are sorted by object id on construction.
    """

    scenario_id: str
    ids: np.ndarray
    rollouts: np.ndarray

    def __post_init__(self):
        sid = self.scenario_id
        try:
            poses = np.array(self.rollouts, dtype=float)
        except ValueError as exc:  # ragged input
            raise InconsistentRollouts(
                f"{sid}: rollouts differ in object count or step count ({exc})"
            ) from exc
        ids = np.array(self.ids, dtype=np.int64)
        if poses.ndim != 4 or poses.shape[-1] != 4:
            raise MalformedScenario(f"{sid}: expected (K, A, T, 4) rollouts, got {poses.shape}")
        if len(poses) == 0:
            raise MalformedScenario("a rollout bundle needs at least one rollout")
        if ids.shape != poses.shape[1:2]:
            raise InconsistentRollouts(
                f"{sid}: {ids.shape} ids for {poses.shape[1]} rollout rows"
            )
        if np.any(ids[1:] < ids[:-1]):
            order = np.argsort(ids, kind="stable")
            ids, poses = ids[order], poses[:, order]
        if np.any(ids[1:] == ids[:-1]):
            dup = sorted({int(i) for i in ids[1:][ids[1:] == ids[:-1]]})
            raise InconsistentRollouts(f"{sid}: duplicate object ids {dup}")
        poses[..., 3] = normalize_heading(poses[..., 3])
        object.__setattr__(self, "ids", _frozen(ids))
        object.__setattr__(self, "rollouts", _frozen(poses))

    @property
    def object_ids(self) -> frozenset[int]:
        return frozenset(int(i) for i in self.ids)

    @property
    def num_steps(self) -> int:
        return self.rollouts.shape[2]


def simulated_object_ids(scenario: Scenario) -> frozenset[int]:
    """Objects that must be simulated: everything valid at the handover step.

    The AV is always part of this set; an AV that is invalid at t=0 makes the
    scenario unusable.
    """
    t0 = scenario.t0_index
    ids = frozenset(t.object_id for t in scenario.tracks if t.valid[t0])
    if scenario.av_track_id not in ids:
        raise MalformedScenario(f"AV track {scenario.av_track_id} is invalid at t=0")
    return ids


#: The typed error scoring raises for each submission-contract violation.
CONTRACT_ERRORS: Mapping[str, type[Exception]] = {
    "MISSING_OBJECT": InconsistentRollouts,
    "EXTRA_OBJECT": InconsistentRollouts,
    "BAD_STEP_COUNT": MalformedScenario,
    "NONFINITE_POSE": MalformedScenario,
}


def rollout_problems(scenario: Scenario, rollouts: ScenarioRollouts) -> list[tuple[str, str]]:
    """Where one scenario's rollouts break the submission contract.

    The rollouts must cover exactly the objects valid at the handover step,
    span the scenario's future length, and hold only finite poses.  Returns
    ``(code, detail)`` pairs, codes as keys of :data:`CONTRACT_ERRORS`: at
    most one per object-set or step-count problem, and one per rollout with
    a non-finite pose.  The rollout count is not part of this contract.
    """
    problems = []
    required = simulated_object_ids(scenario)
    missing = required - rollouts.object_ids
    extra = rollouts.object_ids - required
    if missing:
        problems.append(("MISSING_OBJECT", f"rollouts miss ids {sorted(missing)}"))
    if extra:
        problems.append(("EXTRA_OBJECT", f"rollouts have unknown ids {sorted(extra)}"))
    if rollouts.num_steps != scenario.future_length:
        problems.append((
            "BAD_STEP_COUNT",
            f"rollouts have {rollouts.num_steps} steps, expected {scenario.future_length}",
        ))
    finite = np.isfinite(rollouts.rollouts).all(axis=(2, 3))  # (K, A)
    for k in np.flatnonzero(~finite.all(axis=1)):
        oid = rollouts.ids[np.argmin(finite[k])]  # first object with a bad pose
        problems.append(("NONFINITE_POSE", f"rollout {k} object {oid} has NaN/Inf"))
    return problems


def strip_late_spawns(scenario: Scenario) -> Scenario:
    """Drop objects that only appear after the history window.

    Applied to logged data before evaluation so that objects spawning during
    the future cannot bias the logged feature distribution.
    """
    h = scenario.history_length
    keep = tuple(t for t in scenario.tracks if t.valid[:h].any())
    if len(keep) == len(scenario.tracks):
        return scenario
    return Scenario(
        scenario_id=scenario.scenario_id,
        tracks=keep,
        map_features=scenario.map_features,
        av_track_id=scenario.av_track_id,
        timestep=scenario.timestep,
        history_length=scenario.history_length,
        future_length=scenario.future_length,
    )
