"""Scene and rollout value types shared by every other module.

A scenario is a history/future pair sampled at a fixed rate: 11 history
observations (1.1 s, the last of which is the handover step t=0) followed by
80 future steps (8 s) at 10 Hz.  Time indexing is relative: history steps
-10..0 map to array indices 0..10 and future steps 1..80 map to 11..90, so an
object's poses are one contiguous sequence of length 91.

Poses are float64 arrays of ``[x, y, z, heading]`` everywhere: the logged
objects of a scene are one :class:`Tracks` table holding ``(N, L, 4)`` poses
with an ``(N, L)`` validity mask, and a rollout bundle holds ``(K, A, T, 4)``
poses for K rollouts of A objects over T future steps.  Map polylines are
``(P, 2)`` arrays.  Each heading is wrapped into [0, 2*pi) wherever a pose
enters one of these types.  All types are immutable values after
construction (their arrays are read-only) and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, fields, replace
from functools import cached_property
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
#: Largest |x|, |y| or |z| of a pose, box extent or map point coordinate, in
#: metres: far beyond any map, and far below the values at which the feature
#: kernels overflow.
POSE_COORDINATE_LIMIT = 1e7


def normalize_heading(theta) -> np.ndarray:
    """Wrap angles into [0, 2*pi) elementwise. Non-finite input is returned unchanged.

    Bit-identical to Python's float ``theta % TWO_PI`` on every finite value,
    including ``-0.0`` (which maps to ``0.0``).
    """
    wrapped = np.array(theta, dtype=float)
    if ((wrapped >= 0.0) & (wrapped < TWO_PI)).all():  # x % TWO_PI is x, or 0.0 for -0.0
        wrapped += 0.0
        return wrapped
    np.remainder(wrapped, TWO_PI, out=wrapped, where=np.isfinite(wrapped))
    # theta % TWO_PI can round up to TWO_PI itself
    np.subtract(wrapped, TWO_PI, out=wrapped, where=wrapped >= TWO_PI)
    return wrapped


def elementwise(fn, *arrays) -> np.ndarray:
    """``fn`` from :mod:`math` element by element, so the bits do not depend on numpy's build.

    The arrays share one shape, which the result takes.
    """
    flat = [a.ravel().tolist() for a in arrays]
    return np.fromiter(map(fn, *flat), float, len(flat[0])).reshape(arrays[0].shape)


def elementwise_each(fns, array: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each of several :mod:`math` functions element by element over one array, flattened once."""
    flat = array.ravel().tolist()
    return tuple(np.fromiter(map(fn, flat), float, len(flat)).reshape(array.shape) for fn in fns)


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


#: Object types by their code in :attr:`Tracks.types` (and in binary scenario files).
OBJECT_TYPES = tuple(ObjectType)


@dataclass(frozen=True, eq=False)
class Tracks:
    """Every logged object of a scene, one row per object in file order.

    ``ids`` is (N,) int64, ``types`` (N,) uint8 codes into
    :data:`OBJECT_TYPES`, ``dims`` (N, 3) box extents [length, width,
    height], fixed for the whole window, positive and at most
    :data:`POSE_COORDINATE_LIMIT`, ``poses`` (N, L, 4) as [x, y, z,
    heading] at every relative time index and ``valid`` (N, L).  Where
    ``valid`` is False the pose carries no meaning and consumers must ignore
    it; where it is True the pose must be finite, with x, y and z within
    :data:`POSE_COORDINATE_LIMIT` as in a submitted rollout.  A bad row is
    reported by the id of the first such row.
    """

    ids: np.ndarray
    types: np.ndarray
    dims: np.ndarray
    poses: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        ids = np.array(self.ids, dtype=np.int64)
        types = np.array(self.types, dtype=np.uint8)
        dims = np.array(self.dims, dtype=float)
        poses = np.array(self.poses, dtype=float)
        valid = np.array(self.valid, dtype=bool)
        n = ids.size
        if (ids.shape != (n,) or types.shape != (n,) or dims.shape != (n, 3) or poses.ndim != 3
                or poses.shape[::2] != (n, 4) or valid.shape != poses.shape[:2]):
            shapes = ", ".join(str(a.shape) for a in (ids, types, dims, poses, valid))
            raise MalformedScenario(f"expected (N,) ids and types, (N, 3) dims, (N, L, 4) "
                                    f"poses and (N, L) validity, got {shapes}")
        # Per row and step, in the order the checks run; a row fails on its first.
        checks = (
            (types[:, None] >= len(OBJECT_TYPES), "unknown object type code {code}"),
            (~(np.isfinite(dims) & (dims > 0.0)).all(axis=1, keepdims=True),
             "box extents must be finite and strictly positive"),
            ((dims > POSE_COORDINATE_LIMIT).any(axis=1, keepdims=True),
             f"box extents must be at most {POSE_COORDINATE_LIMIT:g} m"),
            (valid & ~np.isfinite(poses).all(axis=2), "pose at valid index {index} is not finite"),
            (valid & (np.abs(poses[..., :3]) > POSE_COORDINATE_LIMIT).any(axis=2),
             f"pose at valid index {{index}} has a coordinate beyond {POSE_COORDINATE_LIMIT:g} m"),
        )
        failing = np.array([bad.any(axis=1) for bad, _ in checks])  # (checks, N)
        if failing.any():
            row = int(np.argmax(failing.any(axis=0)))
            bad, message = checks[int(np.argmax(failing[:, row]))]
            detail = message.format(code=types[row], index=np.argmax(bad[row]))
            raise MalformedScenario(f"track {ids[row]}: {detail}")
        poses[..., 3] = normalize_heading(poses[..., 3])
        for f, array in zip(fields(self), (ids, types, dims, poses, valid)):
            object.__setattr__(self, f.name, _frozen(array))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other):
        if not isinstance(other, Tracks):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def rows(self, object_ids) -> np.ndarray:
        """Row index of each of ``object_ids``; an id with no row raises KeyError."""
        hit = np.asarray(object_ids, dtype=np.int64).reshape(-1, 1) == self.ids  # (A, N)
        found = hit.any(axis=1)
        if not found.all():
            raise KeyError(int(np.asarray(object_ids).reshape(-1)[np.argmin(found)]))
        return hit.argmax(axis=1)


@dataclass(frozen=True, eq=False)
class MapFeature:
    """A polyline map element (road edge, lane center, or other): ``polyline`` is (P, 2),
    its coordinates within :data:`POSE_COORDINATE_LIMIT`."""

    feature_id: int
    kind: MapFeatureKind
    polyline: np.ndarray

    def __post_init__(self):
        pts = np.array(self.polyline, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(
                f"map feature {self.feature_id}: expected (P, 2) points, got {pts.shape}"
            )
        if len(pts) < 2:
            raise MalformedScenario(f"map feature {self.feature_id}: polyline needs >= 2 points")
        if not np.isfinite(pts).all():
            raise MalformedScenario(
                f"map feature {self.feature_id}: polyline points must be finite"
            )
        if (np.abs(pts) > POSE_COORDINATE_LIMIT).any():
            raise MalformedScenario(f"map feature {self.feature_id}: polyline points must lie "
                                    f"within {POSE_COORDINATE_LIMIT:g} m")
        if (pts[1:] == pts[:-1]).all(axis=1).any():
            raise MalformedScenario(
                f"map feature {self.feature_id}: consecutive polyline points must differ"
            )
        object.__setattr__(self, "polyline", _frozen(pts))

    def __eq__(self, other):
        if not isinstance(other, MapFeature):
            return NotImplemented
        return (self.feature_id, self.kind) == (other.feature_id, other.kind) and (
            np.array_equal(self.polyline, other.polyline)
        )


@dataclass(frozen=True)
class Scenario:
    """A logged scene: tracks with validity over history+future, plus the map."""

    scenario_id: str
    tracks: Tracks
    map_features: tuple[MapFeature, ...]
    av_track_id: int
    timestep: float = DEFAULT_TIMESTEP
    history_length: int = DEFAULT_HISTORY_LENGTH
    future_length: int = DEFAULT_FUTURE_LENGTH

    def __post_init__(self):
        object.__setattr__(self, "map_features", tuple(self.map_features))
        try:  # JSON's "\ud800" escape gives a str that no file or digest can hold
            self.scenario_id.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedScenario("scenario_id is not valid Unicode text") from None
        if not (math.isfinite(self.timestep) and self.timestep > 0.0):
            raise MalformedScenario("timestep must be finite and positive")
        if self.history_length < 1 or self.future_length < 1:
            raise MalformedScenario("history and future lengths must be >= 1")
        expected = self.history_length + self.future_length
        ids, valid = self.tracks.ids, self.tracks.valid
        if len(ids) and valid.shape[1] != expected:
            raise MalformedScenario(
                f"track {ids[0]}: expected {expected} poses, got {valid.shape[1]}"
            )
        repeated = np.ones(len(ids), dtype=bool)
        repeated[np.unique(ids, return_index=True)[1]] = False
        if repeated.any():
            raise MalformedScenario(f"duplicate object_id {ids[np.argmax(repeated)]}")
        if not np.any(ids == self.av_track_id):
            raise MalformedScenario(f"AV track {self.av_track_id} not present")
        n_simulated = int(np.count_nonzero(valid[:, self.history_length - 1]))
        if n_simulated > MAX_SIMULATED_OBJECTS:
            raise MalformedScenario(
                f"{n_simulated} objects valid at t=0 exceeds the {MAX_SIMULATED_OBJECTS} limit"
            )

    @property
    def t0_index(self) -> int:
        """Array index of the handover step t=0 (last history observation)."""
        return self.history_length - 1

    def future(self, object_ids: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """Logged future window (steps 1..T) of some tracks, in the given order.

        Returns poses (A, T, 4) and validity (A, T).
        """
        rows = self.tracks.rows(list(object_ids))
        h = self.history_length
        return self.tracks.poses[rows, h:], self.tracks.valid[rows, h:]


@dataclass(frozen=True, eq=False)
class ScenarioRollouts:
    """A bundle of sampled joint futures for one scenario (32 for scoring).

    ``rollouts`` is (K, A, T, 4) as [x, y, z, heading] and row ``a`` of every
    rollout is object ``ids[a]``, so all rollouts cover one object set by
    construction.  Simulators always produce poses, so there is no validity
    mask.  Rows are sorted by object id on construction.

    The bundle keeps a copy of ``rollouts`` unless ``copy`` is false.  Then
    a float64 array is kept as given: its headings are wrapped in place and
    it is made read-only, so pass ``copy=False`` only with an array nothing
    else uses, such as one a decoder has just filled.
    """

    scenario_id: str
    ids: np.ndarray
    rollouts: np.ndarray
    copy: InitVar[bool] = True

    def __post_init__(self, copy: bool):
        sid = self.scenario_id
        try:
            poses = np.array(self.rollouts, dtype=float, copy=True if copy else None)
        except ValueError as exc:  # ragged input
            raise InconsistentRollouts(
                f"{sid}: rollouts differ in object count or step count ({exc})"
            ) from exc
        ids = np.array(self.ids, dtype=np.int64)
        if poses.ndim != 4 or poses.shape[-1] != 4:
            raise MalformedScenario(f"{sid}: expected (K, A, T, 4) rollouts, got {poses.shape}")
        if poses.shape[0] == 0 or poses.shape[2] == 0:
            raise MalformedScenario(f"{sid}: a rollout bundle needs at least one rollout and step")
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
        return frozenset(self.ids.tolist())

    @property
    def num_steps(self) -> int:
        return self.rollouts.shape[2]

    @cached_property
    def pose_extremes(self) -> tuple[np.ndarray, np.ndarray]:
        """(K, A) largest and smallest value of each rollout row over its steps and components.

        Computed on first use and kept: the poses are read-only.  Reductions,
        not ``np.isfinite`` or ``np.abs``, so no temporary as large as the
        poses is made.
        """
        return _frozen(self.rollouts.max(axis=(2, 3))), _frozen(self.rollouts.min(axis=(2, 3)))

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """Rollouts with equal poses grouped, as ``(first, inverse)``.

        ``first`` (E,) is the index of each distinct rollout, in order of first
        appearance, and ``inverse`` (K,) the group of every rollout, so
        ``rollouts[first][inverse]`` equals ``rollouts``.  A deterministic
        policy repeats one joint future K times, which is then extracted and
        measured once.  Computed on first use and kept: the poses are read-only.
        """
        groups: dict[bytes, int] = {}
        inverse = np.array([groups.setdefault(p.tobytes(), len(groups)) for p in self.rollouts],
                           dtype=np.intp)
        first = np.unique(inverse, return_index=True)[1]
        return _frozen(first), _frozen(inverse)


def simulated_object_ids(scenario: Scenario) -> frozenset[int]:
    """Objects that must be simulated: everything valid at the handover step.

    The AV is always part of this set; an AV that is invalid at t=0 makes the
    scenario unusable.
    """
    tracks = scenario.tracks
    ids = frozenset(tracks.ids[tracks.valid[:, scenario.t0_index]].tolist())
    if scenario.av_track_id not in ids:
        raise MalformedScenario(f"AV track {scenario.av_track_id} is invalid at t=0")
    return ids


#: The typed error scoring raises for each submission-contract violation.
CONTRACT_ERRORS: Mapping[str, type[Exception]] = {
    "MISSING_OBJECT": InconsistentRollouts,
    "EXTRA_OBJECT": InconsistentRollouts,
    "BAD_STEP_COUNT": MalformedScenario,
    "NONFINITE_POSE": MalformedScenario,
    "OUT_OF_RANGE_POSE": MalformedScenario,
}


def rollout_problems(scenario: Scenario, rollouts: ScenarioRollouts) -> list[tuple[str, str]]:
    """Where one scenario's rollouts break the submission contract.

    The rollouts must cover exactly the objects valid at the handover step,
    span the scenario's future length, and hold only finite poses whose x, y
    and z stay within :data:`POSE_COORDINATE_LIMIT`.  Returns ``(code,
    detail)`` pairs, codes as keys of :data:`CONTRACT_ERRORS`: at most one per
    object-set or step-count problem, and one per rollout with a non-finite
    pose or an out-of-range coordinate.  The rollout count is not part of
    this contract.  The poses are read through the bundle's
    :attr:`~ScenarioRollouts.pose_extremes`, so a bundle checked again (as
    ``evaluate_scenario`` checks after ``io.match_scenarios``) is not scanned
    again.
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
    # max and min propagate NaN, and an infinity shows in one.
    high, low = rollouts.pose_extremes
    finite = np.isfinite(high) & np.isfinite(low)
    for k in np.flatnonzero(~finite.all(axis=1)):
        oid = rollouts.ids[np.argmin(finite[k])]  # first object with a bad pose
        problems.append(("NONFINITE_POSE", f"rollout {k} object {oid} has NaN/Inf"))
    # Every heading is wrapped into [0, 2*pi), so only x, y and z can pass the limit.
    far = ((high > POSE_COORDINATE_LIMIT) | (low < -POSE_COORDINATE_LIMIT)) & finite
    for k in np.flatnonzero(far.any(axis=1)):
        oid = rollouts.ids[np.argmax(far[k])]  # first object out of range
        problems.append((
            "OUT_OF_RANGE_POSE",
            f"rollout {k} object {oid} has a coordinate beyond {POSE_COORDINATE_LIMIT:g} m",
        ))
    return problems


def strip_late_spawns(scenario: Scenario) -> Scenario:
    """Drop objects that only appear after the history window.

    Applied to logged data before evaluation so that objects spawning during
    the future cannot bias the logged feature distribution.
    """
    tracks = scenario.tracks
    keep = tracks.valid[:, : scenario.history_length].any(axis=1)
    if keep.all():
        return scenario
    kept = Tracks(tracks.ids[keep], tracks.types[keep], tracks.dims[keep], tracks.poses[keep],
                  tracks.valid[keep])
    return replace(scenario, tracks=kept)
