"""Scalar feature series of every object in a simulated or logged scene.

Nine measurements are produced for every object over the 80-step future
window: four kinematic (linear speed, linear acceleration, angular speed,
angular acceleration), three interaction (signed distance to the nearest
object, a collided-at-any-time indication, time-to-collision against a
followed object), and two map-based (signed distance to the nearest road
edge, an off-road-at-any-time indication).

Derivatives are backward differences over the future window only, so a
k-step derivative marks its first k steps invalid and is otherwise valid at
step t exactly when all k+1 underlying poses are valid.  The two indications
are collapsed to a single event per object and represented as a constant
boolean series.  Every metric is a pair of (objects, steps) arrays: values
and validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .geometry import _boxes_corners, box_signed_distance_batch, polyline_distance_batch
from .scene import TWO_PI, MapFeature, MapFeatureKind, Scenario, ScenarioRollouts


class MetricKind(Enum):
    LINEAR_SPEED = "linear_speed"
    LINEAR_ACCEL = "linear_accel"
    ANGULAR_SPEED = "angular_speed"
    ANGULAR_ACCEL = "angular_accel"
    DIST_TO_NEAREST_OBJECT = "dist_to_nearest_object"
    COLLISION = "collision"
    TIME_TO_COLLISION = "time_to_collision"
    DIST_TO_ROAD_EDGE = "dist_to_road_edge"
    OFFROAD = "offroad"


#: Metrics whose value is a single boolean event per object per rollout.
BOOLEAN_METRICS = frozenset({MetricKind.COLLISION, MetricKind.OFFROAD})

METRIC_ORDER = tuple(MetricKind)


@dataclass(frozen=True)
class FeatureParams:
    """Knobs for the features whose thresholds are conventions, not data."""

    ttc_max: float = 5.0
    ttc_heading_threshold: float = math.pi / 4.0
    ttc_min_lateral: float = 1.0
    ttc_closing_eps: float = 1e-3


DEFAULT_FEATURE_PARAMS = FeatureParams()


@dataclass(frozen=True)
class SceneStates:
    """Array view of one scene's future window, shared by all feature ops.

    ``centers`` is (A, T, 3), ``headings`` and ``valid`` are (A, T), ``dims``
    is (A, 3) as [length, width, height].  Row order follows ``ids``.
    """

    ids: tuple[int, ...]
    centers: np.ndarray
    headings: np.ndarray
    valid: np.ndarray
    dims: np.ndarray
    dt: float

    @classmethod
    def from_logged_future(cls, scenario: Scenario) -> "SceneStates":
        """All logged tracks over the future window, with logged validity."""
        ids = tuple(sorted(t.object_id for t in scenario.tracks))
        poses, valid = scenario.future(ids)
        return cls._from_poses(scenario, ids, poses, valid)

    @classmethod
    def from_rollout(cls, scenario: Scenario, rollouts: ScenarioRollouts, k: int) -> "SceneStates":
        """Rollout ``k`` of a bundle; box extents come from the source scenario.

        The rollouts must meet the submission contract
        (:func:`simreal.scene.rollout_problems`): every row a track of the
        scenario, over its future length.
        """
        ids = tuple(int(oid) for oid in rollouts.ids)
        poses = rollouts.rollouts[k]
        return cls._from_poses(scenario, ids, poses, np.ones(poses.shape[:2], dtype=bool))

    @classmethod
    def _from_poses(cls, scenario, ids, poses, valid) -> "SceneStates":
        tracks = [scenario.track(oid) for oid in ids]
        dims = np.array([(t.length, t.width, t.height) for t in tracks]).reshape(len(ids), 3)
        return cls(
            ids=ids,
            centers=poses[:, :, :3],
            headings=poses[:, :, 3],
            valid=valid,
            dims=dims,
            dt=scenario.timestep,
        )


def _boxes(states: SceneStates) -> np.ndarray:
    """(A, T, 5) [cx, cy, heading, length, width] box of every object at every step."""
    a, t = states.valid.shape
    return np.concatenate(
        [
            states.centers[:, :, :2],
            states.headings[:, :, None],
            np.broadcast_to(states.dims[:, None, 0:2], (a, t, 2)),
        ],
        axis=-1,
    )


# ---------------------------------------------------------------------------
# Array kernels.  All return (values, valid) pairs shaped (A, T); masked
# slots hold 0 so downstream pooling can never pick up garbage.


def _masked(vals: np.ndarray, ok: np.ndarray) -> np.ndarray:
    return np.where(ok, vals, 0.0)


def _speed_arrays(centers: np.ndarray, valid: np.ndarray, dt: float):
    """Linear speed: 3D speed from one-step position differences."""
    vals = np.zeros(valid.shape)
    ok = np.zeros(valid.shape, dtype=bool)
    if valid.shape[1] >= 2:
        step = np.linalg.norm(np.diff(centers, axis=1), axis=-1) / dt
        vals[:, 1:] = step
        ok[:, 1:] = valid[:, 1:] & valid[:, :-1]
    return _masked(vals, ok), ok


def _derivative_arrays(vals: np.ndarray, ok: np.ndarray, dt: float):
    """One-step difference of a series: linear acceleration from signed speed
    differences, angular acceleration from signed angular speed differences."""
    out = np.zeros_like(vals)
    out_ok = np.zeros_like(ok)
    if vals.shape[1] >= 2:
        out[:, 1:] = np.diff(vals, axis=1) / dt
        out_ok[:, 1:] = ok[:, 1:] & ok[:, :-1]
    return _masked(out, out_ok), out_ok


def _wrap_signed(delta: np.ndarray) -> np.ndarray:
    m = delta % TWO_PI
    return np.where(m > math.pi, m - TWO_PI, m)


def _angular_speed_arrays(headings: np.ndarray, valid: np.ndarray, dt: float):
    """Signed heading rate using the shortest rotation between steps."""
    vals = np.zeros(valid.shape)
    ok = np.zeros(valid.shape, dtype=bool)
    if valid.shape[1] >= 2:
        vals[:, 1:] = _wrap_signed(np.diff(headings, axis=1)) / dt
        ok[:, 1:] = valid[:, 1:] & valid[:, :-1]
    return _masked(vals, ok), ok


#: Absolute and coordinate-relative margins added to the broad-phase upper
#: bound so that rounding in the bounds or the exact kernel never prunes a
#: pair that could be a row's minimum.
_BROAD_PHASE_SLACK = 1e-6
_BROAD_PHASE_REL_SLACK = 1e-12


def _nearest_object_arrays(states: SceneStates):
    """Signed box distance to the nearest other object, per object per step.

    Pairs are gated on vertical overlap of the two boxes; when no other
    object overlaps vertically the plain 2D minimum is used instead.  A scene
    with a single object yields an all-invalid series.

    An exact broad-phase limits the box kernel to pairs that can be a row's
    minimum.  With ``cd`` the 2D centre distance and ``r = hypot(length,
    width) / 2`` the circumradius:

    * Upper bound: a box contains its centre, so the signed distance of a
      pair is at most ``cd`` (overlap reads negative).  Row i's minimum is
      therefore at most ``U(i,t)``, the smallest ``cd`` over the partners
      that define it: the gated partners when there are any, otherwise every
      valid partner.
    * Lower bound: the signed distance is at least ``L = cd - r_i - r_j``.
      Disjoint boxes lie inside their circumscribed discs; overlapping boxes
      are separated by a shift of ``r_i + r_j - cd`` along the centre line,
      so their penetration depth is no larger than that shift.

    A pair-step with ``L > max(U_i, U_j) + slack`` cannot be the minimum of
    either row and keeps distance ``inf``; the kernel runs on every other
    valid pair-step, a superset of each row's argmin, so the result equals
    the all-pairs computation bit for bit.  ``slack`` is 1e-6 plus 1e-12 of
    the largest coordinate, far above the rounding of both bounds.  Pairs
    with a non-finite coordinate or heading always reach the kernel, so NaN
    propagates as it would without pruning.
    """
    a, t = states.valid.shape
    vals = np.zeros((a, t))
    ok = np.zeros((a, t), dtype=bool)
    if a < 2:
        return vals, ok

    both_valid = states.valid[:, None, :] & states.valid[None, :, :]
    diag = np.arange(a)
    both_valid[diag, diag, :] = False  # no self pairs

    z = states.centers[:, :, 2]
    half_heights = states.dims[:, 2] / 2.0
    zgap = np.abs(z[:, None, :] - z[None, :, :])
    zlim = half_heights[:, None] + half_heights[None, :]
    gated = both_valid & (zgap <= zlim[:, :, None])
    has_gated = gated.any(axis=1)
    has_any = both_valid.any(axis=1)
    # Pairs with no vertical overlap fall back to the plain 2D minimum so the
    # step still scores.
    defining = np.where(has_gated[:, None, :], gated, both_valid)

    xy = states.centers[:, :, :2]
    cd = np.hypot(
        xy[:, None, :, 0] - xy[None, :, :, 0], xy[:, None, :, 1] - xy[None, :, :, 1]
    )  # (A, A, T)
    upper = np.where(defining, cd, np.inf).min(axis=1)  # (A, T)
    finite = np.isfinite(xy).all(axis=-1) & np.isfinite(states.headings)
    scale = np.abs(xy[finite]).max(initial=0.0)
    slack = _BROAD_PHASE_SLACK + _BROAD_PHASE_REL_SLACK * scale

    iu, ju = np.triu_indices(a, 1)
    radius = np.hypot(states.dims[:, 0], states.dims[:, 1]) / 2.0
    lower = cd[iu, ju] - radius[iu, None] - radius[ju, None]  # (P, T)
    reach = np.maximum(upper[iu], upper[ju]) + slack
    need = both_valid[iu, ju] & (~(lower > reach) | ~(finite[iu] & finite[ju]))
    pair, step = np.nonzero(need)
    rows, cols = iu[pair], ju[pair]

    boxes = _boxes(states)
    pair_d = box_signed_distance_batch(boxes[rows, step], boxes[cols, step])
    dist = np.full((a, a, t), np.inf)
    dist[rows, cols, step] = pair_d
    dist[cols, rows, step] = pair_d

    vals = np.where(defining, dist, np.inf).min(axis=1)
    return _masked(vals, has_any), has_any


def _event_series(per_step_vals, per_step_ok, predicate):
    """Constant boolean series: ``predicate`` held at some valid step.

    Collision is a negative nearest-object distance (overlap with someone);
    off-road is a positive road-edge distance (some corner left the road).
    """
    event = (predicate(per_step_vals) & per_step_ok).any(axis=1)
    defined = per_step_ok.any(axis=1)
    t = per_step_ok.shape[1]
    vals = np.broadcast_to(event[:, None].astype(float), (len(event), t)).copy()
    ok = np.broadcast_to(defined[:, None], (len(event), t)).copy()
    return _masked(vals, ok), ok


def _ttc_arrays(states: SceneStates, speed_vals, speed_ok, params: FeatureParams):
    """Constant-speed time to reach the followed object, capped at ttc_max.

    An object follows a leader when the leader is longitudinally ahead with a
    positive bumper gap, laterally within the shared corridor, and heading
    within the alignment threshold.  Steps with no followed object, a
    non-closing follower, or an already-overlapping pair take the cap.
    """
    a, t = states.valid.shape
    cap = params.ttc_max
    vals = np.full((a, t), cap)
    ok = speed_ok.copy()
    if a >= 2:
        # Follower/leader tensors are (A, A, T); small agent counts keep this
        # comfortably in memory.
        h = states.headings
        hx, hy = np.cos(h), np.sin(h)
        x, y = states.centers[:, :, 0], states.centers[:, :, 1]
        dx = x[None, :, :] - x[:, None, :]
        dy = y[None, :, :] - y[:, None, :]
        lon = hx[:, None, :] * dx + hy[:, None, :] * dy
        lat = -hy[:, None, :] * dx + hx[:, None, :] * dy
        hd = np.abs(_wrap_signed(h[None, :, :] - h[:, None, :]))
        half_len = states.dims[:, 0] / 2.0
        gap = lon - (half_len[:, None] + half_len[None, :])[:, :, None]
        lat_lim = np.maximum(
            params.ttc_min_lateral,
            (states.dims[:, 1][:, None] + states.dims[:, 1][None, :]) / 2.0,
        )[:, :, None]
        leaders = (states.valid & speed_ok)[None, :, :]
        cand = (
            leaders
            & ~np.eye(a, dtype=bool)[:, :, None]
            & (hd <= params.ttc_heading_threshold)
            & (lon > 0.0)
            & (np.abs(lat) <= lat_lim)
            & (gap > 0.0)
        )
        gap_sel = np.where(cand, gap, np.inf)
        lead = np.argmin(gap_sel, axis=1)  # (A, T) leader row per follower/step
        best_gap = np.take_along_axis(gap_sel, lead[:, None, :], axis=1)[:, 0, :]
        has_lead = np.isfinite(best_gap)
        cols = np.arange(t)[None, :]
        closing = speed_vals - speed_vals[lead, cols]
        ttc = np.where(
            closing > params.ttc_closing_eps,
            np.minimum(cap, best_gap / np.maximum(closing, params.ttc_closing_eps)),
            cap,
        )
        vals = np.where(speed_ok & has_lead, ttc, cap)
    return _masked(vals, ok), ok


_POLYLINE_CHUNK = 200_000  # max points*segments handled in one batch call


def _road_edge_arrays(states: SceneStates, map_features: Sequence[MapFeature]):
    """Signed distance from the most off-road box corner to the nearest road edge.

    Positive values are off the drivable area (left of the edge direction),
    negative values are inside.  A map without road edges yields all-invalid
    series.
    """
    a, t = states.valid.shape
    vals = np.zeros((a, t))
    ok = np.zeros((a, t), dtype=bool)
    starts, ends = _road_edge_segments(tuple(map_features))
    if starts is None or a == 0:
        return vals, ok

    pts = _boxes_corners(_boxes(states)).reshape(-1, 2)  # (A, T, 4, 2) corners

    chunk = max(1, _POLYLINE_CHUNK // max(1, len(starts)))
    signed = np.empty(len(pts))
    for lo in range(0, len(pts), chunk):
        d, side = polyline_distance_batch(pts[lo : lo + chunk], starts, ends)
        # Drivable area sits on the right of road-edge polylines, so the left
        # side is off-road and signs positive.
        signed[lo : lo + chunk] = d * side
    vals = signed.reshape(a, t, 4).max(axis=2)
    ok = states.valid.copy()
    return _masked(vals, ok), ok


@lru_cache(maxsize=64)
def _road_edge_segments(map_features: tuple[MapFeature, ...]):
    starts: list[np.ndarray] = []
    ends: list[np.ndarray] = []
    for feat in map_features:
        if feat.kind is not MapFeatureKind.ROAD_EDGE:
            continue
        pts = np.asarray(feat.polyline)
        starts.append(pts[:-1])
        ends.append(pts[1:])
    if not starts:
        return None, None
    return np.concatenate(starts), np.concatenate(ends)


# ---------------------------------------------------------------------------
# Scene-level extraction.


def extract_features(
    states: SceneStates,
    map_features: Sequence[MapFeature],
    params: FeatureParams = DEFAULT_FEATURE_PARAMS,
) -> dict[MetricKind, tuple[np.ndarray, np.ndarray]]:
    """All nine metrics for every object in the scene.

    Each metric maps to ``(values, valid)`` arrays shaped (A, T), rows in
    ``states.ids`` order; invalid slots hold 0.  Shared intermediates
    (speeds, pairwise distances) are computed once.
    """
    dt = states.dt
    speed = _speed_arrays(states.centers, states.valid, dt)
    angular = _angular_speed_arrays(states.headings, states.valid, dt)
    nearest = _nearest_object_arrays(states)
    road_edge = _road_edge_arrays(states, map_features)
    return {
        MetricKind.LINEAR_SPEED: speed,
        MetricKind.LINEAR_ACCEL: _derivative_arrays(*speed, dt),
        MetricKind.ANGULAR_SPEED: angular,
        MetricKind.ANGULAR_ACCEL: _derivative_arrays(*angular, dt),
        MetricKind.DIST_TO_NEAREST_OBJECT: nearest,
        MetricKind.COLLISION: _event_series(*nearest, lambda v: v < 0.0),
        MetricKind.TIME_TO_COLLISION: _ttc_arrays(states, *speed, params),
        MetricKind.DIST_TO_ROAD_EDGE: road_edge,
        MetricKind.OFFROAD: _event_series(*road_edge, lambda v: v > 0.0),
    }
