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
boolean series.  Every metric is a pair of (rollouts, objects, steps) arrays,
values and validity: K joint futures of one scene are extracted in one call,
and each rollout's rows equal what extracting that rollout alone gives, bit
for bit.  The logged future extracted alone is the case K=1; scoring stacks
it with the rollouts (:meth:`SceneStates.from_rollout`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .geometry import (
    _SEGMENT_LOOP_MIN_POINTS,
    BoxTable,
    _corners_xy,
    _segment_squared_distances,
    box_signed_distance_batch,
    polyline_distance_batch,
    separating_gap,
)
from .errors import MalformedScenario
from .scene import (
    POSE_COORDINATE_LIMIT,
    TWO_PI,
    MapFeature,
    MapFeatureKind,
    Scenario,
    ScenarioRollouts,
)


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

    def __post_init__(self):
        checks = (
            ("ttc_max", "finite and > 0", math.isfinite(self.ttc_max) and self.ttc_max > 0.0),
            ("ttc_heading_threshold", "in [0, pi]", 0.0 <= self.ttc_heading_threshold <= math.pi),
            ("ttc_min_lateral", "finite and >= 0",
             math.isfinite(self.ttc_min_lateral) and self.ttc_min_lateral >= 0.0),
            ("ttc_closing_eps", "finite and > 0",
             math.isfinite(self.ttc_closing_eps) and self.ttc_closing_eps > 0.0),
        )
        for name, need, ok in checks:
            if not ok:
                raise ValueError(f"features.{name} must be {need}, got {getattr(self, name)!r}")


DEFAULT_FEATURE_PARAMS = FeatureParams()

#: The member of a :meth:`SceneStates.from_rollout` stack that is the logged future.
LOGGED_FUTURE = -1


@dataclass(frozen=True)
class SceneStates:
    """Array view of K joint futures of one scene, shared by all feature ops.

    ``poses`` is (K, A, T, 4) as [x, y, z, heading], ``valid`` is (K, A, T)
    and ``dims`` is (A, 3) as [length, width, height].  Row order follows ``ids``.

    Every kernel relies on the bounds that construction checks: each pose
    component of a valid slot, heading included, and each extent lies within
    :data:`~simreal.scene.POSE_COORDINATE_LIMIT` (extents in [0, 1e7]), and
    invalid slots hold zeros.  Then every box corner lies within 2e7 on each
    axis, so no squared distance reaches 1e16: no kernel overflows or makes a
    NaN.  A scene that breaks them raises :class:`MalformedScenario`.
    """

    ids: tuple[int, ...]
    poses: np.ndarray
    valid: np.ndarray
    dims: np.ndarray
    dt: float

    def __post_init__(self):
        limit = POSE_COORDINATE_LIMIT
        if not (np.abs(self.poses) <= np.where(self.valid, limit, 0.0)[..., None]).all():
            raise MalformedScenario(f"scene states: a valid slot's pose must be finite and within "
                                    f"{limit:g}, and an invalid slot's all zeros")
        if not ((self.dims >= 0.0) & (self.dims <= limit)).all():
            raise MalformedScenario(f"scene states: box extents must be in [0, {limit:g}] m")

    @classmethod
    def from_logged_future(cls, scenario: Scenario) -> "SceneStates":
        """All logged tracks over the future window, with logged validity (K=1)."""
        ids = tuple(np.sort(scenario.tracks.ids).tolist())
        poses, valid = _logged_future(scenario, ids)
        return cls._from_poses(scenario, ids, poses[None], valid[None])

    @classmethod
    def from_rollout(
        cls, scenario: Scenario, rollouts: ScenarioRollouts, ks: Sequence[int]
    ) -> "SceneStates":
        """Rollouts ``ks`` of a bundle, stacked in that order; a ``k`` of
        :data:`LOGGED_FUTURE` stands for the logged future.  Box extents come
        from the scenario.

        The rows are the tracks of the members: every logged track in id order
        when the logged future is one, else ``rollouts.ids``.  A rollout's rows
        of tracks it does not simulate (valid in the history but not at the
        handover step) are invalid.  Every kernel reads a slot only through
        its validity, so the simulated rows get the bits a stack over the
        rollout's own ids gives them.  The rollouts must meet the submission
        contract (:func:`simreal.scene.rollout_problems`): every row a track
        of the scenario, over its future length.
        """
        ks = np.asarray(ks, dtype=np.intp)
        logged = np.flatnonzero(ks == LOGGED_FUTURE)
        ids = np.sort(scenario.tracks.ids) if len(logged) else rollouts.ids
        # Channel-major, as decoded rollouts are: each coordinate's (K, A, T) plane
        # is contiguous for the kernels that read one coordinate at a time.
        poses = np.zeros((4, len(ks), len(ids), rollouts.num_steps)).transpose(1, 2, 3, 0)
        valid = np.zeros(poses.shape[:3], dtype=bool)
        rows = np.searchsorted(ids, rollouts.ids)
        poses[:, rows] = rollouts.rollouts[ks]  # the logged future's members are replaced below
        valid[:, rows] = True
        ids = tuple(ids.tolist())
        for k in logged:
            poses[k], valid[k] = _logged_future(scenario, ids)
        return cls._from_poses(scenario, ids, poses, valid)

    @classmethod
    def _from_poses(cls, scenario, ids, poses, valid) -> "SceneStates":
        dims = scenario.tracks.dims[scenario.tracks.rows(ids)]
        return cls(ids, poses, valid, dims, scenario.timestep)


def _logged_future(scenario: Scenario, ids) -> tuple[np.ndarray, np.ndarray]:
    """``scenario.future(ids)`` with zeros in the invalid slots, whatever the scenario holds."""
    poses, valid = scenario.future(ids)
    return np.where(valid[..., None], poses, 0.0), valid


def _box_table(states: SceneStates) -> BoxTable:
    """The box of every object at every step, over the flat (K, A, T) boxes."""
    dims = states.dims[:, None, :2]
    return BoxTable.of(states.poses[..., 0], states.poses[..., 1], states.poses[..., 3],
                       dims[..., 0], dims[..., 1])


# ---------------------------------------------------------------------------
# Array kernels.  All return (values, valid) pairs shaped (K, A, T); masked
# slots hold 0 so downstream pooling can never pick up garbage.  Rollouts
# never mix: every reduction runs along the object or step axis.


def _masked(vals: np.ndarray, ok: np.ndarray) -> np.ndarray:
    return np.where(ok, vals, 0.0)


def _backward_difference(delta: np.ndarray, valid: np.ndarray, dt: float):
    """Rate ``delta / dt`` of a (..., T) series, valid where a step and the one before are.

    ``delta`` (..., T-1) is each step's change: a position difference's norm
    gives speed, a wrapped heading difference angular speed, a rate's difference acceleration.
    """
    vals = np.zeros(valid.shape)
    ok = np.zeros(valid.shape, dtype=bool)
    vals[..., 1:] = delta / dt
    ok[..., 1:] = valid[..., 1:] & valid[..., :-1]
    return _masked(vals, ok), ok


def _wrap_signed(delta: np.ndarray) -> np.ndarray:
    """Angle differences as the signed shortest rotation, in (-pi, pi]."""
    m = delta % TWO_PI
    return np.where(m > math.pi, m - TWO_PI, m)


#: Absolute and coordinate-relative margins added to the broad-phase upper
#: bounds (nearest object and road-edge grid) so that rounding in the bounds
#: or the exact kernel never prunes a candidate that could be a minimum.
_BROAD_PHASE_SLACK = 1e-6
_BROAD_PHASE_REL_SLACK = 1e-12

#: Pair-steps per box kernel call.  The corner-to-edge call peaks at about
#: 0.55 kB per pair-step when every pair is disjoint, its gathered table
#: columns and output included (tracemalloc, 4,096 pairs); the gap call at
#: about 0.36 kB.
_BOX_CHUNK = 4096


def _pair_kernel(kernel, table: BoxTable, first, second, *extra) -> np.ndarray:
    """``kernel`` on the table's boxes ``first`` and ``second``, ``_BOX_CHUNK`` pairs a call."""
    out = np.empty(len(first))
    for lo in range(0, len(first), _BOX_CHUNK):
        at = slice(lo, lo + _BOX_CHUNK)
        out[at] = kernel(table.take(first[at]), table.take(second[at]), *(e[at] for e in extra))
    return out


def _pair_bounds(lo, hi):
    """Centre distance, vertical gate and inscribed-disc bound of pairs of sweep rows.

    ``lo`` and ``hi`` hold the x, y, z, half height and inscribed radius of
    each pair's two boxes.  The float operations are those of the all-pairs
    bound, in an order that does not depend on which box comes first, so
    every value has the bits the all-pairs bound gives it.
    """
    dx = hi[0] - lo[0]
    dy = hi[1] - lo[1]
    # The centre distance only bounds, so it may round differently from ``hypot``.
    cd = dx * dx
    cd += dy * dy
    np.sqrt(cd, out=cd)
    gated = np.abs(lo[2] - hi[2]) <= lo[3] + hi[3]
    return cd, gated, cd - (lo[4] + hi[4])


def _kept_pairs(cd, gated, lo, hi, real):
    """The visited pairs that the nearest-object bound keeps, as (row_i, row_j, for_i, for_j).

    ``cd`` and ``gated`` are :func:`_pair_bounds` of the pairs; ``lo`` and
    ``hi`` hold each pair's two rows' flat (K, A, T) row, gate flag, bound
    ``U``, circumradius and slack; ``real`` masks the pairs to take.  Row i
    is the pair's lower object index.
    """
    src_lo, has_lo, u_lo, r_lo, slack = lo
    src_hi, has_hi, u_hi, r_hi, _ = hi
    for_lo = gated | ~has_lo
    for_hi = gated | ~has_hi
    swap = src_hi < src_lo  # rows of one (rollout, step) are in object order
    lower = cd - np.where(swap, r_hi, r_lo)
    lower -= np.where(swap, r_lo, r_hi)
    reach = np.maximum(u_lo, u_hi)
    reach += slack
    keep = np.flatnonzero((for_lo | for_hi) & (lower <= reach) & real)
    swap, src_lo, src_hi, for_lo, for_hi = (v[keep] for v in (swap, src_lo, src_hi, for_lo, for_hi))
    return (np.where(swap, src_hi, src_lo), np.where(swap, src_lo, src_hi),
            np.where(swap, for_hi, for_lo), np.where(swap, for_lo, for_hi))


def _nearest_candidates(states: SceneStates, slack: np.ndarray):
    """Candidate pairs of :func:`_nearest_object_arrays`, from a sweep of each step in x order.

    ``slack`` is each rollout's (K,) broad-phase slack.  Returns the flat
    (K, A, T) rows ``row_i`` and ``row_j`` of each candidate's two objects
    (i < j) and whether the pair defines row i's and row j's minimum, in
    (rollout, i, j, step) order.

    A column is one step of one rollout, its valid rows sorted by x.  The
    sweep walks partner offsets d = 1, 2, ... in that order, pairing each
    row with the row d places on, and keeps each row's least bound ``U``
    over its gated partners and over all of them.  A partner farther along
    the column is at least as far in x, so its pair's lower bound ``L = cd
    - r_i - r_j`` is at least that x-distance minus ``r_i + r_max``.  Once
    this exceeds the row's gated ``U`` by twice the slack (the filter's, and
    one for the rounding of this bound), no farther partner can lower the
    row's ``U`` or pass the filter on the row's side, and the row stops
    there.  A pair is visited until both of its rows have stopped.  A row
    with no gated partner yet never stops, since a farther gated partner
    would change the partners that define its minimum.  Rows that never
    stop visit every partner: when no box of a column overlaps another
    vertically, the sweep visits all of its pairs.  The stop test only
    tightens as d grows, so a pair is visited only if a pair of offset d - 1
    sharing one of its rows was.

    The visited pairs then get the filter of the all-pairs bound, with the
    same float operations: a pair is kept if it defines the minimum of one
    of its rows and ``(cd - r_i) - r_j`` is not above ``max(U_i, U_j) +
    slack``.  Every pair that filter would keep is visited, so these are
    exactly its candidates.
    """
    k, a, t = states.valid.shape
    n = k * t * a
    # Sorted row s is place s % A of column s // A: valid rows first, in x order.
    key = np.where(states.valid, states.poses[..., 0], np.nan)
    obj = np.argsort(key.transpose(0, 2, 1), axis=-1)
    src = (obj * t + (np.arange(k)[:, None, None] * (a * t) + np.arange(t)[:, None])).reshape(-1)
    obj = obj.reshape(-1)
    end = np.repeat(np.arange(0, n, a) + states.valid.sum(axis=1).reshape(-1), a)
    dims = states.dims
    radius = np.hypot(dims[:, 0], dims[:, 1]) / 2.0
    poses = states.poses.reshape(-1, 4)
    # x, y, z, half height and inscribed radius of every sorted row
    rows = [poses[:, 0][src], poses[:, 1][src], poses[:, 2][src],
            (dims[:, 2] / 2.0)[obj], (np.minimum(dims[:, 0], dims[:, 1]) / 2.0)[obj]]
    rad = radius[obj]
    row_slack = np.repeat(slack, t * a)
    stop = rad + (radius.max() + 2.0 * row_slack)  # the stop test's margin over U
    all_u, gated_u = np.empty(n), np.empty(n)
    has_gated = np.zeros(n, dtype=bool)

    # Offset 1 pairs every valid row with the next one of its column.
    cd1, gated1, upper = _pair_bounds([v[:-1] for v in rows], [v[1:] for v in rows])
    real = np.arange(1, n) < end[:-1]
    gated1 &= real
    for u, pairs in ((all_u, real), (gated_u, gated1)):
        bound = np.where(pairs, upper, np.inf)
        u[:-1] = bound
        u[-1] = np.inf
        np.minimum(u[1:], bound, out=u[1:])
    has_gated[:-1] = gated1
    has_gated[1:] |= gated1
    lo = np.flatnonzero(real)
    visited = []
    # Later offsets try the pairs beside a pair visited at offset d - 1.
    for d in range(2, a):
        mark = np.zeros(n + 1, dtype=bool)
        mark[lo] = True
        mark[lo - 1] = True  # -1 marks the spare last slot
        lo = np.flatnonzero(mark[:n])
        lo = lo[lo + d < end[lo]]
        dx = rows[0][lo + d] - rows[0][lo]
        lim = gated_u + stop
        lo = lo[(dx <= lim[lo]) | (dx <= lim[lo + d])]
        if not len(lo):
            break
        hi = lo + d
        cd, gated, upper = _pair_bounds([v[lo] for v in rows], [v[hi] for v in rows])
        all_u[lo] = np.minimum(all_u[lo], upper)  # a row is lo and hi at most once each
        all_u[hi] = np.minimum(all_u[hi], upper)
        upper = np.where(gated, upper, np.inf)
        gated_u[lo] = np.minimum(gated_u[lo], upper)
        gated_u[hi] = np.minimum(gated_u[hi], upper)
        has_gated[lo[gated]] = True
        has_gated[hi[gated]] = True
        visited.append((lo, hi, cd, gated))

    attrs = (src, has_gated, np.where(has_gated, gated_u, all_u), rad, row_slack)
    kept = [_kept_pairs(cd1, gated1, [v[:-1] for v in attrs], [v[1:] for v in attrs], real)]
    if visited:
        lo, hi, cd, gated = (np.concatenate(parts) for parts in zip(*visited))
        kept.append(_kept_pairs(cd, gated, [v[lo] for v in attrs], [v[hi] for v in attrs], True))
    row_i, row_j, for_i, for_j = (np.concatenate(parts) for parts in zip(*kept))
    order = np.argsort(row_i // t * (a * t) + row_j % (a * t))  # (rollout, i, j, step)
    return row_i[order], row_j[order], for_i[order], for_j[order]


def _nearest_object_arrays(states: SceneStates, table: BoxTable):
    """Signed box distance to the nearest other object, per object per step.

    ``table`` is :func:`_box_table` of ``states``.  Both box kernels read
    their pairs' columns from it, so no pair computes the cosine and sine of
    a heading.

    Pairs are gated on vertical overlap of the two boxes; when no other
    object overlaps vertically the plain 2D minimum is used instead.  A row
    is one object at one step; its minimum runs over the partners that
    define it: the gated ones when there are any, otherwise every valid
    one.  A scene with a single object yields an all-invalid series.

    The minimum is exact, and the box kernel runs only where it can be.
    With ``cd`` the 2D centre distance, ``r = hypot(length, width) / 2``
    the circumradius and ``a = min(length, width) / 2`` the inscribed
    radius:

    * Candidates.  A box contains its inscribed disc, so the signed
      distance of a pair is at most ``cd - a_i - a_j`` (overlapping discs
      need at least that shift to part, and so do the boxes around them).
      Row i's minimum is at most ``U(i,t)``, the least of these over its
      defining partners.  The signed distance is at least ``L = cd - r_i -
      r_j``, since the boxes lie inside their circumscribed discs.  A pair
      with ``L > max(U_i, U_j) + slack`` is dropped.  The pairs this filter
      keeps come from a sweep of each step's boxes in x order
      (:func:`_nearest_candidates`), which visits a row's partners only
      while the x-distance leaves room for a candidate, and builds no
      (K, A, A, T) array.  Its worst case, a step where no two boxes overlap
      vertically, visits every pair.
    * Phase A.  Every candidate's separating-axis gap
      (:func:`~simreal.geometry.separating_gap`, ``_BOX_CHUNK`` pairs a
      call).  A negative gap is the signed distance; a gap >= 0 is a lower
      bound of the distance.
    * Phase B.  Each row's least-gap candidates (ties included) get their
      corner-to-edge distances (:func:`~simreal.geometry.box_signed_distance_batch`
      on the gaps, one output per pair), so each row has an attained value
      ``V_i``, the least of its pair values known so far.  The corner
      distances then run only on the other disjoint candidates with ``gap
      <= max(V_i, V_j) + slack``: the rest are farther than a value both
      rows already have.
    * Each row's minimum comes straight from the pair values.

    No pair's gap or corner distances are computed twice.  Every row's
    argmin is a candidate and gets its value in phase A or B, so the result
    equals the all-pairs computation bit for bit.  ``slack`` is 1e-6 plus
    1e-12 of the rollout's largest coordinate, far above the rounding of the
    bounds, the gap and the kernel; it is taken per rollout, so stacking
    rollouts sends the kernel exactly the pair-steps of extracting each
    alone.
    """
    k, a, t = states.valid.shape
    vals = np.zeros((k, a, t))
    ok = np.zeros((k, a, t), dtype=bool)
    if a < 2:
        return vals, ok

    x, y = states.poses[..., 0], states.poses[..., 1]
    scale = np.maximum(np.abs(x), np.abs(y)).reshape(k, -1).max(axis=1)  # invalid slots are 0
    slack = _BROAD_PHASE_SLACK + _BROAD_PHASE_REL_SLACK * scale  # (K,)
    row_i, row_j, for_i, for_j = _nearest_candidates(states, slack)
    roll = row_i // (a * t)
    has_any = states.valid & (states.valid.sum(axis=1, keepdims=True) >= 2)

    gap = _pair_kernel(separating_gap, table, row_i, row_j)  # phase A
    disjoint = gap >= 0.0
    dist = gap.copy()  # final where the boxes overlap
    # (row, pair) entries: each pair counts towards the rows it defines.
    entry_row = np.concatenate([row_i[for_i], row_j[for_j]])
    entry_pair = np.concatenate([np.flatnonzero(for_i), np.flatnonzero(for_j)])
    best = np.full(k * a * t, np.inf)  # each row's least value so far

    def settle(pairs):
        """Corner distances of the disjoint ``pairs``; fold ``pairs`` into their rows."""
        corner = pairs & disjoint
        dist[corner] = _pair_kernel(
            box_signed_distance_batch, table, row_i[corner], row_j[corner], gap[corner]
        )
        taken = pairs[entry_pair]
        np.minimum.at(best, entry_row[taken], dist[entry_pair[taken]])

    entry_gap = gap[entry_pair]
    least = np.full(k * a * t, np.inf)
    np.minimum.at(least, entry_row, entry_gap)
    first = ~disjoint  # overlaps are final from phase A
    first[entry_pair[entry_gap == least[entry_row]]] = True  # ties included
    settle(first)
    reach = np.maximum(best[row_i], best[row_j]) + slack[roll]
    settle(~first & (gap <= reach))
    return _masked(best.reshape(k, a, t), has_any), has_any


def _event_series(per_step_vals, per_step_ok, predicate):
    """Constant boolean series: ``predicate`` held at some valid step.

    Collision is a negative nearest-object distance (overlap with someone);
    off-road is a positive road-edge distance (some corner left the road).
    """
    event = (predicate(per_step_vals) & per_step_ok).any(axis=-1, keepdims=True)
    defined = per_step_ok.any(axis=-1, keepdims=True)
    shape = per_step_ok.shape
    vals = np.broadcast_to(event.astype(float), shape).copy()
    ok = np.broadcast_to(defined, shape).copy()
    return _masked(vals, ok), ok


#: Pair-steps (follower, leader, step) in one time-to-collision span.  Four
#: float and two bool buffers of this length, 2.2 MB together, are the
#: kernel's whole workspace at any object count.  On the seed-0 128-object
#: straight_road logged scene the kernel's tracemalloc peak is 4.1 MB, against
#: 42 MB with (K, A, A, T) arrays.  Spans of 16,384 to 131,072 pair-steps gave
#: the same evaluate CPU time, within the host's noise of about 5%, on the
#: 32-, 64- and 128-object straight_road scenes; 262,144 read 2% slower on the
#: 32-object one and added 3 MB to its extraction peak (2-core Xeon host,
#: 2 MB of L2 cache per core).
_TTC_PAIR_STEPS = 65_536


def _ttc_spans(k: int, a: int, t: int):
    """The (k0, k1, i0, i1) spans of :func:`_ttc_arrays`: rollouts ``k0:k1``,
    followers ``i0:i1``, at most ``_TTC_PAIR_STEPS`` pair-steps each when one
    follower's A*T fit.  Spans are whole rollouts when one rollout's A*A*T
    pair-steps fit, and runs of followers within one rollout when they do not.
    """
    per_rollout = a * a * t
    if per_rollout <= _TTC_PAIR_STEPS:
        step = _TTC_PAIR_STEPS // per_rollout
        return [(lo, min(lo + step, k), 0, a) for lo in range(0, k, step)]
    step = max(1, _TTC_PAIR_STEPS // (a * t))
    return [(r, r + 1, lo, min(lo + step, a)) for r in range(k) for lo in range(0, a, step)]


def _ttc_arrays(states: SceneStates, table: BoxTable, speed_vals, speed_ok,
                params: FeatureParams):
    """Constant-speed time to reach the followed object, capped at ttc_max.

    ``table`` is :func:`_box_table` of ``states``.  Pairs are indexed
    [rollout, follower, leader, step] and taken in spans (:func:`_ttc_spans`)
    through buffers allocated once per call, so no (K, A, A, T) array is
    built and the workspace does not grow with the object count.

    An object follows a leader when the leader is longitudinally ahead with a
    positive bumper gap, laterally within the shared corridor, and heading
    within the alignment threshold.  Steps with no followed object, a
    non-closing follower, or an already-overlapping pair take the cap.

    Box extents are >= 0, so a positive gap puts the leader ahead (``lon >
    0``) and excludes the follower itself.  The corridor test and a cut on
    the gap make one mask per span, and only the pairs inside it reach the
    heading and validity tests.  Every span runs the same float operations on
    the same operands, so each gap and mask entry has the bits a dense pass
    over all pairs gives it, and the spans' kept pairs, in span order, are
    that pass's kept pairs in its (rollout, follower, leader, step) order.
    Speeds are >= 0, so the closing speed is at most the follower's speed
    ``s`` and a leader with gap >= ``ttc_max * s`` reads the cap.  The cut
    keeps gaps below ``ttc_max * s`` plus a slack above that product's
    rounding.  Leaders past it are farther than any leader inside it, so the
    nearest leader is the same unless it reads the cap anyway, and the
    result equals the all-pairs computation bit for bit.  An infinite speed
    (a timestep near 0 overflows one) needs no exception: it keeps every leader.

    Each follower's leader is a per-follower minimum over the leaders that
    pass every test, taken once over the candidates of all spans: the least
    gap (``np.minimum.at``), then the lowest leader index among the leaders
    at that gap, the one ``argmin`` over the leader axis would pick.  A
    follower with no leader reads the cap; its closing speed is taken against
    object 0, as ``argmin`` over an all-inf row would give.
    """
    k, a, t = states.valid.shape
    cap = params.ttc_max
    vals = np.full((k, a, t), cap)
    ok = speed_ok.copy()
    if a >= 2:
        h = states.poses[..., 3]
        x, y = states.poses[..., 0], states.poses[..., 1]
        hx, hy = table.cols[2].reshape(k, a, 1, t), table.cols[3].reshape(k, a, 1, t)
        lat_lim = np.maximum(
            params.ttc_min_lateral, (states.dims[:, 1][:, None] + states.dims[:, 1][None, :]) / 2.0
        )[:, :, None]
        half_len = states.dims[:, 0] / 2.0
        lengths = (half_len[:, None] + half_len[None, :])[:, :, None]
        reach = cap * speed_vals
        cut = (reach + (_BROAD_PHASE_SLACK + _BROAD_PHASE_REL_SLACK * reach))[:, :, None, :]
        spans = _ttc_spans(k, a, t)
        size = max((k1 - k0) * (i1 - i0) for k0, k1, i0, i1 in spans) * a * t
        floats, flags = np.empty((4, size)), np.empty((2, size), dtype=bool)
        near, pair_gap = [], []
        for k0, k1, i0, i1 in spans:
            shape = (k1 - k0, i1 - i0, a, t)
            n = math.prod(shape)
            dx, dy, lat, prod = (buf[:n].reshape(shape) for buf in floats)
            keep, test = (buf[:n].reshape(shape) for buf in flags)
            fx, fy = hx[k0:k1, i0:i1], hy[k0:k1, i0:i1]
            # From the follower's centre to the leader's.
            np.subtract(x[k0:k1, None], x[k0:k1, i0:i1, None], out=dx)
            np.subtract(y[k0:k1, None], y[k0:k1, i0:i1, None], out=dy)
            np.multiply(fx, dy, out=lat)
            lat -= np.multiply(fy, dx, out=prod)
            np.less_equal(np.abs(lat, out=lat), lat_lim[i0:i1], out=keep)
            gap = np.multiply(fx, dx, out=dx)
            gap += np.multiply(fy, dy, out=dy)  # the longitudinal offset
            gap -= lengths[i0:i1]
            keep &= np.greater(gap, 0.0, out=test)
            keep &= np.less(gap, cut[k0:k1, i0:i1], out=test)
            # Either the span is whole rollouts or it lies in one, so its
            # first (rollout, follower) row offsets its flat pair indices.
            at = np.flatnonzero(keep)
            pair_gap.append(gap.take(at))
            near.append(at + (k0 * a + i0) * a * t)
        near, pair_gap = np.concatenate(near), np.concatenate(pair_gap)
        # Flat (K, A, T) indices of each kept pair's follower and leader.
        pair, step = np.divmod(near, t)  # pair = (rollout * A + follower) * A + leader
        row, leader = np.divmod(pair, a)
        fol = row * t + step
        led = fol + (leader - row % a) * t
        cand = (states.valid & speed_ok).take(led) & (
            np.abs(_wrap_signed(h.take(led) - h.take(fol))) <= params.ttc_heading_threshold
        )
        fol, led, pair_gap = fol[cand], led[cand], pair_gap[cand]
        best_gap = np.full(k * a * t, np.inf)
        np.minimum.at(best_gap, fol, pair_gap)
        nearest = pair_gap == best_gap[fol]
        lead = np.full(k * a * t, a)
        np.minimum.at(lead, fol[nearest], led[nearest] // t % a)
        lead %= a  # object 0 stands in where there is no leader
        best_gap = best_gap.reshape(k, a, t)
        has_lead = np.isfinite(best_gap)
        closing = speed_vals - np.take_along_axis(speed_vals, lead.reshape(k, a, t), axis=1)
        ttc = np.where(
            closing > params.ttc_closing_eps,
            np.minimum(cap, best_gap / np.maximum(closing, params.ttc_closing_eps)),
            cap,
        )
        vals = np.where(speed_ok & has_lead, ttc, cap)
    return _masked(vals, ok), ok


_POLYLINE_CHUNK = 200_000  # max points*segments handled in one kernel call
_GRID_MIN_SEGMENTS = 64  # maps with fewer road-edge segments scan them all
_GRID_CELL = 3.0  # side of a road-edge grid cell, in metres
_GRID_PAD = 20.0  # margin the grid adds around the road edges' bounding box
_GRID_MAX_CELLS = 4096  # cells along either axis; larger maps get larger cells


class _RoadEdges:
    """The road-edge segments of one map, with a uniform grid of nearest-segment
    candidates.

    A cell with centre ``c`` and half-diagonal ``h`` keeps the segments ``s``
    with ``dist(c, s) <= min_s dist(c, s) + 2h + slack``, in ascending index
    order.  For a point ``p`` of the cell, ``|p - c| <= h``, so any segment at
    least as near to ``p`` as ``c``'s nearest passes the test: the list holds
    every segment that can be ``p``'s nearest, ties included.  The kernel's
    first-minimum rule then picks the same lowest-index segment as a scan of
    all segments, so distances and sides are equal bit for bit.  ``slack`` is
    1e-6 plus 1e-12 of the grid's largest coordinate, far above the rounding
    of either distance.

    Cells are filled the first time a point lands in them, so a map pays only
    for the cells its boxes visit, at most the grid's cell count.  Points
    outside the grid, and every point of a map with fewer than
    ``_GRID_MIN_SEGMENTS`` segments, take all segments as candidates.
    """

    def __init__(self, starts: np.ndarray, ends: np.ndarray):
        self.starts, self.ends = starts, ends
        self.cells: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.size = 0.0  # no grid
        if len(starts) < _GRID_MIN_SEGMENTS:
            return
        pts = np.concatenate([starts, ends])
        lo = pts.min(axis=0) - _GRID_PAD
        hi = pts.max(axis=0) + _GRID_PAD
        self.size = max(_GRID_CELL, (hi - lo).max() / _GRID_MAX_CELLS)
        self.origin = lo
        self.shape = np.ceil((hi - lo) / self.size).astype(np.int64)
        self.slack = _BROAD_PHASE_SLACK + _BROAD_PHASE_REL_SLACK * np.abs([lo, hi]).max()

    def cell_of(self, pts: np.ndarray) -> np.ndarray:
        """Flat grid cell of every point, -1 when it has no cell."""
        cell = np.full(len(pts), -1, dtype=np.int64)
        if not self.size:
            return cell
        f = (pts - self.origin) / self.size
        inside = ((f >= 0.0) & (f < self.shape)).all(axis=1)
        ix, iy = f[inside].astype(np.int64).T
        cell[inside] = iy * self.shape[0] + ix
        return cell

    def candidates(self, cell: int) -> tuple[np.ndarray, np.ndarray]:
        return self.cells[cell] if cell >= 0 else (self.starts, self.ends)

    def fill(self, cells: np.ndarray) -> None:
        """Compute the candidate lists of the cells not seen before."""
        new = np.array([c for c in cells.tolist() if c >= 0 and c not in self.cells], np.int64)
        if not len(new):
            return
        iy, ix = np.divmod(new, self.shape[0])
        centres = self.origin + (np.stack([ix, iy], axis=-1) + 0.5) * self.size
        reach = math.sqrt(2.0) * self.size + self.slack  # 2h + slack
        chunk = max(1, _POLYLINE_CHUNK // len(self.starts))
        for lo in range(0, len(new), chunk):
            d2 = _segment_squared_distances(centres[lo : lo + chunk], self.starts, self.ends)
            d = np.sqrt(d2)
            keep = d <= d.min(axis=1, keepdims=True) + reach
            for cell, row in zip(new[lo : lo + chunk].tolist(), keep):
                idx = np.flatnonzero(row)
                self.cells[cell] = (self.starts[idx], self.ends[idx])


def _nearest_edge(pts: np.ndarray, edges: _RoadEdges) -> tuple[np.ndarray, np.ndarray]:
    """``polyline_distance_batch(pts, edges.starts, edges.ends)``, through the grid.

    On a map without a grid every point takes all segments, so the points go
    to the kernel in their own order, with no sort, ``_SEGMENT_LOOP_MIN_POINTS``
    or ``_POLYLINE_CHUNK // segments`` of them a call, whichever is more; a
    call of ``geometry._SEGMENT_LOOP_MIN_POINTS`` points or more walks the
    segments one at a time.  On a grid map points are sorted by grid cell, and
    each cell's run goes to the kernel with the cell's candidates, at most
    ``_POLYLINE_CHUNK`` point-segment pairs a call; these runs are shorter and
    take one (points, segments) block.  Both orders give the same bits.  The
    sorted points are gathered once into a (2, P) array whose column slices
    the kernel reads without a copy; each run's results go into slices of
    sorted-order arrays, which one scatter puts back in point order.  Every
    call goes through ``polyline_distance_batch``, which computes its
    segments' terms once for both the distance and the side.
    """
    if not edges.size:
        chunk = max(_SEGMENT_LOOP_MIN_POINTS, _POLYLINE_CHUNK // len(edges.starts))
        if len(pts) <= chunk:
            return polyline_distance_batch(pts, edges.starts, edges.ends)
        parts = [polyline_distance_batch(pts[lo : lo + chunk], edges.starts, edges.ends)
                 for lo in range(0, len(pts), chunk)]
        return np.concatenate([d for d, _ in parts]), np.concatenate([sd for _, sd in parts])
    cell = edges.cell_of(pts)
    order = np.argsort(cell, kind="stable")
    cell, by_cell = cell[order], np.take(pts.T, order, axis=1)  # (2, P), sorted by cell
    first = np.flatnonzero(np.diff(cell, prepend=cell[:1] - 1))  # where each run starts
    edges.fill(cell[first])
    sorted_dist = np.empty(len(pts))
    sorted_side = np.empty(len(pts), dtype=int)
    for lo, hi in zip(first.tolist(), first[1:].tolist() + [len(cell)]):
        starts, ends = edges.candidates(int(cell[lo]))
        chunk = max(1, _POLYLINE_CHUNK // len(starts))
        for at in range(lo, hi, chunk):
            rows = slice(at, min(at + chunk, hi))
            sorted_dist[rows], sorted_side[rows] = polyline_distance_batch(
                by_cell[:, rows].T, starts, ends
            )
    dist = np.empty(len(pts))
    side = np.empty(len(pts), dtype=int)
    dist[order], side[order] = sorted_dist, sorted_side
    return dist, side


def _road_edge_arrays(states: SceneStates, table: BoxTable, map_features: Sequence[MapFeature]):
    """Signed distance from the most off-road box corner to the nearest road edge.

    ``table`` is :func:`_box_table` of ``states``.  Positive values are off the
    drivable area (left of the edge direction), negative values are inside.
    A map without road edges yields all-invalid series.

    The corners of the N valid slots are written once, corner-major, into a
    (2, 4, N) buffer whose (4N, 2) transpose the kernel reads without a copy.
    The most off-road corner is then a maximum over 4 contiguous rows of N.
    """
    vals = np.zeros(states.valid.shape)
    ok = np.zeros(states.valid.shape, dtype=bool)
    edges = _road_edge_segments(map_features)
    if edges is None:
        return vals, ok

    ok = states.valid.copy()
    corners = np.array(_corners_xy(*table.cols[:, ok.reshape(-1)]))  # (2, 4, N)
    d, side = _nearest_edge(corners.reshape(2, -1).T, edges)
    # Drivable area sits on the right of road-edge polylines, so the left
    # side is off-road and signs positive.
    d *= side
    d = d.reshape(4, -1)
    vals[ok] = np.maximum(np.maximum(d[0], d[1]), np.maximum(d[2], d[3]))
    return vals, ok


def _road_edge_segments(map_features: Sequence[MapFeature]) -> _RoadEdges | None:
    """A map's road-edge segments and grid, or None; maps with equal road edges share one."""
    edges = [f.polyline for f in map_features if f.kind is MapFeatureKind.ROAD_EDGE]
    if not edges:
        return None
    starts = np.concatenate([pts[:-1] for pts in edges])
    ends = np.concatenate([pts[1:] for pts in edges])
    return _road_edge_grid(np.stack([starts, ends]).tobytes())


@lru_cache(maxsize=64)
def _road_edge_grid(segments: bytes) -> _RoadEdges:
    """The grid of ``(2, S, 2)`` float64 segment starts and ends given as bytes."""
    starts, ends = np.frombuffer(segments).reshape(2, -1, 2)
    return _RoadEdges(starts, ends)


# ---------------------------------------------------------------------------
# Scene-level extraction.


def extract_features(
    states: SceneStates,
    map_features: Sequence[MapFeature],
    params: FeatureParams = DEFAULT_FEATURE_PARAMS,
) -> dict[MetricKind, tuple[np.ndarray, np.ndarray]]:
    """All nine metrics for every object in every rollout of ``states``.

    Each metric maps to ``(values, valid)`` arrays shaped (K, A, T), rows in
    ``states.ids`` order; invalid slots hold 0.  Shared intermediates
    (speeds, the box table) are computed once.
    """
    dt, valid, poses = states.dt, states.valid, states.poses
    # 3D speed, and the signed heading rate along the shortest rotation.
    speed = _backward_difference(np.linalg.norm(np.diff(poses[..., :3], axis=-2), axis=-1),
                                 valid, dt)
    angular = _backward_difference(_wrap_signed(np.diff(poses[..., 3], axis=-1)), valid, dt)
    table = _box_table(states)
    nearest = _nearest_object_arrays(states, table)
    ttc = _ttc_arrays(states, table, *speed, params)
    road_edge = _road_edge_arrays(states, table, map_features)
    return {
        MetricKind.LINEAR_SPEED: speed,
        MetricKind.LINEAR_ACCEL: _backward_difference(np.diff(speed[0], axis=-1), speed[1], dt),
        MetricKind.ANGULAR_SPEED: angular,
        MetricKind.ANGULAR_ACCEL: _backward_difference(
            np.diff(angular[0], axis=-1), angular[1], dt
        ),
        MetricKind.DIST_TO_NEAREST_OBJECT: nearest,
        MetricKind.COLLISION: _event_series(*nearest, lambda v: v < 0.0),
        MetricKind.TIME_TO_COLLISION: ttc,
        MetricKind.DIST_TO_ROAD_EDGE: road_edge,
        MetricKind.OFFROAD: _event_series(*road_edge, lambda v: v > 0.0),
    }
