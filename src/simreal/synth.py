"""Deterministic synthetic scenarios with analytically known feature values.

Six templates cover the behaviors the metrics must detect: plain cruising,
constant-curvature turning, an intersection crossing, car following, a
rear-end collision caused by a braking leader, and a drift off the road
edge.  The last two put the divergence in the future window only, so a
constant-velocity extrapolation of the history avoids the event while the
log contains it.

Every generated scenario ships with sidecar fixtures: feature series derived
from the construction's closed forms (plus a small local point-to-segment
routine for curved road edges), never from the feature extraction code they
exist to check.  They take the form extraction returns: per metric, a pair of
(objects, steps) arrays of values and validity, rows in ascending object id.

Generation is deterministic in (template, seed); ``noise_level`` perturbs
initial speeds and lane offsets within margins that preserve each template's
collision/offroad guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .features import MetricKind
from .scene import (
    DEFAULT_FUTURE_LENGTH,
    DEFAULT_HISTORY_LENGTH,
    DEFAULT_TIMESTEP,
    MapFeature,
    MapFeatureKind,
    ObjectType,
    Scenario,
    Track,
)

VEHICLE_DIMS = (4.6, 2.0, 1.8)
CYCLIST_DIMS = (1.9, 0.6, 1.5)
PEDESTRIAN_DIMS = (0.5, 0.5, 1.8)

ROAD_HALF_WIDTH = 7.0
TTC_CAP = 5.0
TTC_LATERAL_MIN = 1.0


class Template(Enum):
    STRAIGHT_ROAD = "straight_road"
    CURVED_ROAD = "curved_road"
    FOUR_WAY_INTERSECTION = "four_way_intersection"
    FOLLOWING_PAIR = "following_pair"
    COLLISION_COURSE = "collision_course"
    OFFROAD_DRIFT = "offroad_drift"


_MIN_AGENTS = {
    Template.STRAIGHT_ROAD: 1,
    Template.CURVED_ROAD: 1,
    Template.FOUR_WAY_INTERSECTION: 1,
    Template.FOLLOWING_PAIR: 2,
    Template.COLLISION_COURSE: 2,
    Template.OFFROAD_DRIFT: 2,
}

_DEFAULT_AGENTS = {
    Template.STRAIGHT_ROAD: 4,
    Template.CURVED_ROAD: 2,
    Template.FOUR_WAY_INTERSECTION: 4,
    Template.FOLLOWING_PAIR: 2,
    Template.COLLISION_COURSE: 2,
    Template.OFFROAD_DRIFT: 2,
}


@dataclass(frozen=True)
class SynthSpec:
    template: Template
    agent_count: int | None = None
    seed: int = 0
    noise_level: float = 0.0

    def __post_init__(self):
        if self.agent_count is not None and self.agent_count < _MIN_AGENTS[self.template]:
            raise ValueError(
                f"agent count {self.agent_count}: {self.template.value} needs >= "
                f"{_MIN_AGENTS[self.template]} agents"
            )
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} is negative")
        if math.isnan(self.noise_level):
            raise ValueError("noise level is NaN")
        object.__setattr__(self, "noise_level", float(min(max(self.noise_level, 0.0), 0.5)))


@dataclass(frozen=True)
class SynthScenario:
    """A scenario and its fixtures: ``{metric: (values (A, T), valid (A, T))}``.

    Fixture rows follow ascending object id; a metric the construction does
    not pin down (an interaction metric of a single-object scene, or the
    nearest-object distance of a scene that is not axis-aligned) is absent.
    """

    scenario: Scenario
    fixtures: dict[MetricKind, tuple[np.ndarray, np.ndarray]]


# ---------------------------------------------------------------------------
# Motion models with closed-form discrete features.


@dataclass(frozen=True)
class _LineMotion:
    """Constant heading; speed v0 during history, v0 + a*tau afterwards."""

    x0: float
    y0: float
    heading: float
    v0: float
    accel: float = 0.0
    z: float = 0.0

    def pose(self, tau: float):
        s = self.v0 * tau + 0.5 * self.accel * max(tau, 0.0) ** 2
        return (
            self.x0 + s * math.cos(self.heading),
            self.y0 + s * math.sin(self.heading),
            self.z,
            self.heading,
        )

    def speed_at(self, t: int, dt: float) -> float:
        return self.v0 + self.accel * (t * dt - dt / 2.0)

    def accel_at(self, t: int, dt: float) -> float:
        return self.accel

    def angular_speed_at(self, t: int, dt: float) -> float:
        return 0.0


@dataclass(frozen=True)
class _ArcMotion:
    """Full-window circular motion at constant angular rate."""

    cx: float
    cy: float
    radius: float
    phi0: float
    omega: float
    z: float = 0.0

    def pose(self, tau: float):
        phi = self.phi0 + self.omega * tau
        heading = phi + math.copysign(math.pi / 2.0, self.omega)
        return (
            self.cx + self.radius * math.cos(phi),
            self.cy + self.radius * math.sin(phi),
            self.z,
            heading,
        )

    def speed_at(self, t: int, dt: float) -> float:
        # Chord length of one step on the circle, not the arc speed.
        return abs(2.0 * self.radius * math.sin(self.omega * dt / 2.0) / dt)

    def accel_at(self, t: int, dt: float) -> float:
        return 0.0

    def angular_speed_at(self, t: int, dt: float) -> float:
        return self.omega


@dataclass(frozen=True)
class _DriftMotion:
    """Straight during history, constant-rate turn from the handover step on."""

    x0: float
    y0: float
    heading0: float
    speed: float
    omega: float
    z: float = 0.0

    def _circle(self):
        r_signed = self.speed / self.omega
        cx = self.x0 - r_signed * math.sin(self.heading0)
        cy = self.y0 + r_signed * math.cos(self.heading0)
        phi0 = math.atan2(self.y0 - cy, self.x0 - cx)
        return cx, cy, abs(r_signed), phi0

    def pose(self, tau: float):
        if tau <= 0.0:
            return (
                self.x0 + self.speed * tau * math.cos(self.heading0),
                self.y0 + self.speed * tau * math.sin(self.heading0),
                self.z,
                self.heading0,
            )
        cx, cy, r, phi0 = self._circle()
        phi = phi0 + self.omega * tau
        return (
            cx + r * math.cos(phi),
            cy + r * math.sin(phi),
            self.z,
            self.heading0 + self.omega * tau,
        )

    def speed_at(self, t: int, dt: float) -> float:
        r = self.speed / abs(self.omega)
        return abs(2.0 * r * math.sin(self.omega * dt / 2.0) / dt)

    def accel_at(self, t: int, dt: float) -> float:
        return 0.0

    def angular_speed_at(self, t: int, dt: float) -> float:
        return self.omega


@dataclass(frozen=True)
class _AgentDef:
    object_id: int
    object_type: ObjectType
    dims: tuple[float, float, float]
    motion: object


# ---------------------------------------------------------------------------
# Generator-local geometry used only for fixtures.


def _fixture_point_to_segments(point, starts, ends):
    """(distance, side) of one point against segments; first-minimum ties."""
    px, py = point
    d = ends - starts
    rel = np.array([px, py]) - starts
    seg_len2 = (d * d).sum(axis=1)
    frac = np.clip((rel * d).sum(axis=1) / seg_len2, 0.0, 1.0)
    foot = starts + frac[:, None] * d
    dists = np.hypot(px - foot[:, 0], py - foot[:, 1])
    k = int(np.argmin(dists))
    cross = d[k, 0] * (py - starts[k, 1]) - d[k, 1] * (px - starts[k, 0])
    if cross > 1e-9:
        side = 1.0
    elif cross < -1e-9:
        side = -1.0
    else:
        side = 0.0
    return float(dists[k]), side


def _box_corners(x, y, heading, length, width):
    c, s = math.cos(heading), math.sin(heading)
    hx, hy = c * length / 2.0, s * length / 2.0
    wx, wy = -s * width / 2.0, c * width / 2.0
    return [
        (x + hx + wx, y + hy + wy),
        (x + hx - wx, y + hy - wy),
        (x - hx - wx, y - hy - wy),
        (x - hx + wx, y - hy + wy),
    ]


def _axis_aligned_box_distance(ax, ay, aex, aey, bx, by, bex, bey):
    """Signed distance between boxes aligned to the world axes.

    ``aex``/``aey`` are full extents along x and y after accounting for each
    box's quarter-turn heading.
    """
    dx = abs(bx - ax) - (aex + bex) / 2.0
    dy = abs(by - ay) - (aey + bey) / 2.0
    if dx > 0.0 and dy > 0.0:
        return math.hypot(dx, dy)
    return max(dx, dy)


def _world_extents(heading, length, width):
    quarter = round(heading / (math.pi / 2.0)) % 2
    return (width, length) if quarter else (length, width)


def _is_quarter_turn(heading) -> bool:
    return abs(heading - round(heading / (math.pi / 2.0)) * (math.pi / 2.0)) < 1e-12


# ---------------------------------------------------------------------------
# Fixture assembly.


def _kinematic_fixtures(agent: _AgentDef, t_len: int, dt: float):
    t_idx = np.arange(1, t_len + 1)
    speed = np.array([agent.motion.speed_at(t, dt) for t in t_idx])
    accel = np.array([agent.motion.accel_at(t, dt) for t in t_idx])
    omega = np.array([agent.motion.angular_speed_at(t, dt) for t in t_idx])

    v1 = np.zeros(t_len, dtype=bool)
    v1[1:] = True  # first-derivative features lose step 1
    v2 = np.zeros(t_len, dtype=bool)
    v2[2:] = True  # second-derivative features lose steps 1..2

    return {
        MetricKind.LINEAR_SPEED: (np.where(v1, speed, 0.0), v1),
        MetricKind.LINEAR_ACCEL: (np.where(v2, accel, 0.0), v2),
        MetricKind.ANGULAR_SPEED: (np.where(v1, omega, 0.0), v1),
        MetricKind.ANGULAR_ACCEL: (np.zeros(t_len), v2),
    }


def _bool_series(flag, t_len):
    return np.full(t_len, 1.0 if flag else 0.0), np.ones(t_len, dtype=bool)


class _FixtureBuilder:
    """Derives sidecar fixtures from agent definitions and road edges."""

    def __init__(self, agents, road_edges, t_len, dt):
        self.agents = agents
        self.t_len = t_len
        # Future poses at steps 0..t_len, computed once: the pairwise fixtures
        # read every agent's pose at every step once per partner.
        self._poses = {
            agent.object_id: [agent.motion.pose(t * dt) for t in range(t_len + 1)]
            for agent in agents
        }
        starts, ends = [], []
        for poly in road_edges:
            pts = np.asarray(poly)
            starts.append(pts[:-1])
            ends.append(pts[1:])
        self.seg_starts = np.concatenate(starts)
        self.seg_ends = np.concatenate(ends)

    def _future_pose(self, agent, t):
        return self._poses[agent.object_id][t]

    def road_edge_series(self, agent) -> np.ndarray:
        vals = np.empty(self.t_len)
        for j, t in enumerate(range(1, self.t_len + 1)):
            x, y, _, h = self._future_pose(agent, t)
            best = -math.inf
            for corner in _box_corners(x, y, h, agent.dims[0], agent.dims[1]):
                dist, side = _fixture_point_to_segments(corner, self.seg_starts, self.seg_ends)
                best = max(best, dist * side)
            vals[j] = best
        return vals

    def axis_aligned(self) -> bool:
        """True when every agent keeps a quarter-turn heading all window long."""
        return all(
            _is_quarter_turn(self._future_pose(agent, t)[3])
            for agent in self.agents
            for t in range(0, self.t_len + 1)
        )

    def nearest_series(self, agent) -> np.ndarray:
        """Pairwise minimum box distance; only valid for axis-aligned scenes."""
        vals = np.empty(self.t_len)
        for j, t in enumerate(range(1, self.t_len + 1)):
            ax, ay, _, ah = self._future_pose(agent, t)
            aex, aey = _world_extents(ah, agent.dims[0], agent.dims[1])
            best = math.inf
            for other in self.agents:
                if other.object_id == agent.object_id:
                    continue
                bx, by, _, bh = self._future_pose(other, t)
                bex, bey = _world_extents(bh, other.dims[0], other.dims[1])
                best = min(best, _axis_aligned_box_distance(ax, ay, aex, aey, bx, by, bex, bey))
            vals[j] = best
        return vals

    def collision_free_margin(self) -> float:
        """Lower bound on pairwise box distance from center separations."""
        margin = math.inf
        diag = {a.object_id: math.hypot(a.dims[0], a.dims[1]) / 2.0 for a in self.agents}
        for i, a in enumerate(self.agents):
            for b in self.agents[i + 1 :]:
                for t in range(1, self.t_len + 1):
                    xa, ya, _, _ = self._future_pose(a, t)
                    xb, yb, _, _ = self._future_pose(b, t)
                    gap = math.hypot(xb - xa, yb - ya) - diag[a.object_id] - diag[b.object_id]
                    margin = min(margin, gap)
        return margin


@dataclass(frozen=True)
class _TemplatePlan:
    agents: list[_AgentDef]
    road_edges: list[list[tuple[float, float]]]
    ttc_overrides: dict[int, np.ndarray]
    collision_ids: frozenset[int] = frozenset()
    offroad_ids: frozenset[int] = frozenset()


def _assemble(
    template: Template,
    seed: int,
    plan: _TemplatePlan,
    h_len=DEFAULT_HISTORY_LENGTH,
    t_len=DEFAULT_FUTURE_LENGTH,
    dt=DEFAULT_TIMESTEP,
) -> SynthScenario:
    agents = plan.agents
    tracks = []
    for agent in agents:
        poses = [agent.motion.pose((i - (h_len - 1)) * dt) for i in range(h_len + t_len)]
        tracks.append(
            Track(
                object_id=agent.object_id,
                object_type=agent.object_type,
                length=agent.dims[0],
                width=agent.dims[1],
                height=agent.dims[2],
                poses=poses,
                valid=np.ones(len(poses), dtype=bool),
            )
        )
    scenario = Scenario(
        scenario_id=f"{template.value}-s{seed:04d}",
        tracks=tuple(tracks),
        map_features=_edges_to_features(plan.road_edges),
        av_track_id=agents[0].object_id,
        timestep=dt,
        history_length=h_len,
        future_length=t_len,
    )

    builder = _FixtureBuilder(agents, plan.road_edges, t_len, dt)
    multi = len(agents) > 1
    axis_ok = multi and builder.axis_aligned()
    always = np.ones(t_len, dtype=bool)
    first_step_lost = np.arange(t_len) >= 1
    rows = []
    for agent in sorted(agents, key=lambda a: a.object_id):
        oid = agent.object_id
        fx = _kinematic_fixtures(agent, t_len, dt)

        edge_vals = builder.road_edge_series(agent)
        fx[MetricKind.DIST_TO_ROAD_EDGE] = (edge_vals, always)
        offroad = bool((edge_vals > 0.0).any())
        if offroad != (oid in plan.offroad_ids):
            raise RuntimeError(
                f"{template.value}: object {oid} offroad={offroad} breaks the construction"
            )
        fx[MetricKind.OFFROAD] = _bool_series(offroad, t_len)

        if multi:
            if axis_ok:
                nearest = builder.nearest_series(agent)
                fx[MetricKind.DIST_TO_NEAREST_OBJECT] = (nearest, always)
                collided = bool((nearest < 0.0).any())
            else:
                collided = False  # certified below by the separation margin
            if collided != (oid in plan.collision_ids):
                raise RuntimeError(
                    f"{template.value}: object {oid} collision={collided} breaks the construction"
                )
            fx[MetricKind.COLLISION] = _bool_series(collided, t_len)
            # TTC rides on the follower's speed, so it loses the first step too.
            ttc = plan.ttc_overrides.get(oid, TTC_CAP)
            fx[MetricKind.TIME_TO_COLLISION] = (
                np.where(first_step_lost, ttc, 0.0), first_step_lost
            )
        rows.append(fx)

    if multi and not axis_ok:
        margin = builder.collision_free_margin()
        if margin <= 0.0:
            raise RuntimeError(
                f"{template.value} construction lost its collision-free margin ({margin:.3f} m)"
            )
    fixtures = {
        metric: (np.stack([fx[metric][0] for fx in rows]), np.stack([fx[metric][1] for fx in rows]))
        for metric in rows[0]
    }
    return SynthScenario(scenario=scenario, fixtures=fixtures)


# ---------------------------------------------------------------------------
# Road layouts.


def _straight_edges(x_min=-1000.0, x_max=3000.0, half=ROAD_HALF_WIDTH):
    # Drivable side sits on the right of each polyline's direction.
    top = [(x_min, half), (x_max, half)]
    bottom = [(x_max, -half), (x_min, -half)]
    return [top, bottom]


def _edges_to_features(polylines) -> list[MapFeature]:
    return [
        MapFeature(feature_id=i, kind=MapFeatureKind.ROAD_EDGE, polyline=tuple(p))
        for i, p in enumerate(polylines)
    ]


def _arc_polyline(radius, phi_lo, phi_hi, step=0.01):
    n = max(2, int(math.ceil(abs(phi_hi - phi_lo) / step)) + 1)
    phis = np.linspace(phi_lo, phi_hi, n)
    return [(radius * math.cos(p), radius * math.sin(p)) for p in phis]


# ---------------------------------------------------------------------------
# Templates.


def _noise_factors(seed: int, template: Template, count: int, level: float):
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((seed, list(Template).index(template), 97)))
    )
    speed = 1.0 + 0.4 * level * rng.uniform(-1.0, 1.0, size=count)
    lateral = 0.5 * level * rng.uniform(-1.0, 1.0, size=count)
    return speed, lateral


def _build_straight_road(count, seed, level) -> _TemplatePlan:
    lane_y = (-5.25, -1.75, 1.75, 5.25)
    lane_v = (8.0, 6.0, 4.0, 9.0)
    lane_a = (0.3, -0.2, 0.0, 0.15)
    sf, lat = _noise_factors(seed, Template.STRAIGHT_ROAD, 4, level)
    agents = []
    for k in range(count):
        lane = k % 4
        row = k // 4
        cyclist = lane == 2
        agents.append(
            _AgentDef(
                object_id=k,
                object_type=ObjectType.CYCLIST if cyclist else ObjectType.VEHICLE,
                dims=CYCLIST_DIMS if cyclist else VEHICLE_DIMS,
                motion=_LineMotion(
                    x0=-20.0 - 18.0 * row + 3.0 * lane,
                    y0=lane_y[lane] + lat[lane],
                    heading=0.0,
                    v0=lane_v[lane] * sf[lane],
                    accel=lane_a[lane],
                ),
            )
        )
    return _TemplatePlan(agents, _straight_edges(), {})


def _build_curved_road(count, seed, level) -> _TemplatePlan:
    radius, half = 50.0, ROAD_HALF_WIDTH
    omega = 0.2
    lane_r = (radius - 3.5, radius + 3.5)
    sf, lat = _noise_factors(seed, Template.CURVED_ROAD, 2, level)
    agents = []
    phis = []
    for k in range(count):
        lane = k % 2
        r = lane_r[lane] + lat[lane]
        phi0 = 4.5 - 0.3 * (k // 2)
        phis.extend([phi0 - 1.0 * omega, phi0 + 8.0 * omega])
        agents.append(
            _AgentDef(
                object_id=k,
                object_type=ObjectType.VEHICLE,
                dims=VEHICLE_DIMS,
                motion=_ArcMotion(cx=0.0, cy=0.0, radius=r, phi0=phi0, omega=omega),
            )
        )
    lo, hi = min(phis) - 0.5, max(phis) + 0.5
    inner = _arc_polyline(radius - half, lo, hi)  # counter-clockwise: drivable outward
    outer = _arc_polyline(radius + half, hi, lo)  # clockwise: drivable inward
    return _TemplatePlan(agents, [inner, outer], {})


def _intersection_edges(half=ROAD_HALF_WIDTH, arm=200.0):
    ne = [(half, arm), (half, half), (arm, half)]
    nw = [(-arm, half), (-half, half), (-half, arm)]
    sw = [(-half, -arm), (-half, -half), (-arm, -half)]
    se = [(arm, -half), (half, -half), (half, -arm)]
    return [ne, nw, sw, se]


def _build_intersection(count, seed, level) -> _TemplatePlan:
    sf, lat = _noise_factors(seed, Template.FOUR_WAY_INTERSECTION, 4, level)
    core = [
        _AgentDef(0, ObjectType.VEHICLE, VEHICLE_DIMS,
                  _LineMotion(-50.0, -3.5 + lat[0], 0.0, 8.0 * sf[0])),
        _AgentDef(1, ObjectType.VEHICLE, VEHICLE_DIMS,
                  _LineMotion(3.5 + lat[1], -15.0, math.pi / 2.0, 6.0 * sf[1])),
        # 6.9 keeps box corners off the exact polyline junctions at sampled steps
        _AgentDef(2, ObjectType.VEHICLE, VEHICLE_DIMS,
                  _LineMotion(60.0, 3.5 + lat[2], math.pi, 6.9 * sf[2])),
        _AgentDef(3, ObjectType.PEDESTRIAN, PEDESTRIAN_DIMS,
                  _LineMotion(40.0, -6.0, math.pi / 2.0, 1.2 * sf[3])),
    ]
    agents = core[:count]
    for k in range(4, count):
        agents.append(
            _AgentDef(k, ObjectType.VEHICLE, VEHICLE_DIMS,
                      _LineMotion(-68.0 - 18.0 * (k - 4), -3.5 + lat[0], 0.0, 8.0 * sf[0]))
        )
    return _TemplatePlan(agents, _intersection_edges(), {})


def _build_following_pair(count, seed, level, t_len, dt) -> _TemplatePlan:
    sf, lat = _noise_factors(seed, Template.FOLLOWING_PAIR, 2, level)
    f = sf[0]  # same lane, shared factor so closing speed scales cleanly
    lane = -1.75 + lat[0]
    v_follow, v_lead = 8.0 * f, 6.0 * f
    bumper0 = 20.0
    follower = _AgentDef(0, ObjectType.VEHICLE, VEHICLE_DIMS,
                         _LineMotion(0.0, lane, 0.0, v_follow))
    leader = _AgentDef(1, ObjectType.VEHICLE, VEHICLE_DIMS,
                       _LineMotion(bumper0 + 4.6, lane, 0.0, v_lead))
    agents = [follower, leader]
    for k in range(2, count):
        agents.append(
            _AgentDef(k, ObjectType.VEHICLE, VEHICLE_DIMS,
                      _LineMotion(-10.0 - 18.0 * (k - 2), 5.25 + lat[1], 0.0, 7.0 * sf[1]))
        )
    closing = v_follow - v_lead
    taus = np.arange(1, t_len + 1) * dt
    gaps = bumper0 - closing * taus
    ttc = np.minimum(TTC_CAP, gaps / closing)
    return _TemplatePlan(agents, _straight_edges(), {0: ttc})


def _build_collision_course(count, seed, level, t_len, dt) -> _TemplatePlan:
    sf, lat = _noise_factors(seed, Template.COLLISION_COURSE, 2, level)
    f = sf[0]
    lane = -1.75 + lat[0]
    v0 = 8.0 * f
    decel = 0.6
    bumper0 = 10.0
    rear = _AgentDef(0, ObjectType.VEHICLE, VEHICLE_DIMS, _LineMotion(0.0, lane, 0.0, v0))
    braking = _AgentDef(1, ObjectType.VEHICLE, VEHICLE_DIMS,
                        _LineMotion(bumper0 + 4.6, lane, 0.0, v0, accel=-decel))
    agents = [rear, braking]
    for k in range(2, count):
        agents.append(
            _AgentDef(k, ObjectType.VEHICLE, VEHICLE_DIMS,
                      _LineMotion(-10.0 - 18.0 * (k - 2), 3.5 + lat[1], 0.0, 8.0 * sf[1]))
        )
    taus = np.arange(1, t_len + 1) * dt
    gaps = bumper0 - 0.5 * decel * taus**2
    closing = decel * (taus - dt / 2.0)  # discrete speed difference
    ttc = np.where(gaps > 0.0, np.minimum(TTC_CAP, gaps / closing), TTC_CAP)
    return _TemplatePlan(
        agents, _straight_edges(), {0: ttc}, collision_ids=frozenset({0, 1})
    )


def _build_offroad_drift(count, seed, level) -> _TemplatePlan:
    sf, lat = _noise_factors(seed, Template.OFFROAD_DRIFT, 2, level)
    av = _AgentDef(0, ObjectType.VEHICLE, VEHICLE_DIMS,
                   _LineMotion(0.0, -3.5 + lat[0], 0.0, 8.0 * sf[0]))
    drifter = _AgentDef(1, ObjectType.VEHICLE, VEHICLE_DIMS,
                        _DriftMotion(10.0, 3.5 + lat[1], 0.0, 8.0 * sf[1], omega=0.05))
    agents = [av, drifter]
    for k in range(2, count):
        agents.append(
            _AgentDef(k, ObjectType.VEHICLE, VEHICLE_DIMS,
                      _LineMotion(-18.0 * (k - 1), -3.5 + lat[0], 0.0, 8.0 * sf[0]))
        )
    return _TemplatePlan(agents, _straight_edges(), {}, offroad_ids=frozenset({1}))


def generate(spec: SynthSpec) -> SynthScenario:
    """Build one synthetic scenario plus its sidecar fixtures."""
    count = spec.agent_count or _DEFAULT_AGENTS[spec.template]
    t_len, dt = DEFAULT_FUTURE_LENGTH, DEFAULT_TIMESTEP
    if spec.template is Template.STRAIGHT_ROAD:
        plan = _build_straight_road(count, spec.seed, spec.noise_level)
    elif spec.template is Template.CURVED_ROAD:
        plan = _build_curved_road(count, spec.seed, spec.noise_level)
    elif spec.template is Template.FOUR_WAY_INTERSECTION:
        plan = _build_intersection(count, spec.seed, spec.noise_level)
    elif spec.template is Template.FOLLOWING_PAIR:
        plan = _build_following_pair(count, spec.seed, spec.noise_level, t_len, dt)
    elif spec.template is Template.COLLISION_COURSE:
        plan = _build_collision_course(count, spec.seed, spec.noise_level, t_len, dt)
    elif spec.template is Template.OFFROAD_DRIFT:
        plan = _build_offroad_drift(count, spec.seed, spec.noise_level)
    else:  # pragma: no cover
        raise ValueError(f"unknown template {spec.template}")
    return _assemble(spec.template, spec.seed, plan, t_len=t_len, dt=dt)


def make_suite(
    count: int = 20, base_seed: int = 0, noise_level: float = 0.25
) -> list[SynthScenario]:
    """A deterministic mixed-template suite for desk-scale evaluation runs."""
    templates = list(Template)
    return [
        generate(
            SynthSpec(
                template=templates[i % len(templates)],
                seed=base_seed + i,
                noise_level=noise_level,
            )
        )
        for i in range(count)
    ]
