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
They are array computations over one raw pose array per scene, the
``(A, H+T, 4)`` array the scene's :class:`~simreal.scene.Tracks` table is
built from, before each heading is wrapped.  Box corners take
``math.cos`` and ``math.sin``, and box-to-box distances ``math.hypot``,
element by element, so the fixture bytes do not depend on numpy's build.

Generation is deterministic in (template, seed); ``noise_level`` perturbs
initial speeds and lane offsets within margins that preserve each template's
collision/offroad guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .features import MetricKind
from .scene import (
    DEFAULT_FUTURE_LENGTH,
    DEFAULT_HISTORY_LENGTH,
    DEFAULT_TIMESTEP,
    MAX_SIMULATED_OBJECTS,
    OBJECT_TYPES,
    MapFeature,
    MapFeatureKind,
    ObjectType,
    Scenario,
    Tracks,
    elementwise,
    elementwise_each,
)

VEHICLE_DIMS = (4.6, 2.0, 1.8)
CYCLIST_DIMS = (1.9, 0.6, 1.5)
PEDESTRIAN_DIMS = (0.5, 0.5, 1.8)

ROAD_HALF_WIDTH = 7.0
TTC_CAP = 5.0


class Template(Enum):
    STRAIGHT_ROAD = "straight_road"
    CURVED_ROAD = "curved_road"
    FOUR_WAY_INTERSECTION = "four_way_intersection"
    FOLLOWING_PAIR = "following_pair"
    COLLISION_COURSE = "collision_course"
    OFFROAD_DRIFT = "offroad_drift"


@dataclass(frozen=True)
class SynthSpec:
    template: Template
    agent_count: int | None = None
    seed: int = 0
    noise_level: float = 0.0

    def __post_init__(self):
        _, least, _, most = _TEMPLATES[self.template]
        if self.agent_count is not None and self.agent_count < least:
            raise ValueError(
                f"agent count {self.agent_count}: {self.template.value} needs >= {least} agents"
            )
        if self.agent_count is not None and self.agent_count > most:
            raise ValueError(
                f"agent count {self.agent_count}: {self.template.value} holds at most {most} agents"
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
#
# ``kinematics(t, dt)`` gives (speed, acceleration, angular speed) at future
# steps ``t`` as finite differences of the sampled poses read them; each entry
# is an array over ``t`` or one value for every step.


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

    def kinematics(self, t: np.ndarray, dt: float):
        return self.v0 + self.accel * (t * dt - dt / 2.0), self.accel, 0.0


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

    def kinematics(self, t: np.ndarray, dt: float):
        # Chord length of one step on the circle, not the arc speed.
        return abs(2.0 * self.radius * math.sin(self.omega * dt / 2.0) / dt), 0.0, self.omega


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

    def kinematics(self, t: np.ndarray, dt: float):
        r = self.speed / abs(self.omega)
        return abs(2.0 * r * math.sin(self.omega * dt / 2.0) / dt), 0.0, self.omega


@dataclass(frozen=True)
class _AgentDef:
    object_id: int
    object_type: ObjectType
    dims: tuple[float, float, float]
    motion: object


# ---------------------------------------------------------------------------
# Generator-local geometry used only for fixtures.

# Point-segment pairs per batch of the road-edge distance.  Curved roads carry
# hundreds of edge segments, so one (corners, segments) array per scene would
# set the peak memory of a whole synth run.
_PAIR_BATCH = 8192


def _fixture_point_to_segments(px, py, starts, ends):
    """(distance, side) of each point of ``(P,)`` arrays against segments; first-minimum ties."""
    d = ends - starts
    seg_len2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    dist, cross = np.empty(len(px)), np.empty(len(px))
    step = max(1, _PAIR_BATCH // len(d))
    for lo in range(0, len(px), step):
        qx, qy = px[lo : lo + step, None], py[lo : lo + step, None]
        dot = (qx - starts[:, 0]) * d[:, 0] + (qy - starts[:, 1]) * d[:, 1]
        frac = np.clip(dot / seg_len2, 0.0, 1.0)
        dists = np.hypot(qx - (starts[:, 0] + frac * d[:, 0]), qy - (starts[:, 1] + frac * d[:, 1]))
        k = np.argmin(dists, axis=1)
        dist[lo : lo + step] = dists[np.arange(len(k)), k]
        cross[lo : lo + step] = (
            d[k, 0] * (qy[:, 0] - starts[k, 1]) - d[k, 1] * (qx[:, 0] - starts[k, 0])
        )
    return dist, np.where(cross > 1e-9, 1.0, np.where(cross < -1e-9, -1.0, 0.0))


def _box_corners(x, y, heading, length, width):
    """Corner x and y, each stacked ``(4, ...)``: front-left, front-right, rear-right, rear-left."""
    c, s = elementwise_each((math.cos, math.sin), heading)
    hx, hy = c * length / 2.0, s * length / 2.0
    wx, wy = -s * width / 2.0, c * width / 2.0
    return (
        np.stack([x + hx + wx, x + hx - wx, x - hx - wx, x - hx + wx]),
        np.stack([y + hy + wy, y + hy - wy, y - hy - wy, y - hy + wy]),
    )


# ---------------------------------------------------------------------------
# Fixture assembly.


def _kinematic_fixtures(agents, t_len: int, dt: float):
    t_idx = np.arange(1, t_len + 1)
    speed, accel, omega = (
        np.array([np.broadcast_to(value, t_len) for value in column])
        for column in zip(*(agent.motion.kinematics(t_idx, dt) for agent in agents))
    )
    steps = np.broadcast_to(np.arange(t_len), speed.shape)
    v1 = steps >= 1  # first-derivative features lose step 1
    v2 = steps >= 2  # second-derivative features lose steps 1..2
    return {
        MetricKind.LINEAR_SPEED: (np.where(v1, speed, 0.0), v1),
        MetricKind.LINEAR_ACCEL: (np.where(v2, accel, 0.0), v2),
        MetricKind.ANGULAR_SPEED: (np.where(v1, omega, 0.0), v1),
        MetricKind.ANGULAR_ACCEL: (np.zeros(speed.shape), v2),
    }


def _bool_series(flags, t_len):
    values = np.repeat(np.where(flags, 1.0, 0.0)[:, None], t_len, axis=1)
    return values, np.ones(values.shape, dtype=bool)


class _FixtureBuilder:
    """Derives sidecar fixtures from a scene's future poses and road edges.

    ``poses`` is ``(A, T+1, 4)`` over steps 0..T, each heading as the motion
    models return it: cos and sin of a wrapped heading can differ in the last
    bit.  Series cover steps 1..T.
    """

    def __init__(self, agents, poses, road_edges):
        self.x, self.y, self.heading = poses[:, 1:, 0], poses[:, 1:, 1], poses[:, :, 3]
        self.length = np.array([[agent.dims[0]] for agent in agents])
        self.width = np.array([[agent.dims[1]] for agent in agents])
        self.seg_starts = np.concatenate([np.asarray(poly)[:-1] for poly in road_edges])
        self.seg_ends = np.concatenate([np.asarray(poly)[1:] for poly in road_edges])

    def road_edge_series(self) -> np.ndarray:
        """(A, T) largest signed road-edge distance over each box's corners."""
        cx, cy = _box_corners(self.x, self.y, self.heading[:, 1:], self.length, self.width)
        dist, side = _fixture_point_to_segments(
            cx.ravel(), cy.ravel(), self.seg_starts, self.seg_ends
        )
        return (dist * side).reshape(cx.shape).max(axis=0)

    def axis_aligned(self) -> bool:
        """True when every agent keeps a quarter-turn heading all window long."""
        quarter = np.rint(self.heading / (math.pi / 2.0)) * (math.pi / 2.0)
        return bool((np.abs(self.heading - quarter) < 1e-12).all())

    def nearest_series(self) -> np.ndarray:
        """(A, T) smallest box distance to any other agent; only valid for axis-aligned scenes."""
        odd = np.rint(self.heading[:, 1:] / (math.pi / 2.0)) % 2 == 1
        ex = np.where(odd, self.width, self.length)  # extents along the world axes
        ey = np.where(odd, self.length, self.width)
        nearest = np.empty(self.x.shape)
        for i in range(len(nearest)):  # agent i against every partner, all steps at once
            dx = np.abs(self.x - self.x[i]) - (ex[i] + ex) / 2.0
            dy = np.abs(self.y - self.y[i]) - (ey[i] + ey) / 2.0
            dist = np.where(dy > dx, dy, dx)
            apart = (dx > 0.0) & (dy > 0.0)
            dist[apart] = elementwise(math.hypot, dx[apart], dy[apart])
            dist[i] = math.inf
            nearest[i] = dist.min(axis=0)
        return nearest

    def collision_free_margin(self) -> float:
        """Lower bound on pairwise box distance from center separations."""
        diag = elementwise(math.hypot, self.length, self.width) / 2.0
        margin = math.inf
        for i in range(len(diag) - 1):  # agent i against every later partner
            dx, dy = self.x[i + 1 :] - self.x[i], self.y[i + 1 :] - self.y[i]
            gaps = elementwise(math.hypot, dx, dy) - diag[i] - diag[i + 1 :]
            margin = min(margin, gaps.min())
        return margin


@dataclass(frozen=True)
class _TemplatePlan:
    """A template's agents, in ascending object id (the fixture row order), and its map."""

    agents: list[_AgentDef]
    road_edges: list[list[tuple[float, float]]]
    ttc_overrides: dict[int, np.ndarray]
    collision_ids: frozenset[int] = frozenset()
    offroad_ids: frozenset[int] = frozenset()


def _check_flags(template: Template, name: str, flags, agents, expected_ids):
    """Raise unless exactly the agents of ``expected_ids`` have their flag set."""
    for agent, flag in zip(agents, flags):
        if bool(flag) != (agent.object_id in expected_ids):
            raise RuntimeError(
                f"{template.value}: object {agent.object_id} {name}={bool(flag)} "
                "breaks the construction"
            )


def _assemble(
    template: Template, seed: int, plan: _TemplatePlan, t_len: int, dt: float
) -> SynthScenario:
    agents, h_len = plan.agents, DEFAULT_HISTORY_LENGTH
    # (A, H+T, 4) raw poses at steps 1-H..T, computed once for the tracks and fixtures.
    poses = np.array([
        [agent.motion.pose((i - (h_len - 1)) * dt) for i in range(h_len + t_len)]
        for agent in agents
    ])
    tracks = Tracks(
        ids=[agent.object_id for agent in agents],
        types=[OBJECT_TYPES.index(agent.object_type) for agent in agents],
        dims=[agent.dims for agent in agents],
        poses=poses,
        valid=np.ones(poses.shape[:2], dtype=bool),
    )
    scenario = Scenario(
        scenario_id=f"{template.value}-s{seed:04d}",
        tracks=tracks,
        map_features=_edges_to_features(plan.road_edges),
        av_track_id=agents[0].object_id,
        timestep=dt,
        history_length=h_len,
        future_length=t_len,
    )

    builder = _FixtureBuilder(agents, poses[:, h_len - 1 :], plan.road_edges)
    fixtures = _kinematic_fixtures(agents, t_len, dt)
    always = np.ones((len(agents), t_len), dtype=bool)
    edge = builder.road_edge_series()
    offroad = (edge > 0.0).any(axis=1)
    _check_flags(template, "offroad", offroad, agents, plan.offroad_ids)
    fixtures[MetricKind.DIST_TO_ROAD_EDGE] = (edge, always)
    fixtures[MetricKind.OFFROAD] = _bool_series(offroad, t_len)
    if len(agents) > 1:
        if builder.axis_aligned():
            nearest = builder.nearest_series()
            fixtures[MetricKind.DIST_TO_NEAREST_OBJECT] = (nearest, always)
            collided = (nearest < 0.0).any(axis=1)
        else:
            margin = builder.collision_free_margin()
            if margin <= 0.0:
                raise RuntimeError(
                    f"{template.value} construction lost its collision-free margin "
                    f"({margin:.3f} m)"
                )
            collided = np.zeros(len(agents), dtype=bool)
        _check_flags(template, "collision", collided, agents, plan.collision_ids)
        fixtures[MetricKind.COLLISION] = _bool_series(collided, t_len)
        # TTC rides on the follower's speed, so it loses the first step too.
        speed_valid = fixtures[MetricKind.LINEAR_SPEED][1]
        ttc = np.array([
            np.broadcast_to(plan.ttc_overrides.get(agent.object_id, TTC_CAP), t_len)
            for agent in agents
        ])
        fixtures[MetricKind.TIME_TO_COLLISION] = (np.where(speed_valid, ttc, 0.0), speed_valid)
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
        MapFeature(feature_id=i, kind=MapFeatureKind.ROAD_EDGE, polyline=p)
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


def _build_straight_road(count, seed, level, t_len, dt) -> _TemplatePlan:
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


def _build_curved_road(count, seed, level, t_len, dt) -> _TemplatePlan:
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


def _build_intersection(count, seed, level, t_len, dt) -> _TemplatePlan:
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


def _build_offroad_drift(count, seed, level, t_len, dt) -> _TemplatePlan:
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


#: Curved-road lane slots sit 0.3 rad apart on a circle, so a lane's 22nd slot
#: (0.3 * 21 = 6.3 rad) comes round onto its first: 21 slots a lane, 2 lanes.
_CURVED_ROAD_MOST = 42

#: Each template's builder, least, default and most agent count.
_TEMPLATES = {
    Template.STRAIGHT_ROAD: (_build_straight_road, 1, 4, MAX_SIMULATED_OBJECTS),
    Template.CURVED_ROAD: (_build_curved_road, 1, 2, _CURVED_ROAD_MOST),
    Template.FOUR_WAY_INTERSECTION: (_build_intersection, 1, 4, MAX_SIMULATED_OBJECTS),
    Template.FOLLOWING_PAIR: (_build_following_pair, 2, 2, MAX_SIMULATED_OBJECTS),
    Template.COLLISION_COURSE: (_build_collision_course, 2, 2, MAX_SIMULATED_OBJECTS),
    Template.OFFROAD_DRIFT: (_build_offroad_drift, 2, 2, MAX_SIMULATED_OBJECTS),
}


def generate(spec: SynthSpec) -> SynthScenario:
    """Build one synthetic scenario plus its sidecar fixtures."""
    build, _, default_count, _ = _TEMPLATES[spec.template]
    t_len, dt = DEFAULT_FUTURE_LENGTH, DEFAULT_TIMESTEP
    plan = build(spec.agent_count or default_count, spec.seed, spec.noise_level, t_len, dt)
    return _assemble(spec.template, spec.seed, plan, t_len, dt)


def suite_specs(
    templates: Sequence[Template], count: int, seed: int = 0, noise_level: float = 0.0,
    agent_count: int | None = None,
) -> list[SynthSpec]:
    """``count`` specs taking ``templates`` in turn, spec ``i`` on seed ``seed + i``.

    Every spec is built, and a bad one raises ValueError, before any
    scenario is generated.
    """
    return [
        SynthSpec(templates[i % len(templates)], agent_count, seed + i, noise_level)
        for i in range(count)
    ]
