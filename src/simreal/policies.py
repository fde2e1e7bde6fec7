"""Reproducible baseline policies and the plugin registry.

All baselines read only the policy context.  The logged-oracle is the one
deliberate exception: it is constructed with the scenario so it can replay
the logged future, which is exactly its job as a scoring ceiling.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

import numpy as np

from .errors import PolicyContractViolation
from .harness import Policy, PolicyContext
from .scene import Scenario, simulated_object_ids


def _pose_rows(x, y, z, heading) -> np.ndarray:
    """(n, 4) [x, y, z, heading] rows from four length-n columns."""
    out = np.empty((len(heading), 4))
    out[:, 0] = x
    out[:, 1] = y
    out[:, 2] = z
    out[:, 3] = heading
    return out


class ConstantVelocityPolicy(Policy):
    """Extrapolate each object along its last recorded heading and speed.

    Speed is the displacement rate between the two most recent valid history
    observations; an object with a single valid observation holds still.
    Memoryless, so plan-holding wrappers reproduce it exactly.
    """

    def step(self, context: PolicyContext, rows):
        speed, heading, z = context.history_motion(rows)
        last = context.last_valid_pose(rows)
        stride = speed * context.dt
        # math's cos/sin, so the bits do not depend on numpy's build
        angles = heading.tolist()
        cos = np.array([math.cos(a) for a in angles])
        sin = np.array([math.sin(a) for a in angles])
        return _pose_rows(last[:, 0] + stride * cos, last[:, 1] + stride * sin, z, heading)


class RandomAgentPolicy(Policy):
    """Draw x, y, heading independently from N(mu, sigma^2) in the AV frame.

    The frame is anchored at the AV's pose at the handover step.  Heights are
    held at each object's last history value.
    """

    def __init__(self, mu: float = 1.0, sigma: float = 0.1):
        self.mu = mu
        self.sigma = sigma

    def step(self, context: PolicyContext, rows):
        av = context.poses[context.row_of(context.av_id), context.t0_index]
        c, s = math.cos(av[3]), math.sin(av[3])
        d = self.mu + self.sigma * context.standard_normals(rows, 3)
        _, _, z = context.history_motion(rows)
        return _pose_rows(
            av[0] + c * d[:, 0] - s * d[:, 1], av[1] + s * d[:, 0] + c * d[:, 1], z, av[3] + d[:, 2]
        )


class LoggedOraclePolicy(Policy):
    """Replay the logged future; gaps hold the last valid pose."""

    def __init__(self, scenario: Scenario):
        h = scenario.history_length
        ids = sorted(simulated_object_ids(scenario))
        self._row = {oid: i for i, oid in enumerate(ids)}
        futures = []
        for oid in ids:
            track = scenario.track(oid)
            # Offsets from t=0, which anchors the hold: simulated objects are valid there.
            seen = np.where(track.valid[h - 1 :], np.arange(len(track.valid) - h + 1), 0)
            held = np.maximum.accumulate(seen)[1:] + (h - 1)
            futures.append(track.poses[held])
        self._future = np.array(futures).reshape(len(ids), scenario.future_length, 4)

    def step(self, context: PolicyContext, rows):
        try:
            idx = [self._row[context.ids[r]] for r in rows]
        except KeyError as exc:
            raise PolicyContractViolation(
                f"oracle has no logged future for object {exc.args[0]}"
            ) from None
        return self._future[idx, context.step - 1]


class NoisyPlanPolicy(Policy):
    """Constant-velocity plans with fresh heading/speed noise at each replan.

    Every plan perturbs the history-derived heading and speed once, then
    extrapolates for the whole horizon.  Held for longer horizons the motion
    stays smooth; replanned every step it turns jerky, which is the behavior
    the replan-interval ablation needs to expose.
    """

    def __init__(self, heading_sigma: float = 0.15, speed_sigma: float = 1.0):
        self.heading_sigma = heading_sigma
        self.speed_sigma = speed_sigma

    def _velocities(self, context: PolicyContext, rows) -> np.ndarray:
        """(n, 4) per-step [vx, vy, z, heading] of each row after this plan's noise.

        Scalar math per row: at the few dozen rows of a policy call it costs
        less than a dozen small array operations.  Zero-mean noise is applied
        as numpy's ``normal(0.0, sigma)`` computes it, ``0.0 + sigma * z``.
        """
        out = []
        noise = context.standard_normals(rows, 2).tolist()
        for (speed, heading, z), (dh, ds) in zip(context.motion[rows].tolist(), noise):
            heading = heading + (0.0 + self.heading_sigma * dh)
            stride = max(0.0, speed + (0.0 + self.speed_sigma * ds)) * context.dt
            out.append((stride * math.cos(heading), stride * math.sin(heading), z, heading))
        return np.array(out).reshape(len(rows), 4)

    def plan(self, context: PolicyContext, rows, horizon: int):
        velocities = self._velocities(context, rows)
        outputs = np.empty((horizon, len(rows), 4))
        outputs[:] = velocities
        xy, step_xy = context.last_valid_pose(rows)[:, :2], velocities[:, :2]
        for j in range(horizon):
            xy = xy + step_xy
            outputs[j, :, :2] = xy
        return outputs

    def step(self, context: PolicyContext, rows):
        out = self._velocities(context, rows)
        out[:, :2] += context.last_valid_pose(rows)[:, :2]
        return out


class ReplanWrapper(Policy):
    """Hold a policy's multi-step plan and re-invoke it every ``interval`` steps.

    Interval 1 is fully closed-loop; larger intervals emulate the hybrid
    open/closed-loop pattern of slower replanning.  The held plan is keyed on
    the context's scenario and seed, so every new rollout plans afresh even
    when one plan spans the whole future window.
    """

    def __init__(self, inner: Policy, interval: int):
        if interval < 1:
            raise ValueError("replan interval must be >= 1")
        self.inner = inner
        self.interval = interval
        self._plan = np.empty((0, 0, 4))
        self._plan_start = -1
        self._plan_key: tuple | None = None

    def step(self, context: PolicyContext, rows):
        t = context.step
        key = (context.scenario_id, context.seed)
        stale = (
            key != self._plan_key
            or t < self._plan_start
            or t >= self._plan_start + len(self._plan)
        )
        if stale:
            self._plan = self.inner.plan(context, rows, self.interval)
            self._plan_start = t
            self._plan_key = key
        return self._plan[t - self._plan_start]


PolicyFactory = Callable[[Scenario, Mapping[str, Any]], Policy]

POLICY_REGISTRY: dict[str, PolicyFactory] = {
    "constant-velocity": lambda scenario, opts: ConstantVelocityPolicy(),
    "random": lambda scenario, opts: RandomAgentPolicy(
        mu=float(opts.get("mu", 1.0)), sigma=float(opts.get("sigma", 0.1))
    ),
    "logged-oracle": lambda scenario, opts: LoggedOraclePolicy(scenario),
    "noisy-plan": lambda scenario, opts: NoisyPlanPolicy(
        heading_sigma=float(opts.get("heading_sigma", 0.15)),
        speed_sigma=float(opts.get("speed_sigma", 1.0)),
    ),
}


def create_policy(
    name: str,
    scenario: Scenario,
    options: Mapping[str, Any] | None = None,
    replan_interval: int = 1,
) -> Policy:
    """Instantiate a registered policy, optionally wrapped for slow replanning."""
    if name not in POLICY_REGISTRY:
        known = ", ".join(sorted(POLICY_REGISTRY))
        raise KeyError(f"unknown policy {name!r}; registered: {known}")
    policy = POLICY_REGISTRY[name](scenario, options or {})
    if replan_interval > 1:
        policy = ReplanWrapper(policy, replan_interval)
    return policy
