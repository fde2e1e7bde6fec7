"""Reproducible baseline policies and the plugin registry.

All baselines read only the policy context.  The logged-oracle is the one
deliberate exception: it is constructed with the batch of scenarios it will
roll out so it can replay their logged futures, which is exactly its job as
a scoring ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import InvalidOption, PolicyContractViolation
from .harness import Policy, PolicyContext, as_batch
from .scene import Scenario, elementwise_each, simulated_object_ids


def _pose_rows(x, y, z, heading) -> np.ndarray:
    """(..., 4) [x, y, z, heading] poses from four broadcastable columns."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(z), np.shape(heading))
    out = np.empty(shape + (4,))
    out[..., 0] = x
    out[..., 1] = y
    out[..., 2] = z
    out[..., 3] = heading
    return out


def _cos_sin(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise ``math.cos`` and ``math.sin``, so the bits do not depend on numpy's build.

    A non-finite angle gives NaN, as in ``np.cos`` (``math.cos`` raises on infinity).
    """
    if not np.isfinite(angles).all():
        angles = np.where(np.isinf(angles), np.nan, angles)
    return elementwise_each((math.cos, math.sin), angles)


def _option(name: str, value, allow_negative: bool = False) -> float:
    """``value`` as a float, or InvalidOption unless it is finite (and >= 0 unless allowed)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise InvalidOption(f"policy option {name} must be a number, got {value!r}") from None
    if not math.isfinite(number) or (number < 0.0 and not allow_negative):
        need = "finite" if allow_negative else "finite and >= 0"
        raise InvalidOption(f"policy option {name} must be {need}, got {value!r}")
    return number


class ConstantVelocityPolicy(Policy):
    """Extrapolate each object along its last recorded heading and speed.

    Speed is the displacement rate between the two most recent valid history
    observations; an object with a single valid observation holds still.
    """

    def step(self, context: PolicyContext, rows):
        speed, heading, z = context.history_motion(rows)
        last = context.last_valid_pose(rows)
        stride = speed * context.dt[rows]
        cos, sin = _cos_sin(heading)
        return _pose_rows(last[..., 0] + stride * cos, last[..., 1] + stride * sin, z, heading)


class RandomAgentPolicy(Policy):
    """Draw x, y, heading independently from N(mu, sigma^2) in the AV frame.

    Each row's frame is anchored at its own scenario's AV pose at the
    handover step.  Heights are held at each object's last history value.
    ``mu`` must be finite and ``sigma`` finite and >= 0.
    """

    def __init__(self, mu: float = 1.0, sigma: float = 0.1):
        self.mu = _option("mu", mu, allow_negative=True)
        self.sigma = _option("sigma", sigma)

    def step(self, context: PolicyContext, rows):
        # All rollouts share the logged history, so rollout 0 holds each AV's handover pose.
        avs = context.poses[0, context.av_rows, context.t0_index]
        cos, sin = _cos_sin(avs[:, 3])
        mine = context.scenario_of[rows]
        av, c, s = avs[mine], cos[mine], sin[mine]
        d = self.mu + self.sigma * context.standard_normals(rows, 3)
        _, _, z = context.history_motion(rows)
        return _pose_rows(
            av[:, 0] + c * d[..., 0] - s * d[..., 1],
            av[:, 1] + s * d[..., 0] + c * d[..., 1],
            z,
            av[:, 3] + d[..., 2],
        )


class LoggedOraclePolicy(Policy):
    """Replay the logged future; gaps hold the last valid pose.

    Built for a batch of scenarios (see :func:`~simreal.harness.as_batch`),
    it replays contexts of exactly that batch: its future has one row per
    row of the batch's pose buffer.  It makes no plan, so the rollout steps
    it at every step of the logged future and never past it.
    """

    def __init__(self, scenarios: Scenario | Sequence[Scenario]):
        batch = as_batch(scenarios)
        futures, ids = [], []
        for scenario in batch:
            h = scenario.history_length
            object_ids = sorted(simulated_object_ids(scenario))
            rows = scenario.tracks.rows(object_ids)
            # Offsets from t=0, which anchors the hold: simulated objects are valid there.
            valid = scenario.tracks.valid[rows, h - 1 :]
            seen = np.where(valid, np.arange(valid.shape[1]), 0)
            held = np.maximum.accumulate(seen, axis=1)[:, 1:] + (h - 1)
            futures.append(np.take_along_axis(scenario.tracks.poses[rows], held[..., None], axis=1))
            ids += object_ids
        self._batch = (tuple(scenario.scenario_id for scenario in batch), tuple(ids))
        self._future = np.concatenate(futures)

    def step(self, context: PolicyContext, rows):
        if (context.scenario_ids, context.ids) != self._batch:
            raise PolicyContractViolation(
                f"the oracle replays scenarios {list(self._batch[0])}, "
                f"not the objects of {list(context.scenario_ids)}"
            )
        future = self._future[rows, context.step - 1]
        return np.broadcast_to(future, (len(context.seeds),) + future.shape)


class NoisyPlanPolicy(Policy):
    """Constant-velocity plans with fresh heading/speed noise at each replan.

    Every plan perturbs the history-derived heading and speed once, then
    extrapolates for the whole horizon.  Held for longer horizons the motion
    stays smooth; replanned every step it turns jerky, which is the behavior
    the replan-interval ablation needs to expose.  Both sigmas must be
    finite and >= 0.
    """

    def __init__(self, heading_sigma: float = 0.15, speed_sigma: float = 1.0):
        self.heading_sigma = _option("heading_sigma", heading_sigma)
        self.speed_sigma = _option("speed_sigma", speed_sigma)

    def _velocities(self, context: PolicyContext, rows) -> np.ndarray:
        """(K, n, 4) per-step [vx, vy, z, heading] of each row after this plan's noise.

        Zero-mean noise is applied as numpy's ``normal(0.0, sigma)`` computes
        it, ``0.0 + sigma * z``.  ``np.where(s > 0.0, s, 0.0)`` clamps the
        speed as Python's ``max(0.0, s)`` does, for NaN and -0.0 too.
        """
        speed, heading, z = context.history_motion(rows)
        noise = context.standard_normals(rows, 2)
        heading = heading + (0.0 + self.heading_sigma * noise[..., 0])
        speed = speed + (0.0 + self.speed_sigma * noise[..., 1])
        stride = np.where(speed > 0.0, speed, 0.0) * context.dt[rows]
        cos, sin = _cos_sin(heading)
        return _pose_rows(stride * cos, stride * sin, z, heading)

    def plan(self, context: PolicyContext, rows, horizon: int):
        velocities = self._velocities(context, rows)
        outputs = np.empty((horizon,) + velocities.shape)
        outputs[:] = velocities
        xy, step_xy = context.last_valid_pose(rows)[..., :2], velocities[..., :2]
        for j in range(horizon):
            xy = xy + step_xy
            outputs[j, ..., :2] = xy
        return outputs

    def step(self, context: PolicyContext, rows):
        return self.plan(context, rows, 1)[0]


#: Builds a policy for a batch of scenarios (one scenario is a batch of one) from its options.
PolicyFactory = Callable[[Scenario | Sequence[Scenario], Mapping[str, Any]], Policy]


@dataclass(frozen=True)
class RegisteredPolicy:
    """A registry entry: how to build a policy, and the option names it reads."""

    factory: PolicyFactory
    options: tuple[str, ...] = ()


POLICY_REGISTRY: dict[str, RegisteredPolicy] = {
    "constant-velocity": RegisteredPolicy(lambda scenarios, opts: ConstantVelocityPolicy()),
    "random": RegisteredPolicy(
        lambda scenarios, opts: RandomAgentPolicy(**opts), ("mu", "sigma")
    ),
    "logged-oracle": RegisteredPolicy(lambda scenarios, opts: LoggedOraclePolicy(scenarios)),
    "noisy-plan": RegisteredPolicy(
        lambda scenarios, opts: NoisyPlanPolicy(**opts), ("heading_sigma", "speed_sigma")
    ),
}


def create_policy(
    name: str,
    scenarios: Scenario | Sequence[Scenario],
    options: Mapping[str, Any] | None = None,
) -> Policy:
    """Instantiate a registered policy.

    ``scenarios`` is the batch the policy will roll out, as it will be passed
    to :func:`~simreal.harness.closed_loop_rollout`; one scenario is a batch
    of one.  Build a fresh pair of policies for each batch.  An option the
    policy does not read and a bad option value raise :class:`InvalidOption`.
    The rollout, not the policy, holds plans for slower replanning (its
    ``replan_interval``).
    """
    if name not in POLICY_REGISTRY:
        known = ", ".join(sorted(POLICY_REGISTRY))
        raise KeyError(f"unknown policy {name!r}; registered: {known}")
    entry = POLICY_REGISTRY[name]
    options = options or {}
    unknown = sorted(set(options) - set(entry.options))
    if unknown:
        known = ", ".join(entry.options) or "none"
        raise InvalidOption(
            f"policy {name} has no option {', '.join(unknown)}; its options: {known}"
        )
    return entry.factory(scenarios, options)
