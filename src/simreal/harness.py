"""Closed-loop rollout engine.

The engine enforces the autoregression contract structurally: at every step
policies receive a context holding only the map and the poses produced
strictly before that step, then the environment policy and the AV policy are
queried for the same step against that same context.  Neither can observe
the other's current-step output, matching the required factorization of the
world model into an AV policy and an environment policy.

Each rollout also records a trace: per step, the ids queried and a running
hash of everything the context exposed.  The audit recomputes that hash
chain from the finished rollout, which catches any future leakage through
the harness as well as forged or reordered traces.
"""

from __future__ import annotations

import hashlib
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import PolicyContractViolation
from .scene import (
    MapFeature,
    Scenario,
    ScenarioRollouts,
    normalize_heading,
    simulated_object_ids,
)

# One hashed pose: the same bytes as struct.pack("<q4d", id, x, y, z, heading).
_HASH_RECORD = np.dtype([("id", "<i8"), ("pose", "<f8", (4,))])


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


def _history_motion(
    poses: np.ndarray, valid: np.ndarray, t0_index: int, dt: float, rows, ids
) -> np.ndarray:
    """(n, 3) [speed, heading, z] of the given rows from the history window only.

    Speed comes from the two most recent valid history observations; objects
    with a single valid observation get zero speed.
    """
    rows = np.asarray(rows, dtype=np.intp)
    hist = valid[rows, : t0_index + 1]
    if not hist.any(axis=1).all():
        missing = [ids[r] for r in rows[~hist.any(axis=1)]]
        raise PolicyContractViolation(f"objects {missing} have no valid history")
    n = hist.shape[1]
    last = n - 1 - np.argmax(hist[:, ::-1], axis=1)
    earlier = hist.copy()
    earlier[np.arange(len(rows)), last] = False
    prev = n - 1 - np.argmax(earlier[:, ::-1], axis=1)
    last_pose = poses[rows, last]
    prev_pose = poses[rows, prev]
    gap = np.hypot(last_pose[:, 0] - prev_pose[:, 0], last_pose[:, 1] - prev_pose[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        speed = np.where(earlier.any(axis=1), gap / ((last - prev) * dt), 0.0)
    return np.stack([speed, last_pose[:, 3], last_pose[:, 2]], axis=1)


@dataclass(frozen=True)
class PolicyContext:
    """Everything a policy may condition on at one simulation step.

    ``poses`` is (A, L, 4) as [x, y, z, heading] and ``valid`` is (A, L),
    where L covers the history window plus all previously simulated steps;
    states at or after the current step are structurally absent.  Row order
    follows ``ids``, and policies address their objects by row.  Arrays are
    read-only views; policies must not retain them beyond the call.
    ``motion`` is (A, 3) [speed, heading, z] of every row from the history
    window (see :meth:`history_motion`); the harness computes it once per
    rollout, since the history never changes.
    """

    scenario_id: str
    map_features: tuple[MapFeature, ...]
    ids: tuple[int, ...]
    av_id: int
    step: int
    t0_index: int
    dt: float
    seed: int
    poses: np.ndarray
    valid: np.ndarray
    motion: np.ndarray

    def row_of(self, object_id: int) -> int:
        return self.ids.index(object_id)

    def rng(self, object_id: int) -> np.random.Generator:
        """Counter-based stream keyed by (seed, step, object).

        The keying makes draws independent of call order, so plans computed
        ahead of time and step-by-step execution see identical noise.
        """
        key = np.random.SeedSequence((self.seed, self.step, int(object_id)))
        return np.random.Generator(np.random.Philox(key))

    def last_valid_pose(self, rows) -> np.ndarray:
        """(n, 4) most recent valid pose of each controlled row.

        That is the context's last column: simulated objects are valid at the
        handover step, and every simulated step fills all of a policy's rows.
        """
        return self.poses[rows, -1]

    def history_motion(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(speed, heading, z) arrays of the given rows, from the logged history only.

        Speed comes from the two most recent valid history observations;
        objects with a single valid observation get zero speed.
        """
        motion = self.motion[rows]
        return motion[:, 0], motion[:, 1], motion[:, 2]


def _shaped_poses(out, n: int, who: str, step: int) -> np.ndarray:
    """A policy's output as an (n, 4) float array, or a contract violation."""
    try:
        poses = np.asarray(out, dtype=float)
    except (TypeError, ValueError) as exc:
        raise PolicyContractViolation(
            f"{who} policy at step {step}: output is not a pose array ({exc})"
        ) from exc
    if poses.shape != (n, 4):
        raise PolicyContractViolation(
            f"{who} policy at step {step}: expected ({n}, 4) poses for its "
            f"controlled objects, got shape {poses.shape}"
        )
    return poses


def _finish_poses(poses: np.ndarray, ids: Sequence[int], step: int) -> None:
    """Reject non-finite rows of ``poses`` (object ``ids[i]`` in row i) and wrap headings in place."""
    finite = np.isfinite(poses)
    if not finite.all():
        bad = [ids[i] for i in np.flatnonzero(~finite.all(axis=1))]
        raise PolicyContractViolation(f"policy output at step {step}: objects {bad} are not finite")
    poses[:, 3] = normalize_heading(poses[:, 3])


class Policy(ABC):
    """A per-step pose producer for a fixed set of controlled objects."""

    @abstractmethod
    def step(self, context: PolicyContext, rows: np.ndarray) -> np.ndarray:
        """Return (len(rows), 4) poses [x, y, z, heading] for context.step.

        ``rows`` indexes the controlled objects in ``context.ids``.
        """

    def plan(self, context: PolicyContext, rows: np.ndarray, horizon: int) -> np.ndarray:
        """Produce ``horizon`` consecutive steps without re-observing others.

        Returns (horizon, len(rows), 4).  The default rolls :meth:`step`
        forward against virtually extended contexts in which only the
        policy's own outputs advance; other objects stay frozen at their last
        known (now stale) state.  Plan holders use this to emulate slower
        replanning.
        """
        outputs = np.empty((horizon, len(rows), 4))
        poses = np.array(context.poses)
        valid = np.array(context.valid)
        ctx = context
        own_ids = [context.ids[r] for r in rows]
        for j in range(horizon):
            outputs[j] = _shaped_poses(self.step(ctx, rows), len(rows), "planning", ctx.step)
            _finish_poses(outputs[j], own_ids, ctx.step)
            if j == horizon - 1:
                break
            new_col_pose = np.zeros((poses.shape[0], 1, 4))
            new_col_valid = np.zeros((poses.shape[0], 1), dtype=bool)
            new_col_pose[rows, 0] = outputs[j]
            new_col_valid[rows, 0] = True
            poses = np.concatenate([poses, new_col_pose], axis=1)
            valid = np.concatenate([valid, new_col_valid], axis=1)
            ctx = replace(ctx, step=ctx.step + 1, poses=_read_only(poses), valid=_read_only(valid))
        return outputs


@dataclass(frozen=True)
class TraceStep:
    step: int
    ids_queried: tuple[int, ...]
    context_hash: str


@dataclass(frozen=True)
class RolloutTrace:
    scenario_id: str
    seed: int
    steps: tuple[TraceStep, ...]
    final_hash: str


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    hybrid: bool
    replan_interval: int
    issues: tuple[str, ...]


def _hash_step(hasher, step: int, record: np.ndarray, poses: np.ndarray) -> None:
    """Fold one step's poses (rows in ``record`` id order) into the hash chain."""
    record["pose"] = poses
    hasher.update(struct.pack("<i", step))
    hasher.update(record.tobytes())


def closed_loop_rollout(
    scenario: Scenario,
    av_policy: Policy,
    env_policy: Policy,
    seed: int = 0,
) -> tuple[np.ndarray, RolloutTrace]:
    """Roll the scene forward one step at a time for the whole future window.

    Controlled rows partition the simulated objects into {AV} and the rest;
    both policies are stepped against the identical context each step and
    their outputs merged afterwards.  Returns the simulated future as
    (A, T, 4) poses with rows in ascending object id order (the trace's
    ``ids_queried``), plus the trace.
    """
    if av_policy is env_policy:
        raise PolicyContractViolation("AV and environment policies must be distinct objects")
    sim_ids = tuple(sorted(simulated_object_ids(scenario)))
    av_row = sim_ids.index(scenario.av_track_id)
    all_rows = np.arange(len(sim_ids))
    av_rows = np.array([av_row])
    env_rows = all_rows[all_rows != av_row]

    h, t_total = scenario.history_length, scenario.future_length
    n = len(sim_ids)
    tracks = [scenario.track(oid) for oid in sim_ids]
    poses = np.zeros((n, h + t_total, 4))
    valid = np.zeros((n, h + t_total), dtype=bool)
    valid[:, :h] = [trk.valid[:h] for trk in tracks]
    poses[:, :h] = np.where(valid[:, :h, None], [trk.poses[:h] for trk in tracks], 0.0)
    motion = _history_motion(poses, valid, h - 1, scenario.timestep, all_rows, sim_ids)

    record = np.zeros(n, dtype=_HASH_RECORD)
    record["id"] = sim_ids
    hasher = hashlib.sha256(scenario.scenario_id.encode("utf-8"))
    steps: list[TraceStep] = []
    for t in range(1, t_total + 1):
        context_hash = hasher.copy().hexdigest()
        upto = h + t - 1
        ctx = PolicyContext(
            scenario_id=scenario.scenario_id,
            map_features=scenario.map_features,
            ids=sim_ids,
            av_id=scenario.av_track_id,
            step=t,
            t0_index=h - 1,
            dt=scenario.timestep,
            seed=seed,
            poses=_read_only(poses[:, :upto]),
            valid=_read_only(valid[:, :upto]),
            motion=motion,
        )
        env_out = env_policy.step(ctx, env_rows) if len(env_rows) else None
        av_out = av_policy.step(ctx, av_rows)
        merged = poses[:, upto]
        if env_out is not None:
            merged[env_rows] = _shaped_poses(env_out, len(env_rows), "environment", t)
        merged[av_row] = _shaped_poses(av_out, 1, "AV", t)[0]
        _finish_poses(merged, sim_ids, t)
        valid[:, upto] = True
        _hash_step(hasher, t, record, merged)
        steps.append(TraceStep(step=t, ids_queried=sim_ids, context_hash=context_hash))

    trace = RolloutTrace(
        scenario_id=scenario.scenario_id,
        seed=seed,
        steps=tuple(steps),
        final_hash=hasher.hexdigest(),
    )
    return poses[:, h:], trace


def generate_submission(
    scenario: Scenario,
    av_policy: Policy,
    env_policy: Policy,
    k: int = 32,
    base_seed: int = 0,
    with_traces: bool = False,
):
    """Run ``k`` independent rollouts seeded base_seed .. base_seed+k-1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    futures: list[np.ndarray] = []
    traces: list[RolloutTrace] = []
    for i in range(k):
        future, trace = closed_loop_rollout(scenario, av_policy, env_policy, seed=base_seed + i)
        futures.append(future)
        traces.append(trace)
    rollouts = ScenarioRollouts(
        scenario_id=scenario.scenario_id,
        ids=sorted(simulated_object_ids(scenario)),
        rollouts=np.stack(futures),
    )
    if with_traces:
        return rollouts, tuple(traces)
    return rollouts


def audit_trace(
    trace: RolloutTrace,
    poses: np.ndarray | None = None,
    ids: Sequence[int] | None = None,
    replan_interval: int = 1,
    expected_steps: int | None = None,
) -> AuditReport:
    """Best-effort mechanical check of a rollout trace.

    ``poses`` is the finished rollout as (A, T, 4) and ``ids`` the object id
    of each row (default: the trace's queried order).  Verifies strictly
    increasing, gap-free steps; constant queried ids that name the rollout's
    rows in order, when a rollout is provided; and, given the rollout, the
    per-step context-hash chain.  A declared replan interval above one step is
    flagged as hybrid open/closed loop rather than failed.
    """
    issues: list[str] = []
    steps = trace.steps
    n = expected_steps if expected_steps is not None else (
        poses.shape[1] if poses is not None else len(steps)
    )
    if [s.step for s in steps] != list(range(1, n + 1)):
        issues.append(f"expected steps 1..{n} strictly increasing, got {len(steps)} records")
    if steps:
        queried = steps[0].ids_queried
        row_ids = queried if ids is None else tuple(ids)
        if len({s.ids_queried for s in steps}) != 1:
            issues.append("queried id set changed between steps")
        elif poses is not None and (row_ids != queried or len(queried) != poses.shape[0]):
            issues.append("queried ids do not match the rollout's rows")
        elif poses is not None and poses.shape[1] != len(steps):
            issues.append(f"rollout has {poses.shape[1]} steps, trace has {len(steps)}")

    if poses is not None and not issues:
        record = np.zeros(len(queried), dtype=_HASH_RECORD)
        record["id"] = queried
        hasher = hashlib.sha256(trace.scenario_id.encode("utf-8"))
        for s in steps:
            if hasher.copy().hexdigest() != s.context_hash:
                issues.append(f"context hash mismatch at step {s.step}")
                break
            _hash_step(hasher, s.step, record, poses[:, s.step - 1])
        else:
            if hasher.hexdigest() != trace.final_hash:
                issues.append("final hash mismatch")

    hybrid = replan_interval > 1
    return AuditReport(
        ok=not issues,
        hybrid=hybrid,
        replan_interval=replan_interval,
        issues=tuple(issues),
    )
