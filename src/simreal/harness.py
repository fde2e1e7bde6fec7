"""Closed-loop rollout engine.

The engine enforces the autoregression contract structurally: at every step
policies receive a context holding only the map and the poses produced
strictly before that step, then the environment policy and the AV policy are
queried for the same step against that same context.  Neither can observe
the other's current-step output, matching the required factorization of the
world model into an AV policy and an environment policy.

Each rollout also records a trace: one sha256 digest of the scenario id, the
row ids and each step's poses, folded in as the step is produced.  The audit
recomputes the digest from the finished rollout.  It catches a step that was
rewritten after it was produced and is still rewritten when the rollout
ends, as well as a forged digest or rows that are not the trace's objects.
It does not catch leakage: the digest covers what policies returned, not
what the context exposed.  Nor does it catch a policy that rewrites the
logged history (read-only views stop accidental writes only), or a rewrite
undone before the rollout ends.
"""

from __future__ import annotations

import hashlib
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

# Rollout seeds key numpy's SeedSequence, which takes integers in [0, 2**64).
SEED_LIMIT = 2**64

# numpy's SeedSequence (numpy/random/bit_generator.pyx) hashes 32-bit words
# with a running multiplier: xor it in, advance it, multiply by the new value.
# Hash i of the entropy mixing uses _ENTROPY_HASH[i] and [i + 1]; output word
# i of generate_state uses _STATE_HASH[i] and [i + 1].
_POOL_SIZE = 4
_MAX_WORDS = 6  # (seed, step, id): each value is one 32-bit word or two
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _multipliers(init: int, mult: int, count: int) -> tuple[np.uint32, ...]:
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return tuple(np.uint32(v) for v in values)


_ENTROPY_HASH = _multipliers(0x43B0D7E5, 0x931E8875, _MAX_WORDS * _POOL_SIZE)
_STATE_HASH = _multipliers(0x8B51F9DD, 0x58F38DED, _POOL_SIZE)


def _xorshift(value: np.ndarray) -> np.ndarray:
    return value ^ (value >> np.uint32(16))


def _hashmix(value: np.ndarray, call: int) -> np.ndarray:
    return _xorshift((value ^ _ENTROPY_HASH[call]) * _ENTROPY_HASH[call + 1])


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _xorshift(_MIX_MULT_L * x - _MIX_MULT_R * y)


def philox_keys(entropy) -> np.ndarray:
    """(n, 2) uint64 Philox keys of n (seed, step, id) rows of integers in [0, 2**64).

    Row i is ``SeedSequence(tuple(entropy[i])).generate_state(2, np.uint64)``,
    computed for all rows at once.  SeedSequence splits each value into
    32-bit words (one below 2**32, else two), hashes the first four words
    into its pool (zeros past the end), mixes the pool words with each other,
    then mixes every further word into each pool word.
    """
    entropy = np.asarray(entropy, dtype=np.uint64).reshape(-1, 3)
    n = len(entropy)
    two = entropy >= np.uint64(2**32)
    first = np.cumsum(1 + two, axis=1) - (1 + two)  # each value's first word
    words = np.zeros((n, _MAX_WORDS), dtype=np.uint32)
    rows, cols = np.nonzero(two)
    words[rows, first[rows, cols] + 1] = entropy[rows, cols] >> np.uint64(32)
    words[np.arange(n)[:, None], first] = entropy & np.uint64(0xFFFFFFFF)
    length = 3 + two.sum(axis=1)

    pool = [_hashmix(words[:, i], i) for i in range(_POOL_SIZE)]
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], call))
                call += 1
    for src in range(_POOL_SIZE, _MAX_WORDS):
        extra = length > src
        for dst in range(_POOL_SIZE):
            pool[dst] = np.where(extra, _mix(pool[dst], _hashmix(words[:, src], call)), pool[dst])
            call += 1

    out = [
        _xorshift((pool[i] ^ _STATE_HASH[i]) * _STATE_HASH[i + 1]).astype(np.uint64)
        for i in range(_POOL_SIZE)
    ]
    high = np.uint64(32)
    return np.stack([out[0] | (out[1] << high), out[2] | (out[3] << high)], axis=1)


# Keys are derived for at most this many (seed, step, id) rows at once; the
# derivation's temporaries, not the keys, set the rollout's peak memory.
_KEY_BLOCK_ROWS = 4096


class _NoiseStreams:
    """The random streams of K lockstep rollouts: one Philox stream per (seed, step, object).

    Each stream is the one ``Generator(Philox(SeedSequence((seed, step, id))))``
    yields.  Keys are derived for blocks of consecutive steps, at most
    ``_KEY_BLOCK_ROWS`` rows a block (or one step, if a step alone has more),
    when a step of the block first draws, so rollouts that draw nothing pay
    nothing; only the block in use is kept.  Every draw resets one bit
    generator to a stream's start: its key, a zero counter and an empty buffer.
    """

    def __init__(self, seeds: tuple[int, ...], ids: tuple[int, ...]):
        self._seeds = seeds
        self._ids = ids
        self._any_negative = bool(ids) and min(ids) < 0
        self._block_steps = max(1, _KEY_BLOCK_ROWS // (len(seeds) * max(1, len(ids))))
        self._block_first: int | None = None  # first step of self._block
        self._block = np.empty(0)  # (steps, K, A, 2) keys
        self._generator: np.random.Generator | None = None

    def _step_keys(self, step: int) -> np.ndarray:
        """(K, A, 2) keys of one step; a negative id gets a placeholder it never draws from."""
        first = (step - 1) // self._block_steps * self._block_steps + 1
        if first != self._block_first:
            shape = (self._block_steps, len(self._seeds), len(self._ids))
            entropy = np.empty(shape + (3,), dtype=np.uint64)
            entropy[..., 0] = np.array(self._seeds, dtype=np.uint64)[:, None]
            entropy[..., 1] = np.arange(first, first + self._block_steps)[:, None, None]
            entropy[..., 2] = np.maximum(self._ids, 0)
            self._block = philox_keys(entropy).reshape(shape + (2,))
            self._block_first = first
        return self._block[step - first]

    def draw(self, step: int, rows, n: int) -> np.ndarray:
        if self._any_negative:
            bad = [self._ids[r] for r in rows if self._ids[r] < 0]
            if bad:
                raise PolicyContractViolation(
                    f"objects {bad} have negative ids, which cannot key a random stream"
                )
        if self._generator is None:
            self._bitgen = np.random.Philox(0)
            self._generator = np.random.Generator(self._bitgen)
            # Plain lists: the state setter reads them about twice as fast as arrays.
            self._start = {
                "bit_generator": "Philox",
                "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
                "buffer": [0, 0, 0, 0],
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
        keys = self._step_keys(step)[:, rows]
        flat = keys.reshape(-1, 2)
        out = np.empty((len(flat), n))
        stream = self._start["state"]
        for key, row in zip(flat.tolist(), out):
            stream["key"] = key
            self._bitgen.state = self._start
            self._generator.standard_normal(out=row)
        return out.reshape(keys.shape[:2] + (n,))


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
    """Everything a policy may condition on at one step of K lockstep rollouts.

    Rollout k runs on seed ``seeds[k]``.  ``poses`` is (K, A, L, 4) as
    [x, y, z, heading] and ``valid`` is (A, L), shared by every rollout: L
    covers the history window plus all previously simulated steps, and
    states at or after the current step are structurally absent.  Row order
    follows ``ids``, and policies address their objects by row.  Arrays are
    read-only views; policies must not retain them beyond the call.
    ``motion`` is (A, 3) [speed, heading, z] of every row from the history
    window (see :meth:`history_motion`), which all rollouts share; the
    harness computes it once per scenario.  ``noise`` holds the rollouts'
    random streams (see :meth:`standard_normals`).
    """

    scenario_id: str
    map_features: tuple[MapFeature, ...]
    ids: tuple[int, ...]
    av_id: int
    step: int
    t0_index: int
    dt: float
    seeds: tuple[int, ...]
    poses: np.ndarray
    valid: np.ndarray
    motion: np.ndarray
    noise: _NoiseStreams

    def row_of(self, object_id: int) -> int:
        return self.ids.index(object_id)

    def standard_normals(self, rows, n: int) -> np.ndarray:
        """(K, len(rows), n) standard normals; [k, i] starts the stream of (seeds[k], ids[rows[i]]).

        Streams are counter-based and keyed by (seed, step, object), so
        draws do not depend on call order or on the other rollouts: plans
        computed ahead of time and step-by-step execution see identical
        noise.  ``loc + scale * z`` gives the bits of numpy's
        ``normal(loc, scale)``.  A negative object id cannot key a stream and
        is a contract violation.
        """
        return self.noise.draw(self.step, rows, n)

    def last_valid_pose(self, rows) -> np.ndarray:
        """(K, n, 4) most recent valid pose of each controlled row in every rollout.

        That is the context's last column: simulated objects are valid at the
        handover step, and every simulated step fills all of a policy's rows.
        """
        return self.poses[:, rows, -1]

    def history_motion(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(speed, heading, z) arrays of the given rows, from the logged history only.

        Speed comes from the two most recent valid history observations;
        objects with a single valid observation get zero speed.
        """
        motion = self.motion[rows]
        return motion[:, 0], motion[:, 1], motion[:, 2]


def _shaped_poses(out, k: int, n: int, who: str, step: int) -> np.ndarray:
    """A policy's output as a (k, n, 4) float array, or a contract violation."""
    try:
        poses = np.asarray(out, dtype=float)
    except (TypeError, ValueError) as exc:
        raise PolicyContractViolation(
            f"{who} policy at step {step}: output is not a pose array ({exc})"
        ) from exc
    if poses.shape != (k, n, 4):
        raise PolicyContractViolation(
            f"{who} policy at step {step}: expected ({k}, {n}, 4) poses for its "
            f"controlled objects in each rollout, got shape {poses.shape}"
        )
    return poses


def _finish_poses(poses: np.ndarray, ids: Sequence[int], step: int) -> None:
    """Reject non-finite rows of (K, n, 4) ``poses`` and wrap their headings in place.

    Row i is object ``ids[i]`` in every rollout.
    """
    finite = np.isfinite(poses)
    if not finite.all():
        bad = [ids[i] for i in np.flatnonzero(~finite.all(axis=(0, 2)))]
        raise PolicyContractViolation(f"policy output at step {step}: objects {bad} are not finite")
    poses[..., 3] = normalize_heading(poses[..., 3])


class Policy(ABC):
    """A per-step pose producer for a fixed set of controlled objects."""

    @abstractmethod
    def step(self, context: PolicyContext, rows: np.ndarray) -> np.ndarray:
        """Return (K, len(rows), 4) poses [x, y, z, heading] for context.step.

        ``rows`` indexes the controlled objects in ``context.ids``; entry
        [k] belongs to rollout k of the context.
        """

    def plan(self, context: PolicyContext, rows: np.ndarray, horizon: int) -> np.ndarray:
        """Produce ``horizon`` consecutive steps without re-observing others.

        Returns (horizon, K, len(rows), 4).  The default rolls :meth:`step`
        forward against virtually extended contexts in which only the
        policy's own outputs advance; other objects stay frozen at their last
        known (now stale) state.  Plan holders use this to emulate slower
        replanning.
        """
        k, a, length, _ = context.poses.shape
        outputs = np.empty((horizon, k, len(rows), 4))
        poses = np.zeros((k, a, length + horizon - 1, 4))
        valid = np.zeros((a, length + horizon - 1), dtype=bool)
        poses[:, :, :length] = context.poses
        valid[:, :length] = context.valid
        ctx = context
        own_ids = [context.ids[r] for r in rows]
        for j in range(horizon):
            outputs[j] = _shaped_poses(self.step(ctx, rows), k, len(rows), "planning", ctx.step)
            _finish_poses(outputs[j], own_ids, ctx.step)
            if j == horizon - 1:
                break
            poses[:, rows, length + j] = outputs[j]
            valid[rows, length + j] = True
            upto = length + j + 1
            ctx = replace(
                ctx,
                step=ctx.step + 1,
                poses=_read_only(poses[:, :, :upto]),
                valid=_read_only(valid[:, :upto]),
            )
        return outputs


@dataclass(frozen=True)
class RolloutTrace:
    """sha256 of the scenario id, the row ids as ``<i8`` and the (T, A, 4) poses as ``<f8``."""

    scenario_id: str
    seed: int
    ids: tuple[int, ...]
    digest: str


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    issues: tuple[str, ...]


def _rollout_hasher(scenario_id: str, ids: Sequence[int]):
    hasher = hashlib.sha256(scenario_id.encode("utf-8"))
    hasher.update(np.asarray(ids, dtype="<i8").tobytes())
    return hasher


def closed_loop_rollout(
    scenario: Scenario,
    av_policy: Policy,
    env_policy: Policy,
    seeds: Sequence[int],
) -> tuple[np.ndarray, tuple[RolloutTrace, ...]]:
    """Roll K copies of the scene forward in lockstep, one step at a time, over the future window.

    Rollout k runs on ``seeds[k]``; it shares only the logged history with
    the others, so it equals the rollout of ``seeds=(seeds[k],)``.
    Controlled rows partition the simulated objects into {AV} and the rest;
    both policies are stepped for all K rollouts against the identical
    context each step and their outputs merged afterwards.  Returns the
    simulated futures as (K, A, T, 4) poses with rows in ascending object id
    order (the traces' ``ids``), plus one trace per rollout.
    """
    if av_policy is env_policy:
        raise PolicyContractViolation("AV and environment policies must be distinct objects")
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("closed_loop_rollout needs at least one seed")
    for seed in seeds:
        if not 0 <= seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    sim_ids = tuple(sorted(simulated_object_ids(scenario)))
    av_row = sim_ids.index(scenario.av_track_id)
    all_rows = np.arange(len(sim_ids))
    av_rows = np.array([av_row])
    env_rows = all_rows[all_rows != av_row]

    k = len(seeds)
    h, t_total = scenario.history_length, scenario.future_length
    n = len(sim_ids)
    tracks = [scenario.track(oid) for oid in sim_ids]
    poses = np.zeros((k, n, h + t_total, 4))
    valid = np.zeros((n, h + t_total), dtype=bool)
    valid[:, :h] = [trk.valid[:h] for trk in tracks]
    poses[:, :, :h] = np.where(valid[:, :h, None], [trk.poses[:h] for trk in tracks], 0.0)
    motion = _history_motion(poses[0], valid, h - 1, scenario.timestep, all_rows, sim_ids)

    hashers = [_rollout_hasher(scenario.scenario_id, sim_ids) for _ in seeds]
    noise = _NoiseStreams(seeds, sim_ids)
    for t in range(1, t_total + 1):
        upto = h + t - 1
        ctx = PolicyContext(
            scenario_id=scenario.scenario_id,
            map_features=scenario.map_features,
            ids=sim_ids,
            av_id=scenario.av_track_id,
            step=t,
            t0_index=h - 1,
            dt=scenario.timestep,
            seeds=seeds,
            poses=_read_only(poses[:, :, :upto]),
            valid=_read_only(valid[:, :upto]),
            motion=motion,
            noise=noise,
        )
        env_out = env_policy.step(ctx, env_rows) if len(env_rows) else None
        av_out = av_policy.step(ctx, av_rows)
        merged = poses[:, :, upto]
        if env_out is not None:
            merged[:, env_rows] = _shaped_poses(env_out, k, len(env_rows), "environment", t)
        merged[:, av_row] = _shaped_poses(av_out, k, 1, "AV", t)[:, 0]
        _finish_poses(merged, sim_ids, t)
        valid[:, upto] = True
        # Commit the step now: a later rewrite of it no longer matches the digest.
        for hasher, step_poses in zip(hashers, np.ascontiguousarray(merged, dtype="<f8")):
            hasher.update(step_poses)

    traces = tuple(
        RolloutTrace(scenario.scenario_id, seed, sim_ids, hasher.hexdigest())
        for seed, hasher in zip(seeds, hashers)
    )
    return poses[:, :, h:], traces


def generate_submission(
    scenario: Scenario,
    av_policy: Policy,
    env_policy: Policy,
    k: int = 32,
    base_seed: int = 0,
    with_traces: bool = False,
):
    """Run ``k`` independent lockstep rollouts seeded base_seed .. base_seed+k-1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    futures, traces = closed_loop_rollout(
        scenario, av_policy, env_policy, seeds=range(base_seed, base_seed + k)
    )
    rollouts = ScenarioRollouts(
        scenario_id=scenario.scenario_id,
        ids=sorted(simulated_object_ids(scenario)),
        rollouts=futures,
    )
    if with_traces:
        return rollouts, traces
    return rollouts


def audit_trace(trace: RolloutTrace, poses: np.ndarray, ids: Sequence[int]) -> AuditReport:
    """Mechanical check of a rollout trace against the finished rollout.

    ``poses`` is the rollout as (A, T, 4) and ``ids`` the object id of each
    row.  Verifies that the rows are the trace's objects in its order, then
    recomputes the digest from the rollout.
    """
    if tuple(ids) != trace.ids:
        return AuditReport(ok=False, issues=("rollout rows do not match the trace's ids",))
    hasher = _rollout_hasher(trace.scenario_id, trace.ids)
    hasher.update(np.ascontiguousarray(np.swapaxes(poses, 0, 1), dtype="<f8"))
    if hasher.hexdigest() != trace.digest:
        return AuditReport(ok=False, issues=("digest mismatch",))
    return AuditReport(ok=True, issues=())
