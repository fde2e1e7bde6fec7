"""Exception types shared across the library."""

from __future__ import annotations


class SimRealError(Exception):
    """Base class for every library-specific failure."""


class MalformedScenario(SimRealError):
    """A scenario violates a structural invariant (bad AV track, sizes, counts)."""


class EmptySampleSet(SimRealError):
    """A distribution fit was requested on zero samples."""


class NoValidSteps(SimRealError):
    """A logged feature series has no valid step to score."""


class InconsistentRollouts(SimRealError):
    """Rollouts of one scenario disagree on the simulated object set."""


class MetricUnscorable(SimRealError):
    """Every object was dropped for a metric, so no per-scenario value exists."""


class NonFiniteFeature(SimRealError):
    """A feature value to be binned is NaN or infinite."""


class IncompleteBundle(SimRealError):
    """A composite was requested with component metrics missing."""


class PolicyContractViolation(SimRealError):
    """A policy returned the wrong object set or unusable states."""


class InvalidOption(SimRealError):
    """A command-line or policy option has an unusable value."""


class OccupiedOutput(SimRealError):
    """An output directory already holds scenario files of another set."""


class ParseError(SimRealError):
    """A scenario, archive, or config file could not be decoded.

    Carries the offending path and, for binary inputs, the byte offset at
    which decoding failed.
    """

    def __init__(self, message: str, path: str | None = None, offset: int | None = None):
        self.path = path
        self.offset = offset
        detail = message
        if path is not None:
            detail = f"{path}: {detail}"
        if offset is not None:
            detail = f"{detail} (byte offset {offset})"
        super().__init__(detail)
