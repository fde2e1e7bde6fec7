"""Distributional realism scoring for stochastic multi-agent traffic simulation.

The library scores sampled joint futures against logged ground truth by
fitting per-metric histograms to the samples and measuring the negative log
likelihood the induced categorical distributions assign to the log, then
combining nine such component metrics into one composite.  A closed-loop
rollout harness with reproducible baseline policies and a synthetic scenario
generator make the whole pipeline runnable at desk scale.
"""

from .aggregation import MetricsBundle, MetricWeights, ade, composite, min_ade
from .config import DEFAULT_CONFIG, EvalConfig, config_from_dict, config_to_dict
from .errors import (
    EmptySampleSet,
    IncompleteBundle,
    InconsistentRollouts,
    InvalidOption,
    MalformedScenario,
    MetricUnscorable,
    NonFiniteFeature,
    NoValidSteps,
    OccupiedOutput,
    ParseError,
    PolicyContractViolation,
    SimRealError,
)
from .evaluate import DatasetSummary, evaluate_dataset, evaluate_scenario
from .features import FeatureParams, MetricKind, SceneStates, extract_features
from .harness import (
    AuditReport,
    Policy,
    PolicyContext,
    RolloutTrace,
    audit_trace,
    closed_loop_rollout,
    generate_submission,
)
from .io import (
    encode_rollouts,
    read_scenario,
    read_scenario_dir,
    read_submission,
    validate_submission,
    write_report,
    write_scenario,
    write_submission,
)
from .policies import (
    POLICY_REGISTRY,
    ConstantVelocityPolicy,
    LoggedOraclePolicy,
    NoisyPlanPolicy,
    RandomAgentPolicy,
    RegisteredPolicy,
    create_policy,
)
from .scene import (
    MapFeature,
    MapFeatureKind,
    ObjectType,
    Scenario,
    ScenarioRollouts,
    Tracks,
    normalize_heading,
    simulated_object_ids,
    strip_late_spawns,
)
from .synth import SynthScenario, SynthSpec, Template, generate, suite_specs

__version__ = "0.1.0"
