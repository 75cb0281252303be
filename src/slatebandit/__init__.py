"""Contextual-bandit decision engine for slate recommendation.

Discrete contexts get windowed Beta-Bernoulli bandits over click and survey
feedback; rich contexts get a linear bandit head over learned reward-network
features. Slates truncate at a null "none of the above" item, exploration can
be gated against an editorial baseline, new actions are promoted in from
foreign flows, and logged interactions feed counterfactual evaluation before
anything ships.
"""

from .core import (
    NULL_ACTION_ID,
    Action,
    Context,
    EventLog,
    Feedback,
    LoggedEvent,
    NoDataError,
    RewardMode,
    RewardSpec,
    Slate,
    Survey,
    ValidationError,
    attributed_action,
    attributed_rewards,
    decode_event,
    encode_event,
    null_item,
    reward_of,
)
from .evaluation import (
    GateVerdict,
    MissingPropensityError,
    OpeResult,
    PromotionThresholds,
    eas_hat,
    promotion_gate,
    prr_hat,
    snips,
)
from .expansion import ExpansionConfig, ExpansionReport, expand, prob_better
from .features import FeatureMap, FeaturizerSpec, HashingEmbedder, TableEmbedder, TrainConfig
from .features import train as train_feature_map
from .linear import BanditHead, SufficientStats, absorb, bonus, ews_sample, fit, ts_sample
from .mab import (
    ArmStats,
    ContextBank,
    LambdaConfig,
    estimate_propensities,
    joint_scores,
    pre_sample,
    update,
)
from .sim import (
    ActionTruth,
    ContextWorld,
    MabPolicy,
    NlbPolicy,
    OraclePolicy,
    RunResult,
    Schedule,
    UniformRandomPolicy,
    WorldSpec,
    kpi_counters,
    run,
)
from .slates import SlateDecision, SlatePolicyConfig, assemble, safe_gate

__version__ = "0.1.0"

__all__ = [
    "NULL_ACTION_ID",
    "Action",
    "ActionTruth",
    "ArmStats",
    "BanditHead",
    "Context",
    "ContextBank",
    "ContextWorld",
    "EventLog",
    "ExpansionConfig",
    "ExpansionReport",
    "FeatureMap",
    "FeaturizerSpec",
    "Feedback",
    "GateVerdict",
    "HashingEmbedder",
    "LambdaConfig",
    "LoggedEvent",
    "MabPolicy",
    "MissingPropensityError",
    "NlbPolicy",
    "NoDataError",
    "OpeResult",
    "OraclePolicy",
    "PromotionThresholds",
    "RewardMode",
    "RewardSpec",
    "RunResult",
    "Schedule",
    "Slate",
    "SlateDecision",
    "SlatePolicyConfig",
    "SufficientStats",
    "Survey",
    "TableEmbedder",
    "TrainConfig",
    "UniformRandomPolicy",
    "ValidationError",
    "WorldSpec",
    "absorb",
    "assemble",
    "attributed_action",
    "attributed_rewards",
    "bonus",
    "decode_event",
    "eas_hat",
    "encode_event",
    "estimate_propensities",
    "ews_sample",
    "expand",
    "fit",
    "joint_scores",
    "kpi_counters",
    "null_item",
    "pre_sample",
    "prob_better",
    "promotion_gate",
    "prr_hat",
    "reward_of",
    "run",
    "safe_gate",
    "snips",
    "train_feature_map",
    "ts_sample",
    "update",
]
