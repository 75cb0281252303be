"""Offline policy evaluation and the launch gate.

A candidate policy is scored on logged interactions by importance weighting on
the clicked action, self-normalized so the estimate stays in the reward range.
The gate checks the estimate against the logging policy's realized mean and
refuses weak evidence (inflated variance, collapsed effective sample size).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .core import (
    LoggedEvent,
    NoDataError,
    RewardSpec,
    Survey,
    atomic_write,
    attributed_rewards,
)

TargetPolicy = Callable[..., Mapping[str, float]]
"""Maps a context to per-action selection probabilities (action id -> prob)."""


class MissingPropensityError(ValueError):
    """Events needed by the estimator lack logged propensities."""


@dataclass
class OpeResult:
    estimate: float
    logging_policy_mean: float
    effective_sample_size: float
    variance: float
    matched_fraction: float
    n_usable: int

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "logging_policy_mean": self.logging_policy_mean,
            "effective_sample_size": self.effective_sample_size,
            "variance": self.variance,
            "matched_fraction": self.matched_fraction,
            "n_usable": self.n_usable,
        }


def snips(
    events: list[LoggedEvent],
    target_policy: TargetPolicy,
    reward_spec: RewardSpec,
) -> OpeResult:
    """Self-normalized importance-sampled value of the target policy.

    Usable events are those with a defined reward and a clicked (attributed)
    action; each is weighted by the target policy's probability of the clicked
    action over the logged propensity. Events the target policy would never
    lead to keep weight zero and drop out of the estimate. The variance is the
    delta-method variance of the self-normalized ratio, and the effective
    sample size is (sum w)^2 / sum w^2.
    """
    rewards = []
    weights = []
    missing = []
    for index, event, action, reward in attributed_rewards(events, reward_spec):
        if event.propensity is None:
            missing.append(index)
            continue
        target_probs = target_policy(event.context)
        pi = float(target_probs.get(action.action_id, 0.0))
        rewards.append(reward)
        weights.append(pi / event.propensity)
    if missing:
        shown = ", ".join(str(i) for i in missing[:10])
        raise MissingPropensityError(
            f"{len(missing)} usable events lack propensities (event indexes {shown})"
        )
    if not rewards:
        raise NoDataError("no events with a defined reward and a clicked action")
    r = np.asarray(rewards)
    w = np.asarray(weights)
    weight_sum = float(np.sum(w))
    if weight_sum <= 0.0:
        raise NoDataError("target policy never selects a logged clicked action")
    estimate = float(np.sum(w * r)) / weight_sum
    sq_sum = float(np.sum(w * w))
    variance = float(np.sum((w * (r - estimate)) ** 2)) / (weight_sum**2)
    return OpeResult(
        estimate=estimate,
        logging_policy_mean=float(np.sum(r)) / len(r),
        effective_sample_size=weight_sum**2 / sq_sum,
        variance=variance,
        matched_fraction=float(np.count_nonzero(w)) / len(w),
        n_usable=len(w),
    )


def prr_hat(events: list[LoggedEvent]) -> float | None:
    """Share of answered surveys that came back positive; None if none answered."""
    yes = sum(1 for e in events if e.feedback.survey is Survey.YES)
    no = sum(1 for e in events if e.feedback.survey is Survey.NO)
    if yes + no == 0:
        return None
    return yes / (yes + no)


def eas_hat(events: list[LoggedEvent]) -> float:
    """Escalation rate over all events."""
    if not events:
        raise NoDataError("no events")
    return sum(1 for e in events if e.feedback.escalation) / len(events)


@dataclass
class PromotionThresholds:
    variance_ceiling: float = 0.05
    ess_floor: float = 100.0

    def __post_init__(self) -> None:
        if self.variance_ceiling <= 0 or self.ess_floor <= 0:
            raise ValueError("thresholds must be positive")


@dataclass
class GateVerdict:
    passed: bool
    beats_logging: bool
    variance_ok: bool
    ess_ok: bool
    reasons: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "beats_logging": self.beats_logging,
            "variance_ok": self.variance_ok,
            "ess_ok": self.ess_ok,
            "reasons": list(self.reasons),
        }


def promotion_gate(result: OpeResult, thresholds: PromotionThresholds) -> GateVerdict:
    """All three clauses must hold: beat the logging mean, bounded variance,
    enough effective samples."""
    beats = result.estimate > result.logging_policy_mean
    variance_ok = result.variance <= thresholds.variance_ceiling
    ess_ok = result.effective_sample_size >= thresholds.ess_floor
    reasons = []
    if not beats:
        reasons.append("estimate does not exceed logging policy mean")
    if not variance_ok:
        reasons.append("variance above ceiling")
    if not ess_ok:
        reasons.append("insufficient effective sample size")
    return GateVerdict(
        passed=beats and variance_ok and ess_ok,
        beats_logging=beats,
        variance_ok=variance_ok,
        ess_ok=ess_ok,
        reasons=reasons,
    )


def save_evaluation(
    result: OpeResult, verdict: GateVerdict, path: str | os.PathLike
) -> None:
    record = {"ope": result.to_dict(), "gate": verdict.to_dict()}
    atomic_write(path, json.dumps(record, sort_keys=True, indent=1) + "\n")
