"""Promoting actions from a foreign flow into a context's recommendation pool.

Actions that only ever surface through another surface (say, free-text
disambiguation) accumulate survey evidence there. When that evidence makes an
action credibly better than doing nothing, the action is copied into the
target context's bank so the recommendation policy can start serving it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .core import NULL_ACTION_ID, ValidationError, atomic_write
from .mab import ArmStats, ContextBank

VERDICT_PROMOTED = "promoted"
VERDICT_BELOW_THRESHOLD = "below_threshold"
VERDICT_INSUFFICIENT_TRIALS = "insufficient_trials"
VERDICT_ALREADY_PRESENT = "already_present"


@dataclass
class ExpansionConfig:
    """Gate parameters: evidence floor, false-positive budget, draw count."""

    min_trials: float = 10.0
    false_positive_rate: float = 0.05
    mc_draws: int = 100000

    def __post_init__(self) -> None:
        if self.min_trials < 1:
            raise ValidationError("min_trials must be at least 1")
        if not (0.0 < self.false_positive_rate < 1.0):
            raise ValidationError("false_positive_rate must lie in (0, 1)")
        if self.mc_draws < 1:
            raise ValidationError("mc_draws must be positive")


def prob_better(
    candidate: ArmStats, reference: ArmStats, mc_draws: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo P(candidate rate > reference rate) under Beta posteriors."""
    if mc_draws < 1:
        raise ValidationError("mc_draws must be positive")
    cand = rng.beta(candidate.successes + 1.0, candidate.failures + 1.0, size=mc_draws)
    ref = rng.beta(reference.successes + 1.0, reference.failures + 1.0, size=mc_draws)
    return float(np.mean(cand > ref))


@dataclass
class CandidateVerdict:
    action_id: str
    trials: float
    prob_better: float | None
    verdict: str

    def to_dict(self) -> dict:
        return {
            "action_id": self.action_id,
            "trials": self.trials,
            "prob_better": self.prob_better,
            "verdict": self.verdict,
        }


@dataclass
class ExpansionReport:
    context_id: str
    promoted: list[str] = field(default_factory=list)
    verdicts: list[CandidateVerdict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "context_id": self.context_id,
            "promoted": list(self.promoted),
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def expand(
    bank: ContextBank,
    foreign_survey_stats: dict[str, ArmStats],
    config: ExpansionConfig,
    rng: np.random.Generator,
) -> ExpansionReport:
    """Promote foreign actions whose survey rate credibly beats the null item.

    The reference is the bank's own survey posterior for the null item (doing
    nothing must be beatable with probability at least 1 - false_positive_rate).
    A promoted action gets a copy of its foreign survey entries and a fresh,
    empty click-stats entry; its click posterior starts at the uniform prior so
    the policy explores it. Candidates already known to the bank are skipped.
    Candidates are processed in sorted id order, so the rng stream and the
    report are reproducible.
    """
    reference = bank.survey_stats.get(NULL_ACTION_ID)
    if reference is None:
        raise ValidationError("bank has no survey stats for the null item")
    report = ExpansionReport(context_id=bank.context_id)
    for action_id in sorted(foreign_survey_stats):
        stats = foreign_survey_stats[action_id]
        if (
            action_id == NULL_ACTION_ID
            or action_id in bank.click_stats
            or action_id in bank.survey_stats
        ):
            report.verdicts.append(
                CandidateVerdict(action_id, stats.trials, None, VERDICT_ALREADY_PRESENT)
            )
            continue
        if stats.trials < config.min_trials:
            report.verdicts.append(
                CandidateVerdict(action_id, stats.trials, None, VERDICT_INSUFFICIENT_TRIALS)
            )
            continue
        p = prob_better(stats, reference, config.mc_draws, rng)
        if p >= 1.0 - config.false_positive_rate:
            bank.survey_stats[action_id] = stats.copy()
            bank.click_stats[action_id] = ArmStats()
            report.promoted.append(action_id)
            report.verdicts.append(CandidateVerdict(action_id, stats.trials, p, VERDICT_PROMOTED))
        else:
            report.verdicts.append(
                CandidateVerdict(action_id, stats.trials, p, VERDICT_BELOW_THRESHOLD)
            )
    return report


def save_report(report: ExpansionReport, path: str | os.PathLike) -> None:
    atomic_write(path, json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n")
