"""Per-context Beta-Bernoulli bandits over click and survey feedback.

Each discrete context keeps two families of windowed counters per action: click
(was the item selected when shown) and survey (did the user say it helped). A
request is scored by drawing from both posteriors and blending the draws with a
weight that shifts from click-driven to survey-driven as survey evidence
accumulates.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import (
    NULL_ACTION_ID,
    LoggedEvent,
    NoDataError,
    Survey,
    ValidationError,
    atomic_write,
    attributed_action,
)

DEFAULT_WINDOW_SECONDS = 28 * 24 * 3600

COMBINER_INTERPOLATION = "interpolation"
COMBINER_NAIVE_PRODUCT = "naive_product"

# Draws are clamped into the open interval (0, 1): x <= 0 becomes the smallest
# normal double, x >= 1 the largest double below one; subnormals pass through.
_TINY = np.finfo(float).tiny
_BELOW_ONE = np.nextafter(1.0, 0.0)


@dataclass
class ArmStats:
    """Windowed success/trial counters for one action under one signal.

    ``successes`` and ``trials`` are always the sums over the retained
    entries, so the posterior can be formed without touching the deque.
    Fractional increments are allowed.
    """

    entries: deque = field(default_factory=deque)
    successes: float = 0.0
    trials: float = 0.0

    def add(self, ts: int, successes: float, trials: float) -> None:
        if trials < 0 or successes < 0 or successes > trials:
            raise ValidationError("need 0 <= successes <= trials")
        if self.entries and ts < self.entries[-1][0]:
            raise ValidationError("entries must be appended in time order")
        self.entries.append((ts, successes, trials))
        self.successes += successes
        self.trials += trials

    def evict_before(self, cutoff: int) -> None:
        """Drop entries with ts <= cutoff (they have aged out of the window)."""
        while self.entries and self.entries[0][0] <= cutoff:
            _, s, t = self.entries.popleft()
            self.successes -= s
            self.trials -= t
        if not self.entries:
            # guard against float drift once everything is gone
            self.successes = 0.0
            self.trials = 0.0

    @property
    def failures(self) -> float:
        return self.trials - self.successes

    def copy(self) -> "ArmStats":
        return ArmStats(
            entries=deque(self.entries), successes=self.successes, trials=self.trials
        )

    def to_dict(self) -> dict:
        return {"entries": [[ts, s, t] for ts, s, t in self.entries]}

    @classmethod
    def from_dict(cls, d: dict) -> "ArmStats":
        stats = cls()
        for ts, s, t in d.get("entries", []):
            stats.add(int(ts), float(s), float(t))
        return stats


@dataclass
class LambdaConfig:
    """How the click and survey draws are combined.

    With the default interpolation combiner the click weight is
    k / (k + total survey trials in the context), decaying toward the survey
    signal as answers arrive. ``fixed_weight`` pins the weight instead, and the
    naive-product combiner multiplies the two draws with no weight at all.
    """

    k: float = 50.0
    fixed_weight: float | None = None
    combiner: str = COMBINER_INTERPOLATION

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValidationError("k must be positive")
        if self.fixed_weight is not None and not (0.0 <= self.fixed_weight <= 1.0):
            raise ValidationError("fixed_weight must lie in [0, 1]")
        if self.combiner not in (COMBINER_INTERPOLATION, COMBINER_NAIVE_PRODUCT):
            raise ValidationError(f"unknown combiner {self.combiner!r}")

    def to_dict(self) -> dict:
        return {"k": self.k, "fixed_weight": self.fixed_weight, "combiner": self.combiner}

    @classmethod
    def from_dict(cls, d: dict) -> "LambdaConfig":
        return cls(
            k=d.get("k", 50.0),
            fixed_weight=d.get("fixed_weight"),
            combiner=d.get("combiner", COMBINER_INTERPOLATION),
        )


@dataclass
class ContextBank:
    """All counters for one discrete context."""

    context_id: str
    window_seconds: int = DEFAULT_WINDOW_SECONDS
    click_stats: dict[str, ArmStats] = field(default_factory=dict)
    survey_stats: dict[str, ArmStats] = field(default_factory=dict)
    lambda_config: LambdaConfig = field(default_factory=LambdaConfig)

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValidationError("window_seconds must be positive")

    def click_arm(self, action_id: str) -> ArmStats:
        stats = self.click_stats.get(action_id)
        if stats is None:
            stats = self.click_stats[action_id] = ArmStats()
        return stats

    def survey_arm(self, action_id: str) -> ArmStats:
        stats = self.survey_stats.get(action_id)
        if stats is None:
            stats = self.survey_stats[action_id] = ArmStats()
            # bank invariant: survey stats never exist without click stats
            self.click_arm(action_id)
        return stats

    def total_survey_trials(self) -> float:
        return sum(s.trials for s in self.survey_stats.values())


def click_weight(bank: ContextBank) -> float:
    """Current blend weight on the click draw for this context."""
    cfg = bank.lambda_config
    if cfg.fixed_weight is not None:
        return cfg.fixed_weight
    return cfg.k / (cfg.k + bank.total_survey_trials())


def combine_scores(click_draw: float, survey_draw: float, weight: float) -> float:
    """Geometric blend of the two draws; weight 1 or 0 returns an input exactly."""
    if weight >= 1.0:
        return click_draw
    if weight <= 0.0:
        return survey_draw
    return math.exp(weight * math.log(click_draw) + (1.0 - weight) * math.log(survey_draw))


def joint_scores(
    bank: ContextBank, action_ids: list[str], rng: np.random.Generator
) -> np.ndarray:
    """Sampled joint scores for a list of actions, one posterior draw each.

    Actions with no click stats draw through the uniform prior. Actions with
    no survey evidence score on the click draw alone under the interpolation
    combiner; under the naive product they multiply in a uniform survey draw.
    Draw order: one ``rng.beta`` call over the click parameters of every
    action followed by the survey parameters of the surveyed subset (every
    action under the naive product), in list order, so the rng stream
    advances deterministically. Each draw is clamped into the open interval,
    so a log of it is always finite.
    """
    m = len(action_ids)
    if m == 0:
        return np.zeros(0)
    naive = bank.lambda_config.combiner == COMBINER_NAIVE_PRODUCT
    a, b = [1.0] * m, [1.0] * m
    survey_a, survey_b, surveyed = [], [], []
    for i, action_id in enumerate(action_ids):
        stats = bank.click_stats.get(action_id)
        if stats is not None:
            a[i] = stats.successes + 1.0
            b[i] = stats.failures + 1.0
        stats = bank.survey_stats.get(action_id)
        if stats is not None and stats.trials > 0:
            surveyed.append(i)
            survey_a.append(stats.successes + 1.0)
            survey_b.append(stats.failures + 1.0)
        elif naive:
            survey_a.append(1.0)
            survey_b.append(1.0)
    draws = rng.beta(a + survey_a, b + survey_b)
    draws[draws <= 0.0] = _TINY
    draws[draws >= 1.0] = _BELOW_ONE
    out = draws[:m]
    if naive:
        return out * draws[m:]
    if surveyed:
        weight = click_weight(bank)
        for i, survey_draw in zip(surveyed, draws[m:].tolist()):
            out[i] = combine_scores(float(out[i]), survey_draw, weight)
    return out


def rank_by_score(action_ids: list[str], scores: np.ndarray) -> list[int]:
    """Indices sorted by descending score, ties broken by ascending action id."""
    keyed = zip(np.negative(scores, dtype=float).tolist(), action_ids, range(len(action_ids)))
    return [i for _, _, i in sorted(keyed)]


def pre_sample(
    bank: ContextBank, candidate_ids: list[str], k: int, rng: np.random.Generator
) -> list[str]:
    """Cut a large candidate pool down to its top-k by one round of sampling.

    Used when the pool is too large to score on every request; one joint draw
    per candidate, keep the k best. Deterministic given the rng state and the
    candidate order.
    """
    if k <= 0:
        raise ValidationError("k must be positive")
    if len(candidate_ids) != len(set(candidate_ids)):
        raise ValidationError("candidate ids must be unique")
    scores = joint_scores(bank, candidate_ids, rng)
    order = rank_by_score(candidate_ids, scores)
    return [candidate_ids[i] for i in order[:k]]


def evict(bank: ContextBank, now: int) -> None:
    """Age out entries older than the bank's window, as of ``now``.

    An entry at ts stays while now - ts < window, so the window is half-open
    on the old side.
    """
    cutoff = now - bank.window_seconds
    for stats in bank.click_stats.values():
        stats.evict_before(cutoff)
    for stats in bank.survey_stats.values():
        stats.evict_before(cutoff)


def fold(bank: ContextBank, event: LoggedEvent) -> None:
    """Count one logged event into the bank's counters, evicting nothing.

    Observed actions (served above the null item, or the single item of a
    direct-trigger slate) each record a click trial; the clicked one also
    records a click success. An answered survey records a survey trial on the
    action the event attributes to, with a success on yes. A click on the null
    slot itself carries no click trial for the null item, but an answered
    survey still attaches to it.
    """
    if event.context.context_id != bank.context_id:
        raise ValidationError("event context does not match this bank")
    clicked = event.clicked_action()
    for action in event.slate.content_items():
        success = 1.0 if clicked is not None and action.action_id == clicked.action_id else 0.0
        bank.click_arm(action.action_id).add(event.ts, success, 1.0)

    if event.feedback.survey is Survey.SKIPPED:
        return
    target = attributed_action(event)
    if target is None:
        return
    success = 1.0 if event.feedback.survey is Survey.YES else 0.0
    bank.survey_arm(target.action_id).add(event.ts, success, 1.0)


def update(bank: ContextBank, event: LoggedEvent) -> None:
    """Age the bank out as of the event's ts, then fold the event in.

    A batch of events in time order can instead be folded one by one and
    evicted once, at the last event's ts: the retained entries are the same,
    and on whole-number counts so are the sums.
    """
    if event.context.context_id != bank.context_id:
        raise ValidationError("event context does not match this bank")
    evict(bank, event.ts)
    fold(bank, event)


def estimate_propensities(
    posterior_params: dict[str, tuple[float, float]],
    rng: np.random.Generator,
    n_draws: int = 10000,
) -> dict[str, float]:
    """Monte-Carlo probability of each action ranking first under the logged
    posteriors.

    ``posterior_params`` maps action id to (successes, trials) as logged at
    decision time. Each draw samples every posterior once and credits the
    argmax; ids are processed in sorted order so results are reproducible for
    a given rng state.
    """
    if not posterior_params:
        raise NoDataError("no posterior parameters given")
    if n_draws <= 0:
        raise ValidationError("n_draws must be positive")
    ids = sorted(posterior_params)
    a = np.empty(len(ids))
    b = np.empty(len(ids))
    for i, action_id in enumerate(ids):
        successes, trials = posterior_params[action_id]
        if successes < 0 or trials < successes:
            raise ValidationError("need 0 <= successes <= trials in posterior params")
        a[i] = successes + 1.0
        b[i] = (trials - successes) + 1.0
    draws = rng.beta(a, b, size=(n_draws, len(ids)))
    winners = np.argmax(draws, axis=1)
    counts = np.bincount(winners, minlength=len(ids))
    return {action_id: counts[i] / n_draws for i, action_id in enumerate(ids)}


def save_bank(bank: ContextBank, path: str | os.PathLike) -> None:
    record = {
        "context_id": bank.context_id,
        "window_seconds": bank.window_seconds,
        "lambda_config": bank.lambda_config.to_dict(),
        "click_stats": {k: v.to_dict() for k, v in sorted(bank.click_stats.items())},
        "survey_stats": {k: v.to_dict() for k, v in sorted(bank.survey_stats.items())},
    }
    atomic_write(path, json.dumps(record, sort_keys=True, indent=1) + "\n")


def load_bank(path: str | os.PathLike) -> ContextBank:
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    bank = ContextBank(
        context_id=record["context_id"],
        window_seconds=int(record["window_seconds"]),
        lambda_config=LambdaConfig.from_dict(record.get("lambda_config") or {}),
    )
    for action_id, d in record.get("click_stats", {}).items():
        bank.click_stats[action_id] = ArmStats.from_dict(d)
    for action_id, d in record.get("survey_stats", {}).items():
        bank.survey_stats[action_id] = ArmStats.from_dict(d)
        if action_id not in bank.click_stats:
            raise ValidationError("survey stats without click stats in snapshot")
    return bank


def null_survey_stats(bank: ContextBank) -> ArmStats | None:
    return bank.survey_stats.get(NULL_ACTION_ID)
