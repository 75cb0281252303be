"""Slate assembly, direct triggering, and the safe-exploration gate."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .core import Action, Slate, ValidationError


class SlateError(ValidationError):
    """The scored candidate list cannot be turned into a slate."""


@dataclass
class SlatePolicyConfig:
    """Knobs for turning a ranked candidate list into a served slate.

    ``max_length`` counts the null slot, so at most max_length - 1 content
    items are served. ``direct_trigger_margin`` is the score lead the top
    action needs over the null item, when the null item ranks second, to be
    served alone.
    """

    max_length: int = 7
    allow_direct_trigger: bool = False
    direct_trigger_margin: float = 0.4
    safe_exploration: bool = False
    baselines: dict[str, Slate] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_length < 1:
            raise ValidationError("max_length must be at least 1")
        if self.direct_trigger_margin < 0:
            raise ValidationError("direct_trigger_margin must be non-negative")


@dataclass
class SlateDecision:
    """A served slate plus what the policy hands the logger.

    ``propensities`` (action id -> probability of ranking first) and
    ``posteriors`` (action id -> (successes, trials) at decision time) are
    set when the policy has them.
    """

    served: Slate
    used_baseline: bool = False
    propensities: dict[str, float] | None = None
    posteriors: dict[str, tuple[float, float]] | None = None


def assemble(
    scored: Sequence[tuple[Action, float]], config: SlatePolicyConfig
) -> SlateDecision:
    """Truncate a ranked candidate list at the null item into a served slate.

    ``scored`` must contain the null item exactly once and is trusted to be in
    ranking order (best first); items ranked below the null item are dropped,
    and content is capped at max_length - 1 before the null item is appended.
    When direct triggering is enabled, a top action leading the second-ranked
    null item by at least the margin is served alone.
    """
    null_positions = [i for i, (a, _) in enumerate(scored) if a.is_null_item]
    if not null_positions:
        raise SlateError("scored candidates are missing the null item")
    if len(null_positions) > 1:
        raise SlateError("scored candidates contain the null item more than once")
    null_position = null_positions[0]

    if (
        config.allow_direct_trigger
        and null_position == 1
        and float(scored[0][1]) - float(scored[1][1]) >= config.direct_trigger_margin
    ):
        action, score = scored[0]
        return SlateDecision(served=Slate(items=[action], scores=[score]))

    content = scored[:null_position][: config.max_length - 1]
    items = [a for a, _ in content] + [scored[null_position][0]]
    scores = [s for _, s in content] + [scored[null_position][1]]
    return SlateDecision(served=Slate(items=items, scores=scores))


def slate_value(slate: Slate) -> float:
    """Total sampled score of a served slate, null slot included."""
    return float(sum(slate.scores))


def safe_gate(
    sampled: SlateDecision,
    baseline: Slate,
    baseline_scores: Sequence[float],
    audit: list[tuple[float, float, bool]] | None = None,
) -> SlateDecision:
    """Serve the sampled slate only if it values at least the baseline slate.

    ``baseline_scores`` holds one score per baseline item, in item order,
    drawn through the same sampling path the sampled slate went through (so
    stat-less baseline items draw from the uniform prior); the sums are
    compared. Ties go to the sampled slate. When the baseline wins, it is
    served with those scores. When ``audit`` is given, (sampled value,
    baseline value, used_baseline) is appended per call.
    """
    baseline_scores = [float(s) for s in baseline_scores]
    if len(baseline_scores) != len(baseline.items):
        raise SlateError("need one score per baseline item")
    baseline_value = float(sum(baseline_scores))
    sampled_value = slate_value(sampled.served)
    if audit is not None:
        audit.append((sampled_value, baseline_value, sampled_value < baseline_value))
    if sampled_value >= baseline_value:
        return replace(sampled, used_baseline=False)
    return SlateDecision(
        served=Slate(items=baseline.items, scores=baseline_scores), used_baseline=True
    )
