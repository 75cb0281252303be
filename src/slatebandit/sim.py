"""Closed-loop simulator: synthetic worlds, serving policies, schedules.

The world owns ground-truth click attraction and survey quality per (context,
action) and simulates one user per event. Policies serve slates, the simulated
feedback is logged, and counter aggregation / head refits / pool expansion run
on their own cadences, mirroring how the pieces deploy.

World randomness for event i comes from a generator seeded by (world seed, i),
independent of the policy's stream. Two runs over the same world are therefore
coupled event by event (common random numbers): where their slates agree, the
simulated user behaves identically, which makes paired policy comparisons
sharp.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import evaluation, expansion, linear, mab, slates
from .core import (
    NULL_ACTION_ID,
    Action,
    Context,
    EventLog,
    Feedback,
    LoggedEvent,
    RewardSpec,
    Slate,
    Survey,
    ValidationError,
    atomic_write,
    attributed_action,
    attributed_rewards,
    categorical,
    null_item,
)

NULL_VALUE = 0.5  # value credited when nothing is served; p_yes is the value scale


@dataclass
class ActionTruth:
    """Ground truth for one action in one context.

    ``p_click`` is the attraction weight in the user's choice among observed
    items (not an independent Bernoulli rate); ``p_yes`` the survey success
    rate after a selection; ``p_escalate_on_failure`` the escalation rate after
    a "no". ``in_pool`` marks membership in the context's serving pool; truth
    can exist for out-of-pool actions so expansion has something to promote.
    """

    p_click: float
    p_yes: float
    p_escalate_on_failure: float = 0.0
    title: str = ""
    in_pool: bool = True

    def __post_init__(self) -> None:
        for name in ("p_click", "p_yes", "p_escalate_on_failure"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {
            "p_click": self.p_click,
            "p_yes": self.p_yes,
            "p_escalate_on_failure": self.p_escalate_on_failure,
            "title": self.title,
            "in_pool": self.in_pool,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ActionTruth":
        return cls(
            p_click=d["p_click"],
            p_yes=d["p_yes"],
            p_escalate_on_failure=d.get("p_escalate_on_failure", 0.0),
            title=d.get("title", ""),
            in_pool=d.get("in_pool", True),
        )


@dataclass
class ContextWorld:
    context_id: str
    weight: float
    actions: dict[str, ActionTruth]
    features: dict[str, str] = field(default_factory=dict)
    query_templates: list[str] = field(default_factory=list)
    freetype_p_yes: float = 0.5
    p_escalate_empty: float = 0.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValidationError("context weight must be positive")
        if NULL_ACTION_ID in self.actions:
            raise ValidationError("the null item cannot have action truth")
        if not (0.0 <= self.freetype_p_yes <= 1.0):
            raise ValidationError("freetype_p_yes must lie in [0, 1]")
        if not (0.0 <= self.p_escalate_empty <= 1.0):
            raise ValidationError("p_escalate_empty must lie in [0, 1]")

    def pool_ids(self) -> list[str]:
        return sorted(a for a, t in self.actions.items() if t.in_pool)

    def to_dict(self) -> dict:
        return {
            "id": self.context_id,
            "weight": self.weight,
            "actions": {a: t.to_dict() for a, t in sorted(self.actions.items())},
            "features": dict(self.features),
            "query_templates": list(self.query_templates),
            "freetype_p_yes": self.freetype_p_yes,
            "p_escalate_empty": self.p_escalate_empty,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ContextWorld":
        return cls(
            context_id=d["id"],
            weight=d["weight"],
            actions={a: ActionTruth.from_dict(t) for a, t in d["actions"].items()},
            features=dict(d.get("features") or {}),
            query_templates=list(d.get("query_templates") or []),
            freetype_p_yes=d.get("freetype_p_yes", 0.5),
            p_escalate_empty=d.get("p_escalate_empty", 0.0),
        )


@dataclass
class WorldSpec:
    contexts: list[ContextWorld]
    seed: int
    survey_skip_rate: float = 0.7
    min_null_weight: float = 0.05
    freetype_enabled: bool = False
    seconds_per_event: int = 60
    start_ts: int = 0

    def __post_init__(self) -> None:
        if not self.contexts:
            raise ValidationError("world needs at least one context")
        ids = [c.context_id for c in self.contexts]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate context id in world")
        total = sum(c.weight for c in self.contexts)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError("context weights must sum to 1")
        if not (0.0 <= self.survey_skip_rate <= 1.0):
            raise ValidationError("survey_skip_rate must lie in [0, 1]")
        if not (0.0 <= self.min_null_weight <= 1.0):
            raise ValidationError("min_null_weight must lie in [0, 1]")
        if self.seconds_per_event < 1:
            raise ValidationError("seconds_per_event must be at least 1")

    def context_by_id(self, context_id: str) -> ContextWorld:
        for c in self.contexts:
            if c.context_id == context_id:
                return c
        raise KeyError(context_id)

    def to_dict(self) -> dict:
        return {
            "contexts": [c.to_dict() for c in self.contexts],
            "seed": self.seed,
            "survey_skip_rate": self.survey_skip_rate,
            "min_null_weight": self.min_null_weight,
            "freetype_enabled": self.freetype_enabled,
            "seconds_per_event": self.seconds_per_event,
            "start_ts": self.start_ts,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WorldSpec":
        return cls(
            contexts=[ContextWorld.from_dict(c) for c in d["contexts"]],
            seed=int(d["seed"]),
            survey_skip_rate=d.get("survey_skip_rate", 0.7),
            min_null_weight=d.get("min_null_weight", 0.05),
            freetype_enabled=bool(d.get("freetype_enabled", False)),
            seconds_per_event=int(d.get("seconds_per_event", 60)),
            start_ts=int(d.get("start_ts", 0)),
        )


def save_world(world: WorldSpec, path: str | os.PathLike) -> None:
    atomic_write(path, json.dumps(world.to_dict(), sort_keys=True, indent=1) + "\n")


def load_world(path: str | os.PathLike) -> WorldSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return WorldSpec.from_dict(json.load(fh))


@dataclass
class Schedule:
    """Cadences in simulated seconds, plus the total number of events."""

    horizon: int
    aggregation_seconds: int = 4 * 3600
    refit_seconds: int = 3600
    expansion_seconds: int = 24 * 3600

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ValidationError("horizon must be non-negative")
        for name in ("aggregation_seconds", "refit_seconds", "expansion_seconds"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")


class BasePolicy:
    """Serving policy interface for the loop.

    ``decide`` returns the slate together with whatever the logger should
    record about it (propensities, posteriors). The learning hooks default to
    no-ops so static policies stay trivial.
    """

    tag = "base"

    def decide(
        self, context: Context, candidates: list[Action], rng: np.random.Generator
    ) -> slates.SlateDecision:
        raise NotImplementedError

    def aggregate(self, events: list[LoggedEvent], now: int) -> None:
        pass

    def refit(self, now: int) -> None:
        pass

    def expand_pools(self, now: int) -> None:
        pass


def _pool(candidates: list[Action]) -> list[Action]:
    """The candidate pool in serving order: content by action id, then the null item."""
    by_id = {a.action_id: a for a in candidates if not a.is_null_item}
    return [by_id[action_id] for action_id in sorted(by_id)] + [null_item()]


def _serve_by_score(
    actions: list[Action], scores: np.ndarray, config: slates.SlatePolicyConfig
) -> slates.SlateDecision:
    """Rank ``actions`` by descending score (ties by action id) and assemble
    the served slate; ``actions`` must include the null item."""
    order = mab.rank_by_score([a.action_id for a in actions], scores)
    return slates.assemble([(actions[i], float(scores[i])) for i in order], config)


def _uniform_decision(
    candidates: list[Action], rng: np.random.Generator, config: slates.SlatePolicyConfig
) -> slates.SlateDecision:
    """Rank the pool in a uniformly random order; every action, the null item
    included, ranks first with the same probability."""
    actions = _pool(candidates)
    decision = _serve_by_score(actions, rng.random(len(actions)), config)
    decision.propensities = {a.action_id: 1.0 / len(actions) for a in actions}
    return decision


class MabPolicy(BasePolicy):
    """Discrete Thompson serving over per-context click/survey banks."""

    def __init__(
        self,
        slate_config: slates.SlatePolicyConfig | None = None,
        lambda_config: mab.LambdaConfig | None = None,
        window_seconds: int = mab.DEFAULT_WINDOW_SECONDS,
        pre_sample_k: int = 25,
        foreign_stats: dict[str, dict[str, mab.ArmStats]] | None = None,
        expansion_config: expansion.ExpansionConfig | None = None,
        tag: str = "mab",
    ) -> None:
        self.slate_config = slate_config or slates.SlatePolicyConfig()
        self.lambda_config = lambda_config or mab.LambdaConfig()
        self.window_seconds = window_seconds
        self.pre_sample_k = pre_sample_k
        self.foreign_stats = foreign_stats or {}
        self.expansion_config = expansion_config or expansion.ExpansionConfig()
        self.tag = tag
        self.banks: dict[str, mab.ContextBank] = {}
        self.gate_audit: list[tuple[float, float, bool]] = []
        self.expansion_reports: list[expansion.ExpansionReport] = []

    def bank_for(self, context_id: str) -> mab.ContextBank:
        bank = self.banks.get(context_id)
        if bank is None:
            bank = mab.ContextBank(
                context_id=context_id,
                window_seconds=self.window_seconds,
                lambda_config=self.lambda_config,
            )
            self.banks[context_id] = bank
        return bank

    def decide(
        self, context: Context, candidates: list[Action], rng: np.random.Generator
    ) -> slates.SlateDecision:
        bank = self.bank_for(context.context_id)
        actions = {a.action_id: a for a in candidates if not a.is_null_item}
        for action_id in bank.click_stats.keys() | bank.survey_stats.keys():
            if action_id != NULL_ACTION_ID and action_id not in actions:
                actions[action_id] = Action(action_id=action_id, title=action_id)
        ids = sorted(actions)
        if len(ids) > self.pre_sample_k:
            ids = sorted(mab.pre_sample(bank, ids, self.pre_sample_k, rng))
        ids.append(NULL_ACTION_ID)
        actions[NULL_ACTION_ID] = null_item()
        scores = mab.joint_scores(bank, ids, rng)
        decision = _serve_by_score([actions[i] for i in ids], scores, self.slate_config)
        if self.slate_config.safe_exploration:
            baseline = self.slate_config.baselines.get(context.context_id)
            if baseline is not None:
                baseline_scores = mab.joint_scores(
                    bank, [a.action_id for a in baseline.items], rng
                )
                decision = slates.safe_gate(
                    decision, baseline, baseline_scores.tolist(), audit=self.gate_audit
                )
        decision.posteriors = {}
        for action in decision.served.items:
            stats = bank.click_stats.get(action.action_id)
            if stats is None:
                decision.posteriors[action.action_id] = (0.0, 0.0)
            else:
                decision.posteriors[action.action_id] = (stats.successes, stats.trials)
        return decision

    def aggregate(self, events: list[LoggedEvent], now: int) -> None:
        """Fold the batch (in time order), then evict each touched bank once,
        as of its last event; ``mab.update`` per event leaves the same state."""
        last_ts: dict[str, int] = {}
        for event in events:
            context_id = event.context.context_id
            mab.fold(self.bank_for(context_id), event)
            last_ts[context_id] = event.ts
        for context_id, ts in last_ts.items():
            mab.evict(self.banks[context_id], ts)

    def expand_pools(self, now: int) -> None:
        for context_id in sorted(self.foreign_stats):
            bank = self.banks.get(context_id)
            if bank is None or mab.null_survey_stats(bank) is None:
                continue
            report = expansion.expand(bank, self.foreign_stats[context_id], self.expansion_config)
            self.expansion_reports.append(report)


class UniformRandomPolicy(BasePolicy):
    """Random ranking of the candidate pool; the exploration floor."""

    def __init__(
        self, slate_config: slates.SlatePolicyConfig | None = None, tag: str = "uniform"
    ) -> None:
        self.slate_config = slate_config or slates.SlatePolicyConfig()
        self.tag = tag

    def decide(
        self, context: Context, candidates: list[Action], rng: np.random.Generator
    ) -> slates.SlateDecision:
        return _uniform_decision(candidates, rng, self.slate_config)


class FixedSlatePolicy(BasePolicy):
    """Always serve a configured slate per context; the editorial baseline."""

    def __init__(self, baselines: dict[str, Slate], tag: str = "baseline") -> None:
        if not baselines:
            raise ValidationError("need at least one baseline slate")
        self.baselines = baselines
        self.tag = tag

    def decide(
        self, context: Context, candidates: list[Action], rng: np.random.Generator
    ) -> slates.SlateDecision:
        baseline = self.baselines.get(context.context_id)
        if baseline is None:
            raise ValidationError(f"no baseline slate for context {context.context_id!r}")
        return slates.SlateDecision.serving(baseline)


class OraclePolicy(BasePolicy):
    """Always serve the context's truly best action alone (plus the null slot)."""

    def __init__(self, world: WorldSpec, tag: str = "oracle") -> None:
        self.world = world
        self.tag = tag
        self._config = slates.SlatePolicyConfig(max_length=2)

    def decide(
        self, context: Context, candidates: list[Action], rng: np.random.Generator
    ) -> slates.SlateDecision:
        ctx_world = self.world.context_by_id(context.context_id)
        best_id = min(
            ctx_world.pool_ids(), key=lambda a: (-ctx_world.actions[a].p_yes, a)
        )
        best = Action(action_id=best_id, title=ctx_world.actions[best_id].title)
        scored = [(best, 1.0), (null_item(), 0.0)]
        return slates.assemble(scored, self._config)


class NlbPolicy(BasePolicy):
    """Linear bandit head over a fixed feature map of (context, action)."""

    def __init__(
        self,
        feature_fn,
        dim: int,
        reward_spec: RewardSpec,
        slate_config: slates.SlatePolicyConfig | None = None,
        sampler: str = "ews",
        prior_scale: float = 1.0,
        pcr_threshold: float = linear.DEFAULT_PCR_THRESHOLD,
        window_seconds: int | None = None,
        tag: str = "nlb",
    ) -> None:
        if sampler not in ("ews", "ts"):
            raise ValidationError("sampler must be 'ews' or 'ts'")
        self.feature_fn = feature_fn
        self.reward_spec = reward_spec
        self.slate_config = slate_config or slates.SlatePolicyConfig()
        self.sampler = sampler
        self.prior_scale = prior_scale
        self.pcr_threshold = pcr_threshold
        self.stats = linear.SufficientStats(dim=dim, window_seconds=window_seconds)
        self.head: linear.BanditHead | None = None
        self.tag = tag

    def decide(
        self, context: Context, candidates: list[Action], rng: np.random.Generator
    ) -> slates.SlateDecision:
        if self.head is None:
            # cold start: nothing to score with yet, so serve the exploration floor
            return _uniform_decision(candidates, rng, self.slate_config)
        actions = _pool(candidates)
        pairs = [(a, np.asarray(self.feature_fn(context, a), dtype=float)) for a in actions]
        if self.sampler == "ts":
            keyed = [(a.action_id, phi) for a, phi in pairs]
            _, scores = linear.ts_sample(self.head, keyed, self.prior_scale, rng)
            return _serve_by_score(actions, scores, self.slate_config)
        remaining = list(pairs)
        scored = []
        first_probs: dict[str, float] | None = None
        while remaining:
            keyed = [(a.action_id, phi) for a, phi in remaining]
            index, probs = linear.ews_sample(self.head, keyed, rng)
            if first_probs is None:
                first_probs = {
                    a.action_id: float(p) for (a, _), p in zip(remaining, probs)
                }
            scored.append((remaining[index][0], float(probs[index])))
            remaining.pop(index)
        decision = slates.assemble(scored, self.slate_config)
        decision.propensities = first_probs
        return decision

    def aggregate(self, events: list[LoggedEvent], now: int) -> None:
        for _, event, action, reward in attributed_rewards(events, self.reward_spec):
            # Null attributions (free-text surveys) count too: they are the
            # only evidence the head ever gets about the do-nothing slot.
            phi = np.asarray(self.feature_fn(event.context, action), dtype=float)
            linear.absorb(self.stats, phi, reward, event.ts)

    def refit(self, now: int) -> None:
        if self.stats.count == 0:
            return
        try:
            self.head = linear.fit(self.stats, self.pcr_threshold)
        except linear.NoDataError:
            pass


class FeatureTable:
    """Feature lookup keyed by (context id, action id).

    The null item falls back to zeros unless the table carries an explicit
    entry for it; give it one when the world routes free-text surveys to the
    null slot, so the head can learn to rank it.
    """

    def __init__(self, table: dict[tuple[str, str], np.ndarray], dim: int) -> None:
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}
        self.dim = dim

    def __call__(self, context: Context, action: Action) -> np.ndarray:
        key = (context.context_id, action.action_id)
        if key not in self.table and action.is_null_item:
            return np.zeros(self.dim)
        return self.table[key]


def simulate_feedback(
    world: WorldSpec,
    ctx_world: ContextWorld,
    decision: slates.SlateDecision,
    rng: np.random.Generator,
) -> Feedback:
    """One simulated user on a served slate.

    The user picks among observed content items with weights p_click, plus an
    outside option weighted max(1 - best observed p_click, min_null_weight).
    The outside option becomes a free-text turn (a click on the null slot, a
    survey on the null item) when the world enables it; otherwise the session
    just ends. Direct-trigger slates skip the choice: the single action runs
    and the survey applies to it with the click censored.
    """
    served = decision.served
    content = served.content_items()
    direct_trigger = len(served) == 1 and not served.items[0].is_null_item

    if direct_trigger:
        truth = _truth_for(ctx_world, content[0].action_id)
        return Feedback(
            click=None,
            survey=_survey_draw(world, truth.p_yes, rng),
            escalation=False,
        )

    if content:
        weights = [_truth_for(ctx_world, a.action_id).p_click for a in content]
        outside = max(1.0 - max(weights), world.min_null_weight)
    else:
        weights = []
        outside = 1.0
    # the outside weight is at least 1 - max(weights), so the total is positive
    choice = categorical(weights + [outside], rng)

    if choice < len(weights):
        truth = _truth_for(ctx_world, content[choice].action_id)
        survey = _survey_draw(world, truth.p_yes, rng)
        escalation = bool(
            survey is Survey.NO and rng.random() < truth.p_escalate_on_failure
        )
        return Feedback(click=choice, survey=survey, escalation=escalation)

    null_pos = served.null_position
    if world.freetype_enabled and null_pos is not None:
        survey = _survey_draw(world, ctx_world.freetype_p_yes, rng)
        escalation = bool(
            survey is Survey.NO and rng.random() < ctx_world.p_escalate_empty
        )
        return Feedback(click=null_pos, survey=survey, escalation=escalation)

    escalation = bool(not content and rng.random() < ctx_world.p_escalate_empty)
    return Feedback(click=None, survey=Survey.SKIPPED, escalation=escalation)


def _survey_draw(world: WorldSpec, p_yes: float, rng: np.random.Generator) -> Survey:
    if rng.random() < world.survey_skip_rate:
        return Survey.SKIPPED
    return Survey.YES if rng.random() < p_yes else Survey.NO


def _truth_for(ctx_world: ContextWorld, action_id: str) -> ActionTruth:
    truth = ctx_world.actions.get(action_id)
    if truth is None:
        raise ValidationError(
            f"served action {action_id!r} has no truth in context {ctx_world.context_id!r}"
        )
    return truth


def serving_tables(world: WorldSpec) -> tuple[list[float], list[tuple[Action, ...]]]:
    """What ``step`` reads off the world on every event: the context weights
    and each context's candidate actions, its pool in id order."""
    weights = [c.weight for c in world.contexts]
    candidates = [
        tuple(Action(action_id=a, title=c.actions[a].title or a) for a in c.pool_ids())
        for c in world.contexts
    ]
    return weights, candidates


def step(
    world: WorldSpec,
    policy: BasePolicy,
    event_index: int,
    now: int,
    policy_rng: np.random.Generator,
    tables: tuple[list[float], list[tuple[Action, ...]]] | None = None,
) -> LoggedEvent:
    """Generate, serve, and log one event.

    ``tables`` is ``serving_tables(world)``, which ``run`` builds once per
    call; a standalone call builds its own.
    """
    weights, candidates = tables or serving_tables(world)
    world_rng = np.random.default_rng([world.seed, event_index])
    index = categorical(weights, world_rng)
    ctx_world = world.contexts[index]
    query = None
    if ctx_world.query_templates:
        query = ctx_world.query_templates[
            int(world_rng.integers(len(ctx_world.query_templates)))
        ]
    context = Context(
        context_id=ctx_world.context_id, features=dict(ctx_world.features), query=query
    )
    decision = policy.decide(context, list(candidates[index]), policy_rng)
    feedback = simulate_feedback(world, ctx_world, decision, world_rng)
    propensity = None
    if decision.propensities is not None and feedback.click is not None:
        clicked_id = decision.served.items[feedback.click].action_id
        propensity = decision.propensities.get(clicked_id)
    return LoggedEvent(
        ts=now,
        context=context,
        slate=decision.served,
        feedback=feedback,
        propensity=propensity,
        posteriors=decision.posteriors or None,
        policy_tag=policy.tag,
    )


def oracle_value(ctx_world: ContextWorld) -> float:
    values = [ctx_world.actions[a].p_yes for a in ctx_world.pool_ids()]
    return max([NULL_VALUE, *values])


def achieved_value(ctx_world: ContextWorld, event: LoggedEvent) -> float:
    content = event.slate.content_items()
    if not content:
        return NULL_VALUE
    return _truth_for(ctx_world, content[0].action_id).p_yes


def regret_of(
    world: WorldSpec, event: LoggedEvent, oracles: dict[str, float] | None = None
) -> float:
    """Shortfall of the top served item against the context's best action.

    ``oracles`` maps context ids to their ``oracle_value``, for a caller that
    scores many events against an unchanged world.
    """
    ctx_world = world.context_by_id(event.context.context_id)
    best = oracle_value(ctx_world) if oracles is None else oracles[ctx_world.context_id]
    return best - achieved_value(ctx_world, event)


def analytic_oracle_prr(world: WorldSpec) -> float:
    """Expected answered-survey success rate of the always-serve-best policy.

    Serving the best action alone, a user clicks it with probability
    p_click / (p_click + outside weight); answered surveys then succeed at its
    p_yes. Contexts weigh in by arrival rate times that click-through, since
    only clicked events produce answers.
    """
    num = 0.0
    den = 0.0
    for ctx_world in world.contexts:
        best_id = min(ctx_world.pool_ids(), key=lambda a: (-ctx_world.actions[a].p_yes, a))
        truth = ctx_world.actions[best_id]
        outside = max(1.0 - truth.p_click, world.min_null_weight)
        click_through = truth.p_click / (truth.p_click + outside)
        num += ctx_world.weight * click_through * truth.p_yes
        den += ctx_world.weight * click_through
    return num / den


def kpi_counters(events: list[LoggedEvent]) -> dict[str, float]:
    """Session-outcome counters over a batch of events.

    "handled": an answer was delivered (content selection or direct trigger),
    nothing escalated, and the survey did not come back negative. "engaged":
    the user interacted at all (any click, including the free-text turn, or a
    direct trigger).
    """
    if not events:
        return {"handled_share": 0.0, "engagement": 0.0}
    handled = 0
    engaged = 0
    for event in events:
        attributed = attributed_action(event)
        delivered = attributed is not None and not attributed.is_null_item
        direct_trigger = len(event.slate) == 1 and not event.slate.items[0].is_null_item
        if delivered and not event.feedback.escalation and event.feedback.survey is not Survey.NO:
            handled += 1
        if event.feedback.click is not None or direct_trigger:
            engaged += 1
    return {"handled_share": handled / len(events), "engagement": engaged / len(events)}


@dataclass
class WindowMetrics:
    index: int
    t_start: int
    t_end: int
    n_events: int
    prr: float | None
    eas: float
    handled_share: float
    engagement: float
    regret_total: float
    regret_mean: float
    policy_tag: str


@dataclass
class RunResult:
    windows: list[WindowMetrics]
    events: list[LoggedEvent]
    world: WorldSpec
    policy: BasePolicy

    def final_slice(self, fraction: float) -> list[LoggedEvent]:
        n = max(1, int(len(self.events) * fraction))
        return self.events[-n:]


def run(
    world: WorldSpec,
    policy: BasePolicy,
    schedule: Schedule,
    policy_seed: int = 0,
    log: EventLog | None = None,
) -> RunResult:
    """Drive the full loop: serve, simulate, log, aggregate, refit, expand.

    Aggregation consumes each event exactly once, at the first boundary after
    its timestamp (jobs at time T consume events with ts < T; coincident
    boundaries run aggregation, then refit, then expansion). The metrics
    timeline has one row per aggregation window, including a final partial
    window when the horizon does not land on a boundary.
    """
    policy_rng = np.random.default_rng(policy_seed)
    tables = serving_tables(world)
    oracles = {c.context_id: oracle_value(c) for c in world.contexts}
    events: list[LoggedEvent] = []
    windows: list[WindowMetrics] = []
    window_events: list[LoggedEvent] = []
    window_regret: list[float] = []
    window_start = world.start_ts
    next_agg = world.start_ts + schedule.aggregation_seconds
    next_refit = world.start_ts + schedule.refit_seconds
    next_exp = world.start_ts + schedule.expansion_seconds

    def flush_window(t_end: int) -> None:
        nonlocal window_start
        policy.aggregate(window_events, t_end)
        kpis = kpi_counters(window_events)
        total_regret = float(sum(window_regret))
        windows.append(
            WindowMetrics(
                index=len(windows),
                t_start=window_start,
                t_end=t_end,
                n_events=len(window_events),
                prr=evaluation.prr_hat(window_events),
                eas=evaluation.eas_hat(window_events) if window_events else 0.0,
                handled_share=kpis["handled_share"],
                engagement=kpis["engagement"],
                regret_total=total_regret,
                regret_mean=total_regret / len(window_events) if window_events else 0.0,
                policy_tag=policy.tag,
            )
        )
        window_events.clear()
        window_regret.clear()
        window_start = t_end

    for event_index in range(schedule.horizon):
        now = world.start_ts + event_index * world.seconds_per_event
        while True:
            t = min(next_agg, next_refit, next_exp)
            if t > now:
                break
            if next_agg == t:
                flush_window(t)
                next_agg += schedule.aggregation_seconds
            if next_refit == t:
                policy.refit(t)
                next_refit += schedule.refit_seconds
            if next_exp == t:
                policy.expand_pools(t)
                next_exp += schedule.expansion_seconds
        event = step(world, policy, event_index, now, policy_rng, tables)
        events.append(event)
        window_events.append(event)
        window_regret.append(regret_of(world, event, oracles))
        if log is not None:
            log.append(event)
    if window_events:
        flush_window(world.start_ts + schedule.horizon * world.seconds_per_event)
    return RunResult(windows=windows, events=events, world=world, policy=policy)


def write_metrics_csv(windows: list[WindowMetrics], path: str | os.PathLike) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        [
            "window",
            "t_start",
            "t_end",
            "events",
            "prr",
            "eas",
            "handled_share",
            "engagement",
            "regret_total",
            "regret_mean",
            "policy",
        ]
    )
    for w in windows:
        writer.writerow(
            [
                w.index,
                w.t_start,
                w.t_end,
                w.n_events,
                "" if w.prr is None else repr(w.prr),
                repr(w.eas),
                repr(w.handled_share),
                repr(w.engagement),
                repr(w.regret_total),
                repr(w.regret_mean),
                w.policy_tag,
            ]
        )
    atomic_write(path, buffer.getvalue())
