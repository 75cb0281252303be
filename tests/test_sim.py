"""Closed-loop simulator: user model branches, pairing, schedules, metrics.

Deterministic branches are pinned with degenerate probabilities; stochastic
ones are checked against their hand-computed choice distributions.
"""

import csv
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import decode_log, make_event
from slatebandit.core import (
    NULL_ACTION_ID,
    Action,
    Context,
    EventLog,
    LogColumns,
    RewardSpec,
    Slate,
    Survey,
    ValidationError,
    decode_event,
    encode_event,
    null_item,
)
from slatebandit.linear import BanditHead, ts_sample
from slatebandit.mab import LambdaConfig
from slatebandit.sim import (
    ActionTruth,
    ContextWorld,
    FeatureTable,
    FixedSlatePolicy,
    MabPolicy,
    BasePolicy,
    NlbPolicy,
    Schedule,
    UniformRandomPolicy,
    WorldSpec,
    _serve_by_score,
    analytic_oracle_prr,
    kpi_counters,
    load_world,
    oracle_value,
    regret_of,
    run,
    save_world,
    simulate_feedback,
    step,
    write_metrics_csv,
)
from slatebandit.slates import SlateDecision, SlatePolicyConfig, assemble


def one_context_world(
    actions,
    seed=5,
    skip=0.0,
    min_null=0.05,
    freetype=False,
    freetype_p_yes=0.5,
    p_escalate_empty=0.0,
):
    ctx = ContextWorld(
        context_id="c0",
        weight=1.0,
        actions=actions,
        freetype_p_yes=freetype_p_yes,
        p_escalate_empty=p_escalate_empty,
    )
    return WorldSpec(
        contexts=[ctx],
        seed=seed,
        survey_skip_rate=skip,
        min_null_weight=min_null,
        freetype_enabled=freetype,
    )


def slate_decision(action_ids, with_null=True, scores=None):
    items = [Action(action_id=a, title=a) for a in action_ids]
    if with_null:
        items.append(null_item())
    if scores is None:
        scores = [1.0 - 0.1 * i for i in range(len(items))]
    scored = list(zip(items, scores))
    config = SlatePolicyConfig(
        allow_direct_trigger=not with_null, direct_trigger_margin=0.0, max_length=10
    )
    if with_null:
        return assemble(scored, config)
    slate = Slate(items=items, scores=scores[: len(items)])
    return SlateDecision(served=slate)


class OraclePolicy(BasePolicy):
    """Always serve the context's truly best action alone (plus the null slot)."""

    def __init__(self, world: WorldSpec, tag: str = "oracle") -> None:
        self.world = world
        self.tag = tag
        self._config = SlatePolicyConfig(max_length=2)

    def decide(self, context, candidates, rng):
        ctx_world = self.world.context_by_id(context.context_id)
        best_id = min(
            ctx_world.pool_ids(), key=lambda a: (-ctx_world.actions[a].p_yes, a)
        )
        best = Action(action_id=best_id, title=ctx_world.actions[best_id].title)
        return assemble([(best, 1.0), (null_item(), 0.0)], self._config)


class TestWorldValidation:
    def test_weights_must_sum_to_one(self):
        ctx = ContextWorld(context_id="a", weight=0.5, actions={})
        with pytest.raises(ValidationError):
            WorldSpec(contexts=[ctx], seed=0)

    def test_duplicate_context_ids_rejected(self):
        a = ContextWorld(context_id="a", weight=0.5, actions={})
        b = ContextWorld(context_id="a", weight=0.5, actions={})
        with pytest.raises(ValidationError):
            WorldSpec(contexts=[a, b], seed=0)

    def test_null_item_cannot_carry_truth(self):
        with pytest.raises(ValidationError):
            ContextWorld(
                context_id="a",
                weight=1.0,
                actions={NULL_ACTION_ID: ActionTruth(p_click=0.5, p_yes=0.5)},
            )

    def test_probability_ranges_enforced(self):
        with pytest.raises(ValidationError):
            ActionTruth(p_click=1.5, p_yes=0.5)
        with pytest.raises(ValidationError):
            ActionTruth(p_click=0.5, p_yes=-0.1)

    def test_pool_ids_sorted_and_filtered(self):
        ctx = ContextWorld(
            context_id="a",
            weight=1.0,
            actions={
                "z": ActionTruth(p_click=0.5, p_yes=0.5),
                "b": ActionTruth(p_click=0.5, p_yes=0.5),
                "hidden": ActionTruth(p_click=0.5, p_yes=0.5, in_pool=False),
            },
        )
        assert ctx.pool_ids() == ["b", "z"]

    def test_world_round_trips_through_json(self, tmp_path):
        world = one_context_world(
            {"a": ActionTruth(p_click=0.3, p_yes=0.7, title="Article A")},
            freetype=True,
        )
        path = tmp_path / "world.json"
        save_world(world, path)
        assert load_world(path).to_dict() == world.to_dict()


class TestSimulateFeedback:
    def test_sure_click_and_sure_yes(self):
        world = one_context_world(
            {"a": ActionTruth(p_click=1.0, p_yes=1.0)}, min_null=0.0
        )
        feedback = simulate_feedback(
            world,
            world.contexts[0],
            slate_decision(["a"]),
            np.random.default_rng(0),
        )
        assert feedback.click == 0
        assert feedback.survey is Survey.YES
        assert feedback.escalation is False

    def test_no_answer_escalates_when_truth_says_so(self):
        world = one_context_world(
            {"a": ActionTruth(p_click=1.0, p_yes=0.0, p_escalate_on_failure=1.0)},
            min_null=0.0,
        )
        feedback = simulate_feedback(
            world, world.contexts[0], slate_decision(["a"]), np.random.default_rng(1)
        )
        assert feedback.survey is Survey.NO
        assert feedback.escalation is True

    def test_outside_option_without_freetype_just_ends(self):
        world = one_context_world(
            {"a": ActionTruth(p_click=0.0, p_yes=1.0)}, min_null=1.0
        )
        feedback = simulate_feedback(
            world, world.contexts[0], slate_decision(["a"]), np.random.default_rng(2)
        )
        assert feedback.click is None
        assert feedback.survey is Survey.SKIPPED
        assert feedback.escalation is False

    def test_outside_option_with_freetype_clicks_the_null_slot(self):
        world = one_context_world(
            {"a": ActionTruth(p_click=0.0, p_yes=1.0)},
            min_null=1.0,
            freetype=True,
            freetype_p_yes=1.0,
        )
        decision = slate_decision(["a"])
        feedback = simulate_feedback(
            world, world.contexts[0], decision, np.random.default_rng(3)
        )
        assert feedback.click == decision.served.null_position == 1
        assert feedback.survey is Survey.YES

    def test_empty_slate_escalates_at_the_configured_rate(self):
        world = one_context_world(
            {"a": ActionTruth(p_click=0.5, p_yes=0.5)}, p_escalate_empty=1.0
        )
        decision = slate_decision([])
        feedback = simulate_feedback(
            world, world.contexts[0], decision, np.random.default_rng(4)
        )
        assert feedback.click is None
        assert feedback.escalation is True

    def test_nonempty_slate_never_triggers_the_empty_escalation(self):
        world = one_context_world(
            {"a": ActionTruth(p_click=0.0, p_yes=0.5)},
            min_null=1.0,
            p_escalate_empty=1.0,
        )
        feedback = simulate_feedback(
            world, world.contexts[0], slate_decision(["a"]), np.random.default_rng(5)
        )
        assert feedback.escalation is False

    def test_direct_trigger_censors_the_click_and_surveys_the_action(self):
        world = one_context_world({"a": ActionTruth(p_click=0.0, p_yes=1.0)})
        decision = slate_decision(["a"], with_null=False)
        feedback = simulate_feedback(
            world, world.contexts[0], decision, np.random.default_rng(6)
        )
        assert feedback.click is None
        assert feedback.survey is Survey.YES

    def test_choice_frequencies_follow_attraction_weights(self):
        world = one_context_world(
            {
                "a": ActionTruth(p_click=0.6, p_yes=0.5),
                "b": ActionTruth(p_click=0.2, p_yes=0.5),
            },
            skip=1.0,  # mute surveys; only the choice matters here
        )
        decision = slate_decision(["a", "b"])
        counts = {0: 0, 1: 0, None: 0}
        for i in range(20000):
            feedback = simulate_feedback(
                world, world.contexts[0], decision, np.random.default_rng(i)
            )
            key = feedback.click if feedback.click in (0, 1) else None
            counts[key] += 1
        # weights (0.6, 0.2, outside 0.4) over total 1.2
        assert_allclose(counts[0] / 20000, 0.5, atol=0.01)
        assert_allclose(counts[1] / 20000, 1.0 / 6.0, atol=0.01)
        assert_allclose(counts[None] / 20000, 1.0 / 3.0, atol=0.01)

    def test_survey_skip_rate_mutes_that_share_of_answers(self):
        world = one_context_world(
            {"a": ActionTruth(p_click=1.0, p_yes=1.0)}, skip=0.7, min_null=0.0
        )
        decision = slate_decision(["a"])
        answered = sum(
            simulate_feedback(
                world, world.contexts[0], decision, np.random.default_rng(i)
            ).survey
            is not Survey.SKIPPED
            for i in range(20000)
        )
        assert_allclose(answered / 20000, 0.3, atol=0.01)

    def test_served_action_without_truth_is_an_error(self):
        world = one_context_world({"a": ActionTruth(p_click=0.5, p_yes=0.5)})
        with pytest.raises(ValidationError):
            simulate_feedback(
                world, world.contexts[0], slate_decision(["ghost"]), np.random.default_rng(0)
            )


class TestStep:
    def two_context_world(self, seed=9):
        contexts = [
            ContextWorld(
                context_id="c0",
                weight=0.75,
                actions={"a": ActionTruth(p_click=0.5, p_yes=0.5)},
                query_templates=["how do i reset", "reset help"],
            ),
            ContextWorld(
                context_id="c1",
                weight=0.25,
                actions={"b": ActionTruth(p_click=0.5, p_yes=0.5)},
            ),
        ]
        return WorldSpec(contexts=contexts, seed=seed)

    def fixed_policy(self, action_ids):
        slate = Slate(
            items=[Action(action_id=a, title=a) for a in action_ids] + [null_item()],
            scores=[0.0] * (len(action_ids) + 1),
        )
        return FixedSlatePolicy({"c0": slate, "c1": slate})

    def test_context_draws_follow_the_weights(self):
        world = self.two_context_world()
        policy = self.fixed_policy([])
        picks = [
            step(world, policy, i, i * 60, np.random.default_rng(0)).context.context_id
            for i in range(4000)
        ]
        assert_allclose(picks.count("c0") / 4000, 0.75, atol=0.02)

    def test_world_stream_is_independent_of_the_policy(self):
        # the same event index must see the same context and query whatever
        # the policy did before it (common random numbers)
        world = self.two_context_world()
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(999)
        for i in range(50):
            ev_a = step(world, self.fixed_policy([]), i, i * 60, rng_a)
            ev_b = step(world, UniformRandomPolicy(), i, i * 60, rng_b)
            assert ev_a.context.context_id == ev_b.context.context_id
            assert ev_a.context.query == ev_b.context.query

    def test_identical_slates_yield_identical_feedback(self):
        world = self.two_context_world()
        policy = self.fixed_policy(["a"])
        # truth for "a" only exists in c0; restrict to events landing there
        for i in range(80):
            ctx = step(world, self.fixed_policy([]), i, 0, np.random.default_rng(0)).context
            if ctx.context_id != "c0":
                continue
            fa = step(world, policy, i, 0, np.random.default_rng(1)).feedback
            fb = step(world, policy, i, 0, np.random.default_rng(2)).feedback
            assert fa == fb

    def test_event_carries_policy_tag_and_timestamp(self):
        world = self.two_context_world()
        event = step(world, self.fixed_policy([]), 0, 1234, np.random.default_rng(0))
        assert event.ts == 1234
        assert event.policy_tag == "baseline"
        assert event.propensity is None

    def test_uniform_policy_logs_propensities_on_click(self):
        world = one_context_world(
            {"a": ActionTruth(p_click=1.0, p_yes=1.0)}, min_null=0.0
        )
        policy = UniformRandomPolicy()
        rng = np.random.default_rng(3)
        clicked = [
            e
            for e in (step(world, policy, i, 0, rng) for i in range(40))
            if e.feedback.click is not None
        ]
        assert clicked  # the action ranks above the null half the time
        for event in clicked:
            assert event.propensity == 0.5  # one action plus the null slot

    def test_mab_policy_logs_posteriors_for_served_items(self):
        world = one_context_world({"a": ActionTruth(p_click=1.0, p_yes=1.0)})
        policy = MabPolicy()
        event = step(world, policy, 0, 0, np.random.default_rng(4))
        assert event.posteriors is not None
        for action in event.slate.items:
            assert event.posteriors[action.action_id] == (0.0, 0.0)


class TestRunLoop:
    def learnable_world(self, seed=11):
        return one_context_world(
            {
                "good": ActionTruth(p_click=0.8, p_yes=0.95),
                "bad": ActionTruth(p_click=0.8, p_yes=0.05),
            },
            seed=seed,
            skip=0.0,
        )

    def test_event_conservation_across_windows(self):
        world = self.learnable_world()
        schedule = Schedule(horizon=10, aggregation_seconds=240, refit_seconds=240)
        result = run(world, UniformRandomPolicy(), schedule)
        assert len(result.events) == 10
        assert sum(w.n_events for w in result.windows) == 10
        assert [w.n_events for w in result.windows] == [4, 4, 2]

    def test_window_boundaries_chain_without_gaps(self):
        world = self.learnable_world()
        schedule = Schedule(horizon=25, aggregation_seconds=300)
        result = run(world, UniformRandomPolicy(), schedule)
        for prev, cur in zip(result.windows, result.windows[1:]):
            assert cur.t_start == prev.t_end
            assert cur.index == prev.index + 1
        assert result.windows[0].t_start == 0
        assert result.windows[-1].t_end == 25 * 60

    def test_events_fall_inside_their_window(self):
        world = self.learnable_world()
        schedule = Schedule(horizon=30, aggregation_seconds=420)
        result = run(world, UniformRandomPolicy(), schedule)
        for window in result.windows:
            inside = [
                e for e in result.events if window.t_start <= e.ts < window.t_end
            ]
            assert len(inside) == window.n_events

    def test_runs_are_seed_deterministic(self):
        world = self.learnable_world()
        schedule = Schedule(horizon=120, aggregation_seconds=1800)
        a = run(world, MabPolicy(), schedule, policy_seed=3)
        b = run(world, MabPolicy(), schedule, policy_seed=3)
        assert [encode_event(e) for e in a.events] == [encode_event(e) for e in b.events]

    def test_policy_seed_changes_the_stream(self):
        world = self.learnable_world()
        schedule = Schedule(horizon=120, aggregation_seconds=1800)
        a = run(world, MabPolicy(), schedule, policy_seed=3)
        b = run(world, MabPolicy(), schedule, policy_seed=4)
        assert [encode_event(e) for e in a.events] != [encode_event(e) for e in b.events]

    def test_standalone_steps_match_the_run(self):
        # run builds its serving tables once; step called alone builds its own
        world = self.learnable_world()
        world.contexts[0].actions["off"] = ActionTruth(p_click=0.5, p_yes=0.5, in_pool=False)
        for seed in (1, 2, 3):
            schedule = Schedule(horizon=300, aggregation_seconds=3600)
            ran = run(world, MabPolicy(), schedule, policy_seed=seed)
            policy, rng, window, stepped = MabPolicy(), np.random.default_rng(seed), [], []
            for i in range(schedule.horizon):
                now = world.start_ts + i * world.seconds_per_event
                if i and now % schedule.aggregation_seconds == 0:
                    policy.aggregate(window, now)
                    window = []
                event = step(world, policy, i, now, rng)
                window.append(event)
                stepped.append(event)
            assert [encode_event(e) for e in stepped] == [encode_event(e) for e in ran.events]

    def test_world_edited_between_runs_is_served_as_edited(self):
        world = one_context_world(
            {
                "best": ActionTruth(p_click=0.8, p_yes=0.9),
                "meh": ActionTruth(p_click=0.8, p_yes=0.6),
                "alt": ActionTruth(p_click=0.8, p_yes=0.7, in_pool=False),
            }
        )
        schedule = Schedule(horizon=60)
        first = run(world, OraclePolicy(world), schedule)
        assert {e.slate.items[0].action_id for e in first.events} == {"best"}
        world.contexts[0].actions["best"].in_pool = False
        world.contexts[0].actions["alt"].in_pool = True
        second = run(world, OraclePolicy(world), schedule)
        assert {e.slate.items[0].action_id for e in second.events} == {"alt"}
        # regret is measured against the edited pool's best action
        assert all(w.regret_total == 0.0 for w in second.windows)
        served = run(world, UniformRandomPolicy(), Schedule(horizon=200), policy_seed=1)
        ids = {a.action_id for e in served.events for a in e.slate.content_items()}
        assert ids == {"meh", "alt"}

    def test_mab_learns_the_better_survey_action(self):
        world = self.learnable_world()
        schedule = Schedule(horizon=2400, aggregation_seconds=3600)
        policy = MabPolicy(
            slate_config=SlatePolicyConfig(max_length=2),
            lambda_config=LambdaConfig(k=20.0),
        )
        result = run(world, policy, schedule, policy_seed=0)
        early = [w.prr for w in result.windows[:5] if w.prr is not None]
        late = [w.prr for w in result.windows[-5:] if w.prr is not None]
        assert np.mean(late) > np.mean(early) + 0.1
        # the bank should now clearly prefer "good" on survey evidence
        bank = policy.banks["c0"]
        good = bank.survey_stats["good"]
        bad = bank.survey_stats["bad"]
        assert good.trials > bad.trials

    def test_event_log_written_during_the_run_replays_identically(self, tmp_path):
        world = self.learnable_world()
        schedule = Schedule(horizon=50, aggregation_seconds=1800)
        log = EventLog(tmp_path / "events.jsonl")
        result = run(world, UniformRandomPolicy(), schedule, policy_seed=1, log=log)
        replayed = decode_log(log.path)
        assert [encode_event(e) for e in replayed] == [encode_event(e) for e in result.events]
        with open(tmp_path / "events.jsonl", encoding="utf-8") as fh:
            assert encode_event(decode_event(fh.readline())) == encode_event(result.events[0])

    def test_run_opens_its_log_once_and_closes_it(self, tmp_path, monkeypatch):
        from slatebandit import core

        opened = []

        def counting_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(core, "open", counting_open, raising=False)
        log = EventLog(tmp_path / "events.jsonl")
        run(self.learnable_world(), UniformRandomPolicy(), Schedule(horizon=50), log=log)
        assert [fh.name for fh in opened] == [log.path]
        assert all(fh.closed for fh in opened)
        # serving writes the log only; its first read writes the column sidecar
        assert os.listdir(tmp_path) == ["events.jsonl"]
        assert len(decode_log(log.path)) == 50

    def test_a_run_that_raises_leaves_no_sidecar_and_no_temp_file(self, tmp_path):
        class Failing(UniformRandomPolicy):
            served = 0

            def decide(self, context, candidates, rng):
                self.served += 1
                if self.served > 30:
                    raise RuntimeError("serving failed")
                return super().decide(context, candidates, rng)

        log = EventLog(tmp_path / "events.jsonl")
        with pytest.raises(RuntimeError, match="serving failed"):
            run(self.learnable_world(), Failing(), Schedule(horizon=50), log=log)
        assert os.listdir(tmp_path) == ["events.jsonl"]
        assert len(decode_log(log.path)) == 30

    def test_expansion_promotes_from_foreign_stats_during_the_run(self):
        from slatebandit.mab import ArmStats

        foreign = ArmStats()
        foreign.add(0, 18.0, 20.0)
        world = one_context_world(
            {
                "known": ActionTruth(p_click=0.6, p_yes=0.3),
                # truth exists but the action starts outside the serving pool
                "fresh": ActionTruth(p_click=0.5, p_yes=0.9, in_pool=False),
            },
            skip=0.0,
            min_null=0.4,
            freetype=True,
            freetype_p_yes=0.2,
        )
        policy = MabPolicy(foreign_stats={"c0": {"fresh": foreign}})
        schedule = Schedule(
            horizon=900, aggregation_seconds=3600, expansion_seconds=7200
        )
        run(world, policy, schedule, policy_seed=0)
        assert any("fresh" in r.promoted for r in policy.expansion_reports)
        assert "fresh" in policy.banks["c0"].survey_stats
        # once promoted, the policy starts serving it and click trials accrue
        assert policy.banks["c0"].click_stats["fresh"].trials > 0.0

    def test_safety_gate_audit_collects_every_gated_decision(self):
        baseline = Slate(
            items=[Action(action_id="good", title="good"), null_item()],
            scores=[0.0, 0.0],
        )
        policy = MabPolicy(
            slate_config=SlatePolicyConfig(
                safe_exploration=True, baselines={"c0": baseline}
            )
        )
        world = self.learnable_world()
        schedule = Schedule(horizon=40, aggregation_seconds=3600)
        run(world, policy, schedule, policy_seed=0)
        assert len(policy.gate_audit) == 40
        for sampled_value, baseline_value, _ in policy.gate_audit:
            assert np.isfinite(sampled_value) and np.isfinite(baseline_value)

    def test_gated_request_rescores_its_baseline_in_one_draw_call(self, monkeypatch):
        from slatebandit import mab

        calls = []
        real = mab.joint_scores
        monkeypatch.setattr(
            mab, "joint_scores", lambda bank, ids, rng: calls.append(list(ids)) or real(bank, ids, rng)
        )
        baseline = Slate(
            items=[Action(action_id="good", title="good"), Action(action_id="bad", title="bad"), null_item()],
            scores=[0.0, 0.0, 0.0],
        )
        policy = MabPolicy(
            slate_config=SlatePolicyConfig(safe_exploration=True, baselines={"c0": baseline})
        )
        run(self.learnable_world(), policy, Schedule(horizon=30, aggregation_seconds=600), policy_seed=3)
        assert len(policy.gate_audit) == 30
        # per request: one call over the pool, then one over the whole baseline
        assert calls[1::2] == [["good", "bad", NULL_ACTION_ID]] * 30
        assert len(calls) == 60

    def test_batched_aggregation_leaves_the_per_event_bank_state(self):
        from slatebandit import mab

        truth = {a: ActionTruth(p_click=0.5, p_yes=0.6) for a in ("a", "b", "c")}
        world = WorldSpec(
            contexts=[
                ContextWorld(context_id="c0", weight=0.6, actions=dict(truth)),
                ContextWorld(context_id="c1", weight=0.4, actions=dict(truth)),
            ],
            seed=6,
            freetype_enabled=True,
        )
        served = run(world, MabPolicy(), Schedule(horizon=600), policy_seed=5).events
        # 600 events a minute apart span five two-hour windows
        policy = MabPolicy(window_seconds=2 * 3600)
        reference: dict[str, mab.ContextBank] = {}
        for start in range(0, len(served), 37):
            batch = served[start : start + 37]
            policy.aggregate(batch, batch[-1].ts + 1)
            for event in batch:
                context_id = event.context.context_id
                bank = reference.setdefault(
                    context_id, mab.ContextBank(context_id=context_id, window_seconds=2 * 3600)
                )
                mab.update(bank, event)
            assert policy.banks.keys() == reference.keys()
            for context_id, want in reference.items():
                got = policy.banks[context_id]
                for family in ("click_stats", "survey_stats"):
                    got_arms, want_arms = getattr(got, family), getattr(want, family)
                    assert got_arms.keys() == want_arms.keys()
                    for action_id, arm in want_arms.items():
                        assert list(got_arms[action_id].entries) == list(arm.entries)
                        assert got_arms[action_id].successes == arm.successes
                        assert got_arms[action_id].trials == arm.trials

    def test_nlb_policy_closes_the_loop_and_fits_a_head(self):
        world = self.learnable_world()
        table = FeatureTable(
            {
                ("c0", "good"): np.array([1.0, 0.0]),
                ("c0", "bad"): np.array([0.0, 1.0]),
            },
            dim=2,
        )
        policy = NlbPolicy(
            feature_fn=table,
            dim=2,
            reward_spec=RewardSpec(),
            slate_config=SlatePolicyConfig(max_length=2),
            sampler="ews",
        )
        schedule = Schedule(horizon=900, aggregation_seconds=1800, refit_seconds=1800)
        result = run(world, policy, schedule, policy_seed=2)
        assert policy.head is not None
        assert policy.head.count > 0
        # with one-hot features the head's weights are per-action reward rates
        good_estimate = float(policy.head.weights[0])
        bad_estimate = float(policy.head.weights[1])
        assert good_estimate > bad_estimate
        late = [w.prr for w in result.windows[-3:] if w.prr is not None]
        assert np.mean(late) > 0.7

    def test_nlb_aggregate_absorbs_free_text_surveys_on_the_null_slot(self):
        null_id = null_item().action_id
        table = FeatureTable(
            {
                ("ctx", "a1"): np.array([1.0, 0.0, 0.0]),
                ("ctx", null_id): np.array([0.0, 0.0, 1.0]),
            },
            dim=3,
        )
        policy = NlbPolicy(feature_fn=table, dim=3, reward_spec=RewardSpec())
        # click on the null slot, survey answered: the free-text path
        event = make_event(action_ids=["a1"], click=1, survey=Survey.YES)
        policy.aggregate([event], now=0)
        assert policy.stats.count == 1
        assert policy.stats.gram[2, 2] == 1.0
        assert policy.stats.reward_feature_sum[2] == 1.0

    def test_thompson_scores_rank_by_score_then_action_id(self):
        # "b" and "a" share a feature vector, so the one draw scores them
        # equally and the served order breaks the tie by action id; "c"
        # scores twice as high and the null item zero
        head = BanditHead(dim=1, basis=np.eye(1), eigenvalues=np.array([4.0]),
                          weights=np.array([1.0]), pcr_threshold=1.0)
        actions = [Action("b", "b"), Action("a", "a"), Action("c", "c"), null_item()]
        phis = [np.array([1.0]), np.array([1.0]), np.array([2.0]), np.array([0.0])]
        for seed in range(20):
            scores = ts_sample(head, phis, 1.0, np.random.default_rng(seed))
            assert scores[2] > scores[0] == scores[1] > scores[3]
            served = _serve_by_score(actions, scores, SlatePolicyConfig(max_length=4)).served
            assert [a.action_id for a in served.items] == ["c", "a", "b", NULL_ACTION_ID]

    def test_feature_table_null_falls_back_to_zeros_without_an_entry(self):
        table = FeatureTable({("ctx", "a1"): np.array([1.0, 0.0])}, dim=2)
        assert_allclose(table(Context(context_id="ctx"), null_item()), [0.0, 0.0])
        with pytest.raises(KeyError):
            table(Context(context_id="ctx"), Action(action_id="a2", title="a2"))


class TestOracleAndRegret:
    def world(self):
        return one_context_world(
            {
                "best": ActionTruth(p_click=0.8, p_yes=0.9),
                "meh": ActionTruth(p_click=0.8, p_yes=0.6),
            }
        )

    def test_oracle_value_is_the_best_pool_p_yes(self):
        assert oracle_value(self.world().contexts[0]) == 0.9

    def test_oracle_value_floors_at_the_null_value(self):
        world = one_context_world({"weak": ActionTruth(p_click=0.5, p_yes=0.2)})
        assert oracle_value(world.contexts[0]) == 0.5

    def test_regret_of_top_served_item(self):
        event = make_event(context_id="c0", action_ids=["meh", "best"], click=None)
        assert_allclose(regret_of(self.world(), event), 0.3)

    def test_empty_slate_regret_uses_the_null_value(self):
        event = make_event(context_id="c0", action_ids=[], click=None)
        assert_allclose(regret_of(self.world(), event), 0.4)

    def test_oracle_policy_has_zero_regret(self):
        world = self.world()
        result = run(world, OraclePolicy(world), Schedule(horizon=60))
        assert all(w.regret_total == 0.0 for w in result.windows)
        for event in result.events:
            assert [a.action_id for a in event.slate.content_items()] == ["best"]

    def test_analytic_oracle_prr_hand_computed(self):
        contexts = [
            ContextWorld(
                context_id="c0",
                weight=0.5,
                actions={"a": ActionTruth(p_click=0.8, p_yes=0.9)},
            ),
            ContextWorld(
                context_id="c1",
                weight=0.5,
                actions={"b": ActionTruth(p_click=0.4, p_yes=0.6)},
            ),
        ]
        world = WorldSpec(contexts=contexts, seed=0, min_null_weight=0.05)
        # click-throughs: 0.8 / (0.8 + 0.2) = 0.8 and 0.4 / (0.4 + 0.6) = 0.4
        want = (0.5 * 0.8 * 0.9 + 0.5 * 0.4 * 0.6) / (0.5 * 0.8 + 0.5 * 0.4)
        assert_allclose(analytic_oracle_prr(world), want, rtol=1e-12)

    def test_simulated_oracle_run_matches_the_analytic_rate(self):
        world = one_context_world(
            {"best": ActionTruth(p_click=0.7, p_yes=0.85)}, skip=0.5, seed=21
        )
        result = run(world, OraclePolicy(world), Schedule(horizon=6000, aggregation_seconds=10**9))
        yes = sum(1 for e in result.events if e.feedback.survey is Survey.YES)
        no = sum(1 for e in result.events if e.feedback.survey is Survey.NO)
        assert_allclose(yes / (yes + no), analytic_oracle_prr(world), atol=0.02)


class TestKpiCounters:
    def test_truth_table(self):
        events = [
            # clicked content, positive survey: handled and engaged
            make_event(ts=0, action_ids=["a"], click=0, survey=Survey.YES),
            # clicked content, negative survey: engaged only
            make_event(ts=1, action_ids=["a"], click=0, survey=Survey.NO),
            # clicked content, silent survey: still handled
            make_event(ts=2, action_ids=["a"], click=0, survey=Survey.SKIPPED),
            # free-text turn (null-slot click): engaged, not handled
            make_event(ts=3, action_ids=["a"], click=1, survey=Survey.YES),
            # abandonment: neither
            make_event(ts=4, action_ids=["a"], click=None),
            # escalation cancels handled
            make_event(ts=5, action_ids=["a"], click=0, survey=Survey.YES, escalation=True),
        ]
        kpis = kpi_counters(LogColumns.from_events(events))
        assert_allclose(kpis["handled_share"], 2.0 / 6.0)
        assert_allclose(kpis["engagement"], 5.0 / 6.0)

    def test_direct_trigger_counts_as_handled_and_engaged(self):
        event = make_event(
            action_ids=["solo"], click=None, survey=Survey.YES, with_null=False
        )
        kpis = kpi_counters(LogColumns.from_events([event]))
        assert kpis["handled_share"] == 1.0
        assert kpis["engagement"] == 1.0

    def test_empty_input_is_all_zero(self):
        empty = LogColumns.from_events([])
        assert kpi_counters(empty) == {"handled_share": 0.0, "engagement": 0.0}


class TestMetricsCsv:
    def test_windows_serialize_with_blank_for_unmeasured_prr(self, tmp_path):
        world = one_context_world(
            {"a": ActionTruth(p_click=0.9, p_yes=0.8)}, skip=1.0
        )
        result = run(world, UniformRandomPolicy(), Schedule(horizon=8, aggregation_seconds=240))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result.windows, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["window", "t_start", "t_end", "events", "prr"]
        assert len(rows) == 1 + len(result.windows)
        for row in rows[1:]:
            assert row[4] == ""  # all surveys muted, so prr is unmeasured
            float(row[5])  # eas parses back

    def test_float_cells_round_trip_exactly(self, tmp_path):
        world = one_context_world({"a": ActionTruth(p_click=0.9, p_yes=0.8)}, skip=0.0)
        result = run(world, UniformRandomPolicy(), Schedule(horizon=30, aggregation_seconds=600))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result.windows, path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for row, window in zip(rows[1:], result.windows):
            if row[4] != "":
                assert float(row[4]) == window.prr
            assert float(row[8]) == window.regret_total


class TestRunResult:
    def test_final_slice_takes_the_tail(self):
        world = one_context_world({"a": ActionTruth(p_click=0.5, p_yes=0.5)})
        result = run(world, UniformRandomPolicy(), Schedule(horizon=40))
        tail = result.final_slice(0.25)
        assert len(tail) == 10
        assert tail == result.events[-10:]

    def test_final_slice_always_keeps_at_least_one_event(self):
        world = one_context_world({"a": ActionTruth(p_click=0.5, p_yes=0.5)})
        result = run(world, UniformRandomPolicy(), Schedule(horizon=3))
        assert len(result.final_slice(0.01)) == 1
