"""Importance-weighted offline evaluation and the promotion gate.

Small cases are checked against hand-computed ratios; the identity case
(target equals logging policy) must reproduce the realized mean exactly.
"""

import json

import pytest
from numpy.testing import assert_allclose

from conftest import make_event
from slatebandit.core import LogColumns, NoDataError, RewardMode, RewardSpec, Survey
from slatebandit.evaluation import (
    GateVerdict,
    MissingPropensityError,
    OpeResult,
    PromotionThresholds,
    eas_hat,
    promotion_gate,
    prr_hat,
    save_evaluation,
    snips,
)


def clicked_event(action_id, survey, propensity, other="other", ts=0):
    """Event whose click lands on ``action_id`` with the given propensity."""
    ids = [action_id, other]
    return make_event(
        ts=ts, action_ids=ids, click=0, survey=survey, propensity=propensity
    )


class TestSnips:
    def test_hand_computed_two_event_case(self):
        # weights 2 and 1, rewards +1 and -1
        events = [
            clicked_event("good", Survey.YES, propensity=0.25, ts=0),
            clicked_event("bad", Survey.NO, propensity=0.5, ts=1),
        ]
        policy = lambda ctx: {"good": 0.5, "bad": 0.5}
        result = snips(LogColumns.from_events(events), policy, RewardSpec())
        assert_allclose(result.estimate, (2.0 - 1.0) / 3.0, rtol=1e-12)
        assert_allclose(result.logging_policy_mean, 0.0)
        # delta-method variance: sum (w (r - v))^2 / (sum w)^2
        v = 1.0 / 3.0
        want_var = ((2 * (1 - v)) ** 2 + (1 * (-1 - v)) ** 2) / 9.0
        assert_allclose(result.variance, want_var, rtol=1e-12)
        assert_allclose(result.effective_sample_size, 9.0 / 5.0, rtol=1e-12)
        assert result.n_usable == 2
        assert result.matched_fraction == 1.0

    def test_identity_policy_reproduces_logging_mean_exactly(self):
        # pi == mu event by event, so every weight is exactly 1.0 and the
        # self-normalized estimate must equal the realized mean bitwise
        events = []
        mus = [0.3, 0.7, 0.49999999, 0.123456789]
        surveys = [Survey.YES, Survey.NO, Survey.YES, Survey.YES]
        for i, (mu, sv) in enumerate(zip(mus, surveys)):
            events.append(clicked_event(f"a{i}", sv, propensity=mu, ts=i))
        policy = lambda ctx: {f"a{i}": mus[i] for i in range(len(mus))}
        result = snips(LogColumns.from_events(events), policy, RewardSpec())
        assert result.estimate == result.logging_policy_mean
        assert result.effective_sample_size == float(len(mus))

    def test_deterministic_improvement_hits_the_reward_ceiling(self):
        # good always pleases, bad never does; target serves only good
        events = []
        for i in range(10):
            if i % 2 == 0:
                events.append(clicked_event("good", Survey.YES, 0.5, ts=i))
            else:
                events.append(clicked_event("bad", Survey.NO, 0.5, ts=i))
        policy = lambda ctx: {"good": 1.0}
        result = snips(LogColumns.from_events(events), policy, RewardSpec())
        assert result.estimate == 1.0
        assert result.logging_policy_mean == 0.0
        assert result.matched_fraction == 0.5

    def test_unusable_events_are_ignored(self):
        events = [
            clicked_event("good", Survey.YES, 0.5, ts=0),
            make_event(ts=1, action_ids=["a", "b"], click=None),  # no click
            make_event(ts=2, action_ids=["a", "b"], click=0, survey=Survey.SKIPPED),
        ]
        result = snips(LogColumns.from_events(events), lambda ctx: {"good": 1.0}, RewardSpec())
        assert result.n_usable == 1

    def test_direct_trigger_events_are_usable(self):
        event = make_event(
            action_ids=["solo"],
            click=None,
            survey=Survey.YES,
            propensity=1.0,
            with_null=False,
        )
        result = snips(LogColumns.from_events([event]), lambda ctx: {"solo": 0.8}, RewardSpec())
        assert result.estimate == 1.0
        assert result.n_usable == 1

    def test_missing_propensity_on_usable_event_raises_with_indexes(self):
        events = [
            clicked_event("good", Survey.YES, 0.5, ts=0),
            clicked_event("good", Survey.YES, None, ts=1),
            make_event(ts=2, action_ids=["a"], click=None, propensity=None),  # unusable, fine
            clicked_event("good", Survey.NO, None, ts=3),
        ]
        with pytest.raises(MissingPropensityError) as err:
            snips(LogColumns.from_events(events), lambda ctx: {"good": 1.0}, RewardSpec())
        assert "2 usable events" in str(err.value)
        assert "1, 3" in str(err.value)

    def test_no_usable_events_raises(self):
        events = [make_event(click=None), make_event(click=0, survey=Survey.SKIPPED)]
        with pytest.raises(NoDataError):
            snips(LogColumns.from_events(events), lambda ctx: {"a1": 1.0}, RewardSpec())

    def test_disjoint_target_policy_raises(self):
        events = [clicked_event("good", Survey.YES, 0.5)]
        with pytest.raises(NoDataError):
            snips(LogColumns.from_events(events), lambda ctx: {"elsewhere": 1.0}, RewardSpec())

    def test_escalation_penalty_flows_through_the_reward_spec(self):
        events = [
            make_event(
                ts=0,
                action_ids=["a", "b"],
                click=0,
                survey=Survey.NO,
                escalation=True,
                propensity=0.5,
            )
        ]
        spec = RewardSpec(
            mode=RewardMode.SURVEY_AND_ESCALATION, escalation_weight=-2.0
        )
        result = snips(LogColumns.from_events(events), lambda ctx: {"a": 0.5}, spec)
        assert result.estimate == -3.0


class TestRateEstimators:
    def test_positive_survey_share(self):
        events = [
            make_event(ts=0, click=0, survey=Survey.YES),
            make_event(ts=1, click=0, survey=Survey.YES),
            make_event(ts=2, click=0, survey=Survey.NO),
            make_event(ts=3, click=0, survey=Survey.SKIPPED),
            make_event(ts=4, click=None),
        ]
        assert_allclose(prr_hat(LogColumns.from_events(events)), 2.0 / 3.0, rtol=1e-12)

    def test_no_answered_surveys_yields_none(self):
        events = [make_event(click=0, survey=Survey.SKIPPED), make_event(click=None)]
        assert prr_hat(LogColumns.from_events(events)) is None

    def test_escalation_share(self):
        events = [
            make_event(ts=0, click=0, survey=Survey.NO, escalation=True),
            make_event(ts=1, click=0, survey=Survey.YES),
            make_event(ts=2, click=None),
            make_event(ts=3, click=None),
        ]
        assert_allclose(eas_hat(LogColumns.from_events(events)), 0.25)

    def test_escalation_share_needs_events(self):
        with pytest.raises(NoDataError):
            eas_hat(LogColumns.from_events([]))


def ope(estimate=0.5, logging=0.2, ess=500.0, variance=0.01):
    return OpeResult(
        estimate=estimate,
        logging_policy_mean=logging,
        effective_sample_size=ess,
        variance=variance,
        matched_fraction=1.0,
        n_usable=1000,
    )


class TestPromotionGate:
    def thresholds(self):
        return PromotionThresholds(variance_ceiling=0.05, ess_floor=100.0)

    def test_all_clauses_pass(self):
        verdict = promotion_gate(ope(), self.thresholds())
        assert verdict.passed
        assert verdict.reasons == []

    def test_estimate_must_strictly_beat_logging_mean(self):
        verdict = promotion_gate(ope(estimate=0.2, logging=0.2), self.thresholds())
        assert not verdict.passed
        assert verdict.reasons == ["estimate does not exceed logging policy mean"]

    def test_variance_ceiling_clause(self):
        verdict = promotion_gate(ope(variance=0.051), self.thresholds())
        assert not verdict.passed
        assert verdict.reasons == ["variance above ceiling"]
        assert promotion_gate(ope(variance=0.05), self.thresholds()).passed

    def test_ess_floor_clause(self):
        verdict = promotion_gate(ope(ess=99.0), self.thresholds())
        assert not verdict.passed
        assert verdict.reasons == ["insufficient effective sample size"]
        assert promotion_gate(ope(ess=100.0), self.thresholds()).passed

    def test_multiple_failures_list_every_reason(self):
        verdict = promotion_gate(
            ope(estimate=0.1, logging=0.2, ess=10.0, variance=0.5), self.thresholds()
        )
        assert verdict.reasons == [
            "estimate does not exceed logging policy mean",
            "variance above ceiling",
            "insufficient effective sample size",
        ]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            PromotionThresholds(variance_ceiling=0.0)
        with pytest.raises(ValueError):
            PromotionThresholds(ess_floor=-1.0)


class TestEvaluationSnapshot:
    def test_result_and_verdict_serialize_together(self, tmp_path):
        result = ope()
        verdict = promotion_gate(result, PromotionThresholds())
        path = tmp_path / "eval.json"
        save_evaluation(result, verdict, path)
        record = json.loads(path.read_text())
        assert record["ope"]["estimate"] == 0.5
        assert record["gate"]["passed"] is True
        assert record["gate"]["reasons"] == []
