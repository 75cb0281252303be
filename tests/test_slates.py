"""Assembly truncation, the direct trigger, and the safety gate."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_action
from slatebandit.core import NULL_ACTION_ID, Slate, ValidationError, null_item
from slatebandit.slates import (
    SlateDecision,
    SlateError,
    SlatePolicyConfig,
    assemble,
    safe_gate,
    slate_value,
)


def scored_list(pairs):
    """pairs of (id_or_null, score); "null" becomes the null item."""
    out = []
    for action_id, score in pairs:
        action = null_item() if action_id == "null" else make_action(action_id)
        out.append((action, score))
    return out


class TestAssemble:
    def test_truncates_at_the_null_item(self):
        scored = scored_list(
            [("a", 0.9), ("b", 0.8), ("null", 0.5), ("c", 0.4), ("d", 0.3)]
        )
        decision = assemble(scored, SlatePolicyConfig(max_length=7))
        assert [a.action_id for a in decision.served.items] == ["a", "b", NULL_ACTION_ID]
        assert decision.served.scores == (0.9, 0.8, 0.5)
        assert decision.null_position == 2

    def test_caps_content_below_max_length(self):
        scored = scored_list(
            [("a", 0.9), ("b", 0.8), ("c", 0.7), ("d", 0.6), ("null", 0.1)]
        )
        decision = assemble(scored, SlatePolicyConfig(max_length=3))
        assert [a.action_id for a in decision.served.items] == ["a", "b", NULL_ACTION_ID]

    def test_null_first_serves_the_null_slate(self):
        scored = scored_list([("null", 0.9), ("a", 0.8)])
        decision = assemble(scored, SlatePolicyConfig())
        assert [a.action_id for a in decision.served.items] == [NULL_ACTION_ID]
        assert decision.served.content_items() == ()

    def test_max_length_one_serves_only_the_null_slot(self):
        scored = scored_list([("a", 0.9), ("null", 0.5)])
        decision = assemble(scored, SlatePolicyConfig(max_length=1))
        assert [a.action_id for a in decision.served.items] == [NULL_ACTION_ID]

    def test_missing_null_item_rejected(self):
        with pytest.raises(SlateError):
            assemble(scored_list([("a", 0.9)]), SlatePolicyConfig())

    def test_duplicate_null_item_rejected(self):
        with pytest.raises(SlateError):
            assemble(
                scored_list([("null", 0.9), ("null", 0.5)]), SlatePolicyConfig()
            )

    def test_ranking_order_is_trusted_not_enforced(self):
        # sampling probabilities are not monotone in the scores, so a
        # non-descending score sequence is legitimate input
        scored = scored_list([("a", 0.2), ("b", 0.7), ("null", 0.5)])
        decision = assemble(scored, SlatePolicyConfig())
        assert [a.action_id for a in decision.served.items] == ["a", "b", NULL_ACTION_ID]


class TestDirectTrigger:
    def config(self, margin=0.4):
        return SlatePolicyConfig(allow_direct_trigger=True, direct_trigger_margin=margin)

    def test_fires_when_null_is_second_and_lead_holds(self):
        scored = scored_list([("a", 0.95), ("null", 0.5), ("b", 0.4)])
        decision = assemble(scored, self.config())
        assert [a.action_id for a in decision.served.items] == ["a"]
        assert decision.served.null_position is None

    def test_lead_exactly_at_margin_fires(self):
        scored = scored_list([("a", 0.9), ("null", 0.5)])
        decision = assemble(scored, self.config(margin=0.4))
        assert [a.action_id for a in decision.served.items] == ["a"]

    def test_short_lead_serves_the_regular_slate(self):
        scored = scored_list([("a", 0.8), ("null", 0.5), ("b", 0.4)])
        decision = assemble(scored, self.config())
        assert [a.action_id for a in decision.served.items] == ["a", NULL_ACTION_ID]

    def test_null_ranked_third_never_fires(self):
        scored = scored_list([("a", 0.95), ("b", 0.9), ("null", 0.1)])
        decision = assemble(scored, self.config())
        assert [a.action_id for a in decision.served.items] == ["a", "b", NULL_ACTION_ID]

    def test_disabled_by_default(self):
        scored = scored_list([("a", 0.95), ("null", 0.1)])
        decision = assemble(scored, SlatePolicyConfig())
        assert [a.action_id for a in decision.served.items] == ["a", NULL_ACTION_ID]


class TestSafeGate:
    def baseline(self):
        return Slate(
            items=[make_action("base1"), make_action("base2"), null_item()],
            scores=[0.0, 0.0, 0.0],
        )

    def test_sampled_slate_wins_on_higher_value(self):
        decision = assemble(
            scored_list([("a", 0.9), ("b", 0.8), ("null", 0.5)]), SlatePolicyConfig()
        )
        gated = safe_gate(decision, self.baseline(), [0.3] * 3)
        assert gated.used_baseline is False
        assert gated.served is decision.served

    def test_baseline_wins_when_it_scores_higher(self):
        decision = assemble(
            scored_list([("a", 0.1), ("null", 0.05)]), SlatePolicyConfig()
        )
        gated = safe_gate(decision, self.baseline(), [0.4] * 3)
        assert gated.used_baseline is True
        assert [a.action_id for a in gated.served.items] == ["base1", "base2", NULL_ACTION_ID]
        assert gated.served.scores == (0.4, 0.4, 0.4)
        assert gated.null_position == 2

    def test_tie_goes_to_the_sampled_slate(self):
        decision = assemble(
            scored_list([("a", 0.4), ("null", 0.2)]), SlatePolicyConfig()
        )
        gated = safe_gate(decision, self.baseline(), [0.2] * 3)
        assert gated.used_baseline is False

    def test_null_scores_count_on_both_sides(self):
        # sampled content ties the baseline content; the null draws decide
        decision = assemble(
            scored_list([("a", 0.5), ("null", 0.4)]), SlatePolicyConfig()
        )
        baseline = Slate(items=[make_action("base1"), null_item()], scores=[0.0, 0.0])
        gated = safe_gate(decision, baseline, np.array([0.5, 0.5]))
        assert gated.used_baseline is True
        assert gated.served.scores == (0.5, 0.5)

    def test_audit_records_both_values_and_the_outcome(self):
        audit = []
        decision = assemble(
            scored_list([("a", 0.1), ("null", 0.05)]), SlatePolicyConfig()
        )
        safe_gate(decision, self.baseline(), [0.4] * 3, audit=audit)
        decision2 = assemble(
            scored_list([("a", 0.9), ("null", 0.8)]), SlatePolicyConfig()
        )
        safe_gate(decision2, self.baseline(), [0.1] * 3, audit=audit)
        assert len(audit) == 2
        assert_allclose(audit[0][0], 0.15)
        assert_allclose(audit[0][1], 1.2)
        assert audit[0][2] is True
        assert audit[1][2] is False

    def test_one_score_per_baseline_item_is_required(self):
        decision = assemble(scored_list([("a", 0.1), ("null", 0.05)]), SlatePolicyConfig())
        with pytest.raises(SlateError):
            safe_gate(decision, self.baseline(), [0.4, 0.4])


class TestSlateValue:
    def test_sums_all_scores_including_null(self):
        slate = Slate(
            items=[make_action("a"), null_item()],
            scores=[0.7, 0.2],
        )
        assert_allclose(slate_value(slate), 0.9)
