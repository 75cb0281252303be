"""Pool expansion from foreign survey evidence.

The exact exceedance probability is checked against a quadrature integral of
the two Beta posteriors and against a Monte-Carlo estimate.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

import slatebandit
from slatebandit.core import NULL_ACTION_ID, ValidationError
from slatebandit.expansion import (
    VERDICT_ALREADY_PRESENT,
    VERDICT_BELOW_THRESHOLD,
    VERDICT_INSUFFICIENT_TRIALS,
    VERDICT_PROMOTED,
    ExpansionConfig,
    _exceedance_sum,
    expand,
    prob_better,
    save_report,
)
from slatebandit.mab import ArmStats, ContextBank


def exceedance_oracle(cand_st, ref_st):
    """P(X > Y) for X ~ Beta(s+1, f+1) of cand, Y likewise of ref, by
    quadrature of f_X(x) * F_Y(x)."""
    ca, cb = cand_st[0] + 1.0, cand_st[1] - cand_st[0] + 1.0
    ra, rb = ref_st[0] + 1.0, ref_st[1] - ref_st[0] + 1.0
    val, _ = integrate.quad(
        lambda x: stats.beta.pdf(x, ca, cb) * stats.beta.cdf(x, ra, rb),
        0,
        1,
        limit=200,
        epsabs=1e-13,
        epsrel=1e-12,
    )
    return val


def arm(successes, trials):
    a = ArmStats()
    a.add(0, float(successes), float(trials))
    return a


CASES = [
    ((8, 10), (2, 10)),
    ((5, 10), (5, 10)),
    ((1, 20), (10, 20)),
    ((3, 4), (0, 0)),
    ((0, 0), (0, 0)),
    ((18, 20), (2, 10)),
    ((44, 50), (30, 100)),
    ((120, 300), (100, 260)),
]


class TestProbBetter:
    def test_matches_quadrature_oracle(self):
        for cand, ref in CASES:
            assert_allclose(prob_better(arm(*cand), arm(*ref)), exceedance_oracle(cand, ref), atol=1e-9)

    def test_agrees_with_monte_carlo_within_four_standard_errors(self):
        n = 1_000_000
        rng = np.random.default_rng(0)
        for cand, ref in [((8, 10), (2, 10)), ((6, 10), (4, 10)), ((27, 30), (12, 40))]:
            x = rng.beta(cand[0] + 1.0, cand[1] - cand[0] + 1.0, size=n)
            y = rng.beta(ref[0] + 1.0, ref[1] - ref[0] + 1.0, size=n)
            estimate = float(np.mean(x > y))
            p = prob_better(arm(*cand), arm(*ref))
            se = np.sqrt(p * (1.0 - p) / n)
            assert abs(estimate - p) <= 4.0 * se

    def test_symmetric_posteriors_split_evenly(self):
        assert_allclose(prob_better(arm(5, 10), arm(5, 10)), 0.5, atol=1e-12)

    def test_the_two_orders_sum_to_one(self):
        for cand, ref in CASES:
            total = prob_better(arm(*cand), arm(*ref)) + prob_better(arm(*ref), arm(*cand))
            assert_allclose(total, 1.0, atol=1e-12)

    def test_every_summed_parameter_gives_the_same_value(self):
        for cand, ref in CASES:
            ac, bc = cand[0] + 1.0, cand[1] - cand[0] + 1.0
            ar, br = ref[0] + 1.0, ref[1] - ref[0] + 1.0
            forms = [
                _exceedance_sum(ac, bc, ar, br),
                1.0 - _exceedance_sum(ar, br, ac, bc),
                _exceedance_sum(br, ar, bc, ac),
                1.0 - _exceedance_sum(bc, ac, br, ar),
            ]
            assert_allclose(forms, prob_better(arm(*cand), arm(*ref)), atol=1e-12)

    def test_fractional_counts_fall_back_to_quadrature(self):
        for cand, ref in [((2.5, 7.3), (1.2, 4.9)), ((0.4, 30.7), (12.6, 25.1)), ((9.5, 10.2), (0.3, 0.9))]:
            assert_allclose(prob_better(arm(*cand), arm(*ref)), exceedance_oracle(cand, ref), atol=1e-6)


class TestExpand:
    def bank(self, null_survey=(2, 10)):
        bank = ContextBank(context_id="ctx")
        bank.click_arm("existing").add(0, 3.0, 10.0)
        bank.survey_arm(NULL_ACTION_ID).add(0, float(null_survey[0]), float(null_survey[1]))
        return bank

    def config(self, **kw):
        defaults = dict(min_trials=10.0, false_positive_rate=0.05)
        defaults.update(kw)
        return ExpansionConfig(**defaults)

    def test_credible_winner_is_promoted(self):
        bank = self.bank(null_survey=(2, 10))
        foreign = {"winner": arm(18, 20)}
        report = expand(bank, foreign, self.config())
        assert report.promoted == ["winner"]
        assert report.verdicts[0].verdict == VERDICT_PROMOTED
        # oracle agrees this clears a 0.95 bar
        assert exceedance_oracle((18, 20), (2, 10)) > 0.95

    def test_promotion_copies_survey_stats_and_opens_empty_click_arm(self):
        bank = self.bank()
        foreign = {"winner": arm(18, 20)}
        expand(bank, foreign, self.config())
        assert bank.survey_stats["winner"].successes == 18.0
        assert bank.survey_stats["winner"].trials == 20.0
        assert bank.click_stats["winner"].trials == 0.0
        # the copy is detached from the foreign ledger
        foreign["winner"].add(1, 1.0, 1.0)
        assert bank.survey_stats["winner"].trials == 20.0

    def test_marginal_candidate_stays_out(self):
        bank = self.bank(null_survey=(5, 10))
        foreign = {"meh": arm(6, 10)}
        report = expand(bank, foreign, self.config())
        assert report.promoted == []
        assert report.verdicts[0].verdict == VERDICT_BELOW_THRESHOLD
        assert exceedance_oracle((6, 10), (5, 10)) < 0.95
        assert "meh" not in bank.survey_stats

    def test_thin_evidence_is_not_even_scored(self):
        bank = self.bank()
        report = expand(bank, {"thin": arm(3, 3)}, self.config(min_trials=10))
        assert report.verdicts[0].verdict == VERDICT_INSUFFICIENT_TRIALS
        assert report.verdicts[0].prob_better is None

    def test_known_actions_and_the_null_item_are_skipped(self):
        bank = self.bank()
        foreign = {
            "existing": arm(20, 20),
            NULL_ACTION_ID: arm(20, 20),
        }
        report = expand(bank, foreign, self.config())
        assert report.promoted == []
        assert {v.verdict for v in report.verdicts} == {VERDICT_ALREADY_PRESENT}

    def test_candidates_processed_in_sorted_order(self):
        bank = self.bank()
        foreign = {"zeta": arm(2, 3), "alpha": arm(1, 3), "mid": arm(0, 3)}
        report = expand(bank, foreign, self.config())
        assert [v.action_id for v in report.verdicts] == ["alpha", "mid", "zeta"]

    def test_report_depends_only_on_the_counts(self):
        foreign = {"a": arm(15, 20), "b": arm(12, 20)}
        r1 = expand(self.bank(), dict(foreign), self.config())
        r2 = expand(self.bank(), dict(foreign), self.config())
        assert r1.to_dict() == r2.to_dict()
        assert [v.prob_better for v in r1.verdicts] == [
            prob_better(foreign[a], self.bank().survey_stats[NULL_ACTION_ID]) for a in ("a", "b")
        ]

    def test_missing_null_reference_rejected(self):
        bank = ContextBank(context_id="ctx")
        with pytest.raises(ValidationError):
            expand(bank, {"a": arm(5, 5)}, self.config())

    def test_false_positive_budget_moves_the_bar(self):
        # exceedance sits near 0.80 here: in at 0.25 budget, out at 0.05
        bank_loose = self.bank(null_survey=(4, 10))
        bank_tight = self.bank(null_survey=(4, 10))
        foreign = {"cand": arm(6, 10)}
        p = exceedance_oracle((6, 10), (4, 10))
        assert 0.75 < p < 0.95
        loose = expand(bank_loose, foreign, self.config(false_positive_rate=0.25))
        tight = expand(bank_tight, foreign, self.config(false_positive_rate=0.05))
        assert loose.promoted == ["cand"]
        assert tight.promoted == []


class TestReportSerialization:
    def test_report_lands_on_disk_as_json(self, tmp_path):
        bank = ContextBank(context_id="ctx")
        bank.survey_arm(NULL_ACTION_ID).add(0, 2.0, 10.0)
        report = expand(
            bank,
            {"winner": arm(18, 20), "thin": arm(1, 2)},
            ExpansionConfig(min_trials=10.0),
        )
        path = tmp_path / "report.json"
        save_report(report, path)
        loaded = json.loads(path.read_text())
        assert loaded["context_id"] == "ctx"
        assert loaded["promoted"] == ["winner"]
        assert len(loaded["verdicts"]) == 2


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValidationError):
            ExpansionConfig(min_trials=0.0)
        with pytest.raises(ValidationError):
            ExpansionConfig(false_positive_rate=0.0)
        with pytest.raises(ValidationError):
            ExpansionConfig(false_positive_rate=1.0)


GUARD = """
import sys

from slatebandit.core import NULL_ACTION_ID, Action, Slate, null_item
from slatebandit.expansion import ExpansionConfig, expand
from slatebandit.mab import ArmStats, ContextBank
from slatebandit.sim import ActionTruth, ContextWorld, MabPolicy, Schedule, WorldSpec, run
from slatebandit.slates import SlatePolicyConfig

def arm(successes, trials):
    stats = ArmStats()
    stats.add(0, successes, trials)
    return stats

bank = ContextBank(context_id="c0")
bank.survey_arm(NULL_ACTION_ID).add(0, 2.0, 10.0)
assert expand(bank, {"cand": arm(18.0, 20.0)}, ExpansionConfig()).promoted == ["cand"]

world = WorldSpec(
    contexts=[ContextWorld(context_id="c0", weight=1.0, actions={
        "good": ActionTruth(p_click=0.8, p_yes=0.9),
        "bad": ActionTruth(p_click=0.8, p_yes=0.1),
        "fresh": ActionTruth(p_click=0.5, p_yes=0.9, in_pool=False),
    })],
    seed=3,
    survey_skip_rate=0.0,
    min_null_weight=0.4,
    freetype_enabled=True,
)
baseline = Slate(items=[Action("good", "good"), null_item()], scores=[0.0, 0.0])
policy = MabPolicy(
    slate_config=SlatePolicyConfig(safe_exploration=True, baselines={"c0": baseline}),
    foreign_stats={"c0": {"fresh": arm(18.0, 20.0)}},
)
run(world, policy, Schedule(horizon=300, aggregation_seconds=3600, expansion_seconds=7200))
assert policy.gate_audit and any(r.verdicts for r in policy.expansion_reports)
print(",".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


class TestNoScipyOnTheServingPath:
    def test_gate_and_gated_serving_import_no_scipy(self):
        # importing scipy.special alone adds about 20 MB of resident memory
        src = os.path.dirname(os.path.dirname(os.path.abspath(slatebandit.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(GUARD)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == ""
