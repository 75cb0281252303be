"""Judging a candidate policy from someone else's traffic.

A bandit serves for a while and logs what it knew at decision time: the
posterior counters behind each slate. That log is enough to score policies
that never ran, as long as each clicked event carries a propensity. The
serving path has no closed form for its own draw probabilities, so we
reconstruct them afterwards from the logged posteriors, then weight rewards
by target-over-logging ratios and let a three-clause gate decide which
candidates earn a live test.
"""

import dataclasses

import numpy as np

from slatebandit.core import LogColumns, RewardSpec
from slatebandit.evaluation import (
    MissingPropensityError,
    PromotionThresholds,
    promotion_gate,
    snips,
)
from slatebandit.mab import estimate_propensities
from slatebandit.sim import (
    ActionTruth,
    ContextWorld,
    MabPolicy,
    Schedule,
    WorldSpec,
    run,
)
from slatebandit.slates import SlatePolicyConfig

TRUTH = {
    "reset_guide": ActionTruth(p_click=0.7, p_yes=0.9),
    "totp_help": ActionTruth(p_click=0.5, p_yes=0.6),
    "old_faq": ActionTruth(p_click=0.4, p_yes=0.2),
    "status_page": ActionTruth(p_click=0.35, p_yes=0.3),
}


def main() -> None:
    world = WorldSpec(
        contexts=[ContextWorld(context_id="login", weight=1.0, actions=TRUTH)],
        seed=23,
        survey_skip_rate=0.5,
    )
    spec = RewardSpec()

    # one content slot plus the do-nothing slot, so the clicked action is
    # always the arm the sampler ranked first
    logging_policy = MabPolicy(slate_config=SlatePolicyConfig(max_length=2))
    logged = run(world, logging_policy,
                 Schedule(horizon=3000, aggregation_seconds=4 * 3600),
                 policy_seed=6)
    print(f"logged {len(logged.events)} events from the learning policy")

    always_best = lambda context: {"reset_guide": 1.0}
    try:
        snips(LogColumns.from_events(logged.events), always_best, spec)
    except MissingPropensityError as err:
        print(f"raw log is not scorable yet: {err}")

    rng = np.random.default_rng(11)
    events = []
    for event in logged.events:
        if event.posteriors is None:
            events.append(event)
            continue
        probs = estimate_propensities(event.posteriors, rng, n_draws=4000)
        clicked = event.clicked_action()
        propensity = probs.get(clicked.action_id) if clicked is not None else None
        events.append(dataclasses.replace(event, propensity=propensity))
    repaired = LogColumns.from_events(events)
    print("propensities reconstructed from the logged posteriors\n")

    candidates = {
        "always reset_guide": (always_best, TRUTH["reset_guide"].p_yes),
        "always status_page": (lambda context: {"status_page": 1.0},
                               TRUTH["status_page"].p_yes),
        "always old_faq": (lambda context: {"old_faq": 1.0},
                           TRUTH["old_faq"].p_yes),
    }
    thresholds = PromotionThresholds()
    print(f"{'candidate':>20} {'estimate':>9} {'truth':>7} {'ess':>7} "
          f"{'gate':>8}  reasons")
    for name, (target, p_yes) in candidates.items():
        result = snips(repaired, target, spec)
        verdict = promotion_gate(result, thresholds)
        gate = "promote" if verdict.passed else "reject"
        reasons = "" if verdict.passed else "; ".join(verdict.reasons)
        print(f"{name:>20} {result.estimate:>+9.3f} {2 * p_yes - 1:>+7.1f} "
              f"{result.effective_sample_size:>7.1f} {gate:>8}  {reasons}")

    baseline = snips(repaired, always_best, spec)
    print(f"\nlogging policy mean over usable events: "
          f"{baseline.logging_policy_mean:+.3f} "
          f"(dragged below the best arm by its own exploration)")


if __name__ == "__main__":
    main()
