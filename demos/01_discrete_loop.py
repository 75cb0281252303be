"""Discrete Thompson sampling against a two-context support world.

Runs the windowed click/survey bandit and a uniform-random floor on the same
seeded world, prints the windowed metrics side by side, then opens up one
context's bank to show where the posteriors ended relative to the truth.
"""

import numpy as np

from slatebandit.core import LogColumns
from slatebandit.evaluation import prr_hat
from slatebandit.mab import click_weight
from slatebandit.sim import (
    ActionTruth,
    ContextWorld,
    MabPolicy,
    Schedule,
    UniformRandomPolicy,
    WorldSpec,
    analytic_oracle_prr,
    run,
)
from slatebandit.slates import SlatePolicyConfig

HORIZON = 8000


def build_world() -> WorldSpec:
    login = {
        "reset_guide": ActionTruth(p_click=0.7, p_yes=0.9, title="Reset your password"),
        "totp_help": ActionTruth(p_click=0.5, p_yes=0.6, title="Authenticator problems"),
        "old_faq": ActionTruth(p_click=0.4, p_yes=0.2, title="Login FAQ (2019)"),
        "status_page": ActionTruth(p_click=0.3, p_yes=0.3, title="Service status"),
    }
    billing = {
        "refund_policy": ActionTruth(p_click=0.6, p_yes=0.8, title="Refund policy"),
        "invoice_howto": ActionTruth(p_click=0.6, p_yes=0.5, title="Find your invoices"),
        "old_faq": ActionTruth(p_click=0.3, p_yes=0.1, title="Billing FAQ (2019)"),
        "contact_sales": ActionTruth(p_click=0.2, p_yes=0.3, title="Talk to sales"),
    }
    return WorldSpec(
        contexts=[
            ContextWorld(context_id="login", weight=0.6, actions=login),
            ContextWorld(context_id="billing", weight=0.4, actions=billing),
        ],
        seed=13,
        survey_skip_rate=0.6,
        seconds_per_event=60,
    )


def main() -> None:
    world = build_world()
    schedule = Schedule(horizon=HORIZON, aggregation_seconds=4 * 3600)
    config = SlatePolicyConfig(max_length=3)

    policy = MabPolicy(slate_config=config)
    learner = run(world, policy, schedule, policy_seed=1)
    floor = run(world, UniformRandomPolicy(slate_config=config), schedule, policy_seed=1)

    print(f"oracle PRR for this world: {analytic_oracle_prr(world):.3f}")
    print(f"{'window':>6} {'bandit prr':>10} {'uniform prr':>11} "
          f"{'bandit regret/ev':>16} {'handled':>8}")
    for learned, random_floor in zip(learner.windows, floor.windows):
        if learned.index % 4 and learned.index != len(learner.windows) - 1:
            continue
        prr = "-" if learned.prr is None else f"{learned.prr:.3f}"
        uni = "-" if random_floor.prr is None else f"{random_floor.prr:.3f}"
        print(f"{learned.index:>6} {prr:>10} {uni:>11} "
              f"{learned.regret_mean:>16.3f} {learned.handled_share:>8.3f}")

    final = prr_hat(LogColumns.from_events(learner.final_slice(0.1)))
    final_floor = prr_hat(LogColumns.from_events(floor.final_slice(0.1)))
    print(f"\nfinal-10% PRR: bandit {final:.3f}, uniform {final_floor:.3f}")

    bank = policy.banks["login"]
    truth = world.context_by_id("login").actions
    print(f"\nlogin bank after {HORIZON} events "
          f"(click weight now {click_weight(bank):.3f}):")
    print(f"{'action':>14} {'survey mean':>11} {'true p_yes':>10} {'trials':>7}")
    for action_id in sorted(truth):
        arm = bank.survey_stats.get(action_id)
        if arm is None or arm.trials == 0:
            print(f"{action_id:>14} {'(no surveys)':>11}")
            continue
        posterior = (arm.successes + 1) / (arm.trials + 2)
        print(f"{action_id:>14} {posterior:>11.3f} {truth[action_id].p_yes:>10.2f} "
              f"{arm.trials:>7.0f}")


if __name__ == "__main__":
    main()
