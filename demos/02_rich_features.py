"""Neural-linear serving when the signal lives in the text, not the action id.

The world reuses the same four articles in two contexts; which one helps
depends on what the user asked. A discrete per-action bank cannot share that
structure, so here we log uniform traffic, train the reward network on
(query, title) embeddings, fit the linear head on the last hidden layer, and
then let the head serve with weighted sampling in a closed loop.
"""

import numpy as np

from slatebandit.core import LogColumns, RewardSpec, attributed_action, null_item, reward_of
from slatebandit.features import FeaturizerSpec, HashingEmbedder, TrainConfig, train
from slatebandit.linear import SufficientStats, absorb, bonus, fit, predict
from slatebandit.sim import (
    ActionTruth,
    ContextWorld,
    NlbPolicy,
    Schedule,
    UniformRandomPolicy,
    WorldSpec,
    run,
)
from slatebandit.slates import SlatePolicyConfig

ARTICLES = {
    "reset_guide": "How to reset your password",
    "mfa_help": "Fixing two factor login codes",
    "refund_policy": "Refunds and billing adjustments",
    "invoice_howto": "Where to find your invoices",
}


def build_world() -> WorldSpec:
    # p_yes rewards topical matches; clicks are common enough either way
    def actions(p_yes_by_id):
        return {
            action_id: ActionTruth(p_click=0.7, p_yes=p_yes_by_id[action_id],
                                   title=title)
            for action_id, title in ARTICLES.items()
        }

    login = actions({"reset_guide": 0.9, "mfa_help": 0.75,
                     "refund_policy": 0.15, "invoice_howto": 0.1})
    billing = actions({"reset_guide": 0.2, "mfa_help": 0.1,
                       "refund_policy": 0.85, "invoice_howto": 0.7})
    return WorldSpec(
        contexts=[
            ContextWorld(
                context_id="login",
                weight=0.5,
                actions=login,
                query_templates=["cannot log in to my account",
                                 "password reset not working"],
            ),
            ContextWorld(
                context_id="billing",
                weight=0.5,
                actions=billing,
                query_templates=["charged twice this month",
                                 "need an invoice for my records"],
            ),
        ],
        seed=19,
        survey_skip_rate=0.3,
        seconds_per_event=60,
    )


def main() -> None:
    world = build_world()
    spec = RewardSpec()

    logged = run(
        world,
        UniformRandomPolicy(slate_config=SlatePolicyConfig(max_length=3)),
        Schedule(horizon=4000, aggregation_seconds=8 * 3600),
        policy_seed=2,
    )
    print(f"logged {len(logged.events)} uniform events")

    featurizer = FeaturizerSpec(embedding=HashingEmbedder(dim=16, seed=3))
    feature_map = train(
        LogColumns.from_events(logged.events),
        spec,
        featurizer,
        TrainConfig(hidden_sizes=(16, 8), learning_rate=0.03, epochs=40, seed=4),
    )
    print(f"trained network, epoch loss {feature_map.epoch_losses[0]:.3f} "
          f"-> {feature_map.epoch_losses[-1]:.3f}")

    stats = SufficientStats(dim=8)
    for event in logged.events:
        reward = reward_of(event.feedback, spec)
        action = attributed_action(event)
        if reward is None or action is None or action.is_null_item:
            continue
        absorb(stats, feature_map.transform(event.context, action), reward, event.ts)
    head = fit(stats)
    print(f"head: {head.count} observations, rank {head.rank}/{head.dim}\n")

    print(f"{'context':>8} {'action':>14} {'true value':>10} "
          f"{'head estimate':>13} {'evidence':>9}")
    for ctx_world in world.contexts:
        context = _example_context(ctx_world)
        for action_id, truth in sorted(ctx_world.actions.items()):
            action = _as_action(action_id, truth)
            phi = feature_map.transform(context, action)
            print(f"{ctx_world.context_id:>8} {action_id:>14} "
                  f"{2 * truth.p_yes - 1:>+10.2f} {predict(head, phi):>+13.2f} "
                  f"{bonus(head, phi):>9.1f}")

    policy = NlbPolicy(
        feature_fn=feature_map.transform,
        dim=8,
        reward_spec=spec,
        slate_config=SlatePolicyConfig(max_length=3),
        sampler="ews",
        # keep the full spectrum: once a weak arm stops being served, its
        # feature direction falls out of a 99% mass cut and the lost evidence
        # triggers a fresh round of exploration
        pcr_threshold=1.0,
    )
    served = run(
        world,
        policy,
        Schedule(horizon=3000, aggregation_seconds=3600, refit_seconds=3600),
        policy_seed=5,
    )
    first = served.windows[0]
    tail = served.windows[-len(served.windows) // 10:]
    tail_regret = sum(w.regret_total for w in tail) / sum(w.n_events for w in tail)
    print(f"\nclosed loop with the learned features: regret/event "
          f"{first.regret_mean:.3f} (first window) -> {tail_regret:.3f} "
          f"(last tenth)")


def _example_context(ctx_world):
    from slatebandit.core import Context

    return Context(context_id=ctx_world.context_id,
                   query=ctx_world.query_templates[0])


def _as_action(action_id, truth):
    from slatebandit.core import Action

    return Action(action_id=action_id, title=truth.title)


if __name__ == "__main__":
    main()
