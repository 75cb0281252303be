"""Importing evidence from another channel before risking live traffic.

The chat channel has months of survey history on macros the web surface has
never shown. Instead of shipping them cold, we let the expansion gate compare
each candidate's foreign survey posterior against the web bank's own evidence
for doing nothing. Only credible winners get their counters copied in; the
click arm starts empty so the policy still has to earn the ranking. The
second half replays the launch twice, with and without the imported history,
to show what the warm start is worth.
"""

import copy
import dataclasses

from slatebandit.expansion import ExpansionConfig, expand
from slatebandit.mab import ArmStats, null_survey_stats
from slatebandit.sim import (
    ActionTruth,
    ContextWorld,
    MabPolicy,
    Schedule,
    WorldSpec,
    run,
)
from slatebandit.slates import SlatePolicyConfig

CANDIDATE = "chat_macro_reset"
PHASE_EVENTS = 4000


def build_world(candidate_live: bool, start_ts: int = 0) -> WorldSpec:
    actions = {
        "password_faq": ActionTruth(p_click=0.55, p_yes=0.55),
        "totp_help": ActionTruth(p_click=0.45, p_yes=0.40),
        "vpn_guide": ActionTruth(p_click=0.40, p_yes=0.35),
        "old_reset_doc": ActionTruth(p_click=0.50, p_yes=0.30),
        CANDIDATE: ActionTruth(p_click=0.60, p_yes=0.90, in_pool=candidate_live),
    }
    return WorldSpec(
        contexts=[
            ContextWorld(
                context_id="login",
                weight=1.0,
                actions=actions,
                # free text after "none of these" is what gives the null item
                # a survey posterior, the reference every candidate must beat
                freetype_p_yes=0.25,
            )
        ],
        seed=31,
        survey_skip_rate=0.4,
        freetype_enabled=True,
        start_ts=start_ts,
    )


def foreign_history(ts: int) -> dict[str, ArmStats]:
    def imported(successes: float, trials: float) -> ArmStats:
        stats = ArmStats()
        stats.add(ts, successes, trials)
        return stats

    return {
        CANDIDATE: imported(44, 50),
        "weak_upsell": imported(4, 12),
        "thin_tip": imported(4, 4),
        "password_faq": imported(20, 30),
    }


def main() -> None:
    world = build_world(candidate_live=False)
    # two slots: a candidate has to out-rank an incumbent to be seen at all
    policy = MabPolicy(slate_config=SlatePolicyConfig(max_length=2))
    run(world, policy, Schedule(horizon=PHASE_EVENTS), policy_seed=8)

    bank = policy.banks["login"]
    reference = null_survey_stats(bank)
    print(f"after {PHASE_EVENTS} web events the null item's survey posterior is "
          f"{_mean(reference):.2f} over {reference.trials:.0f} answers\n")

    cold = copy.deepcopy(policy)

    report = expand(bank, foreign_history(ts=PHASE_EVENTS * 60), ExpansionConfig())
    print(f"{'candidate':>16} {'trials':>7} {'p(beats null)':>13}  verdict")
    for v in report.verdicts:
        shown = "-" if v.prob_better is None else f"{v.prob_better:.3f}"
        print(f"{v.action_id:>16} {v.trials:>7.0f} {shown:>13}  {v.verdict}")

    survey = bank.survey_stats[CANDIDATE]
    click = bank.click_stats[CANDIDATE]
    print(f"\npromoted arm enters with survey {survey.successes:.0f}/"
          f"{survey.trials:.0f} and clicks {click.successes:.0f}/"
          f"{click.trials:.0f}: the history transfers, the ranking is earned")

    launch = build_world(candidate_live=True, start_ts=PHASE_EVENTS * 60)
    schedule = Schedule(horizon=PHASE_EVENTS)
    warm_run = run(launch, policy, schedule, policy_seed=9)
    cold_run = run(launch, cold, schedule, policy_seed=9)

    print(f"\nlaunch day, how often {CANDIDATE} holds the first slot:")
    print(f"{'events':>12} {'with import':>12} {'cold start':>11}")
    edges = [0, 250, 500, 750, 1000, PHASE_EVENTS]
    for lo, hi in zip(edges, edges[1:]):
        warm = _first_slot_share(warm_run.events[lo:hi])
        chill = _first_slot_share(cold_run.events[lo:hi])
        print(f"{lo:>5} - {hi:>4} {warm:>12.3f} {chill:>11.3f}")


def _mean(stats: ArmStats) -> float:
    return (stats.successes + 1.0) / (stats.trials + 2.0)


def _first_slot_share(events) -> float:
    hits = sum(1 for e in events
               if e.slate.items and e.slate.items[0].action_id == CANDIDATE)
    return hits / len(events)


if __name__ == "__main__":
    main()
