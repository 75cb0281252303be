"""Seeded world generator and the truth-side oracles the checks compare against.

Every workload builds its world here from one seed. The shape of the world is
fixed (context count, article counts, title and query lengths, the multiset
of click and survey rates); the seed only decides which article gets which
rates, which words make up titles and queries, and the feature values. That
keeps the amount of work per event nearly constant across seeds, so seeds
vary the inputs without varying the load.
"""

from __future__ import annotations

import numpy as np

from slatebandit import mab, sim
from slatebandit.core import Action, Slate, null_item

VOCAB = (
    "account access activate address app balance bank billing blocked card "
    "cancel change charge charged checkout code confirm contact credit damaged "
    "delay delete delivery device discount download duplicate email error "
    "export fee find fix form guide help history install invoice issue item "
    "late limit link lock locked login lost manage method missing mobile "
    "notification number order package paid password payment pending phone "
    "plan policy price profile promo receipt refund register renew reset "
    "return schedule security settings setup ship shipping sign slow status "
    "subscription support sync tax ticket track transfer two update upgrade "
    "verify wallet warranty web wrong"
).split()

CHANNELS = ("web", "app", "chat")
TIERS = ("free", "plus", "pro")

SHORT_CONTEXTS = ("account", "billing", "delivery")
LONG_TAIL_CONTEXT = "longtail"
SHORT_POOL = 12
LONG_TAIL_POOL = 60
QUERY_TEMPLATES = 4

# Survey skip rate of the README example; free-text turns are on in every world.
SURVEY_SKIP_RATE = 0.3
FREETYPE_P_YES = 0.5

EXPANSION_CONTEXT = "billing"
# (trials, successes) of the foreign candidates: one clear winner, one that
# does not beat the null item credibly, one below the evidence floor.
FOREIGN_CANDIDATES = ((60, 54), (30, 15), (5, 5))
BASELINE_CONTEXTS = ("account", "delivery")


def _words(rng: np.random.Generator, topic: list[str], n: int) -> str:
    """``n`` words, the first from the context's topic words, the rest shared."""
    picks = [topic[int(rng.integers(len(topic)))]]
    picks += [VOCAB[int(i)] for i in rng.integers(len(VOCAB), size=n - 1)]
    return " ".join(picks)


def _context(
    rng: np.random.Generator, context_id: str, pool: int, weight: float, foreign: int
) -> sim.ContextWorld:
    topic = [VOCAB[int(i)] for i in rng.choice(len(VOCAB), size=6, replace=False)]
    p_click = rng.permutation(np.linspace(0.15, 0.55, pool))
    p_yes = rng.permutation(np.linspace(0.15, 0.85, pool))
    actions = {}
    for i in range(pool):
        actions[f"{context_id}_{i:02d}"] = sim.ActionTruth(
            p_click=float(p_click[i]),
            p_yes=float(p_yes[i]),
            p_escalate_on_failure=0.2,
            title=_words(rng, topic, 3 + i % 4),
        )
    for j in range(foreign):
        # out-of-pool truth, so promoted articles have something to simulate
        actions[f"{context_id}_x{j}"] = sim.ActionTruth(
            p_click=0.45,
            p_yes=0.9 - 0.3 * j,
            p_escalate_on_failure=0.2,
            title=_words(rng, topic, 4),
            in_pool=False,
        )
    return sim.ContextWorld(
        context_id=context_id,
        weight=weight,
        actions=actions,
        features={
            "channel": CHANNELS[int(rng.integers(len(CHANNELS)))],
            "tier": TIERS[int(rng.integers(len(TIERS)))],
        },
        query_templates=[_words(rng, topic, 4 + k) for k in range(QUERY_TEMPLATES)],
        freetype_p_yes=FREETYPE_P_YES,
        p_escalate_empty=0.1,
    )


def build_world(seed: int, long_tail: bool) -> sim.WorldSpec:
    """The benchmark world: three 12-article contexts, plus a 60-article
    long-tail context when ``long_tail`` is set. Traffic is split evenly, so
    the long-tail context takes a quarter of requests."""
    rng = np.random.default_rng([seed, 0x5EED])
    ids = list(SHORT_CONTEXTS) + ([LONG_TAIL_CONTEXT] if long_tail else [])
    weight = 1.0 / len(ids)
    contexts = []
    for context_id in ids:
        pool = LONG_TAIL_POOL if context_id == LONG_TAIL_CONTEXT else SHORT_POOL
        foreign = len(FOREIGN_CANDIDATES) if context_id == EXPANSION_CONTEXT else 0
        contexts.append(_context(rng, context_id, pool, weight, foreign))
    return sim.WorldSpec(
        contexts=contexts,
        seed=seed,
        survey_skip_rate=SURVEY_SKIP_RATE,
        freetype_enabled=True,
    )


def foreign_stats(world: sim.WorldSpec) -> dict[str, dict[str, mab.ArmStats]]:
    """Survey history from another channel for the out-of-pool articles."""
    ctx = world.context_by_id(EXPANSION_CONTEXT)
    out_of_pool = sorted(a for a, t in ctx.actions.items() if not t.in_pool)
    stats = {}
    for action_id, (trials, successes) in zip(out_of_pool, FOREIGN_CANDIDATES):
        stats[action_id] = mab.ArmStats.from_dict({"entries": [[0, successes, trials]]})
    return {EXPANSION_CONTEXT: stats}


def baselines(world: sim.WorldSpec) -> dict[str, Slate]:
    """Pinned editorial slates: the two most attractive articles, then null."""
    out = {}
    for context_id in BASELINE_CONTEXTS:
        ctx = world.context_by_id(context_id)
        top = sorted(ctx.pool_ids(), key=lambda a: (-ctx.actions[a].p_click, a))[:2]
        items = [Action(action_id=a, title=ctx.actions[a].title) for a in top]
        out[context_id] = Slate(items=items + [null_item()], scores=[0.0, 0.0, 0.0])
    return out


def target_policy(world: sim.WorldSpec) -> dict[str, dict[str, float]]:
    """The fixed candidate for ``evaluate``: each context's best article by p_yes."""
    target = {}
    for ctx in world.contexts:
        best = min(ctx.pool_ids(), key=lambda a: (-ctx.actions[a].p_yes, a))
        target[ctx.context_id] = {best: 1.0}
    return target


def uniform_floor_regret(ctx: sim.ContextWorld) -> float:
    """Expected regret per event of uniform random ranking in this context.

    A uniform ranking puts each pool article or the null item first with
    equal chance; the top served item is then that article, or nothing (worth
    the null value) when the null item ranks first.
    """
    pool = ctx.pool_ids()
    oracle = max([sim.NULL_VALUE] + [ctx.actions[a].p_yes for a in pool])
    mean_top = (sum(ctx.actions[a].p_yes for a in pool) + sim.NULL_VALUE) / (len(pool) + 1)
    return oracle - mean_top


def snips_limit(
    world: sim.WorldSpec,
    target: dict[str, dict[str, float]],
    max_length: int,
    draws: int,
    seed: int,
) -> float:
    """Population value the SNIPS estimate converges to on a uniform log.

    Computed from world truth alone, by Monte Carlo over uniform rankings:
    the chance that the uniform slate shows each article and the user picks
    it (choice among shown articles by attraction weight, plus the outside
    option), then each usable event's importance weight pi(a) / (1 / n) and
    its expected survey reward 2 * p_yes - 1. The skip rate cancels.
    """
    rng = np.random.default_rng([seed, 0x0FF])
    num = 0.0
    den = 0.0
    for ctx in world.contexts:
        probs = target.get(ctx.context_id, {})
        if not probs:
            continue
        pool = ctx.pool_ids()
        n = len(pool) + 1  # the null item ranks too
        p_click = np.array([ctx.actions[a].p_click for a in pool])
        ranks = np.argsort(rng.random((draws, n)), axis=1)  # column n - 1 is null
        rank_of = np.empty_like(ranks)
        rank_of[np.arange(draws)[:, None], ranks] = np.arange(n)
        null_rank = rank_of[:, n - 1 : n]
        shown = (rank_of[:, : n - 1] < null_rank) & (rank_of[:, : n - 1] < max_length - 1)
        weights = shown * p_click
        top = weights.max(axis=1)
        outside = np.maximum(1.0 - top, world.min_null_weight)
        chosen = weights / (weights.sum(axis=1) + outside)[:, None]
        p_chosen = chosen.mean(axis=0)
        for i, action_id in enumerate(pool):
            pi = float(probs.get(action_id, 0.0))
            w = ctx.weight * p_chosen[i] * pi * n
            num += w * (2.0 * ctx.actions[action_id].p_yes - 1.0)
            den += w
    return num / den
