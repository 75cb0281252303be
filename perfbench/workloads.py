"""The workloads: how each builds its inputs and what one timed unit runs.

Everything here goes through the package's public API: ``sim.run`` with the
policies, ``mab.save_bank``, ``linear.save_head`` and ``cli.main``. Each
timed process runs one unit.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field

import world as worlds
from slatebandit import cli, expansion, features, linear, mab, sim, slates
from slatebandit.core import EventLog, RewardSpec

WORKLOADS = ("discrete", "neural")

DAY = 24 * 3600
WINDOW_DAYS = 3  # counter window; the discrete horizon spans about 14 days
PRE_SAMPLE_K = 25
HIDDEN = (64, 32)
EMBEDDING_DIM = 32
EPOCHS = 10
MAX_LENGTH = 7  # the package's default slate length, used by the uniform log
# The neural workload serves at most three articles. With the default length
# the slate ends wherever the learned head ranks the null item, and
# log_bytes_per_event spread 0.05-0.10 across seeds (its bound is 0.10); with
# the cap it spreads under 0.03. The Thompson draw still scores all 13
# candidates.
NEURAL_MAX_LENGTH = 4

# Boundary-job cadences, in simulated seconds (60 per event). They put each
# tail percentile inside one kind of stall rather than on the edge between
# two kinds, where one more or one fewer garbage-collector pause moves it
# across a wide gap. With the defaults (4-hourly aggregation, daily
# expansion) the discrete p999 rank sits between expansion and aggregation
# stalls, 3x apart, and the neural p99 rank in the noisy tail of plain
# requests. Discrete: serve_p99_us among hourly aggregations, serve_p999_us
# among expansions every twelve hours. Neural: hourly aggregation, which
# coincides with the default hourly refit, holds both ranks.
SCHEDULES = {
    "discrete": {"aggregation_seconds": 3600, "expansion_seconds": 12 * 3600},
    "neural": {"aggregation_seconds": 3600},
}

# Events served per unit, set by time: with its CLI stages a discrete unit
# takes about 7 s and a neural unit (offline stages, 10 000 NLB events,
# report) about 10 s on a 2-core VM, so a 40-second run pools four or more
# processes and at least 40 000 serve gaps, forty or more of them beyond
# serve_p999_us. Pooling fewer processes left serve_p99_us on discrete
# spreading 0.07-0.11 across runs: each process's own p99 moves by about 6 %.
SIZES = {
    "discrete": {"horizon": 20000},
    "neural": {"horizon": 10000, "uniform_horizon": 12000},
}

UNIFORM_LOG = os.path.join("explore", "events.jsonl")
OFFLINE_STAGES = ("train_repr", "fit_bandit", "evaluate", "report")
# Each unit runs its CLI stages this many times over; a stage's time is its
# median. One pass of about 1.5 s gave replay_s spreads up to 0.13 across
# runs on a shared 2-core VM.
REPLAY_PASSES = 3


@dataclass
class UnitResult:
    """What one unit measured and left behind."""

    run_s: float
    horizon: int
    events: int
    replay_s: float = 0.0
    stage_s: dict[str, float] = field(default_factory=dict)
    stage_times: dict[str, list[float]] = field(default_factory=dict)
    exit_codes: dict[str, int] = field(default_factory=dict)
    promoted: set[str] = field(default_factory=set)
    state: dict[str, float] = field(default_factory=dict)


def _cli(argv: list[str], name: str, result: UnitResult | None = None) -> int:
    """One ``cli.main`` stage in-process; its console output is discarded.

    The stage starts from a collected heap, as it would in a fresh
    ``slatebandit`` process; otherwise the garbage left by the previous
    stage decides when the collector's full passes fall inside this one.
    """
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - started
    if result is not None:
        result.exit_codes[name] = code
        result.stage_times.setdefault(name, []).append(elapsed)
        result.stage_s[name] = statistics.median(result.stage_times[name])
    return code


def _replay(stages: list[tuple[str, list[str]]], result: UnitResult) -> bool:
    """Run ``stages`` REPLAY_PASSES times over; False at the first stage
    that exits non-zero."""
    for _ in range(REPLAY_PASSES):
        for name, argv in stages:
            if _cli(argv, name, result) != 0:
                return False
    return True


def setup(workload: str, seed: int, out_dir: str, sizes: dict) -> dict[str, int]:
    """Generate the workload's inputs from ``seed`` into ``out_dir``.

    For ``neural`` that includes the exploration log: uniform traffic served
    through ``slatebandit simulate --policy uniform``. Returns the exit code
    of each CLI stage run.
    """
    os.makedirs(out_dir, exist_ok=True)
    world = worlds.build_world(seed, long_tail=workload == "discrete")
    world_path = os.path.join(out_dir, "world.json")
    sim.save_world(world, world_path)
    if workload != "neural":
        return {}
    with open(os.path.join(out_dir, "target.json"), "w", encoding="utf-8") as fh:
        json.dump(worlds.target_policy(world), fh, sort_keys=True)
    code = _cli(
        ["simulate", "--world", world_path, "--out", os.path.join(out_dir, "explore"),
         "--seed", str(seed + 1), "--policy", "uniform",
         "--horizon", str(sizes["uniform_horizon"])],
        "simulate",
    )
    return {"simulate": code}


def run_unit(workload: str, seed: int, setup_dir: str, out_dir: str, sizes: dict, probe) -> UnitResult:
    """One timed unit. ``probe`` wraps ``sim.run`` and ``sim.step`` and is
    already installed; it reports the wall time of ``sim.run``."""
    os.makedirs(out_dir, exist_ok=True)
    world = sim.load_world(os.path.join(setup_dir, "world.json"))
    log_path = os.path.join(out_dir, "events.jsonl")
    result = UnitResult(run_s=0.0, horizon=sizes["horizon"], events=0)
    if workload == "discrete":
        policy = sim.MabPolicy(
            slate_config=slates.SlatePolicyConfig(
                safe_exploration=True, baselines=worlds.baselines(world)
            ),
            window_seconds=WINDOW_DAYS * DAY,
            pre_sample_k=PRE_SAMPLE_K,
            foreign_stats=worlds.foreign_stats(world),
            expansion_config=expansion.ExpansionConfig(),
        )
    else:
        # The offline half of the README pipeline on the exploration log:
        # learn the representation, fit a head, score the fixed target.
        explore = os.path.join(setup_dir, UNIFORM_LOG)
        fmap = os.path.join(out_dir, "fmap.json")
        stages = [
            ("train_repr", ["train-repr", "--log", explore, "--out", fmap, "--seed", str(seed + 3),
                            "--hidden", ",".join(map(str, HIDDEN)), "--epochs", str(EPOCHS),
                            "--embedding-dim", str(EMBEDDING_DIM)]),
            ("fit_bandit", ["fit-bandit", "--log", explore, "--features", fmap,
                            "--out", os.path.join(out_dir, "fitted_head.json")]),
            ("evaluate", ["evaluate", "--log", explore, "--target",
                          os.path.join(setup_dir, "target.json"),
                          "--out", os.path.join(out_dir, "eval.json")]),
        ]
        if not _replay(stages, result):
            return result
        # Then serve with the learned features, as the README does.
        feature_map = features.load_feature_map(fmap)
        policy = sim.NlbPolicy(
            feature_fn=feature_map.transform,
            dim=feature_map.dim,
            reward_spec=RewardSpec(),
            slate_config=slates.SlatePolicyConfig(max_length=NEURAL_MAX_LENGTH),
            sampler="ts",
        )
    schedule = sim.Schedule(horizon=result.horizon, **SCHEDULES[workload])
    gc.collect()  # serve from a collected heap too, see _cli
    run = sim.run(world, policy, schedule, policy_seed=seed + 2, log=EventLog(log_path))
    result.run_s = probe.last_run_s
    result.events = len(run.events)
    sim.write_metrics_csv(run.windows, os.path.join(out_dir, "metrics.csv"))
    result.state["sim.events_retained"] = len(run.events)
    if workload == "discrete":
        bank_dir = os.path.join(out_dir, "banks")
        os.makedirs(bank_dir, exist_ok=True)
        snapshot_bytes = 0
        for context_id in sorted(policy.banks):
            path = os.path.join(bank_dir, f"{context_id}.json")
            mab.save_bank(policy.banks[context_id], path)
            snapshot_bytes += os.path.getsize(path)
        result.state["mab.retained_entries"] = sum(
            len(stats.entries)
            for bank in policy.banks.values()
            for family in (bank.click_stats, bank.survey_stats)
            for stats in family.values()
        )
        result.state["mab.snapshot_bytes"] = snapshot_bytes
        for report in policy.expansion_reports:
            result.promoted.update(report.promoted)
    else:
        linear.save_head(policy.head, os.path.join(out_dir, "head.json"))
        result.state["linear.stats_entries"] = len(policy.stats.entries)
        result.state["linear.head_rank"] = policy.head.rank
    del run, policy
    _replay([("report", ["report", "--log", log_path, "--out", os.path.join(out_dir, "report.json")])],
            result)
    result.replay_s = sum(result.stage_s.get(stage, 0.0) for stage in OFFLINE_STAGES)
    return result
