"""Command-line entry points for the simulate/train/fit/expand/evaluate loop.

Option precedence everywhere: built-in defaults, then the --config JSON file,
then explicit flags. Outputs are written to a temp file and renamed, so a
re-run with the same inputs overwrites deterministically. Exit codes: 0 on
success, 1 for runtime failures (no usable data, estimator cannot run), 2 for
usage and configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import evaluation, expansion, features, linear, mab, sim
from .core import (
    EventLog,
    LogColumns,
    NoDataError,
    RewardMode,
    RewardSpec,
    Survey,
    ValidationError,
    atomic_write,
    attributed_rewards,
    read_columns,
)
from .slates import SlatePolicyConfig

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON ({path}): {exc}") from exc


def _config_of(args: argparse.Namespace) -> dict:
    if getattr(args, "config", None):
        config = _load_json(args.config, "config file")
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
        return config
    return {}


def _pick(args: argparse.Namespace, config: dict, name: str, default):
    """Flag if given, else config value, else default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _reward_spec(args: argparse.Namespace, config: dict) -> RewardSpec:
    mode = _pick(args, config, "reward-mode", RewardMode.SURVEY_ONLY.value)
    try:
        mode = RewardMode(mode)
    except ValueError as exc:
        raise ConfigError(f"unknown reward mode {mode!r}") from exc
    weight = float(_pick(args, config, "escalation-weight", -1.0))
    return RewardSpec(mode=mode, escalation_weight=weight)


def _read_log(path: str) -> LogColumns:
    if not os.path.exists(path):
        raise ConfigError(f"event log not found: {path}")
    return read_columns(path)


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _config_of(args)
    world = sim.WorldSpec.from_dict(_load_json(args.world, "world spec"))
    horizon = int(_pick(args, config, "horizon", 10000))
    policy_name = _pick(args, config, "policy", "mab")
    slate_config = SlatePolicyConfig(
        max_length=int(_pick(args, config, "slate-length", 7)),
        allow_direct_trigger=bool(_pick(args, config, "direct-trigger", False)),
        direct_trigger_margin=float(_pick(args, config, "direct-trigger-margin", 0.4)),
    )
    schedule = sim.Schedule(
        horizon=horizon,
        aggregation_seconds=int(_pick(args, config, "aggregation-seconds", 4 * 3600)),
        refit_seconds=int(_pick(args, config, "refit-seconds", 3600)),
        expansion_seconds=int(_pick(args, config, "expansion-seconds", 24 * 3600)),
    )
    reward_spec = _reward_spec(args, config)

    if policy_name == "mab":
        fixed = _pick(args, config, "fixed-lambda", None)
        lambda_config = mab.LambdaConfig(
            k=float(_pick(args, config, "k-lambda", 50.0)),
            fixed_weight=None if fixed is None else float(fixed),
            combiner=_pick(args, config, "combiner", mab.COMBINER_INTERPOLATION),
        )
        window = int(_pick(args, config, "window-seconds", mab.DEFAULT_WINDOW_SECONDS))
        policy: sim.BasePolicy = sim.MabPolicy(
            slate_config=slate_config, lambda_config=lambda_config, window_seconds=window
        )
    elif policy_name == "uniform":
        policy = sim.UniformRandomPolicy(slate_config=slate_config)
    elif policy_name == "nlb":
        feature_path = _pick(args, config, "features", None)
        if not feature_path:
            raise ConfigError("policy 'nlb' needs --features (a trained feature map)")
        feature_map = features.load_feature_map(feature_path)
        policy = sim.NlbPolicy(
            feature_fn=feature_map.transform,
            dim=feature_map.dim,
            reward_spec=reward_spec,
            slate_config=slate_config,
            sampler=_pick(args, config, "sampler", "ews"),
            prior_scale=float(_pick(args, config, "prior-scale", 1.0)),
            pcr_threshold=float(_pick(args, config, "pcr-threshold", linear.DEFAULT_PCR_THRESHOLD)),
        )
    else:
        raise ConfigError(f"unknown policy {policy_name!r}")

    os.makedirs(args.out, exist_ok=True)
    log_tmp = os.path.join(args.out, "events.jsonl.tmp")
    if os.path.exists(log_tmp):
        os.remove(log_tmp)
    # run holds the log open only while it serves, so the rename sees a closed file
    result = sim.run(world, policy, schedule, policy_seed=args.seed, log=EventLog(log_tmp))
    os.replace(log_tmp, os.path.join(args.out, "events.jsonl"))
    sim.write_metrics_csv(result.windows, os.path.join(args.out, "metrics.csv"))
    if isinstance(policy, sim.MabPolicy):
        bank_dir = os.path.join(args.out, "banks")
        os.makedirs(bank_dir, exist_ok=True)
        for context_id in sorted(policy.banks):
            mab.save_bank(policy.banks[context_id], os.path.join(bank_dir, f"{context_id}.json"))
    columns = LogColumns.from_events(result.events)
    kpis = sim.kpi_counters(columns)
    summary = {
        "events": len(columns),
        "prr": evaluation.prr_hat(columns),
        "eas": evaluation.eas_hat(columns) if len(columns) else 0.0,
        "handled_share": kpis["handled_share"],
        "engagement": kpis["engagement"],
        "policy": policy.tag,
    }
    atomic_write(
        os.path.join(args.out, "summary.json"),
        json.dumps(summary, sort_keys=True, indent=1) + "\n",
    )
    print(f"simulated {len(result.events)} events -> {args.out}")
    return EXIT_OK


def cmd_train_repr(args: argparse.Namespace) -> int:
    config = _config_of(args)
    columns = _read_log(args.log)
    reward_spec = _reward_spec(args, config)
    hidden = _pick(args, config, "hidden", "128,64")
    if isinstance(hidden, str):
        hidden_sizes = tuple(int(h) for h in hidden.split(",") if h.strip())
    else:
        hidden_sizes = tuple(int(h) for h in hidden)
    train_config = features.TrainConfig(
        hidden_sizes=hidden_sizes,
        learning_rate=float(_pick(args, config, "learning-rate", 0.05)),
        epochs=int(_pick(args, config, "epochs", 50)),
        batch_size=int(_pick(args, config, "batch-size", 32)),
        seed=args.seed,
    )
    embedder = features.HashingEmbedder(
        dim=int(_pick(args, config, "embedding-dim", 32)),
        seed=args.seed,
        max_ngram=int(_pick(args, config, "max-ngram", 2)),
    )
    context_vocabs: dict[str, set] = {}
    action_vocabs: dict[str, set] = {}
    for context in columns.contexts:
        for name, value in context.features.items():
            context_vocabs.setdefault(name, set()).add(value)
    for items in columns.slates:
        for action in items:
            for name, value in action.features.items():
                action_vocabs.setdefault(name, set()).add(value)
    featurizer = features.FeaturizerSpec(
        embedding=embedder,
        context_vocabs={k: sorted(v) for k, v in context_vocabs.items()},
        action_vocabs={k: sorted(v) for k, v in action_vocabs.items()},
    )
    feature_map = features.train(columns, reward_spec, featurizer, train_config)
    features.save_feature_map(feature_map, args.out)
    print(
        f"trained feature map on {len(columns)} events, "
        f"final loss {feature_map.epoch_losses[-1]:.6f} -> {args.out}"
    )
    return EXIT_OK


def cmd_fit_bandit(args: argparse.Namespace) -> int:
    config = _config_of(args)
    columns = _read_log(args.log)
    feature_map = features.load_feature_map(args.features)
    reward_spec = _reward_spec(args, config)
    window = _pick(args, config, "window-seconds", None)
    stats = linear.SufficientStats(
        dim=feature_map.dim, window_seconds=None if window is None else int(window)
    )
    ts = columns.ts
    # rows in log order, stably sorted by ts: the order the online fold sees
    rows = sorted(attributed_rewards(columns, reward_spec), key=lambda row: ts[row[0]])
    for index, action, reward in rows:
        phi = feature_map.transform(columns.contexts[index], action)
        linear.absorb(stats, phi, reward, ts[index])
    head = linear.fit(
        stats, float(_pick(args, config, "pcr-threshold", linear.DEFAULT_PCR_THRESHOLD))
    )
    linear.save_head(head, args.out)
    print(
        f"fit head on {head.count} observations, rank {head.rank}/{head.dim} -> {args.out}"
    )
    return EXIT_OK


def cmd_expand(args: argparse.Namespace) -> int:
    config = _config_of(args)
    bank = mab.load_bank(args.bank)
    foreign_raw = _load_json(args.foreign, "foreign stats file")
    foreign = {a: mab.ArmStats.from_dict(d) for a, d in foreign_raw.items()}
    expansion_config = expansion.ExpansionConfig(
        min_trials=float(_pick(args, config, "min-trials", 10.0)),
        false_positive_rate=float(_pick(args, config, "fp", 0.05)),
    )
    report = expansion.expand(bank, foreign, expansion_config)
    mab.save_bank(bank, args.out_bank)
    expansion.save_report(report, args.report)
    print(f"promoted {len(report.promoted)} of {len(report.verdicts)} candidates")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config_of(args)
    columns = _read_log(args.log)
    target_raw = _load_json(args.target, "target policy file")
    if not isinstance(target_raw, dict):
        raise ConfigError("target policy file must map context ids to action probabilities")

    def target_policy(context):
        probs = target_raw.get(context.context_id, target_raw.get("*"))
        if probs is None:
            return {}
        return probs

    reward_spec = _reward_spec(args, config)
    result = evaluation.snips(columns, target_policy, reward_spec)
    thresholds = evaluation.PromotionThresholds(
        variance_ceiling=float(_pick(args, config, "variance-ceiling", 0.05)),
        ess_floor=float(_pick(args, config, "ess-floor", 100.0)),
    )
    verdict = evaluation.promotion_gate(result, thresholds)
    evaluation.save_evaluation(result, verdict, args.out)
    status = "pass" if verdict.passed else "hold (" + "; ".join(verdict.reasons) + ")"
    print(
        f"estimate {result.estimate:.4f} vs logging {result.logging_policy_mean:.4f}, "
        f"ess {result.effective_sample_size:.1f}, gate: {status}"
    )
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    columns = _read_log(args.log)
    n = len(columns)
    if not n:
        raise NoDataError("event log is empty")
    kpis = sim.kpi_counters(columns)
    clicks = n - columns.click.count(None)
    answered = n - columns.survey.count(Survey.SKIPPED)
    prr = evaluation.prr_hat(columns)
    record = {
        "events": n,
        "clicks": clicks,
        "answered_surveys": answered,
        "prr": prr,
        "eas": evaluation.eas_hat(columns),
        "handled_share": kpis["handled_share"],
        "engagement": kpis["engagement"],
    }
    if args.out:
        atomic_write(args.out, json.dumps(record, sort_keys=True, indent=1) + "\n")
    print(f"events            {record['events']}")
    print(f"clicks            {clicks}")
    print(f"answered surveys  {answered}")
    print(f"prr               {'n/a' if prr is None else f'{prr:.4f}'}")
    print(f"eas               {record['eas']:.4f}")
    print(f"handled share     {record['handled_share']:.4f}")
    print(f"engagement        {record['engagement']:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slatebandit", description="Slate recommendation decision engine."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the closed serving loop on a synthetic world")
    p.add_argument("--world", required=True, help="world spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", required=True, type=int, help="policy seed")
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--horizon", type=int)
    p.add_argument("--policy", choices=["mab", "uniform", "nlb"])
    p.add_argument("--features", help="feature map JSON (nlb policy)")
    p.add_argument("--sampler", choices=["ews", "ts"])
    p.add_argument("--prior-scale", type=float)
    p.add_argument("--pcr-threshold", type=float)
    p.add_argument("--slate-length", type=int)
    p.add_argument("--direct-trigger", action="store_const", const=True)
    p.add_argument("--direct-trigger-margin", type=float)
    p.add_argument("--k-lambda", type=float)
    p.add_argument("--fixed-lambda", type=float)
    p.add_argument("--combiner", choices=[mab.COMBINER_INTERPOLATION, mab.COMBINER_NAIVE_PRODUCT])
    p.add_argument("--window-seconds", type=int)
    p.add_argument("--aggregation-seconds", type=int)
    p.add_argument("--refit-seconds", type=int)
    p.add_argument("--expansion-seconds", type=int)
    p.add_argument("--reward-mode", choices=[m.value for m in RewardMode])
    p.add_argument("--escalation-weight", type=float)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-repr", help="train the reward network on an event log")
    p.add_argument("--log", required=True, help="event log (JSONL)")
    p.add_argument("--out", required=True, help="feature map output path")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--config")
    p.add_argument("--hidden", help="comma-separated hidden sizes, e.g. 128,64")
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--embedding-dim", type=int)
    p.add_argument("--max-ngram", type=int)
    p.add_argument("--reward-mode", choices=[m.value for m in RewardMode])
    p.add_argument("--escalation-weight", type=float)
    p.set_defaults(func=cmd_train_repr)

    p = sub.add_parser("fit-bandit", help="fit the linear head from a log and feature map")
    p.add_argument("--log", required=True)
    p.add_argument("--features", required=True, help="trained feature map JSON")
    p.add_argument("--out", required=True, help="head output path")
    p.add_argument("--config")
    p.add_argument("--pcr-threshold", type=float)
    p.add_argument("--window-seconds", type=int)
    p.add_argument("--reward-mode", choices=[m.value for m in RewardMode])
    p.add_argument("--escalation-weight", type=float)
    p.set_defaults(func=cmd_fit_bandit)

    p = sub.add_parser("expand", help="promote foreign-flow actions into a context bank")
    p.add_argument("--bank", required=True, help="context bank snapshot JSON")
    p.add_argument("--foreign", required=True, help="foreign survey stats JSON")
    p.add_argument("--out-bank", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--config")
    p.add_argument("--min-trials", type=float)
    p.add_argument("--fp", type=float)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("evaluate", help="off-policy evaluation of a target policy")
    p.add_argument("--log", required=True)
    p.add_argument("--target", required=True, help="context -> action probabilities JSON")
    p.add_argument("--out", required=True, help="evaluation report path")
    p.add_argument("--config")
    p.add_argument("--variance-ceiling", type=float)
    p.add_argument("--ess-floor", type=float)
    p.add_argument("--reward-mode", choices=[m.value for m in RewardMode])
    p.add_argument("--escalation-weight", type=float)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="KPI summary of an event log")
    p.add_argument("--log", required=True)
    p.add_argument("--out", help="also write the summary JSON here")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoDataError, evaluation.MissingPropensityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
