"""Golden digests: seeded runs pinned to SHA-256 values of their artifacts.

``test_11`` in the acceptance file compares two runs of the same code, so it
cannot see a change that moves the RNG stream or the arithmetic. These
digests were recorded once and must not move when the code is refactored;
a change that moves them on purpose has to say why and pin new values.

Every run's event log is written through ``EventLog`` and goes through
``check_log``: each line must decode to the event the run served and be the
reference v2 encoding of it, the event's v1 line must decode to the same
event and re-encode to the v2 line, and the log's first read must leave a
column sidecar whose columns equal those parsed from the JSONL and those of
the served events. The sidecars that first read writes beside the CLI's logs
are pinned with the other ``simulate`` outputs.

The offline stages' ``--out`` JSON (``evaluate`` and ``report``) is pinned
too, over the uniform log of the learned-feature pipeline and over the
``cli_mab`` log (``report`` only: that log has no propensities).

The runs are small (a few hundred to a thousand events each) and cover the
CLI ``simulate`` outputs for the discrete and uniform policies with free-text
turns on, the discrete policy with the safe gate and pool expansion, the
neural-linear policy with both samplers, and the learned-feature pipeline
(``train-repr``, ``fit-bandit`` and ``simulate --policy nlb --features``).
"""

import hashlib
import json
import os

import numpy as np
import pytest

from conftest import encode_v1, encode_v2
from slatebandit import core, mab, sim
from slatebandit.cli import EXIT_OK, main
from slatebandit.core import (
    Action,
    EventLog,
    LogColumns,
    RewardSpec,
    Slate,
    decode_event,
    encode_event,
    null_item,
    read_columns,
)
from slatebandit.expansion import ExpansionConfig
from slatebandit.sim import (
    FeatureTable,
    MabPolicy,
    NlbPolicy,
    Schedule,
    WorldSpec,
    run,
    write_metrics_csv,
)
from slatebandit.slates import SlatePolicyConfig

WORLD = {
    "seed": 13,
    "survey_skip_rate": 0.3,
    "min_null_weight": 0.05,
    "freetype_enabled": True,
    "seconds_per_event": 60,
    "start_ts": 0,
    "contexts": [
        {
            "id": "account",
            "weight": 0.5,
            "features": {"channel": "web", "tier": "free"},
            "query_templates": ["reset my password", "cannot log in", "locked out"],
            "freetype_p_yes": 0.4,
            "p_escalate_empty": 0.2,
            "actions": {
                "acc_reset": {"p_click": 0.6, "p_yes": 0.85, "title": "Reset your password",
                              "p_escalate_on_failure": 0.3},
                "acc_login": {"p_click": 0.5, "p_yes": 0.55, "title": "Login troubleshooting"},
                "acc_2fa": {"p_click": 0.3, "p_yes": 0.7, "title": "Two factor setup"},
                "acc_old": {"p_click": 0.4, "p_yes": 0.15, "title": "Legacy account page",
                            "p_escalate_on_failure": 0.5},
                "acc_new": {"p_click": 0.45, "p_yes": 0.9, "title": "Account recovery wizard",
                            "in_pool": False},
            },
        },
        {
            "id": "billing",
            "weight": 0.3,
            "features": {"channel": "app", "tier": "plus"},
            "query_templates": ["refund my order", "double charged"],
            "freetype_p_yes": 0.6,
            "p_escalate_empty": 0.1,
            "actions": {
                "bil_refund": {"p_click": 0.55, "p_yes": 0.6, "title": "Request a refund"},
                "bil_charge": {"p_click": 0.35, "p_yes": 0.8, "title": "Duplicate charges"},
                "bil_invoice": {"p_click": 0.25, "p_yes": 0.3, "title": "Download an invoice"},
            },
        },
        {
            "id": "delivery",
            "weight": 0.2,
            "features": {"channel": "chat", "tier": "free"},
            "query_templates": ["where is my package"],
            "freetype_p_yes": 0.5,
            "p_escalate_empty": 0.0,
            "actions": {
                "del_track": {"p_click": 0.7, "p_yes": 0.75, "title": "Track a package"},
                "del_late": {"p_click": 0.3, "p_yes": 0.4, "title": "Late deliveries"},
            },
        },
    ],
}

# name -> SHA-256 of the artifact's bytes
PINNED = {
    "cli_mab": {
        "events.jsonl": "9563df350ece8f3f851e118859b518b65a5103c25084c0f328a0c30f6e3e3f4a",
        "events.jsonl.cols.npz": "1b3a912d6cac990cb4766f12e4dba763545ed10dcb3a8ac376c07627d9476ccd",
        "metrics.csv": "d580f111d7ceb37ca56d43701123488627faded072f2fd1a5274f7adccee7ee4",
        "summary.json": "7e45b1733840467722fca8cac8de8c8e4daba352331e5ddf1cd7deb996cf8f9c",
        "banks/account.json": "4e259814082c876cd6f6435ab64ad5f118e9767827caeae9bffa8bf29bd562d9",
        "banks/billing.json": "a3ac04ec3fd1155cf034046e5644b6ce7d0b99f68bec7f3722d99f3f572c8213",
        "banks/delivery.json": "839d8452aa98c67fe47c267b0e39b9c2ae9e39b5e9874677cf3a669e0765ee7e",
    },
    "cli_uniform": {
        "events.jsonl": "c43c74507921edaa1203f7ffe08d61f8dad4ac09ccaf353d77782e446aefa09b",
        "events.jsonl.cols.npz": "895fd9c8a19aaf7b0fe27e39db08713257130de661cec41cda98ee6586d7a488",
        "metrics.csv": "bedcf0d8f016135a1861f4c3403c6e03b88c8cfb7e76090314c5343ee4d244b0",
        "summary.json": "fe77e78afdb5342cc367aa597529a40a1e99771b7cb32d223cd0a57715c70f23",
    },
    "mab_gate_expansion": {
        "events": "cd25951a4b1ddc1842566730be134dc7a759afc0f9686f0df6693f874c3a4641",
        "metrics.csv": "f0ab9d355a4fbe64aadbf276cab539807ef6c0e437d8cf02498baa90d44fe9e0",
        "banks": "de50fb25673eadf70f705375b1b8e35e2047b1cf338545b585543dae4e23a0ff",
        "expansion_reports": "387ae9fdec36a934d18eec73c6419343e1ddc5b1cedf4157852f64d603793a07",
    },
    "nlb_ts": {
        "events": "f7a1be10521b14a1e0cf796bc434c97daad37f0943838f2cc3c4d8f3a30c6eae",
        "metrics.csv": "1000051a8983cac32b9bc6cb3e5867f6c87615a36807e5ffc55f28697a7d20ff",
    },
    "cli_learned_features": {
        "fmap.json": "6ae6e8035f2b78fd550c68cacca215a638b9976495f147f56de5e0c3c9c7ae49",
        "head.json": "5f065b8f9ced3b46a9b326064270aacbf41a60e8865fa68d17fd695052492ad7",
        "events.jsonl": "cd020ad139dedadccf873eae8e7aadb3dc645321676006751ce598c204520de5",
        "events.jsonl.cols.npz": "22a2091676bc184c1d2b7c9a8ef62d702ca782d7e77617ed558fba1bf3bca184",
    },
    # the offline stages' JSON, over the logs the two CLI runs above write
    "cli_learned_features_offline": {
        "evaluate.json": "3c9df11cce5b4e826332d6dc279a4da76bf24ce912e1a565265b45d4d68da913",
        "report.json": "ef5a3421800a661a1559d0b3920ae1a8ab3cccb6b81b2d267cf361d1a002e7ef",
    },
    "cli_mab_offline": {
        "report.json": "2d3baa27cd57af39313c22ace861b275c380344d2dc8c7730dceeaf7dd62ca6f",
    },
    "nlb_ews": {
        "events": "1d3e6dd69fd7d423d5e55c901b924f0b77f3f30c379022f9b44925948872d90e",
        "metrics.csv": "f4d077cacb61dd7d4b30e2bd14eef88b66863d209377ea366b28a2e96bf7ba69",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def world_spec() -> WorldSpec:
    return WorldSpec.from_dict(WORLD)


def check_log(path, served) -> None:
    """The log at ``path`` holds the ``served`` events losslessly, in v2, and
    their v1 lines read back as the same events. Its first read leaves a
    column sidecar that reads back as the columns of the events."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    decoded = [decode_event(line) for line in lines]
    assert decoded == served
    columns = read_columns(path)
    from_sidecar = core._sidecar_columns(os.fspath(path))
    assert from_sidecar is not None
    assert columns == from_sidecar == LogColumns.from_events(served)
    assert from_sidecar == core._parse_columns(path)[0]
    assert "".join(encode_event(e) + "\n" for e in decoded) == text
    assert lines == [encode_v2(e) for e in served]
    for event, line in zip(served, lines):
        from_v1 = decode_event(encode_v1(event))
        assert from_v1 == decode_event(line)
        assert encode_event(from_v1) == line


@pytest.fixture
def served_runs(monkeypatch):
    """The events of every ``sim.run`` the CLI makes, in call order."""
    runs = []
    real_run = sim.run

    def recording_run(*args, **kwargs):
        result = real_run(*args, **kwargs)
        runs.append(result.events)
        return result

    monkeypatch.setattr(sim, "run", recording_run)
    return runs


def cli_digests(tmp_path, served_runs, policy: str, extra: list[str]) -> dict[str, str]:
    world_path = tmp_path / "world.json"
    world_path.write_text(json.dumps(WORLD))
    out = tmp_path / policy
    argv = [
        "simulate", "--world", str(world_path), "--out", str(out), "--seed", "21",
        "--horizon", "600", "--policy", policy, "--aggregation-seconds", "3600",
    ]
    assert main(argv + extra) == EXIT_OK
    check_log(out / "events.jsonl", served_runs[-1])
    return {
        p.relative_to(out).as_posix(): sha256(p.read_bytes())
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


# a fixed target for ``evaluate`` over the golden world's contexts
TARGET = {
    "account": {"acc_reset": 0.7, "acc_2fa": 0.3},
    "billing": {"bil_charge": 1.0},
    "*": {"del_track": 0.8, "__null__": 0.2},
}


def offline_digests(tmp_path, log, stages) -> dict[str, str]:
    """SHA-256 of the ``--out`` JSON of each offline stage in ``stages``
    (``evaluate`` against ``TARGET``, ``report``) over ``log``."""
    target = tmp_path / "target.json"
    target.write_text(json.dumps(TARGET))
    got = {}
    for stage in stages:
        out = tmp_path / f"{stage}.json"
        extra = ["--target", str(target)] if stage == "evaluate" else []
        assert main([stage, "--log", str(log), "--out", str(out), *extra]) == EXIT_OK
        got[out.name] = sha256(out.read_bytes())
    return got


def run_digests(tmp_path, result) -> dict[str, str]:
    log = tmp_path / "events.jsonl"
    with EventLog(log) as writer:
        for event in result.events:
            writer.append(event)
    events = "".join(encode_event(e) + "\n" for e in result.events)
    assert log.read_text(encoding="utf-8") == events
    check_log(log, result.events)
    csv_path = tmp_path / "metrics.csv"
    write_metrics_csv(result.windows, csv_path)
    return {"events": sha256(events.encode()), "metrics.csv": sha256(csv_path.read_bytes())}


def test_cli_simulate_mab(tmp_path, served_runs):
    extra = ["--direct-trigger", "--direct-trigger-margin", "0.3"]
    got = cli_digests(tmp_path, served_runs, "mab", extra)
    assert got == PINNED["cli_mab"]
    log = tmp_path / "mab" / "events.jsonl"
    assert offline_digests(tmp_path, log, ["report"]) == PINNED["cli_mab_offline"]


def test_cli_simulate_uniform(tmp_path, served_runs):
    got = cli_digests(tmp_path, served_runs, "uniform", ["--slate-length", "3"])
    assert got == PINNED["cli_uniform"]


def test_mab_with_safe_gate_and_expansion(tmp_path):
    world = world_spec()
    baselines = {
        "account": Slate(items=[Action("acc_login", "Login troubleshooting"), null_item()],
                         scores=[0.0, 0.0]),
        "billing": Slate(items=[Action("bil_refund", "Request a refund"),
                                Action("bil_charge", "Duplicate charges"), null_item()],
                         scores=[0.0, 0.0, 0.0]),
    }
    foreign = mab.ArmStats()
    foreign.add(0, 27.0, 30.0)
    weak = mab.ArmStats()
    weak.add(0, 3.0, 4.0)
    policy = MabPolicy(
        slate_config=SlatePolicyConfig(max_length=4, safe_exploration=True, baselines=baselines),
        window_seconds=6 * 3600,
        pre_sample_k=3,
        foreign_stats={"account": {"acc_new": foreign, "acc_weak": weak}},
        expansion_config=ExpansionConfig(),
    )
    schedule = Schedule(horizon=1000, aggregation_seconds=3600, expansion_seconds=4 * 3600)
    result = run(world, policy, schedule, policy_seed=8)
    got = run_digests(tmp_path, result)
    for context_id in sorted(policy.banks):
        mab.save_bank(policy.banks[context_id], tmp_path / f"{context_id}.json")
    banks = b"".join((tmp_path / f"{c}.json").read_bytes() for c in sorted(policy.banks))
    reports = json.dumps([r.to_dict() for r in policy.expansion_reports], sort_keys=True)
    got["banks"] = sha256(banks)
    got["expansion_reports"] = sha256(reports.encode())
    assert any(r.promoted for r in policy.expansion_reports)
    assert any(used for _, _, used in policy.gate_audit)
    assert got == PINNED["mab_gate_expansion"]


def feature_table(world: WorldSpec, dim: int) -> FeatureTable:
    rng = np.random.default_rng(99)
    table = {}
    for ctx in world.contexts:
        for action_id in sorted(ctx.actions) + [null_item().action_id]:
            table[(ctx.context_id, action_id)] = rng.normal(size=dim)
    return FeatureTable(table, dim=dim)


@pytest.mark.parametrize("sampler", ["ts", "ews"])
def test_nlb_over_a_feature_table(tmp_path, sampler):
    world = world_spec()
    policy = NlbPolicy(
        feature_fn=feature_table(world, 6),
        dim=6,
        reward_spec=RewardSpec(),
        slate_config=SlatePolicyConfig(max_length=4),
        sampler=sampler,
    )
    schedule = Schedule(horizon=800, aggregation_seconds=3600, refit_seconds=3600)
    result = run(world, policy, schedule, policy_seed=4)
    assert policy.head is not None
    assert run_digests(tmp_path, result) == PINNED[f"nlb_{sampler}"]


def test_cli_learned_feature_pipeline(tmp_path, served_runs):
    world_path = tmp_path / "world.json"
    world_path.write_text(json.dumps(WORLD))
    log = tmp_path / "uniform" / "events.jsonl"
    fmap = tmp_path / "fmap.json"
    head = tmp_path / "head.json"
    served = tmp_path / "nlb" / "events.jsonl"
    for argv in (
        ["simulate", "--world", str(world_path), "--out", str(log.parent), "--seed", "31",
         "--horizon", "400", "--policy", "uniform", "--slate-length", "3"],
        ["train-repr", "--log", str(log), "--out", str(fmap), "--seed", "5",
         "--hidden", "16,8", "--epochs", "4", "--embedding-dim", "8"],
        ["fit-bandit", "--log", str(log), "--features", str(fmap), "--out", str(head)],
        ["simulate", "--world", str(world_path), "--out", str(served.parent), "--seed", "32",
         "--horizon", "400", "--policy", "nlb", "--sampler", "ts", "--features", str(fmap),
         "--slate-length", "4", "--aggregation-seconds", "3600"],
    ):
        assert main(argv) == EXIT_OK
    check_log(log, served_runs[0])
    check_log(served, served_runs[1])
    got = {
        "fmap.json": sha256(fmap.read_bytes()),
        "head.json": sha256(head.read_bytes()),
        "events.jsonl": sha256(served.read_bytes()),
        "events.jsonl.cols.npz": sha256(served.with_name("events.jsonl.cols.npz").read_bytes()),
    }
    assert got == PINNED["cli_learned_features"]
    offline = offline_digests(tmp_path, log, ["evaluate", "report"])
    assert offline == PINNED["cli_learned_features_offline"]
