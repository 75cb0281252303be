"""Command-line surface: the full pipeline, option precedence, exit codes.

Commands run in-process through main(argv) so exit codes and outputs are
asserted directly.
"""

import json
import re

import numpy as np
import pytest

from conftest import make_event
from slatebandit import core
from slatebandit.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from slatebandit.core import NULL_ACTION_ID, EventLog, RewardSpec, Survey
from slatebandit.features import load_feature_map
from slatebandit.linear import fit, load_head
from slatebandit.mab import ContextBank, save_bank
from slatebandit.sim import NlbPolicy


def write_world(path, skip=0.3, freetype=False):
    world = {
        "seed": 7,
        "survey_skip_rate": skip,
        "min_null_weight": 0.05,
        "freetype_enabled": freetype,
        "seconds_per_event": 60,
        "start_ts": 0,
        "contexts": [
            {
                "id": "c0",
                "weight": 1.0,
                "features": {"channel": "web"},
                "query_templates": ["reset my password", "cannot log in"],
                "freetype_p_yes": 0.4,
                "p_escalate_empty": 0.1,
                "actions": {
                    "a_good": {"p_click": 0.7, "p_yes": 0.9, "title": "Reset guide"},
                    "a_bad": {"p_click": 0.7, "p_yes": 0.1, "title": "Old article"},
                },
            }
        ],
    }
    path.write_text(json.dumps(world))
    return path


def edit_record(change):
    """A log-line edit that applies ``change`` to the line's JSON object."""

    def edit(line):
        record = json.loads(line)
        change(record)
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    return edit


class TestSimulate:
    def test_writes_the_full_output_set(self, tmp_path):
        world = write_world(tmp_path / "world.json")
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--world", str(world),
                "--out", str(out),
                "--seed", "1",
                "--horizon", "200",
                "--policy", "mab",
                "--slate-length", "2",
            ]
        )
        assert code == EXIT_OK
        assert (out / "events.jsonl").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "banks" / "c0.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["events"] == 200
        assert summary["policy"] == "mab"
        events = EventLog(out / "events.jsonl").read_all()
        assert len(events) == 200

    def test_rerun_with_same_inputs_is_byte_identical(self, tmp_path):
        world = write_world(tmp_path / "world.json")
        args = lambda out: [
            "simulate",
            "--world", str(world),
            "--out", str(out),
            "--seed", "5",
            "--horizon", "120",
            "--policy", "mab",
        ]
        assert main(args(tmp_path / "one")) == EXIT_OK
        assert main(args(tmp_path / "two")) == EXIT_OK
        for name in ("events.jsonl", "metrics.csv", "summary.json", "banks/c0.json"):
            first = (tmp_path / "one" / name).read_bytes()
            second = (tmp_path / "two" / name).read_bytes()
            assert first == second, name

    def test_uniform_policy_logs_propensities(self, tmp_path):
        world = write_world(tmp_path / "world.json")
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--world", str(world),
                "--out", str(out),
                "--seed", "2",
                "--horizon", "150",
                "--policy", "uniform",
            ]
        )
        assert code == EXIT_OK
        events = EventLog(out / "events.jsonl").read_all()
        clicked = [e for e in events if e.feedback.click is not None]
        assert clicked
        assert all(e.propensity is not None for e in clicked)


class TestOptionPrecedence:
    def test_flag_beats_config_beats_default(self, tmp_path):
        world = write_world(tmp_path / "world.json")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"horizon": 30, "policy": "uniform"}))

        out_config = tmp_path / "by_config"
        main(
            [
                "simulate",
                "--world", str(world),
                "--out", str(out_config),
                "--seed", "1",
                "--config", str(config),
            ]
        )
        summary = json.loads((out_config / "summary.json").read_text())
        assert summary["events"] == 30
        assert summary["policy"] == "uniform"

        out_flag = tmp_path / "by_flag"
        main(
            [
                "simulate",
                "--world", str(world),
                "--out", str(out_flag),
                "--seed", "1",
                "--config", str(config),
                "--horizon", "12",
            ]
        )
        summary = json.loads((out_flag / "summary.json").read_text())
        assert summary["events"] == 12
        assert summary["policy"] == "uniform"  # config still fills the gap


class TestPipeline:
    def simulate(self, tmp_path, policy="uniform", horizon=300):
        world = write_world(tmp_path / "world.json", skip=0.2)
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                "--world", str(world),
                "--out", str(out),
                "--seed", "3",
                "--horizon", str(horizon),
                "--policy", policy,
            ]
        )
        assert code == EXIT_OK
        return out

    def test_train_fit_evaluate_report_chain(self, tmp_path):
        out = self.simulate(tmp_path)
        log = out / "events.jsonl"

        fm_path = tmp_path / "feature_map.json"
        code = main(
            [
                "train-repr",
                "--log", str(log),
                "--out", str(fm_path),
                "--seed", "4",
                "--hidden", "8",
                "--epochs", "3",
                "--embedding-dim", "4",
            ]
        )
        assert code == EXIT_OK
        assert fm_path.exists()

        head_path = tmp_path / "head.json"
        code = main(
            [
                "fit-bandit",
                "--log", str(log),
                "--features", str(fm_path),
                "--out", str(head_path),
            ]
        )
        assert code == EXIT_OK
        head = load_head(head_path)
        assert head.count > 0
        assert 1 <= head.rank <= head.dim

        target = tmp_path / "target.json"
        target.write_text(json.dumps({"c0": {"a_good": 1.0}}))
        eval_path = tmp_path / "eval.json"
        code = main(
            [
                "evaluate",
                "--log", str(log),
                "--target", str(target),
                "--out", str(eval_path),
            ]
        )
        assert code == EXIT_OK
        record = json.loads(eval_path.read_text())
        assert set(record) == {"ope", "gate"}
        assert record["ope"]["n_usable"] > 0

        report_path = tmp_path / "report.json"
        code = main(["report", "--log", str(log), "--out", str(report_path)])
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["events"] == 300

    def test_offline_stages_build_no_event_objects(self, tmp_path, monkeypatch):
        log = self.simulate(tmp_path) / "events.jsonl"
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"c0": {"a_good": 1.0}}))
        fm_path = tmp_path / "feature_map.json"
        built = []
        for cls in (core.LoggedEvent, core.Slate, core.Feedback):
            def counting(self, original=cls.__post_init__, name=cls.__name__):
                built.append(name)
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)

        def no_decode(*args, **kwargs):
            raise AssertionError("decode_event called")

        monkeypatch.setattr(core, "decode_event", no_decode)
        for argv in (
            ["train-repr", "--log", str(log), "--out", str(fm_path), "--seed", "4",
             "--hidden", "8", "--epochs", "2", "--embedding-dim", "4"],
            ["fit-bandit", "--log", str(log), "--features", str(fm_path),
             "--out", str(tmp_path / "head.json")],
            ["evaluate", "--log", str(log), "--target", str(target),
             "--out", str(tmp_path / "eval.json")],
            ["report", "--log", str(log), "--out", str(tmp_path / "report.json")],
        ):
            assert main(argv) == EXIT_OK
        assert built == []
        make_event()  # the counters do count
        assert built == ["Slate", "Feedback", "LoggedEvent"]

    def test_offline_head_matches_the_online_fold_of_the_same_log(self, tmp_path):
        # Free-text turns attribute surveys to the null slot; the online
        # NlbPolicy.aggregate absorbs them, so fit-bandit must as well.
        world = write_world(tmp_path / "world.json", skip=0.2, freetype=True)
        log = tmp_path / "run" / "events.jsonl"
        fm_path = tmp_path / "feature_map.json"
        head_path = tmp_path / "head.json"
        for argv in (
            ["simulate", "--world", str(world), "--out", str(tmp_path / "run"),
             "--seed", "3", "--horizon", "300", "--policy", "uniform"],
            ["train-repr", "--log", str(log), "--out", str(fm_path), "--seed", "4",
             "--hidden", "8", "--epochs", "3", "--embedding-dim", "4"],
            ["fit-bandit", "--log", str(log), "--features", str(fm_path),
             "--out", str(head_path)],
        ):
            assert main(argv) == EXIT_OK
        events = EventLog(log).read_all()
        assert any(
            e.feedback.click is not None and e.slate.items[e.feedback.click].is_null_item
            and e.feedback.survey is not Survey.SKIPPED
            for e in events
        )
        feature_map = load_feature_map(fm_path)
        policy = NlbPolicy(
            feature_fn=feature_map.transform, dim=feature_map.dim, reward_spec=RewardSpec()
        )
        policy.aggregate(events, now=events[-1].ts + 1)
        online = fit(policy.stats)
        offline = load_head(head_path)
        assert offline.count == online.count
        assert np.array_equal(offline.weights, online.weights)

    def test_target_policy_star_fallback(self, tmp_path):
        out = self.simulate(tmp_path)
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"*": {"a_good": 1.0}}))
        code = main(
            [
                "evaluate",
                "--log", str(out / "events.jsonl"),
                "--target", str(target),
                "--out", str(tmp_path / "eval.json"),
            ]
        )
        assert code == EXIT_OK


class TestExpandCommand:
    def test_promotes_into_a_saved_bank(self, tmp_path):
        bank = ContextBank(context_id="c0")
        bank.click_arm("a_good").add(0, 5.0, 10.0)
        bank.survey_arm(NULL_ACTION_ID).add(0, 2.0, 10.0)
        bank_path = tmp_path / "bank.json"
        save_bank(bank, bank_path)

        foreign_path = tmp_path / "foreign.json"
        foreign_path.write_text(
            json.dumps({"candidate": {"entries": [[0, 18.0, 20.0]]}})
        )
        out_bank = tmp_path / "bank_after.json"
        report_path = tmp_path / "expansion.json"
        code = main(
            [
                "expand",
                "--bank", str(bank_path),
                "--foreign", str(foreign_path),
                "--out-bank", str(out_bank),
                "--report", str(report_path),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["promoted"] == ["candidate"]
        from slatebandit.mab import load_bank

        after = load_bank(out_bank)
        assert after.survey_stats["candidate"].trials == 20.0

    def test_sampling_options_are_gone_and_their_config_key_is_ignored(self, tmp_path):
        bank = ContextBank(context_id="c0")
        bank.survey_arm(NULL_ACTION_ID).add(0, 2.0, 10.0)
        save_bank(bank, tmp_path / "bank.json")
        (tmp_path / "foreign.json").write_text(
            json.dumps({"candidate": {"entries": [[0, 18.0, 20.0]]}})
        )
        (tmp_path / "config.json").write_text(json.dumps({"mc-draws": 10}))
        argv = [
            "expand",
            "--bank", str(tmp_path / "bank.json"),
            "--foreign", str(tmp_path / "foreign.json"),
            "--out-bank", str(tmp_path / "after.json"),
            "--report", str(tmp_path / "report.json"),
        ]
        for extra in (["--seed", "0"], ["--mc-draws", "10"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv + extra)
            assert excinfo.value.code == EXIT_CONFIG
        assert main(argv + ["--config", str(tmp_path / "config.json")]) == EXIT_OK
        assert json.loads((tmp_path / "report.json").read_text())["promoted"] == ["candidate"]

    def test_bank_without_null_reference_is_a_runtime_error(self, tmp_path):
        bank = ContextBank(context_id="c0")
        bank.click_arm("a_good").add(0, 5.0, 10.0)
        bank_path = tmp_path / "bank.json"
        save_bank(bank, bank_path)
        foreign_path = tmp_path / "foreign.json"
        foreign_path.write_text(json.dumps({"candidate": {"entries": [[0, 18.0, 20.0]]}}))
        code = main(
            [
                "expand",
                "--bank", str(bank_path),
                "--foreign", str(foreign_path),
                "--out-bank", str(tmp_path / "after.json"),
                "--report", str(tmp_path / "report.json"),
            ]
        )
        assert code == EXIT_RUNTIME


class TestExitCodes:
    def test_missing_world_file_is_a_config_error(self, tmp_path):
        code = main(
            [
                "simulate",
                "--world", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "out"),
                "--seed", "1",
            ]
        )
        assert code == EXIT_CONFIG

    def test_malformed_config_json_is_a_config_error(self, tmp_path):
        world = write_world(tmp_path / "world.json")
        config = tmp_path / "config.json"
        config.write_text("{not json")
        code = main(
            [
                "simulate",
                "--world", str(world),
                "--out", str(tmp_path / "out"),
                "--seed", "1",
                "--config", str(config),
            ]
        )
        assert code == EXIT_CONFIG

    def test_unknown_policy_in_config_is_a_config_error(self, tmp_path):
        world = write_world(tmp_path / "world.json")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"policy": "astrology"}))
        code = main(
            [
                "simulate",
                "--world", str(world),
                "--out", str(tmp_path / "out"),
                "--seed", "1",
                "--config", str(config),
            ]
        )
        assert code == EXIT_CONFIG

    def test_nlb_without_features_is_a_config_error(self, tmp_path):
        world = write_world(tmp_path / "world.json")
        code = main(
            [
                "simulate",
                "--world", str(world),
                "--out", str(tmp_path / "out"),
                "--seed", "1",
                "--policy", "nlb",
            ]
        )
        assert code == EXIT_CONFIG

    def test_missing_log_is_a_config_error(self, tmp_path):
        code = main(["report", "--log", str(tmp_path / "absent.jsonl")])
        assert code == EXIT_CONFIG

    def test_empty_log_is_a_runtime_error(self, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text("")
        code = main(["report", "--log", str(log)])
        assert code == EXIT_RUNTIME

    def test_log_of_blank_lines_is_a_runtime_error(self, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text("\n  \n\n")
        assert main(["report", "--log", str(log)]) == EXIT_RUNTIME
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"*": {"a_good": 1.0}}))
        argv = ["evaluate", "--log", str(log), "--target", str(target),
                "--out", str(tmp_path / "eval.json")]
        assert main(argv) == EXIT_RUNTIME

    @pytest.mark.parametrize(
        "edit",
        [
            lambda line: "[1,2]",
            lambda line: line.replace('"slate":{', '"slate":5,"was":{', 1),
            lambda line: re.sub(r'"escalation":(true|false)', r'"escalation":"\1"', line),
            lambda line: line.replace('"ts":', '"propensity":true,"ts":', 1),
            lambda line: re.sub(r'"scores":\[[^,\]]*', '"scores":[true', line),
            lambda line: re.sub(r'"policy":"[^"]*"', '"policy":5', line),
            lambda line: re.sub(r'"query":(null|"[^"]*")', '"query":7', line),
            lambda line: line.replace('"v":2}', '"v":3}'),
            edit_record(lambda r: r.__setitem__(
                "posteriors", {item["id"]: [True, 1] for item in r["slate"]["items"]})),
            edit_record(lambda r: r.__setitem__(
                "posteriors", {item["id"]: ["1", "2"] for item in r["slate"]["items"]})),
            edit_record(lambda r: r["ctx"].__setitem__("id", 5)),
            edit_record(lambda r: r["ctx"].__setitem__("id", "")),
        ],
        ids=[
            "line-not-an-object", "slate-not-an-object", "escalation-not-a-boolean",
            "propensity-a-boolean", "score-a-boolean", "policy-a-number", "query-a-number",
            "unknown-version", "posterior-a-boolean", "posterior-strings", "ctx-id-a-number",
            "ctx-id-empty",
        ],
    )
    def test_malformed_log_line_is_a_runtime_error(self, tmp_path, edit):
        world = write_world(tmp_path / "world.json")
        out = tmp_path / "run"
        argv = ["simulate", "--world", str(world), "--out", str(out), "--seed", "1",
                "--horizon", "20", "--policy", "uniform"]
        assert main(argv) == EXIT_OK
        lines = (out / "events.jsonl").read_text().splitlines()
        edited = edit(lines[7])
        assert edited != lines[7]
        lines[7] = edited
        log = tmp_path / "bad.jsonl"
        log.write_text("\n".join(lines) + "\n")
        assert main(["report", "--log", str(log)]) == EXIT_RUNTIME
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"c0": {"a_good": 1.0}}))
        argv = ["evaluate", "--log", str(log), "--target", str(target),
                "--out", str(tmp_path / "eval.json")]
        assert main(argv) == EXIT_RUNTIME

    def test_evaluate_without_propensities_is_a_runtime_error(self, tmp_path):
        # the discrete policy logs posteriors, not propensities, so its raw
        # log cannot feed the estimator directly
        world = write_world(tmp_path / "world.json", skip=0.0)
        out = tmp_path / "run"
        main(
            [
                "simulate",
                "--world", str(world),
                "--out", str(out),
                "--seed", "1",
                "--horizon", "200",
                "--policy", "mab",
            ]
        )
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"c0": {"a_good": 1.0}}))
        code = main(
            [
                "evaluate",
                "--log", str(out / "events.jsonl"),
                "--target", str(target),
                "--out", str(tmp_path / "eval.json"),
            ]
        )
        assert code == EXIT_RUNTIME

    def test_invalid_expansion_rate_is_a_runtime_error(self, tmp_path):
        bank = ContextBank(context_id="c0")
        bank.survey_arm(NULL_ACTION_ID).add(0, 2.0, 10.0)
        bank_path = tmp_path / "bank.json"
        save_bank(bank, bank_path)
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({}))
        code = main(
            [
                "expand",
                "--bank", str(bank_path),
                "--foreign", str(foreign),
                "--out-bank", str(tmp_path / "after.json"),
                "--report", str(tmp_path / "report.json"),
                "--fp", "1.5",
            ]
        )
        assert code == EXIT_RUNTIME

    def test_unknown_subcommand_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["transmogrify"])
        assert excinfo.value.code == 2
