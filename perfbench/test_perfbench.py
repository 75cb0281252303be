"""The benchmark's own tests: determinism, broken inputs, tracing, exit codes.

They run small units of each workload, so they finish in well under a minute.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import child
import run
import workloads
from slatebandit import cli, sim
from slatebandit.core import NoDataError
from spans import SPAN_NAMES, Probe, per_layer_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = {
    "discrete": {"horizon": 1500},
    "neural": {"horizon": 600, "uniform_horizon": 1500},
}


def _unit(tmp, workload, seed, trace=False):
    setup_dir = os.path.join(tmp, f"{workload}-{seed}-setup")
    out = os.path.join(tmp, f"{workload}-{seed}-{'traced' if trace else 'run'}")
    if not os.path.exists(setup_dir):
        workloads.setup(workload, seed, setup_dir, SMALL[workload])
    with Probe(trace=trace) as probe:
        result = workloads.run_unit(workload, seed, setup_dir, out, SMALL[workload], probe)
    return result, setup_dir, out, probe


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_digest_repeats_for_a_seed_and_changes_with_it(tmp_path, workload):
    first, setup_dir, out, _ = _unit(str(tmp_path / "a"), workload, 5)
    again, setup_again, out_again, _ = _unit(str(tmp_path / "b"), workload, 5)
    other, setup_other, out_other, _ = _unit(str(tmp_path / "c"), workload, 6)
    assert set(first.exit_codes.values()) <= {0}
    assert checks.digest(setup_dir, out) == checks.digest(setup_again, out_again)
    assert checks.digest(setup_dir, out) != checks.digest(setup_other, out_other)


@pytest.fixture(scope="module")
def discrete_run(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("discrete"))
    result, setup_dir, out, _ = _unit(tmp, "discrete", 3)
    world = sim.load_world(os.path.join(setup_dir, "world.json"))
    return result, world, os.path.join(out, "events.jsonl")


def test_clean_log_passes_every_event_check(discrete_run):
    result, world, log_path = discrete_run
    tally = checks.Tally()
    summary = checks.check_log(log_path, world, result.promoted, tally)
    assert (tally.attempted, tally.failed) == (result.horizon, 0)
    assert summary.events == result.horizon
    assert summary.regret_last_tenth < summary.floor_last_tenth


def _broken_copy(tmp_path, log_path, edit):
    with open(log_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines = edit(lines)
    path = tmp_path / "broken.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def _edit_record(change):
    """Apply ``change`` to the first event that served at least two articles."""

    def edit(lines):
        for index, line in enumerate(lines):
            record = json.loads(line)
            if len(record["slate"]["items"]) >= 3:
                change(record)
                lines[index] = json.dumps(record, sort_keys=True, separators=(",", ":"))
                return lines
        raise AssertionError("no event served two articles")

    return edit


def _after_null(record):
    slate = record["slate"]
    slate["items"].append(slate["items"].pop(0))
    slate["scores"].append(slate["scores"].pop(0))
    record["click"] = None


def _foreign_article(record):
    record["slate"]["items"][0]["id"] = "not_in_any_pool"
    if record["posteriors"] is not None:
        record["posteriors"]["not_in_any_pool"] = [0.0, 0.0]


def _bad_propensity(record):
    record["propensity"] = 1.5


# broken log -> the reason its first failure gives
BROKEN = {
    "torn last line": (lambda lines: lines[:-1] + [lines[-1][: len(lines[-1]) // 2]],
                       "does not decode"),
    "blank line": (lambda lines: lines[:10] + [""] + lines[10:], "does not decode"),
    "content after the null item": (_edit_record(_after_null), "neither ends at the null item"),
    "article outside the pool": (_edit_record(_foreign_article), "neither in the pool nor promoted"),
    "propensity above one": (_edit_record(_bad_propensity), "propensity must lie in (0, 1]"),
    "not byte-identical on re-encode": (
        lambda lines: [lines[0].replace(",", ", ", 1)] + lines[1:], "re-encode"),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_broken_log_makes_the_failed_share_non_zero(tmp_path, discrete_run, name):
    result, world, log_path = discrete_run
    edit, reason = BROKEN[name]
    broken = _broken_copy(tmp_path, log_path, edit)
    tally = checks.Tally()
    checks.check_log(broken, world, result.promoted, tally)
    assert tally.failed >= 1, name
    assert reason in tally.failures[0], tally.failures


def test_wrong_snips_oracle_fails_and_the_right_one_passes(tmp_path):
    _, setup_dir, out, _ = _unit(str(tmp_path), "neural", 4)
    world = sim.load_world(os.path.join(setup_dir, "world.json"))
    truth = checks.snips_truth(world, 4, workloads.MAX_LENGTH)
    eval_path = os.path.join(out, "eval.json")
    right = checks.Tally()
    found = checks.check_snips(eval_path, truth, right)
    assert right.failed == 0
    wrong = checks.Tally()
    checks.check_snips(eval_path, truth + 5.0 * found["sigma"] + 0.5, wrong)
    assert (wrong.attempted, wrong.failed) == (1, 1)


def test_learning_check_fails_when_regret_reaches_the_floor():
    tally = checks.Tally()
    checks.check_learning(checks.LogSummary(events=10, regret_last_tenth=0.3, floor_last_tenth=0.3), tally)
    assert tally.failed == 1


def test_traced_unit_counts_calls_and_leaves_artifacts_and_package_unchanged(tmp_path):
    originals = {name: getattr(sim, name) for name in ("run", "step")}
    plain, setup_dir, out, _ = _unit(str(tmp_path), "discrete", 8)
    traced, _, traced_out, probe = _unit(str(tmp_path), "discrete", 8, trace=True)
    assert {name: getattr(sim, name) for name in originals} == originals
    assert checks.digest(setup_dir, out) == checks.digest(setup_dir, traced_out)
    calls = dict(zip(SPAN_NAMES, probe.calls))
    assert calls["sim.step"] == calls["sim.MabPolicy.decide"] == traced.horizon
    assert calls["core.EventLog.append"] == calls["core.encode_event"] == traced.horizon
    assert calls["features.forward"] == calls["linear.ts_sample"] == 0
    assert calls["mab.pre_sample"] > 0 and calls["expansion.expand"] > 0
    # self times never exceed the wall time of the run they sit in
    stage_total_s = sum(map(sum, traced.stage_times.values()))
    assert sum(probe.self_ns) / 1e9 <= traced.run_s + stage_total_s + 1.0
    assert len(probe.span_name) == sum(probe.calls)
    assert min(probe.self_ns) >= 0


def _phases(tmp_path, monkeypatch, workload, seed):
    """Set-up and timed process 0 of a small run, in this process."""
    monkeypatch.setattr(workloads, "SIZES", SMALL)
    monkeypatch.setattr(child, "SETUP_MIN", 1)
    monkeypatch.setattr(child, "SETUP_MIN_S", 0.0)
    args = argparse.Namespace(workload=workload, seed=seed, work=str(tmp_path), index=0,
                              trace=0, trace_file=None, phase="setup")
    setup = child.run_phase(args)
    args.phase = "timed"
    timed = child.run_phase(args)
    with open(timed["gaps_file"], "rb") as fh:
        gaps = np.frombuffer(fh.read())
    return run.summarise(workload, setup, [timed], gaps, trace=False)


def test_clean_small_run_reports_every_metric_and_no_failure(tmp_path, monkeypatch):
    outcome = _phases(tmp_path, monkeypatch, "neural", 2)
    result = outcome["result"]
    assert result["correct"] and result["failed"] == 0, outcome["details"]["failures"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_a_unit_the_program_fails_on_is_a_failed_operation(tmp_path, monkeypatch):
    # A policy that gives every served article a propensity of 0.0 after 300
    # requests: the first clicked event is refused and sim.run raises.
    decide = sim.NlbPolicy.decide
    calls = []

    def underflowing(self, *args, **kwargs):
        decision = decide(self, *args, **kwargs)
        calls.append(1)
        if len(calls) > 300:
            decision.propensities = {item.action_id: 0.0 for item in decision.served.items}
        return decision

    monkeypatch.setattr(sim.NlbPolicy, "decide", underflowing)
    outcome = _phases(tmp_path, monkeypatch, "neural", 2)
    result, details = outcome["result"], outcome["details"]
    assert not result["correct"] and result["failed"] >= 1
    assert any("propensity must lie in (0, 1]" in f for f in details["failures"])
    assert result["metrics"]["events_per_s"]["value"] > 0  # measured up to the failure


def test_a_cli_stage_that_exits_non_zero_is_a_failed_operation(tmp_path, monkeypatch):
    def refuse(args):
        raise NoDataError("no usable events")

    monkeypatch.setattr(cli, "cmd_fit_bandit", refuse)
    outcome = _phases(tmp_path, monkeypatch, "neural", 2)
    result, details = outcome["result"], outcome["details"]
    assert not result["correct"]
    assert any("cli stage fit_bandit exited" in f for f in details["failures"])
    assert result["metrics"]["serve_p50_us"]["value"] == 0.0  # nothing was served


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "discrete", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_declares_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == per_layer_units()
