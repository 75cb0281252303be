"""slatebandit benchmark: one workload (or both), measured and checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload discrete --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a traced unit. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Set-up and every timed
unit run in child processes of their own (``child.py``). Working files go
under ``.perfbench/`` in the current directory and are removed at the end,
except the span file of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from array import array

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("discrete", "neural")
BUDGET_S = 170.0  # every run must end within 180 s
MIN_PROCESSES = 3
MIN_GAPS = 10_000

# name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "ev/s",
    "serve_p50_us": "us",
    "serve_p99_us": "us",
    "serve_p999_us": "us",
    "peak_rss_mb": "MB",
    "log_bytes_per_event": "B",
    "replay_s": "s",
}


class BenchError(RuntimeError):
    pass


def _git_commit(root: str) -> str | None:
    """HEAD of a git checkout at ``root``; None elsewhere."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(package: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def _child(phase: str, argv: list[str], env: dict, deadline: float, result: str) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {phase} phase")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), phase, *argv, "--result", result]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{phase} phase did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{phase} phase exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _pooled_gaps(timed: list[dict]) -> np.ndarray:
    pooled = array("d")
    for part in timed:
        with open(part["gaps_file"], "rb") as fh:
            pooled.frombytes(fh.read())
    return np.asarray(pooled)


def run_workload(root: str, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    package = os.path.join(root, "src", "slatebandit")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise BenchError(f"no slatebandit sources under {os.path.join(root, 'src')}")
    deadline = time.monotonic() + BUDGET_S
    base = os.path.join(root, ".perfbench")
    work = os.path.join(base, f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}")
    os.makedirs(work)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    common = ["--workload", workload, "--seed", str(seed), "--work", work]
    trace_file = os.path.join(base, f"trace-{workload}-s{seed}.npz") if trace else None
    try:
        setup = _child("setup", common, env, deadline, os.path.join(work, "setup.json"))
        # One unit per timed process, processes one after the other until
        # --seconds have passed, MIN_PROCESSES have run and MIN_GAPS serve
        # gaps are pooled: no single process's memory layout or
        # garbage-collector timing sets a run's figures. A traced run has one.
        # A failed operation ends the run: every process gets the same inputs.
        started = time.monotonic()
        timed = []
        n_gaps = 0
        while not setup["tally"]["failed"] and not (timed and (
            timed[-1]["tally"]["failed"]
            or trace
            or (time.monotonic() - started >= seconds
                and len(timed) >= MIN_PROCESSES
                and n_gaps >= MIN_GAPS)
        )):
            index = len(timed)
            argv = [*common, "--index", str(index), "--trace", str(int(trace))]
            if trace_file:
                argv += ["--trace-file", trace_file]
            timed.append(_child("timed", argv, env, deadline, os.path.join(work, f"timed-{index}.json")))
            n_gaps += os.path.getsize(timed[-1]["gaps_file"]) // 8
        gaps = _pooled_gaps(timed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome = summarise(workload, setup, timed, gaps, trace)
    environment = outcome["details"]["environment"]
    environment["git_commit"] = _git_commit(root)
    environment["source_sha256"] = _source_digest(package)
    if trace_file and os.path.exists(trace_file):
        outcome["details"]["trace_file"] = os.path.relpath(trace_file, root)
    return outcome


def summarise(workload: str, setup: dict, timed: list[dict], gaps: np.ndarray, trace: bool) -> dict:
    """The result line and its details from what the phases reported.

    A run with a failed operation still gets a result, with ``correct``
    false; a metric nothing was measured for (no timed process, no served
    event) then reads 0.
    """
    first = timed[0] if timed else {}
    tallies = [setup["tally"]] + [part["tally"] for part in timed]
    attempted = sum(tally["attempted"] for tally in tallies)
    failed = sum(tally["failed"] for tally in tallies)
    failures = [failure for tally in tallies for failure in tally["failures"]]
    for index, part in enumerate(timed[1:], 1):
        attempted += 1
        if part["digest"] != first["digest"]:
            failed += 1
            failures.append(f"timed process {index} left other artifacts than process 0")
    # Times, rates and memory are medians over the timed processes; latency
    # percentiles come from the gaps of all of them, at least MIN_GAPS, so
    # serve_p999_us has at least ten samples beyond it.
    measured = dict.fromkeys(END_TO_END, 0.0)
    measured["setup_s"] = setup["setup_s"]
    if timed:
        for name in ("events_per_s", "peak_rss_mb", "replay_s"):
            measured[name] = statistics.median(part[name] for part in timed)
        measured["log_bytes_per_event"] = first["log_bytes_per_event"]
    if len(gaps):
        for name, q in (("serve_p50_us", 50), ("serve_p99_us", 99), ("serve_p999_us", 99.9)):
            measured[name] = float(np.percentile(gaps, q))
    if trace:
        metric_units = setup["per_layer_units"]
        values = dict.fromkeys(metric_units, 0.0)
        values.update(first.get("per_layer", {}))
    else:
        metric_units = END_TO_END
        values = measured
    stages = {}
    for part in timed:
        for stage, elapsed in part["stage_s"].items():
            stages.setdefault(stage, []).append(elapsed)
    details = {
        "workload": workload,
        "ops_failed_share": failed / attempted,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failures": failures[:20],
        "artifact_sha256": first.get("digest"),
        "timed_processes": len(timed),
        "serve_samples": len(gaps),
        "stage_s": {stage: statistics.median(times) for stage, times in sorted(stages.items())},
        "state": first.get("state", {}),
        "setup_repeats": setup["setup_repeats"],
        "environment": dict(setup["environment"]),
    }
    if trace:
        details["end_to_end"] = measured
    details.update({k: first[k] for k in ("regret_last_tenth", "uniform_floor_regret", "snips") if k in first})
    return {
        "details": details,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": metric_units[name]} for name in metric_units},
        },
    }


def _print(outcome: dict) -> None:
    details = outcome["details"]
    print(f"== {details['workload']}: {details['ops_failed']} of {details['ops_attempted']} "
          f"operations failed (ops_failed_share {details['ops_failed_share']:.6g} ratio)")
    for failure in details["failures"]:
        print(f"   failed: {failure}")
    for name, metric in outcome["result"]["metrics"].items():
        print(f"   {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps(outcome["result"], sort_keys=True), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        try:
            outcome = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        _print(outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
