"""One benchmark phase in its own process: ``setup`` or ``timed``.

``run.py`` starts this script with ``src`` on the path and BLAS pinned to one
thread, and reads back the JSON it writes to ``--result``. A timed process
runs one workload alone, so its ``ru_maxrss`` is that workload's peak.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import time
from array import array

import numpy as np
import scipy

import checks
import workloads
from slatebandit import sim
from spans import SPAN_NAMES, Probe, per_layer_units

# Set-up is repeated at least SETUP_MIN times and until SETUP_MIN_S have been
# spent in it (at most SETUP_MAX times); setup_s is the median.
SETUP_MIN = 3
SETUP_MIN_S = 2.0
SETUP_MAX = 100


def _setup(args) -> dict:
    sizes = workloads.SIZES[args.workload]
    tally = checks.Tally()
    times = []
    digests = []
    k = 0
    while k < SETUP_MIN or (sum(times) < SETUP_MIN_S and k < SETUP_MAX):
        out = os.path.join(args.work, f"setup-{k}")
        started = time.perf_counter()
        try:
            exit_codes = workloads.setup(args.workload, args.seed, out, sizes)
        except Exception as exc:  # a program failure is a failed operation
            tally.record(False, f"setup {k}: {type(exc).__name__}: {exc}")
            break
        times.append(time.perf_counter() - started)
        for stage, code in sorted(exit_codes.items()):
            tally.record(code == 0, f"setup {k}: cli stage {stage} exited {code}")
        if tally.failed:
            break
        digests.append(checks.digest(out))
        if k:
            tally.record(digests[k] == digests[0], f"setup {k} differs from setup 0")
            shutil.rmtree(out)
        k += 1
    if not tally.failed:
        os.replace(os.path.join(args.work, "setup-0"), os.path.join(args.work, "setup"))
    return {
        "setup_s": statistics.median(times) if times else 0.0,
        "setup_repeats": k,
        "tally": tally.__dict__,
    }


def _unit(args, name: str, probe: Probe, tally: checks.Tally):
    """Run one unit into ``name``. A unit the program fails on, by raising or
    by a CLI stage that exits non-zero, counts as a failed operation; it then
    returns no result."""
    setup_dir = os.path.join(args.work, "setup")
    out = os.path.join(args.work, name)
    horizon = workloads.SIZES[args.workload]["horizon"]
    try:
        result = workloads.run_unit(
            args.workload, args.seed, setup_dir, out, workloads.SIZES[args.workload], probe
        )
    except Exception as exc:
        tally.record(False, f"{name}: {type(exc).__name__}: {exc}")
        return None, checks.digest(setup_dir, out)
    for stage, code in sorted(result.exit_codes.items()):
        tally.record(code == 0, f"{name}: cli stage {stage} exited {code}")
    served = tally.record(
        result.events == horizon, f"{name}: {result.events} events served, horizon {horizon}"
    )
    complete = served and all(code == 0 for code in result.exit_codes.values())
    return result if complete else None, checks.digest(setup_dir, out)


def _check_artifacts(args, out: str, first: workloads.UnitResult, tally: checks.Tally) -> dict:
    """Checks on one unit's artifacts against world truth."""
    setup_dir = os.path.join(args.work, "setup")
    world = sim.load_world(os.path.join(setup_dir, "world.json"))
    log_path = os.path.join(out, "events.jsonl")
    if not os.path.exists(log_path):
        tally.record(False, "no event log written")
        return {"log_bytes_per_event": 0.0}
    summary = checks.check_log(log_path, world, first.promoted, tally)
    tally.record(
        summary.events == first.horizon,
        f"log holds {summary.events} lines, horizon {first.horizon}",
    )
    checks.check_learning(summary, tally)
    found = {
        "log_bytes_per_event": os.path.getsize(log_path) / max(summary.events, 1),
        "regret_last_tenth": summary.regret_last_tenth,
        "uniform_floor_regret": summary.floor_last_tenth,
    }
    if args.workload == "neural":
        explore = os.path.join(setup_dir, workloads.UNIFORM_LOG)
        explored = checks.check_log(explore, world, set(), tally)
        uniform_horizon = workloads.SIZES["neural"]["uniform_horizon"]
        tally.record(
            explored.events == uniform_horizon,
            f"exploration log holds {explored.events} lines, horizon {uniform_horizon}",
        )
        eval_path = os.path.join(out, "eval.json")
        if os.path.exists(eval_path):
            truth = checks.snips_truth(world, args.seed, workloads.MAX_LENGTH)
            found["snips"] = checks.check_snips(eval_path, truth, tally)
        else:
            tally.record(False, "no evaluation report written")
    return found


def _timed(args) -> dict:
    """One timed unit, alone in this process. Process 0 keeps the unit's
    artifacts and checks them after the timing; in a traced run it then runs
    a traced unit too. A failed unit is reported with what it measured
    before it failed, and without those checks."""
    tally = checks.Tally()
    name = f"p{args.index}"
    with Probe(trace=False) as probe:
        result, digest = _unit(args, name, probe, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gaps = probe.serve_gaps_us()
    gaps_file = os.path.join(args.work, f"gaps-{args.index}.bin")
    with open(gaps_file, "wb") as fh:
        array("d", gaps).tofile(fh)
    out = {
        "digest": digest,
        "events_per_s": len(gaps) / probe.last_run_s if probe.last_run_s else 0.0,
        "replay_s": result.replay_s if result else 0.0,
        "stage_s": result.stage_s if result else {},
        "state": result.state if result else {},
        "peak_rss_mb": peak_rss_mb,
        "gaps_file": gaps_file,
        "log_bytes_per_event": 0.0,
    }
    if result is not None:
        out["events_per_s"] = result.events / result.run_s
        if args.index == 0:
            if args.trace:
                out["per_layer"] = _traced_unit(args, digest, out["events_per_s"], tally)
            out.update(_check_artifacts(args, os.path.join(args.work, name), result, tally))
    else:
        log_path = os.path.join(args.work, name, "events.jsonl")
        if os.path.exists(log_path):
            with open(log_path, "rb") as fh:
                logged = sum(1 for _ in fh)
            out["log_bytes_per_event"] = os.path.getsize(log_path) / max(logged, 1)
    shutil.rmtree(os.path.join(args.work, name), ignore_errors=True)
    out["tally"] = tally.__dict__
    return out


def _traced_unit(args, digest: str, untraced_eps: float, tally: checks.Tally) -> dict:
    """One more unit with every wrapper on; per-layer metrics come from it."""
    with Probe(trace=True) as probe:
        result, traced_digest = _unit(args, "traced", probe, tally)
    shutil.rmtree(os.path.join(args.work, "traced"), ignore_errors=True)
    if result is None:
        return {}
    tally.record(traced_digest == digest, "traced artifacts differ from the untraced ones")
    if args.trace_file:
        probe.write(args.trace_file)
    metrics = {}
    for i, name in enumerate(SPAN_NAMES):
        calls = probe.calls[i]
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.us"] = probe.self_ns[i] / 1000.0 / calls if calls else 0.0
    c = probe.counters
    gate_calls = probe.calls[SPAN_NAMES.index("slates.safe_gate")]
    snips_ns = probe.self_ns[SPAN_NAMES.index("evaluation.snips")]
    metrics["slates.safe_gate.fallback_ratio"] = (
        c["safe_gate.fallbacks"] / gate_calls if gate_calls else 0.0
    )
    metrics["expansion.promoted_ratio"] = (
        c["expansion.promoted"] / c["expansion.verdicts"] if c["expansion.verdicts"] else 0.0
    )
    metrics["evaluation.snips.usable_ratio"] = (
        c["snips.usable"] / c["snips.events"] if c["snips.events"] else 0.0
    )
    metrics["evaluation.snips.us_per_event"] = (
        snips_ns / 1000.0 / c["snips.events"] if c["snips.events"] else 0.0
    )
    metrics["sim.boundary.us"] = probe.boundary_us_per_event()
    for name in ("mab.retained_entries", "mab.snapshot_bytes", "linear.stats_entries",
                 "linear.head_rank", "sim.events_retained"):
        metrics[name] = result.state.get(name, 0)
    metrics["trace.overhead"] = untraced_eps / (result.events / result.run_s)
    return metrics


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": args.seed,
        "sizes": workloads.SIZES[args.workload],
    }


def run_phase(args) -> dict:
    """Run one phase and return what ``run.py`` reads back."""
    out = _setup(args) if args.phase == "setup" else _timed(args)
    out["environment"] = environment(args)
    out["per_layer_units"] = per_layer_units()
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=["setup", "timed"])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    out = run_phase(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
