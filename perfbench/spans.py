"""Timing probes installed from outside the package.

``Probe`` always wraps ``sim.run`` (its wall time) and
``sim.step`` (one timestamp per step entry, which defines the serve gaps).
With ``trace=True`` it also wraps every per-layer function in ``TRACED`` and
records one span per call: name, start, end, parent span and request id (the
event index). Spans stay in memory and are written out once, at the end.

Each wrapper is installed where its caller looks the name up: module
functions are replaced on their module (``sim`` calls ``mab.joint_scores``,
``NlbPolicy.decide`` calls ``linear.ts_sample``, ``EventLog.append`` calls
``core.encode_event``, all through module globals), methods on their class.
``sim`` imports ``attributed_action`` and ``reward_of`` by name from ``core``,
so those two are not traced at all.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from slatebandit import cli, core, evaluation, expansion, features, linear, mab, sim, slates

# (owner, attribute, span name). ``sim.step`` and ``sim.run`` are always wrapped.
TRACED = (
    (core, "encode_event", "core.encode_event"),
    (core.EventLog, "append", "core.EventLog.append"),
    (core, "decode_event", "core.decode_event"),
    (mab, "joint_scores", "mab.joint_scores"),
    (mab, "pre_sample", "mab.pre_sample"),
    (mab, "update", "mab.update"),
    (mab, "evict", "mab.evict"),
    (sim.MabPolicy, "decide", "sim.MabPolicy.decide"),
    (sim.MabPolicy, "aggregate", "sim.MabPolicy.aggregate"),
    (sim.NlbPolicy, "decide", "sim.NlbPolicy.decide"),
    (sim.NlbPolicy, "aggregate", "sim.NlbPolicy.aggregate"),
    (sim, "simulate_feedback", "sim.simulate_feedback"),
    (sim, "kpi_counters", "sim.kpi_counters"),
    (slates, "assemble", "slates.assemble"),
    (slates, "safe_gate", "slates.safe_gate"),
    (expansion, "expand", "expansion.expand"),
    (features.HashingEmbedder, "embed", "features.HashingEmbedder.embed"),
    (features, "forward", "features.forward"),
    (features.FeatureMap, "transform", "features.FeatureMap.transform"),
    (features, "training_pairs", "features.training_pairs"),
    (features, "train", "features.train"),
    (linear, "ts_sample", "linear.ts_sample"),
    (linear, "absorb", "linear.absorb"),
    (linear, "fit", "linear.fit"),
    (evaluation, "snips", "evaluation.snips"),
    (cli, "cmd_train_repr", "cli.cmd_train_repr"),
    (cli, "cmd_fit_bandit", "cli.cmd_fit_bandit"),
    (cli, "cmd_evaluate", "cli.cmd_evaluate"),
    (cli, "cmd_report", "cli.cmd_report"),
)
STEP = "sim.step"
SPAN_NAMES = tuple(name for _, _, name in TRACED) + (STEP,)

# Per-layer metrics besides each span's ``.calls`` and ``.us``, with units.
EXTRA_METRICS = {
    "slates.safe_gate.fallback_ratio": "ratio",
    "expansion.promoted_ratio": "ratio",
    "evaluation.snips.usable_ratio": "ratio",
    "evaluation.snips.us_per_event": "us",
    "sim.boundary.us": "us",
    "mab.retained_entries": "count",
    "mab.snapshot_bytes": "B",
    "linear.stats_entries": "count",
    "linear.head_rank": "count",
    "sim.events_retained": "count",
    "trace.overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.us"] = "us"
    units.update(EXTRA_METRICS)
    return units


class Probe:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.names = list(SPAN_NAMES)
        self._index = {name: i for i, name in enumerate(self.names)}
        self._saved: list[tuple[object, str, object]] = []
        self.last_run_s = 0.0
        self.step_ns: list[int] = []
        # spans: parallel lists, one entry per call
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._child_ns = array("q")
        self._stack: list[int] = []
        self._request = -1
        self.self_ns = [0] * len(self.names)
        self.calls = [0] * len(self.names)
        # counters read off results where the work happens
        self.counters = {
            "safe_gate.fallbacks": 0,
            "expansion.promoted": 0,
            "expansion.verdicts": 0,
            "snips.events": 0,
            "snips.usable": 0,
        }

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> "Probe":
        self._replace(sim, "run", self._wrap_run(sim.run))
        self._replace(sim, "step", self._wrap_step(sim.step))
        if self.trace:
            for owner, attr, name in TRACED:
                self._replace(owner, attr, self._wrap(getattr(owner, attr), name))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- wrappers -----------------------------------------------------------

    def _wrap_run(self, original):
        def run(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.last_run_s = time.perf_counter() - started
                self._request = -1

        return run

    def _wrap_step(self, original):
        stamps = self.step_ns
        if not self.trace:

            def step(*args, **kwargs):
                stamps.append(time.perf_counter_ns())
                return original(*args, **kwargs)

            return step

        span = self._wrap(original, STEP)

        def traced_step(world, policy, event_index, *args, **kwargs):
            stamps.append(time.perf_counter_ns())
            self._request = event_index
            try:
                return span(world, policy, event_index, *args, **kwargs)
            finally:
                # boundary jobs that run before the next step delay that step
                self._request = event_index + 1

        return traced_step

    def _wrap(self, original, name: str):
        index = self._index[name]
        observe = _OBSERVERS.get(name)
        probe = self

        def wrapper(*args, **kwargs):
            span = len(probe.span_name)
            probe.span_name.append(index)
            probe.span_parent.append(probe._stack[-1] if probe._stack else -1)
            probe.span_request.append(probe._request)
            probe.span_end.append(0)
            probe._child_ns.append(0)
            probe._stack.append(span)
            probe.span_start.append(time.perf_counter_ns())
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                probe._stack.pop()
                probe.span_end[span] = end
                duration = end - probe.span_start[span]
                probe.self_ns[index] += duration - probe._child_ns[span]
                probe.calls[index] += 1
                if probe._stack:
                    probe._child_ns[probe._stack[-1]] += duration
            if observe is not None:
                observe(probe.counters, args, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def serve_gaps_us(self) -> np.ndarray:
        """Gaps between consecutive step entries, in microseconds."""
        return np.diff(np.asarray(self.step_ns, dtype=np.int64)) / 1000.0

    def boundary_us_per_event(self) -> float:
        """Time between steps spent outside ``step`` and the log append.

        That is the boundary work (aggregation, refit, expansion, KPI fold)
        the next request waited for, plus the loop's own bookkeeping,
        averaged over events.
        """
        step = self._index[STEP]
        append = self._index["core.EventLog.append"]
        names = np.asarray(self.span_name)
        start = np.asarray(self.span_start, dtype=np.int64)
        end = np.asarray(self.span_end, dtype=np.int64)
        steps = names == step
        if steps.sum() < 2:
            return 0.0
        between = start[steps][1:] - end[steps][:-1]
        appended = (end - start)[names == append].sum()
        return float(between.sum() - appended) / 1000.0 / int(steps.sum())

    def write(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.asarray(self.span_name, dtype=np.int16),
            parent=np.asarray(self.span_parent, dtype=np.int64),
            request=np.asarray(self.span_request, dtype=np.int64),
            start_ns=np.asarray(self.span_start, dtype=np.int64),
            end_ns=np.asarray(self.span_end, dtype=np.int64),
        )


def _gate(counters, args, result) -> None:
    counters["safe_gate.fallbacks"] += int(result.used_baseline)


def _expand(counters, args, result) -> None:
    counters["expansion.promoted"] += len(result.promoted)
    counters["expansion.verdicts"] += len(result.verdicts)


def _snips(counters, args, result) -> None:
    counters["snips.events"] += len(args[0])
    counters["snips.usable"] += result.n_usable


_OBSERVERS = {
    "slates.safe_gate": _gate,
    "expansion.expand": _expand,
    "evaluation.snips": _snips,
}
