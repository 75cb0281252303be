"""Correctness checks on what a unit wrote, and the artifact digest.

Each check is one operation for ``ops_failed_share``: every logged event is
one (it fails if any per-event check fails), every CLI stage is one (it fails
on a non-zero exit code), and every run-level check is one. The oracles use
the world truth in ``world.py`` and never the package's own metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import world as worlds
from slatebandit import sim
from slatebandit.core import decode_event, encode_event

SNIPS_SIGMAS = 4.0
SNIPS_DRAWS = 100_000


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@dataclass
class LogSummary:
    events: int = 0
    regret_last_tenth: float = 0.0
    floor_last_tenth: float = 0.0


def _event_problem(line: str, allowed: dict[str, set[str]]):
    """None if the line is a well-formed event, else why not. Returns the
    decoded event alongside. Decoding already rejects a propensity outside
    (0, 1]."""
    try:
        event = decode_event(line)
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        return f"does not decode: {exc}", None
    if encode_event(event) != line:
        return "does not re-encode byte-identically", event
    items = event.slate.items
    singleton = len(items) == 1 and not items[0].is_null_item
    if not singleton and (not items or not items[-1].is_null_item):
        return "slate neither ends at the null item nor is a singleton", event
    pool = allowed.get(event.context.context_id)
    if pool is None:
        return f"unknown context {event.context.context_id!r}", event
    for action in event.slate.content_items():
        if action.action_id not in pool:
            return f"served {action.action_id!r}, neither in the pool nor promoted", event
    return None, event


def check_log(
    path: str, world: sim.WorldSpec, promoted: set[str], tally: Tally
) -> LogSummary:
    """Per-event checks over every line, plus the regret of the last tenth
    against the uniform floor, both computed from world truth."""
    allowed = {c.context_id: set(c.pool_ids()) | promoted for c in world.contexts}
    contexts = {c.context_id: c for c in world.contexts}
    floors = {c.context_id: worlds.uniform_floor_regret(c) for c in world.contexts}
    regrets: list[tuple[float, float]] = []
    summary = LogSummary()
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            summary.events += 1
            line = raw.rstrip("\n")
            problem, event = _event_problem(line, allowed)
            tally.record(problem is None, f"line {summary.events}: {problem}")
            if problem is None:
                ctx = contexts[event.context.context_id]
                oracle = max([sim.NULL_VALUE] + [ctx.actions[a].p_yes for a in ctx.pool_ids()])
                content = event.slate.content_items()
                value = ctx.actions[content[0].action_id].p_yes if content else sim.NULL_VALUE
                regrets.append((oracle - value, floors[ctx.context_id]))
    tail = regrets[-max(1, len(regrets) // 10):] if regrets else []
    if tail:
        summary.regret_last_tenth = sum(r for r, _ in tail) / len(tail)
        summary.floor_last_tenth = sum(f for _, f in tail) / len(tail)
    return summary


def check_learning(summary: LogSummary, tally: Tally) -> None:
    tally.record(
        summary.regret_last_tenth < summary.floor_last_tenth,
        f"last-tenth regret {summary.regret_last_tenth:.4f} not below the uniform "
        f"floor {summary.floor_last_tenth:.4f}",
    )


def check_snips(eval_path: str, truth: float, tally: Tally) -> dict:
    """The evaluate estimate lies within a few standard errors of the truth."""
    with open(eval_path, encoding="utf-8") as fh:
        ope = json.load(fh)["ope"]
    sigma = math.sqrt(ope["variance"])
    error = abs(ope["estimate"] - truth)
    tally.record(
        error <= SNIPS_SIGMAS * sigma,
        f"SNIPS estimate {ope['estimate']:.4f} is {error / sigma:.1f} sigma from the "
        f"truth {truth:.4f}",
    )
    return {"estimate": ope["estimate"], "truth": truth, "sigma": sigma}


def snips_truth(world: sim.WorldSpec, seed: int, max_length: int) -> float:
    return worlds.snips_limit(
        world, worlds.target_policy(world), max_length, SNIPS_DRAWS, seed
    )


def digest(*roots: str) -> str:
    """SHA-256 over every file under the roots, by relative path and content."""
    h = hashlib.sha256()
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
                with open(path, "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        h.update(chunk)
                h.update(b"\0")
    return h.hexdigest()
