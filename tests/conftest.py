"""Shared builders for tests; no fixtures with state."""

from __future__ import annotations

import json

from slatebandit.core import (
    NULL_ACTION_TITLE,
    Action,
    Context,
    Feedback,
    LoggedEvent,
    Slate,
    Survey,
    null_item,
)


def make_action(action_id: str, title: str | None = None) -> Action:
    return Action(action_id=action_id, title=title if title is not None else action_id)


def make_slate(action_ids: list[str], scores: list[float] | None = None, with_null: bool = True):
    items = [make_action(a) for a in action_ids]
    if with_null:
        items.append(null_item())
    if scores is None:
        scores = [1.0 - 0.1 * i for i in range(len(items))]
    return Slate(items=items, scores=scores)


def make_event(
    ts: int = 0,
    context_id: str = "ctx",
    action_ids: list[str] = ("a1", "a2"),
    click: int | None = None,
    survey: Survey = Survey.SKIPPED,
    escalation: bool = False,
    propensity: float | None = None,
    with_null: bool = True,
) -> LoggedEvent:
    return LoggedEvent(
        ts=ts,
        context=Context(context_id=context_id),
        slate=make_slate(list(action_ids), with_null=with_null),
        feedback=Feedback(click=click, survey=survey, escalation=escalation),
        propensity=propensity,
        policy_tag="test",
    )


def encode_v1(event: LoggedEvent) -> str:
    """The v1 line for ``event``: every field written, as logs were before
    ``"v":2``. Kept as the reference that v1 decoding is checked against."""
    posteriors = None
    if event.posteriors is not None:
        posteriors = {k: [float(v[0]), float(v[1])] for k, v in sorted(event.posteriors.items())}
    record = {
        "ts": event.ts,
        "ctx": {
            "id": event.context.context_id,
            "features": dict(event.context.features),
            "query": event.context.query,
        },
        "slate": {
            "items": [
                {"id": a.action_id, "title": a.title, "null": a.is_null_item,
                 "features": dict(a.features)}
                for a in event.slate.items
            ],
            "scores": list(event.slate.scores),
        },
        "click": event.feedback.click,
        "survey": event.feedback.survey.value,
        "escalation": event.feedback.escalation,
        "propensity": event.propensity,
        "posteriors": posteriors,
        "policy": event.policy_tag,
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def encode_v2(event: LoggedEvent) -> str:
    """The v2 line for ``event``, built field by field from the format's
    rule: a field is left out exactly when it holds the value decoding
    restores (the item null flag always; empty item features; the default
    title, NULL_ACTION_TITLE for the null item and "" for content; a null
    propensity; null posteriors)."""
    record = json.loads(encode_v1(event))
    record["v"] = 2
    for item in record["slate"]["items"]:
        if item["title"] == (NULL_ACTION_TITLE if item["null"] else ""):
            del item["title"]
        if not item["features"]:
            del item["features"]
        del item["null"]
    for name in ("propensity", "posteriors"):
        if record[name] is None:
            del record[name]
    return json.dumps(record, sort_keys=True, separators=(",", ":"))
