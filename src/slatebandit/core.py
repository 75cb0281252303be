"""Domain types and the append-only interaction log.

Everything downstream (counter aggregation, reward-model training, off-policy
evaluation) consumes the event records defined here, so the field names in the
serialized form are part of the contract and must not drift.
"""

from __future__ import annotations

import contextlib
import json
import os
import uuid
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Iterable, Iterator

import numpy as np

NULL_ACTION_ID = "__null__"
NULL_ACTION_TITLE = "None of the above"


class ValidationError(ValueError):
    """An event or domain object violates a structural invariant."""


class NoDataError(ValueError):
    """An operation needed at least one observation and found none."""


class Survey(str, Enum):
    YES = "yes"
    NO = "no"
    SKIPPED = "skipped"


class RewardMode(str, Enum):
    SURVEY_ONLY = "survey_only"
    SURVEY_AND_ESCALATION = "survey_and_escalation"


@dataclass(frozen=True)
class Context:
    """Request context: a stable context id plus optional rich signals.

    ``context_id`` is the discrete key the counter banks aggregate on (page,
    topic, entry point). ``features`` carries categorical attributes and
    ``query`` the user's free text, both of which only matter to the neural
    featurizer.
    """

    context_id: str
    features: dict[str, str] = field(default_factory=dict)
    query: str | None = None

    def __post_init__(self) -> None:
        if not self.context_id:
            raise ValidationError("context_id must be non-empty")

    def to_dict(self) -> dict:
        return {"id": self.context_id, "features": dict(self.features), "query": self.query}

    @classmethod
    def from_dict(cls, d: dict) -> "Context":
        features = d.get("features")
        if features is not None and not isinstance(features, dict):
            raise ValidationError("context features must be a JSON object")
        return cls(context_id=d["id"], features=dict(features or {}), query=d.get("query"))


@dataclass(frozen=True)
class Action:
    """A recommendable item. The null item is the reserved no-op slot."""

    action_id: str
    title: str = ""
    is_null_item: bool = False
    features: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.action_id:
            raise ValidationError("action_id must be non-empty")
        if self.is_null_item and self.action_id != NULL_ACTION_ID:
            raise ValidationError("null item must use the reserved action id")
        if not self.is_null_item and self.action_id == NULL_ACTION_ID:
            raise ValidationError("reserved null id used by a content action")

    def to_dict(self) -> dict:
        return {
            "id": self.action_id,
            "title": self.title,
            "null": self.is_null_item,
            "features": dict(self.features),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Action":
        return cls(
            action_id=d["id"],
            title=d.get("title", ""),
            is_null_item=bool(d.get("null", False)),
            features=dict(d.get("features") or {}),
        )


def null_item() -> Action:
    return Action(action_id=NULL_ACTION_ID, title=NULL_ACTION_TITLE, is_null_item=True)


@dataclass(frozen=True)
class Slate:
    """An ordered list of served actions with their sampled scores.

    Items after the null item are never served, so a well-formed slate either
    ends at the null item or (direct trigger) contains a single content item.
    """

    items: tuple[Action, ...]
    scores: tuple[float, ...]

    def __init__(self, items, scores) -> None:
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "scores", tuple(map(float, scores)))
        self.__post_init__()

    def __post_init__(self) -> None:
        if len(self.items) != len(self.scores):
            raise ValidationError("items and scores must have equal length")
        ids = [a.action_id for a in self.items]
        if len(set(ids)) != len(ids):
            raise ValidationError("slate contains a duplicate action")
        if sum(1 for a in self.items if a.is_null_item) > 1:
            raise ValidationError("slate contains more than one null item")

    def __len__(self) -> int:
        return len(self.items)

    @property
    def null_position(self) -> int | None:
        for i, a in enumerate(self.items):
            if a.is_null_item:
                return i
        return None

    def content_items(self) -> tuple[Action, ...]:
        """Actions served above the null item (all items if no null present)."""
        pos = self.null_position
        return self.items if pos is None else self.items[:pos]

    def to_dict(self) -> dict:
        return {"items": [a.to_dict() for a in self.items], "scores": list(self.scores)}


@dataclass(frozen=True)
class Feedback:
    """What the user did with a served slate.

    ``click`` indexes a slot of the served slate (possibly the null slot when
    the user picked "none of the above" and continued in free text); None means
    the session ended with no selection at all.
    """

    click: int | None = None
    survey: Survey = Survey.SKIPPED
    escalation: bool = False

    def __post_init__(self) -> None:
        if self.click is not None and (
            isinstance(self.click, bool) or not isinstance(self.click, int) or self.click < 0
        ):
            raise ValidationError("click must be a non-negative slot index or None")
        if not isinstance(self.survey, Survey):
            raise ValidationError("survey must be a Survey value")


@dataclass(frozen=True)
class RewardSpec:
    """Maps survey/escalation feedback to a scalar training reward.

    escalation_weight must be non-positive: an escalation can only push the
    reward down.
    """

    mode: RewardMode = RewardMode.SURVEY_ONLY
    escalation_weight: float = -1.0

    def __post_init__(self) -> None:
        if self.escalation_weight > 0:
            raise ValidationError("escalation_weight must be <= 0")


def reward_of(feedback: Feedback, spec: RewardSpec) -> float | None:
    """Scalar reward for one event, or None when the event carries no signal.

    Survey yes -> +1, no -> -1, skipped -> no reward. In the escalation-aware
    mode an escalation adds ``escalation_weight`` on top of the survey reward,
    and a skipped survey with an escalation still yields ``escalation_weight``
    alone.
    """
    if feedback.survey is Survey.YES:
        base: float | None = 1.0
    elif feedback.survey is Survey.NO:
        base = -1.0
    else:
        base = None
    if spec.mode is RewardMode.SURVEY_ONLY:
        return base
    extra = spec.escalation_weight if feedback.escalation else 0.0
    if base is None:
        return extra if feedback.escalation else None
    return base + extra


@dataclass(frozen=True)
class LoggedEvent:
    """One served request with its feedback, as written to the log."""

    ts: int
    context: Context
    slate: Slate
    feedback: Feedback
    propensity: float | None = None
    posteriors: dict[str, tuple[float, float]] | None = None
    policy_tag: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.ts, bool) or not isinstance(self.ts, int):
            raise ValidationError("ts must be integer epoch seconds")
        if self.feedback.click is not None and self.feedback.click >= len(self.slate):
            raise ValidationError("click does not index a valid slot of the served slate")
        if self.propensity is not None and not (0.0 < self.propensity <= 1.0):
            raise ValidationError("propensity must lie in (0, 1]")
        if self.posteriors is not None:
            for a in self.slate.items:
                if a.action_id not in self.posteriors:
                    raise ValidationError("posteriors must cover every slate action")

    def clicked_action(self) -> Action | None:
        if self.feedback.click is None:
            return None
        return self.slate.items[self.feedback.click]


def attributed_action(event: LoggedEvent) -> Action | None:
    """The action the event's feedback attaches to.

    The clicked slot when there is a click; for a direct-trigger singleton
    slate (one content item, no null slot) the single item, because there the
    click is implicit and censored. None when nothing was selected.
    """
    clicked = event.clicked_action()
    if clicked is not None:
        return clicked
    if len(event.slate) == 1 and not event.slate.items[0].is_null_item:
        return event.slate.items[0]
    return None


def attributed_rewards(
    events: Iterable[LoggedEvent], spec: RewardSpec
) -> Iterator[tuple[int, LoggedEvent, Action, float]]:
    """(index, event, attributed action, reward) for every event that carries
    a reward and attaches it to an action, the null item included.

    The one filter every learner and estimator reads the log through, so the
    online and offline paths see the same rows; ``index`` counts all events.
    """
    for index, event in enumerate(events):
        reward = reward_of(event.feedback, spec)
        if reward is None:
            continue
        action = attributed_action(event)
        if action is not None:
            yield index, event, action, reward


def categorical(weights, rng: np.random.Generator) -> int:
    """One index drawn with probability proportional to ``weights``.

    Consumes exactly one ``rng.random()``; ``weights`` must have a positive
    total.
    """
    edges = list(accumulate(weights))
    u = rng.random() * edges[-1]
    return min(bisect_right(edges, u), len(edges) - 1)


def atomic_write(path: str | os.PathLike, text: str) -> None:
    """Replace ``path`` with ``text`` so a reader sees the old file or the new
    one, never a torn one.

    The text goes to a uniquely named temp file beside the target, is synced
    to disk and renamed over it; on any failure the temp file is removed and
    the target is left as it was. Line endings are written as given, and the
    file gets the mode a plain ``open(path, "w")`` would give it.
    """
    path = os.fspath(path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def encode_event(event: LoggedEvent) -> str:
    """One JSON line. Field names are fixed: ts, ctx, slate, click, survey,
    escalation, propensity, posteriors, policy."""
    posteriors = None
    if event.posteriors is not None:
        posteriors = {k: [float(v[0]), float(v[1])] for k, v in sorted(event.posteriors.items())}
    record = {
        "ts": event.ts,
        "ctx": event.context.to_dict(),
        "slate": event.slate.to_dict(),
        "click": event.feedback.click,
        "survey": event.feedback.survey.value,
        "escalation": event.feedback.escalation,
        "propensity": event.propensity,
        "posteriors": posteriors,
        "policy": event.policy_tag,
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _decode_action(d, interned: dict | None) -> Action:
    if not isinstance(d, dict):
        raise ValidationError("slate item must be a JSON object")
    features = d.get("features")
    if features is not None and not isinstance(features, dict):
        raise ValidationError("item features must be a JSON object")
    if interned is None:
        return Action.from_dict(d)
    action_id, title = d["id"], d.get("title", "")
    # Only string ids and titles are looked up (a list id is unhashable) and
    # only string-valued features are stored, so ``==`` below cannot take
    # 1 for True and hand back an Action that re-encodes to other bytes.
    if type(action_id) is not str or type(title) is not str:
        return Action.from_dict(d)
    key = (action_id, title, bool(d.get("null", False)))
    action = interned.get(key)
    if action is None or action.features != (features or {}):
        action = Action.from_dict(d)
        if all(type(v) is str for v in action.features.values()):
            interned[key] = action
    return action


def _field(record: dict, name: str, kind: type, what: str):
    value = record[name]
    if not isinstance(value, kind):
        raise ValidationError(f"event field {name!r} must be a JSON {what}")
    return value


def decode_event(line: str, *, interned: dict | None = None) -> LoggedEvent:
    """The event one log line holds; ValidationError when the line is not a
    well-formed event.

    ``interned`` is a table that one reading pass keeps across lines (as
    ``EventLog.replay`` does). With it, slate items equal in id, title, null
    flag and features decode to one shared ``Action`` object, as served
    events share the pool's objects; an item whose features differ gets its
    own. Without it every item is built afresh. Either way the events compare
    equal and re-encode to the same bytes.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed event line: {exc}") from exc
    if not isinstance(record, dict):
        raise ValidationError("event line must hold a JSON object")
    try:
        survey = Survey(record["survey"])
    except (KeyError, ValueError) as exc:
        raise ValidationError("survey must be yes/no/skipped") from exc
    escalation = record.get("escalation", False)
    if type(escalation) is not bool:
        raise ValidationError("event field 'escalation' must be a JSON boolean")
    try:
        posteriors = record.get("posteriors")
        if posteriors is not None:
            posteriors = _field(record, "posteriors", dict, "object")
            posteriors = {k: (float(v[0]), float(v[1])) for k, v in posteriors.items()}
        slate = _field(record, "slate", dict, "object")
        items = _field(slate, "items", list, "list")
        return LoggedEvent(
            ts=record["ts"],
            context=Context.from_dict(_field(record, "ctx", dict, "object")),
            slate=Slate(
                items=[_decode_action(d, interned) for d in items], scores=slate["scores"]
            ),
            feedback=Feedback(
                click=record.get("click"),
                survey=survey,
                escalation=escalation,
            ),
            propensity=record.get("propensity"),
            posteriors=posteriors,
            policy_tag=record.get("policy", ""),
        )
    except KeyError as exc:
        raise ValidationError(f"event line missing field {exc}") from exc
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed event line: {exc}") from exc


class EventLog:
    """Append-only JSONL event log.

    Appends flush on every write; replay yields events in append order so a
    reader that consumes the file in one pass sees each event exactly once.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)

    def append(self, event: LoggedEvent) -> None:
        line = encode_event(event)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()

    def replay(self) -> Iterator[LoggedEvent]:
        """Events in append order, blank lines skipped.

        One intern table serves the whole pass, so each distinct slate item
        is built once and the events share its ``Action``, as served events
        do (see ``decode_event``).
        """
        interned: dict = {}
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield decode_event(line, interned=interned)

    def read_all(self) -> list[LoggedEvent]:
        return list(self.replay())
