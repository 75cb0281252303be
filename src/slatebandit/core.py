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
from typing import Iterator

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
        """The logged (v2) item: the id, plus the title and features only
        where they differ from what decoding restores. The null flag follows
        from the id and is never written."""
        record: dict = {"id": self.action_id}
        if self.title != (NULL_ACTION_TITLE if self.is_null_item else ""):
            record["title"] = self.title
        if self.features:
            record["features"] = dict(self.features)
        return record


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
        _check_slate(self.items, len(self.scores))

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
        _check_click(self.click)
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

    def reward(self, survey: Survey, escalation: bool) -> float | None:
        """Scalar reward for one event's survey answer and escalation flag,
        or None when the event carries no signal.

        Survey yes -> +1, no -> -1, skipped -> no reward. In the
        escalation-aware mode an escalation adds ``escalation_weight`` on top
        of the survey reward, and a skipped survey with an escalation still
        yields ``escalation_weight`` alone.
        """
        if survey is Survey.YES:
            base: float | None = 1.0
        elif survey is Survey.NO:
            base = -1.0
        else:
            base = None
        if self.mode is RewardMode.SURVEY_ONLY:
            return base
        extra = self.escalation_weight if escalation else 0.0
        if base is None:
            return extra if escalation else None
        return base + extra


def reward_of(feedback: Feedback, spec: RewardSpec) -> float | None:
    """``spec.reward`` of one event's feedback."""
    return spec.reward(feedback.survey, feedback.escalation)


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
        _check_event(
            self.ts, self.slate.items, self.feedback.click, self.propensity, self.posteriors
        )

    def clicked_action(self) -> Action | None:
        if self.feedback.click is None:
            return None
        return self.slate.items[self.feedback.click]


# The structural rules of a slate and an event, each written once: the
# dataclasses check them on construction, and ``_read_line`` on a line it
# reads into columns.


def _check_slate(items: tuple[Action, ...], n_scores: int) -> None:
    if len(items) != n_scores:
        raise ValidationError("items and scores must have equal length")
    ids = [a.action_id for a in items]
    if len(set(ids)) != len(ids):
        raise ValidationError("slate contains a duplicate action")
    if sum(1 for a in items if a.is_null_item) > 1:
        raise ValidationError("slate contains more than one null item")


def _check_click(click) -> None:
    if click is not None and (isinstance(click, bool) or not isinstance(click, int) or click < 0):
        raise ValidationError("click must be a non-negative slot index or None")


def _check_event(ts, items: tuple[Action, ...], click, propensity, posteriors) -> None:
    if isinstance(ts, bool) or not isinstance(ts, int):
        raise ValidationError("ts must be integer epoch seconds")
    if click is not None and click >= len(items):
        raise ValidationError("click does not index a valid slot of the served slate")
    if propensity is not None and not (0.0 < propensity <= 1.0):
        raise ValidationError("propensity must lie in (0, 1]")
    if posteriors is not None:
        for a in items:
            if a.action_id not in posteriors:
                raise ValidationError("posteriors must cover every slate action")


def attributed_item(items: tuple[Action, ...], click: int | None) -> Action | None:
    """The action feedback on the served ``items`` attaches to.

    The clicked slot when there is a click; for a direct-trigger singleton
    slate (one content item, no null slot) the single item, because there the
    click is implicit and censored. None when nothing was selected.
    """
    if click is not None:
        return items[click]
    if len(items) == 1 and not items[0].is_null_item:
        return items[0]
    return None


def attributed_action(event: LoggedEvent) -> Action | None:
    """``attributed_item`` of one event."""
    return attributed_item(event.slate.items, event.feedback.click)


@dataclass
class LogColumns:
    """A log as per-event columns, in log order.

    The actions in ``slates`` are shared objects where a reader interns them
    (``read_columns`` does). ``propensity`` holds the logged value, None
    where none was logged. No ``Slate``, ``Feedback`` or ``LoggedEvent`` is
    kept.
    """

    ts: list[int]
    contexts: list[Context]
    slates: list[tuple[Action, ...]]
    click: list[int | None]
    survey: list[Survey]
    escalation: list[bool]
    propensity: list[float | None]

    def __len__(self) -> int:
        return len(self.ts)

    @classmethod
    def from_events(cls, events: list[LoggedEvent]) -> "LogColumns":
        """The columns of in-memory events, sharing their objects."""
        feedback = [e.feedback for e in events]
        return cls(
            ts=[e.ts for e in events],
            contexts=[e.context for e in events],
            slates=[e.slate.items for e in events],
            click=[f.click for f in feedback],
            survey=[f.survey for f in feedback],
            escalation=[f.escalation for f in feedback],
            propensity=[e.propensity for e in events],
        )


def attributed_reward(
    items: tuple[Action, ...], click: int | None, survey: Survey, escalation: bool,
    spec: RewardSpec,
) -> tuple[Action, float] | None:
    """(attributed action, reward) of one event, or None when the event
    carries no reward or attaches it to no action. The null item counts.

    The one filter every learner and estimator reads a log through, so the
    online and offline paths see the same rows.
    """
    reward = spec.reward(survey, escalation)
    if reward is None:
        return None
    action = attributed_item(items, click)
    if action is None:
        return None
    return action, reward


def attributed_rewards(
    columns: LogColumns, spec: RewardSpec
) -> Iterator[tuple[int, Action, float]]:
    """(index, attributed action, reward) for every event that
    ``attributed_reward`` keeps; ``index`` counts all events and indexes the
    other columns.
    """
    rows = zip(columns.slates, columns.click, columns.survey, columns.escalation)
    for index, (items, click, survey, escalation) in enumerate(rows):
        attributed = attributed_reward(items, click, survey, escalation, spec)
        if attributed is not None:
            yield index, *attributed


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


LOG_VERSION = 2


def encode_event(event: LoggedEvent) -> str:
    """One JSON line in the v2 format: v, ts, ctx, slate, click, survey,
    escalation and policy always; propensity and posteriors only when set.
    Slate items leave out what decoding restores (see ``Action.to_dict``)."""
    record = {
        "v": LOG_VERSION,
        "ts": event.ts,
        "ctx": event.context.to_dict(),
        "slate": event.slate.to_dict(),
        "click": event.feedback.click,
        "survey": event.feedback.survey.value,
        "escalation": event.feedback.escalation,
        "policy": event.policy_tag,
    }
    if event.propensity is not None:
        record["propensity"] = event.propensity
    if event.posteriors is not None:
        record["posteriors"] = {
            k: [float(v[0]), float(v[1])] for k, v in sorted(event.posteriors.items())
        }
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _decode_action(d, interned: dict | None, v2: bool) -> Action:
    if not isinstance(d, dict):
        raise ValidationError("slate item must be a JSON object")
    features = d.get("features")
    if features is not None and not isinstance(features, dict):
        raise ValidationError("item features must be a JSON object")
    action_id = d["id"]
    # v1 writes every field; v2 leaves out the null flag (the id fixes it)
    # and a title equal to its default
    is_null = bool(d.get("null", v2 and action_id == NULL_ACTION_ID))
    title = d.get("title", NULL_ACTION_TITLE if v2 and is_null else "")
    # Only string ids and titles are looked up (a list id is unhashable) and
    # only string-valued features are stored, so ``==`` below cannot take
    # 1 for True and hand back an Action that re-encodes to other bytes.
    if interned is None or type(action_id) is not str or type(title) is not str:
        return Action(action_id, title, is_null, dict(features or {}))
    key = (action_id, title, is_null)
    action = interned.get(key)
    if action is None or action.features != (features or {}):
        action = Action(action_id, title, is_null, dict(features or {}))
        if all(type(v) is str for v in action.features.values()):
            interned[key] = action
    return action


def _decode_context(d) -> Context:
    if not isinstance(d, dict):
        raise ValidationError("event field 'ctx' must be a JSON object")
    features = d.get("features")
    if features is not None and not isinstance(features, dict):
        raise ValidationError("context features must be a JSON object")
    query = d.get("query")
    if query is not None and type(query) is not str:
        raise ValidationError("context query must be a JSON string or null")
    context_id = d["id"]
    if type(context_id) is not str:  # Context itself rejects an empty id
        raise ValidationError("context id must be a JSON string")
    return Context(context_id, dict(features or {}), query)


def _field(record: dict, name: str, kind: type, what: str):
    value = record[name]
    if not isinstance(value, kind):
        raise ValidationError(f"event field {name!r} must be a JSON {what}")
    return value


# the types json.loads gives a JSON number; bool subclasses int, but compared
# by exact type ``true`` is no number
_NUMBER_TYPES = frozenset((int, float))
_SURVEYS = {s.value: s for s in Survey}


def _read_line(line: str, interned: dict | None, as_event: bool = False):
    """The checked fields of one log line, as the tuple ts, context, items (a
    tuple of Actions), click, survey, escalation, propensity; or with
    ``as_event`` the ``LoggedEvent`` the line holds.

    The one validator of a line, so ``decode_event`` and ``read_columns``
    accept and reject the same lines. The structural rules run once either
    way: for the tuple here, for the event in the ``Slate``, ``Feedback``
    and ``LoggedEvent`` constructors. ValidationError when the line is not a
    well-formed event.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed event line: {exc}") from exc
    if not isinstance(record, dict):
        raise ValidationError("event line must hold a JSON object")
    try:
        v2 = "v" in record
        if v2 and (type(record["v"]) is not int or record["v"] != LOG_VERSION):
            raise ValidationError(f"unknown event log version {record['v']!r}")
        survey = _SURVEYS.get(record["survey"])
        if survey is None:
            raise ValidationError("survey must be yes/no/skipped")
        escalation = record.get("escalation", False)
        if type(escalation) is not bool:
            raise ValidationError("event field 'escalation' must be a JSON boolean")
        propensity = record.get("propensity")
        if propensity is not None and type(propensity) not in _NUMBER_TYPES:
            raise ValidationError("event field 'propensity' must be a JSON number or null")
        policy = record.get("policy", "")
        if type(policy) is not str:
            raise ValidationError("event field 'policy' must be a JSON string")
        posteriors = record.get("posteriors")
        if posteriors is not None:
            posteriors = _field(record, "posteriors", dict, "object")
            for pair in posteriors.values():
                if type(pair) is not list or len(pair) != 2 or not _NUMBER_TYPES.issuperset(
                    map(type, pair)
                ):
                    raise ValidationError("a posteriors entry must be two JSON numbers")
        slate = _field(record, "slate", dict, "object")
        scores = _field(slate, "scores", list, "list")
        if not _NUMBER_TYPES.issuperset(map(type, scores)):
            raise ValidationError("slate scores must be JSON numbers")
        items = tuple(
            [_decode_action(d, interned, v2) for d in _field(slate, "items", list, "list")]
        )
        context = _decode_context(record["ctx"])
        click = record.get("click")
        ts = record["ts"]
        if as_event:
            if posteriors is not None:
                posteriors = {k: (float(s), float(t)) for k, (s, t) in posteriors.items()}
            return LoggedEvent(
                ts=ts,
                context=context,
                slate=Slate(items=items, scores=scores),
                feedback=Feedback(click=click, survey=survey, escalation=escalation),
                propensity=propensity,
                posteriors=posteriors,
                policy_tag=policy,
            )
        _check_slate(items, len(scores))
        _check_click(click)
        _check_event(ts, items, click, propensity, posteriors)
    except KeyError as exc:
        raise ValidationError(f"event line missing field {exc}") from exc
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed event line: {exc}") from exc
    return ts, context, items, click, survey, escalation, propensity


def decode_event(line: str, *, interned: dict | None = None) -> LoggedEvent:
    """The event one log line holds; ValidationError when the line is not a
    well-formed event.

    Reads v2 lines (``"v":2``) and v1 lines (no ``"v"``, every field
    written); any other version is an error.

    ``interned`` is a table that one reading pass keeps across lines (as
    ``EventLog.replay`` does). With it, slate items equal in id, title, null
    flag and features decode to one shared ``Action`` object, as served
    events share the pool's objects; an item whose features differ gets its
    own. Without it every item is built afresh. Either way the events compare
    equal and re-encode to the same bytes.
    """
    return _read_line(line, interned, as_event=True)


def _lines(path: str | os.PathLike) -> Iterator[str]:
    """The stripped lines of the file at ``path``, blank ones skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield line


def read_columns(path: str | os.PathLike) -> LogColumns:
    """The log at ``path`` as columns, read in one pass, blank lines skipped.

    Each line goes through the same validator as ``decode_event``, so a log
    ``EventLog.read_all`` rejects is rejected here too, with ValidationError.
    Slate items are interned for the pass, as in ``EventLog.replay``; the
    parsed line is dropped once its columns are taken, and no event object
    is built.
    """
    interned: dict = {}
    ts, contexts, slates, clicks, surveys, escalations, propensities = [], [], [], [], [], [], []
    for line in _lines(path):
        t, context, items, click, survey, escalation, propensity = _read_line(line, interned)
        ts.append(t)
        contexts.append(context)
        slates.append(items)
        clicks.append(click)
        surveys.append(survey)
        escalations.append(escalation)
        propensities.append(propensity)
    return LogColumns(
        ts=ts,
        contexts=contexts,
        slates=slates,
        click=clicks,
        survey=surveys,
        escalation=escalations,
        propensity=propensities,
    )


class EventLog:
    """Append-only JSONL event log.

    Each append is one write plus one flush. Inside ``with log:`` appends go
    through one handle held open for the scope; outside one, each append
    opens and closes the file. Replay yields events in append order so a
    reader that consumes the file in one pass sees each event exactly once.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._fh = None

    def __enter__(self) -> "EventLog":
        if self._fh is not None:
            raise ValueError("event log is already open")
        self._fh = open(self.path, "a", encoding="utf-8")
        return self

    def __exit__(self, *exc_info) -> None:
        fh, self._fh = self._fh, None
        fh.close()

    def append(self, event: LoggedEvent) -> None:
        line = encode_event(event) + "\n"
        if self._fh is not None:
            self._fh.write(line)
            self._fh.flush()
            return
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()

    def replay(self) -> Iterator[LoggedEvent]:
        """Events in append order, blank lines skipped.

        One intern table serves the whole pass, so each distinct slate item
        is built once and the events share its ``Action``, as served events
        do (see ``decode_event``).
        """
        interned: dict = {}
        for line in _lines(self.path):
            yield decode_event(line, interned=interned)

    def read_all(self) -> list[LoggedEvent]:
        return list(self.replay())
