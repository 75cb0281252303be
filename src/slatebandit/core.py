"""Domain types and the append-only interaction log.

Everything downstream (counter aggregation, reward-model training, off-policy
evaluation) consumes the event records defined here, so the field names in the
serialized form are part of the contract and must not drift.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import uuid
import zipfile
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


def atomic_write(path: str | os.PathLike, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (text, or bytes written as given) so a
    reader sees the old file or the new one, never a torn one.

    The data goes to a uniquely named temp file beside the target, is synced
    to disk and renamed over it; on any failure the temp file is removed and
    the target is left as it was. Text is written as UTF-8 with its line
    endings as given, and the file gets the mode a plain ``open(path, "w")``
    would give it.
    """
    path = os.fspath(path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    if isinstance(data, bytes):
        opened = open(tmp, "xb")
    else:
        opened = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with opened as fh:
            fh.write(data)
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


def decode_event(line: str) -> LoggedEvent:
    """The event one log line holds; ValidationError when the line is not a
    well-formed event.

    Reads v2 lines (``"v":2``) and v1 lines (no ``"v"``, every field
    written); any other version is an error. Every item is built afresh, so
    the event compares equal to, and re-encodes to the same bytes as, the
    one that was logged.
    """
    return _read_line(line, None, as_event=True)


def _lines(fh, digest) -> Iterator[str]:
    """The stripped lines of the binary file ``fh``, blank ones skipped.

    Every byte read goes into ``digest`` before its line is yielded, so the
    digest covers exactly the bytes parsed. ValidationError on a line that
    is not UTF-8.
    """
    for raw in fh:
        digest.update(raw)
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"event line is not UTF-8: {exc}") from exc
        if line:
            yield line


def _parse_columns(path: str | os.PathLike) -> tuple[LogColumns, str, int]:
    """The JSONL at ``path`` as columns, read in one validating pass, with
    the SHA-256 and the byte count of the bytes parsed."""
    interned: dict = {}
    digest = hashlib.sha256()
    ts, contexts, slates, clicks, surveys, escalations, propensities = [], [], [], [], [], [], []
    with open(path, "rb") as fh:
        for line in _lines(fh, digest):
            t, context, items, click, survey, escalation, propensity = _read_line(line, interned)
            ts.append(t)
            contexts.append(context)
            slates.append(items)
            clicks.append(click)
            surveys.append(survey)
            escalations.append(escalation)
            propensities.append(propensity)
        size = fh.tell()
    columns = LogColumns(
        ts=ts,
        contexts=contexts,
        slates=slates,
        click=clicks,
        survey=surveys,
        escalation=escalations,
        propensity=propensities,
    )
    return columns, digest.hexdigest(), size


def read_columns(path: str | os.PathLike) -> LogColumns:
    """The log at ``path`` as columns, blank lines skipped.

    When the log has a column sidecar (``sidecar_path``) whose header names
    the log's byte size and SHA-256, the columns come from the sidecar and
    the JSONL is not parsed. The sidecar's contexts and items go through the
    same decoders as a line's, so the columns equal those of the JSONL,
    JSON types included. A sidecar that matches but fails its own checks, or
    that cannot be read at all, is a ValidationError, never a silent
    fallback.

    Otherwise (no sidecar, or one written for other bytes or in another
    format version) the JSONL is read in one pass, each line through the
    same validator as ``decode_event``, so both reject the same lines, with
    ValidationError. Slate items are interned for the pass; the parsed line
    is dropped once its columns are taken, and no event object is built.
    The columns are then written to the sidecar for the bytes parsed, so
    the next read of the same log skips the parse. No sidecar is written
    when an array cannot hold a value exactly (see ``_sidecar_bytes``), and
    a failed write is ignored: the sidecar is an advisory cache, and
    deleting it is always safe. On a 20 000-line served log (2-core VM) a
    first read took 0.53 s, 0.42 s of it the parse, and a read from the
    sidecar 0.036 s.
    """
    path = os.fspath(path)
    columns = _sidecar_columns(path)
    if columns is None:
        columns, sha256, size = _parse_columns(path)
        sidecar = _sidecar_bytes(columns, sha256, size)
        if sidecar is not None:
            with contextlib.suppress(OSError):
                atomic_write(sidecar_path(path), sidecar)
    return columns


# The column sidecar of a log: ``<log>.cols.npz``, an uncompressed numpy
# archive loaded without pickle. ``header`` holds UTF-8 JSON (format version,
# the log's byte size and SHA-256, and the distinct contexts and slate items
# as their ``to_dict()``); the other members are one entry per row, except
# ``items`` (every slate's item-table indices, end to end) and ``offsets``
# (row i's items are ``items[offsets[i]:offsets[i + 1]]``).
SIDECAR_VERSION = 1
_SIDECAR_ARRAYS = {
    "ts": np.int64,
    "context": np.int32,  # context-table index
    "items": np.int32,
    "offsets": np.int64,
    "click": np.int32,  # -1 for none
    "survey": np.int8,  # index into _SURVEY_ORDER
    "escalation": np.int8,
    "propensity": np.float64,
    "has_propensity": np.int8,  # 0 where none was logged
}
_SURVEY_ORDER = (Survey.YES, Survey.NO, Survey.SKIPPED)
_SURVEY_CODES = {survey: code for code, survey in enumerate(_SURVEY_ORDER)}


def sidecar_path(path: str | os.PathLike) -> str:
    """Where the column sidecar of the log at ``path`` lives."""
    return os.fspath(path) + ".cols.npz"


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _tabled(objects, key) -> tuple[list[int], list[dict]]:
    """Each of ``objects`` as an index into a table of the ``to_dict()`` of
    the distinct ones, in first-seen order; objects with equal ``key`` are
    the same entry."""
    codes: dict = {}
    table: list[dict] = []
    indices = []
    for obj in objects:
        k = key(obj)
        code = codes.get(k)
        if code is None:
            code = codes[k] = len(table)
            table.append(obj.to_dict())
        indices.append(code)
    return indices, table


def _json_text(obj) -> str:
    return json.dumps(obj.to_dict(), sort_keys=True, separators=(",", ":"))


def _sidecar_bytes(columns: LogColumns, sha256: str, size: int) -> bytes | None:
    """The sidecar of ``columns``, parsed from a log of ``size`` bytes with
    SHA-256 ``sha256``; the same arguments always give the same bytes.

    Contexts are tabled by their JSON text, so two are one entry exactly
    when they read back the same, JSON types included. Items are tabled by
    object: the parse interns only items whose JSON it can compare. None
    when an array cannot hold a value exactly as the JSONL reader gives it:
    an integer propensity, or a ts outside int64.
    """
    if any(type(p) is int for p in columns.propensity):
        return None
    try:
        ts = np.array(columns.ts, dtype=np.int64)
    except OverflowError:
        return None
    context, contexts = _tabled(columns.contexts, _json_text)
    items, actions = _tabled((a for slate in columns.slates for a in slate), id)
    arrays = {
        "ts": ts,
        "context": context,
        "items": items,
        "offsets": list(accumulate(map(len, columns.slates), initial=0)),
        "click": [-1 if c is None else c for c in columns.click],
        "survey": [_SURVEY_CODES[s] for s in columns.survey],
        "escalation": columns.escalation,
        "propensity": [0.0 if p is None else p for p in columns.propensity],
        "has_propensity": [p is not None for p in columns.propensity],
    }
    header = {
        "version": SIDECAR_VERSION,
        "size": size,
        "sha256": sha256,
        "contexts": contexts,
        "items": actions,
    }
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    buffer = io.BytesIO()
    np.savez(
        buffer,
        header=np.frombuffer(text.encode(), dtype=np.uint8),
        **{name: np.asarray(arrays[name], dtype=dtype) for name, dtype in _SIDECAR_ARRAYS.items()},
    )
    return buffer.getvalue()


_UNREADABLE = (OSError, EOFError, LookupError, TypeError, ValueError, zipfile.BadZipFile)


def _sidecar_columns(path: str) -> LogColumns | None:
    """The columns of the sidecar of the log at ``path``; None when there is
    none, or its format version or the bytes it was written for differ from
    the log's."""
    try:
        with open(sidecar_path(path), "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            header = json.loads(archive["header"].tobytes())
            if header["version"] != SIDECAR_VERSION:
                return None
            size, sha256 = header["size"], header["sha256"]
            arrays = {name: archive[name] for name in _SIDECAR_ARRAYS}
    except FileNotFoundError:
        return None
    except _UNREADABLE as exc:
        raise ValidationError(f"unreadable column sidecar: {exc!r}") from exc
    if size != os.path.getsize(path) or sha256 != _file_sha256(path):
        return None
    try:
        contexts = [_decode_context(d) for d in header["contexts"]]
        actions = [_decode_action(d, None, True) for d in header["items"]]
        return _checked_columns(arrays, contexts, actions)
    except ValidationError:
        raise
    except _UNREADABLE as exc:
        raise ValidationError(f"malformed column sidecar: {exc!r}") from exc


def _checked_columns(
    arrays: dict[str, np.ndarray], contexts: list[Context], actions: list[Action]
) -> LogColumns:
    """The columns ``arrays`` index into ``contexts`` and ``actions``, after
    vectorised checks of their shape; ValidationError when one fails."""

    def require(ok, what: str) -> None:
        if not ok:
            raise ValidationError(f"malformed column sidecar: {what}")

    for name, dtype in _SIDECAR_ARRAYS.items():
        require(arrays[name].dtype == dtype and arrays[name].ndim == 1, f"{name!r} has a wrong type")
    ts, context, items, offsets, click, survey, escalation, propensity, has_propensity = (
        arrays[name] for name in _SIDECAR_ARRAYS
    )
    n = len(ts)
    require(
        all(len(a) == n for a in (context, click, survey, escalation, propensity, has_propensity))
        and len(offsets) == n + 1,
        "column lengths disagree",
    )
    lengths = np.diff(offsets)
    require(offsets[0] == 0 and offsets[-1] == len(items) and np.all(lengths >= 0),
            "slate offsets are not monotone")
    require(np.all((context >= 0) & (context < len(contexts))), "a context index is out of range")
    require(np.all((items >= 0) & (items < len(actions))), "an item index is out of range")
    require(np.all((click >= -1) & (click < lengths)), "a click lies outside its slate")
    require(np.all((survey >= 0) & (survey < len(_SURVEY_ORDER))), "a survey code is out of range")
    require(np.all((escalation == 0) | (escalation == 1)), "an escalation is not 0 or 1")
    require(np.all((has_propensity == 0) | (has_propensity == 1)), "a propensity mask is not 0 or 1")
    require(np.all((has_propensity == 0) | ((propensity > 0) & (propensity <= 1))),
            "a propensity lies outside (0, 1]")
    rows = np.repeat(np.arange(n), lengths)
    is_null = np.array([a.is_null_item for a in actions], dtype=bool)
    require(np.all(np.bincount(rows, weights=is_null[items], minlength=n) <= 1),
            "a slate holds more than one null item")
    codes: dict = {}
    id_code = np.array([codes.setdefault(a.action_id, len(codes)) for a in actions], dtype=np.int64)
    pairs = np.sort(rows * max(len(codes), 1) + id_code[items])
    require(np.all(pairs[1:] != pairs[:-1]), "a slate holds a duplicate action")

    row_items, bounds, action_at = items.tolist(), offsets.tolist(), actions.__getitem__
    return LogColumns(
        ts=ts.tolist(),
        contexts=[contexts[i] for i in context.tolist()],
        slates=[tuple(map(action_at, row_items[a:b])) for a, b in zip(bounds, bounds[1:])],
        click=[None if c < 0 else c for c in click.tolist()],
        survey=[_SURVEY_ORDER[code] for code in survey.tolist()],
        escalation=escalation.astype(bool).tolist(),
        propensity=[p if has else None for p, has in zip(propensity.tolist(), has_propensity.tolist())],
    )


class EventLog:
    """Append-only JSONL event log.

    Each append is one write plus one flush. Inside ``with log:`` appends go
    through one handle held open for the scope; outside one, each append
    opens and closes the file.

    The log's column sidecar is not written here: the first
    ``read_columns`` of the log writes it from the columns it parsed. An
    append makes the sidecar stale (it names the bytes it was written
    for), and the next read parses the log and writes it anew.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._fh = None

    def __enter__(self) -> "EventLog":
        if self._fh is not None:
            raise ValueError("event log is already open")
        self._fh = open(self.path, "ab")
        return self

    def __exit__(self, *exc_info) -> None:
        fh, self._fh = self._fh, None
        fh.close()

    def append(self, event: LoggedEvent) -> None:
        line = (encode_event(event) + "\n").encode()
        if self._fh is None:
            with open(self.path, "ab") as fh:
                fh.write(line)
                fh.flush()
            return
        self._fh.write(line)
        self._fh.flush()
