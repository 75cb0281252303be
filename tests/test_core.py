"""Domain types, reward mapping, and the event log."""

import dataclasses
import json
import os

import numpy as np
import pytest

from conftest import encode_v1, encode_v2, make_action, make_event, make_slate
from slatebandit.core import (
    NULL_ACTION_ID,
    NULL_ACTION_TITLE,
    Action,
    Context,
    EventLog,
    Feedback,
    LogColumns,
    LoggedEvent,
    RewardMode,
    RewardSpec,
    Slate,
    Survey,
    ValidationError,
    atomic_write,
    attributed_action,
    attributed_rewards,
    categorical,
    decode_event,
    encode_event,
    null_item,
    read_columns,
    reward_of,
)


class TestActions:
    def test_null_item_uses_reserved_id(self):
        item = null_item()
        assert item.is_null_item
        assert item.action_id == NULL_ACTION_ID

    def test_content_action_cannot_take_reserved_id(self):
        with pytest.raises(ValidationError):
            Action(action_id=NULL_ACTION_ID, is_null_item=False)

    def test_null_flag_requires_reserved_id(self):
        with pytest.raises(ValidationError):
            Action(action_id="a1", is_null_item=True)


class TestSlate:
    def test_duplicate_action_rejected(self):
        with pytest.raises(ValidationError):
            Slate(items=[make_action("a1"), make_action("a1")], scores=[0.5, 0.4])

    def test_two_null_items_rejected(self):
        with pytest.raises(ValidationError):
            Slate(items=[null_item(), null_item()], scores=[0.5, 0.4])

    def test_score_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Slate(items=[make_action("a1")], scores=[0.5, 0.4])

    def test_content_items_stop_at_null(self):
        slate = make_slate(["a1", "a2"])
        assert [a.action_id for a in slate.content_items()] == ["a1", "a2"]

    def test_direct_trigger_slate_is_all_content(self):
        slate = make_slate(["a1"], with_null=False)
        assert [a.action_id for a in slate.content_items()] == ["a1"]

    def test_null_only_slate_has_no_content(self):
        slate = Slate(items=[null_item()], scores=[0.3])
        assert slate.content_items() == ()


class TestRewardMapping:
    SPEC = RewardSpec(mode=RewardMode.SURVEY_ONLY)

    def test_yes_is_plus_one(self):
        assert reward_of(Feedback(click=0, survey=Survey.YES), self.SPEC) == 1.0

    def test_no_is_minus_one(self):
        assert reward_of(Feedback(click=0, survey=Survey.NO), self.SPEC) == -1.0

    def test_skipped_is_undefined(self):
        assert reward_of(Feedback(click=0, survey=Survey.SKIPPED), self.SPEC) is None

    def test_escalation_ignored_in_survey_only_mode(self):
        fb = Feedback(click=0, survey=Survey.YES, escalation=True)
        assert reward_of(fb, self.SPEC) == 1.0

    def test_escalation_mode_adds_weight_to_survey_reward(self):
        spec = RewardSpec(mode=RewardMode.SURVEY_AND_ESCALATION, escalation_weight=-0.5)
        fb = Feedback(click=0, survey=Survey.YES, escalation=True)
        assert reward_of(fb, spec) == 0.5
        fb = Feedback(click=0, survey=Survey.NO, escalation=True)
        assert reward_of(fb, spec) == -1.5

    def test_escalation_mode_skipped_survey_keeps_escalation_signal(self):
        spec = RewardSpec(mode=RewardMode.SURVEY_AND_ESCALATION, escalation_weight=-0.5)
        assert reward_of(Feedback(survey=Survey.SKIPPED, escalation=True), spec) == -0.5
        assert reward_of(Feedback(survey=Survey.SKIPPED, escalation=False), spec) is None

    def test_positive_escalation_weight_rejected(self):
        with pytest.raises(ValidationError):
            RewardSpec(mode=RewardMode.SURVEY_AND_ESCALATION, escalation_weight=0.1)


class TestAttribution:
    def test_clicked_content_action(self):
        event = make_event(action_ids=["a1", "a2"], click=1)
        assert attributed_action(event).action_id == "a2"

    def test_click_on_null_slot_attributes_to_null(self):
        event = make_event(action_ids=["a1", "a2"], click=2)
        assert attributed_action(event).is_null_item

    def test_no_click_attributes_nothing(self):
        event = make_event(action_ids=["a1", "a2"], click=None)
        assert attributed_action(event) is None

    def test_direct_trigger_singleton_attributes_with_censored_click(self):
        event = make_event(action_ids=["a1"], click=None, with_null=False)
        attributed = attributed_action(event)
        assert attributed is not None and attributed.action_id == "a1"
        assert event.feedback.click is None

    def test_null_only_slate_attributes_nothing(self):
        event = LoggedEvent(
            ts=0,
            context=Context(context_id="c"),
            slate=Slate(items=[null_item()], scores=[0.2]),
            feedback=Feedback(),
        )
        assert attributed_action(event) is None


class TestAttributedRewards:
    def test_yields_rewarded_attributions_null_slot_included(self):
        events = [
            make_event(ts=0, click=0, survey=Survey.YES),  # content click
            make_event(ts=1, click=0),  # no survey answer: no reward
            make_event(ts=2, click=2, survey=Survey.NO),  # free-text turn on the null slot
            make_event(ts=3, survey=Survey.YES),  # nothing selected: no action
        ]
        rows = list(attributed_rewards(LogColumns.from_events(events), RewardSpec()))
        assert [(i, a.action_id, r) for i, a, r in rows] == [
            (0, "a1", 1.0),
            (2, NULL_ACTION_ID, -1.0),
        ]
        assert rows[1][1] is events[2].slate.items[2]


class TestEventValidation:
    def test_click_must_index_served_slot(self):
        with pytest.raises(ValidationError):
            make_event(action_ids=["a1"], click=5)

    def test_propensity_must_be_in_unit_interval(self):
        with pytest.raises(ValidationError):
            make_event(click=0, propensity=0.0)
        with pytest.raises(ValidationError):
            make_event(click=0, propensity=1.5)

    def test_posteriors_must_cover_slate(self):
        with pytest.raises(ValidationError):
            LoggedEvent(
                ts=0,
                context=Context(context_id="c"),
                slate=make_slate(["a1"]),
                feedback=Feedback(),
                posteriors={"a1": (1.0, 2.0)},  # null item missing
            )

    def test_timestamp_must_be_integer(self):
        with pytest.raises(ValidationError):
            LoggedEvent(
                ts=1.5,
                context=Context(context_id="c"),
                slate=make_slate(["a1"]),
                feedback=Feedback(),
            )


def assert_both_readers_reject(line: str, tmp_path) -> None:
    """``decode_event`` and ``read_columns`` both raise ValidationError on
    ``line``, the latter also when a good line comes first."""
    with pytest.raises(ValidationError):
        decode_event(line)
    path = tmp_path / "events.jsonl"
    path.write_text(encode_event(make_event()) + "\n" + line + "\n")
    with pytest.raises(ValidationError):
        read_columns(path)


class TestEventSerialization:
    def test_round_trip_identity(self):
        event = LoggedEvent(
            ts=1234,
            context=Context(context_id="printers", features={"os": "w10"}, query="help"),
            slate=make_slate(["a1", "a2"], scores=[0.9, 0.4, 0.1]),
            feedback=Feedback(click=0, survey=Survey.YES, escalation=False),
            propensity=0.41,
            posteriors={"a1": (3.0, 10.0), "a2": (0.0, 4.0), NULL_ACTION_ID: (0.0, 0.0)},
            policy_tag="mab-v1",
        )
        assert decode_event(encode_event(event)) == event

    def test_fixed_field_names(self):
        required = {"v", "ts", "ctx", "slate", "click", "survey", "escalation", "policy"}
        optional = {"propensity", "posteriors"}
        bare = make_event(click=0, survey=Survey.NO)
        assert set(json.loads(encode_event(bare))) == required
        full = LoggedEvent(
            ts=bare.ts,
            context=bare.context,
            slate=bare.slate,
            feedback=bare.feedback,
            propensity=0.5,
            posteriors={a.action_id: (1.0, 2.0) for a in bare.slate.items},
        )
        assert set(json.loads(encode_event(full))) == required | optional

    def test_float_fields_round_trip_exactly(self):
        score = 0.1 + 0.2  # not representable prettily
        event = make_event(action_ids=["a1"], click=0, propensity=1 / 3)
        slate = Slate(items=event.slate.items, scores=[score, 0.25])
        event = LoggedEvent(
            ts=event.ts,
            context=event.context,
            slate=slate,
            feedback=event.feedback,
            propensity=event.propensity,
        )
        back = decode_event(encode_event(event))
        assert back.slate.scores[0] == score
        assert back.propensity == 1 / 3

    def test_malformed_line_raises(self, tmp_path):
        assert_both_readers_reject("{not json", tmp_path)

    def test_bad_survey_value_raises(self, tmp_path):
        line = encode_event(make_event()).replace('"skipped"', '"maybe"')
        assert_both_readers_reject(line, tmp_path)


# written by the v1 encoder, which wrote every field and no version
V1_LINES = [
    '{"click":1,"ctx":{"features":{"os":"w10"},"id":"printers","query":"jam"},'
    '"escalation":true,"policy":"mab","posteriors":{"__null__":[1.0,2.0],"a1":[3.0,10.0],'
    '"a2":[0.0,0.0]},"propensity":0.25,"slate":{"items":[{"features":{"kind":"faq"},'
    '"id":"a1","null":false,"title":"Clear a jam"},{"features":{},"id":"a2","null":false,'
    '"title":""},{"features":{},"id":"__null__","null":true,"title":"None of the above"}],'
    '"scores":[0.75,0.5,0.25]},"survey":"no","ts":7}',
    '{"click":null,"ctx":{"features":{},"id":"printers","query":null},"escalation":false,'
    '"policy":"","posteriors":null,"propensity":null,"slate":{"items":[{"features":{},'
    '"id":"a2","null":false,"title":"Drivers"},{"features":{},"id":"__null__","null":true,'
    '"title":"None of the above"}],"scores":[0.5,0.25]},"survey":"skipped","ts":8}',
]
V1_EVENTS = [
    LoggedEvent(
        ts=7,
        context=Context("printers", features={"os": "w10"}, query="jam"),
        slate=Slate(
            items=[
                Action("a1", "Clear a jam", features={"kind": "faq"}), Action("a2"), null_item()
            ],
            scores=[0.75, 0.5, 0.25],
        ),
        feedback=Feedback(click=1, survey=Survey.NO, escalation=True),
        propensity=0.25,
        posteriors={"a1": (3.0, 10.0), "a2": (0.0, 0.0), NULL_ACTION_ID: (1.0, 2.0)},
        policy_tag="mab",
    ),
    LoggedEvent(
        ts=8,
        context=Context("printers"),
        slate=Slate(items=[Action("a2", "Drivers"), null_item()], scores=[0.5, 0.25]),
        feedback=Feedback(),
    ),
]


def one_item_event(item: Action, **fields) -> LoggedEvent:
    slate = Slate(items=[item, null_item()], scores=fields.pop("scores", [0.5, 0.25]))
    return LoggedEvent(ts=3, context=fields.pop("context", Context("c")), slate=slate,
                       feedback=Feedback(click=0), **fields)


class TestLogFormat:
    def test_v1_lines_read_as_written_and_reencode_as_v2(self):
        for line, event in zip(V1_LINES, V1_EVENTS):
            assert encode_v1(event) == line
            assert decode_event(line) == event
            assert encode_event(decode_event(line)) == encode_v2(event)
            assert decode_event(encode_event(event)) == event

    def test_v2_leaves_out_what_decoding_restores(self):
        assert encode_event(V1_EVENTS[1]) == (
            '{"click":null,"ctx":{"features":{},"id":"printers","query":null},'
            '"escalation":false,"policy":"","slate":{"items":[{"id":"a2","title":"Drivers"},'
            '{"id":"__null__"}],"scores":[0.5,0.25]},"survey":"skipped","ts":8,"v":2}'
        )

    def test_titles_other_than_the_default_are_written(self):
        untitled_null = Action(NULL_ACTION_ID, "", is_null_item=True)
        slate = Slate(items=[Action("a1", NULL_ACTION_TITLE), untitled_null], scores=[0.5, 0.25])
        event = LoggedEvent(ts=0, context=Context("c"), slate=slate, feedback=Feedback())
        line = encode_event(event)
        assert json.loads(line)["slate"]["items"] == [
            {"id": "a1", "title": NULL_ACTION_TITLE},
            {"id": NULL_ACTION_ID, "title": ""},
        ]
        assert decode_event(line) == event
        assert decode_event(encode_v1(event)) == event

    @pytest.mark.parametrize(
        "event",
        [
            one_item_event(Action("a1", "Réinitialiser — 密码 ✓")),
            one_item_event(
                Action("a1", "Guide", features={"n": 1, "flag": True, "x": 1.5, "none": None}),
                context=Context("c", features={"tier": 2}, query="¿ayuda?"),
            ),
            one_item_event(Action("a1"), scores=[float("nan"), float("-inf")]),
            one_item_event(Action("a1"), propensity=np.float64(1 / 3)),
            V1_EVENTS[0],
        ],
        ids=["unicode-title", "non-string-features", "nan-scores", "numpy-propensity", "full"],
    )
    def test_encoding_matches_the_reference_and_round_trips(self, event):
        line = encode_event(event)
        assert line == encode_v2(event)
        assert encode_event(decode_event(line)) == line
        assert encode_event(decode_event(encode_v1(event))) == line
        for table in (None, {}):
            assert encode_event(decode_event(line, interned=table)) == line

    def test_a_v2_null_flag_must_agree_with_the_id(self, tmp_path):
        record = json.loads(encode_event(V1_EVENTS[1]))
        record["slate"]["items"][0]["null"] = True
        assert_both_readers_reject(json.dumps(record), tmp_path)


class TestEventLog:
    def test_append_then_replay_preserves_order_and_content(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        events = [make_event(ts=i, click=0 if i % 2 else None) for i in range(20)]
        for event in events:
            log.append(event)
        assert log.read_all() == events

    def test_replay_skips_blank_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.append(make_event(ts=1))
        with open(path, "a") as fh:
            fh.write("\n")
        log.append(make_event(ts=2))
        assert [e.ts for e in log.read_all()] == [1, 2]

    def test_append_writes_one_encoded_line_per_event(self, tmp_path):
        events = [make_event(ts=i) for i in range(5)]
        path = tmp_path / "events.jsonl"
        for event in events[:2]:
            EventLog(path).append(event)
        log = EventLog(path)
        for event in events[2:]:
            log.append(event)
        assert path.read_text() == "".join(encode_event(e) + "\n" for e in events)
        assert log.read_all() == events

    def test_held_handle_writes_each_event_through_to_the_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [make_event(ts=i) for i in range(4)]
        with EventLog(path) as log:
            for i, event in enumerate(events):
                log.append(event)
                assert path.read_text() == "".join(encode_event(e) + "\n" for e in events[: i + 1])
        log.append(make_event(ts=4))
        assert [e.ts for e in log.read_all()] == [0, 1, 2, 3, 4]

    def test_scope_closes_on_error_and_is_not_reentrant(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        with pytest.raises(KeyError):
            with log:
                log.append(make_event(ts=0))
                raise KeyError("boom")
        with log:
            with pytest.raises(ValueError, match="already open"):
                log.__enter__()
            log.append(make_event(ts=1))
        assert [e.ts for e in log.read_all()] == [0, 1]

    def test_replay_shares_one_action_per_distinct_item(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        for i in range(3):
            log.append(make_event(ts=i, action_ids=["a1", "a2"]))
        first, *rest = log.read_all()
        for event in rest:
            for mine, theirs in zip(event.slate.items, first.slate.items):
                assert mine is theirs


def mixed_events() -> list[LoggedEvent]:
    """Events covering every attribution and reward case: content and
    null-slot clicks, no click, a direct trigger, each survey answer,
    escalations, propensities present and absent, and a context with a
    query and features."""
    events = [
        make_event(ts=0, click=0, survey=Survey.YES, propensity=0.25),
        make_event(ts=1, click=2, survey=Survey.NO, escalation=True),
        make_event(ts=1, click=None, survey=Survey.YES, propensity=1.0),
        make_event(ts=5, action_ids=["solo"], with_null=False, survey=Survey.NO),
        make_event(ts=3, click=1, survey=Survey.SKIPPED, escalation=True, propensity=0.5),
        make_event(ts=9, context_id="other", click=1, survey=Survey.YES),
    ]
    context = Context("rich", features={"channel": "web"}, query="reset my password")
    events.append(
        LoggedEvent(ts=10, context=context, slate=make_slate(["a1"]),
                    feedback=Feedback(click=0, survey=Survey.NO), propensity=0.125)
    )
    return events


class TestReadColumns:
    @pytest.mark.parametrize("encode", [encode_v1, encode_v2], ids=["v1", "v2"])
    def test_equals_the_columns_of_the_decoded_events(self, tmp_path, encode):
        events = mixed_events()
        path = tmp_path / "events.jsonl"
        # blank and whitespace-only lines are skipped, as replay skips them
        path.write_text("\n".join(encode(e) for e in events[:3]) + "\n\n  \n"
                        + "".join(encode(e) + "\n" for e in events[3:]))
        got = read_columns(path)
        assert got == LogColumns.from_events(EventLog(path).read_all())
        assert got == LogColumns.from_events(events)
        assert len(got) == len(events)
        assert got.ts == [e.ts for e in events]
        assert got.propensity[:2] == [0.25, None]

    def test_interns_items_for_the_pass(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        for i in range(3):
            log.append(make_event(ts=i, action_ids=["a1", "a2"]))
        got = read_columns(path)
        for items in got.slates[1:]:
            assert all(mine is theirs for mine, theirs in zip(items, got.slates[0]))

    def test_an_empty_log_has_no_rows(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("\n\n")
        assert len(read_columns(path)) == 0

    def test_columns_compare_by_value(self):
        events = mixed_events()
        assert LogColumns.from_events(events) == LogColumns.from_events(list(events))
        moved = events[:1] + [dataclasses.replace(events[1], propensity=0.5)] + events[2:]
        assert LogColumns.from_events(moved) != LogColumns.from_events(events)

    def test_attributed_rewards_follow_the_per_event_rules(self):
        events = mixed_events()
        for spec in (RewardSpec(), RewardSpec(RewardMode.SURVEY_AND_ESCALATION, -0.5)):
            expected = []
            for index, event in enumerate(events):
                reward = reward_of(event.feedback, spec)
                action = attributed_action(event)
                if reward is not None and action is not None:
                    expected.append((index, action, reward))
            assert list(attributed_rewards(LogColumns.from_events(events), spec)) == expected


def item_lines(features_by_event: list[dict]) -> list[str]:
    """One encoded event per entry, each serving item "a1" (same id, title and
    null flag throughout) with the given features, then the null item."""
    lines = []
    for ts, item_features in enumerate(features_by_event):
        slate = Slate(
            items=[Action("a1", "Reset guide", features=item_features), null_item()],
            scores=[0.5, 0.1],
        )
        event = LoggedEvent(ts=ts, context=Context("c"), slate=slate, feedback=Feedback())
        lines.append(encode_event(event))
    return lines


def edited_line(edit) -> str:
    record = json.loads(item_lines([{"kind": "faq"}])[0])
    edit(record)
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def set_item_field(name, value):
    return lambda r: r["slate"]["items"][0].__setitem__(name, value)


def set_posteriors(first):
    """Posteriors for both items of an ``item_lines`` event, the first
    item's entry set to ``first``."""
    return lambda r: r.__setitem__("posteriors", {"a1": first, NULL_ACTION_ID: [0.0, 1.0]})


class TestDecodeInterning:
    def test_items_that_differ_only_in_features_decode_to_distinct_actions(self):
        lines = item_lines([{"kind": "faq"}, {"kind": "howto"}, {"kind": "faq"}, {}])
        table: dict = {}
        decoded = [decode_event(line, interned=table) for line in lines]
        got = [e.slate.items[0].features for e in decoded]
        assert got == [{"kind": "faq"}, {"kind": "howto"}, {"kind": "faq"}, {}]
        assert decoded[0].slate.items[0] is not decoded[1].slate.items[0]
        assert [encode_event(e) for e in decoded] == lines

    def test_interned_decode_equals_a_fresh_decode_of_each_line(self):
        lines = item_lines([{"kind": "faq"}, {"kind": "faq"}, {}, {"kind": "faq"}])
        table: dict = {}
        decoded = [decode_event(line, interned=table) for line in lines]
        assert decoded == [decode_event(line) for line in lines]
        assert decoded[0].slate.items[0] is decoded[1].slate.items[0]
        assert decoded[1].slate.items[1] is decoded[2].slate.items[1]

    def test_non_string_values_keep_their_json_type(self):
        # 1, 1.0 and true compare equal in Python; each must come back as written
        lines = [edited_line(set_item_field("features", {"kind": v})) for v in (1, True, 1.0)]
        lines += [edited_line(set_item_field("title", v)) for v in (1, True, 1.0)]
        table: dict = {}
        assert [encode_event(decode_event(line, interned=table)) for line in lines] == lines

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: r.__setitem__("ctx", [r["ctx"]]),
            lambda r: r.__setitem__("slate", 5),
            lambda r: r["slate"].__setitem__("items", {"a1": r["slate"]["items"][0]}),
            lambda r: r["slate"]["items"].__setitem__(0, "a1"),
            set_item_field("features", [["kind", "faq"]]),
            set_item_field("id", ["a1"]),
            lambda r: r["slate"].__setitem__("scores", ["high", "low"]),
            lambda r: r.__setitem__("posteriors", [["a1", [1, 2]]]),
            lambda r: r["ctx"].__setitem__("features", [["channel", "web"]]),
            lambda r: r.__setitem__("escalation", "false"),
            lambda r: r.__setitem__("escalation", 0),
            lambda r: r.__setitem__("propensity", True),
            lambda r: r.__setitem__("propensity", "0.5"),
            lambda r: r["slate"].__setitem__("scores", [True, 0.1]),
            lambda r: r.__setitem__("policy", 5),
            lambda r: r["ctx"].__setitem__("query", 7),
            lambda r: r.__setitem__("v", 3),
            lambda r: r.__setitem__("v", 1),
            lambda r: r.__setitem__("v", "2"),
            lambda r: r.__setitem__("v", True),
            set_posteriors([True, 1.0]),
            set_posteriors(["3", "4"]),
            set_posteriors([1.0, 2.0, 3.0]),
            set_posteriors([1.0]),
            set_posteriors(5),
            set_posteriors({"s": 1.0, "f": 2.0}),
            set_posteriors("ab"),
            lambda r: r["ctx"].__setitem__("id", 5),
            lambda r: r["ctx"].__setitem__("id", ""),
            lambda r: r["ctx"].__setitem__("id", ["c"]),
            lambda r: r["ctx"].__setitem__("id", None),
        ],
        ids=[
            "ctx", "slate", "items", "item", "features", "id", "scores", "posteriors",
            "ctx-features", "escalation-string", "escalation-number", "propensity-boolean",
            "propensity-string", "score-boolean", "policy-number", "query-number",
            "version-3", "version-1", "version-string", "version-boolean",
            "posterior-boolean", "posterior-strings", "posterior-three-numbers",
            "posterior-one-number", "posterior-a-number", "posterior-an-object",
            "posterior-a-string", "ctx-id-number", "ctx-id-empty", "ctx-id-list",
            "ctx-id-null",
        ],
    )
    def test_malformed_shapes_raise_validation_error(self, edit, tmp_path):
        line = edited_line(edit)
        for table in (None, {}):
            with pytest.raises(ValidationError):
                decode_event(line, interned=table)
        # the column reader goes through the same validator
        path = tmp_path / "events.jsonl"
        path.write_text(item_lines([{}])[0] + "\n" + line + "\n")
        with pytest.raises(ValidationError):
            read_columns(path)

    @pytest.mark.parametrize(
        "edit",
        [
            set_posteriors([3, 4]),
            set_posteriors([0.5, 1e300]),
            lambda r: r["ctx"].__setitem__("features", {"tier": 1}),
            set_item_field("features", {"kind": True}),
            lambda r: r.__setitem__("propensity", 1),
        ],
        ids=["posterior-ints", "posterior-floats", "ctx-feature-number",
             "item-feature-boolean", "propensity-int"],
    )
    def test_both_readers_accept_the_same_unusual_lines(self, edit, tmp_path):
        line = edited_line(edit)
        path = tmp_path / "events.jsonl"
        path.write_text(line + "\n")
        assert read_columns(path) == LogColumns.from_events([decode_event(line)])

    @pytest.mark.parametrize("line", ["[1, 2]", '"event"', "5", "null"])
    def test_line_that_is_not_an_object_raises_validation_error(self, line, tmp_path):
        assert_both_readers_reject(line, tmp_path)


def numpy_categorical(weights, rng) -> int:
    """The cumsum + searchsorted form of the draw, kept as the reference."""
    edges = np.cumsum(weights)
    u = rng.random() * edges[-1]
    return int(min(np.searchsorted(edges, u, side="right"), len(edges) - 1))


class TestCategorical:
    def test_matches_the_numpy_draw(self):
        cases = np.random.default_rng(7)
        for case in range(20_000):
            weights = cases.random(int(cases.integers(2, 9)))
            if case % 2:
                weights = weights.tolist()
            seed = int(cases.integers(2**32))
            want = numpy_categorical(weights, np.random.default_rng(seed))
            assert categorical(weights, np.random.default_rng(seed)) == want

    def test_consumes_one_draw_and_skips_zero_weights(self):
        rng = np.random.default_rng(3)
        picks = {categorical([0.0, 2.0, 0.0, 1.0], rng) for _ in range(200)}
        assert picks == {1, 3}
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        categorical([1.0, 1.0], rng_a)
        rng_b.random()
        assert rng_a.random() == rng_b.random()


class TestAtomicWrite:
    def test_failed_rename_keeps_the_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_text("old\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write(path, "new\n")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.json"]

    def test_success_leaves_only_the_target(self, tmp_path):
        path = tmp_path / "out.csv"
        atomic_write(path, "a,b\r\n1,2\r\n")
        atomic_write(path, "a,b\r\n3,4\r\n")
        assert os.listdir(tmp_path) == ["out.csv"]
        assert path.read_bytes() == b"a,b\r\n3,4\r\n"

    def test_mode_matches_a_plain_open_under_the_umask(self, tmp_path):
        plain = tmp_path / "plain.txt"
        with open(plain, "w", encoding="utf-8") as fh:
            fh.write("x")
        atomic_write(tmp_path / "atomic.txt", "x")
        plain_mode = os.stat(plain).st_mode & 0o777
        assert os.stat(tmp_path / "atomic.txt").st_mode & 0o777 == plain_mode
