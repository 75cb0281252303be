"""Domain types, reward mapping, and the event log."""

import json
import os

import numpy as np
import pytest

from conftest import make_action, make_event, make_slate
from slatebandit.core import (
    NULL_ACTION_ID,
    Action,
    Context,
    EventLog,
    Feedback,
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
        rows = list(attributed_rewards(events, RewardSpec()))
        assert [(i, a.action_id, r) for i, _, a, r in rows] == [
            (0, "a1", 1.0),
            (2, NULL_ACTION_ID, -1.0),
        ]
        assert rows[1][1] is events[2]


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
        import json

        record = json.loads(encode_event(make_event(click=0, survey=Survey.NO)))
        assert set(record) == {
            "ts",
            "ctx",
            "slate",
            "click",
            "survey",
            "escalation",
            "propensity",
            "posteriors",
            "policy",
        }

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

    def test_malformed_line_raises(self):
        with pytest.raises(ValidationError):
            decode_event("{not json")

    def test_bad_survey_value_raises(self):
        line = encode_event(make_event()).replace('"skipped"', '"maybe"')
        with pytest.raises(ValidationError):
            decode_event(line)


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

    def test_replay_shares_one_action_per_distinct_item(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        for i in range(3):
            log.append(make_event(ts=i, action_ids=["a1", "a2"]))
        first, *rest = log.read_all()
        for event in rest:
            for mine, theirs in zip(event.slate.items, first.slate.items):
                assert mine is theirs


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
        ],
        ids=[
            "ctx", "slate", "items", "item", "features", "id", "scores", "posteriors",
            "ctx-features", "escalation-string", "escalation-number",
        ],
    )
    def test_malformed_shapes_raise_validation_error(self, edit):
        line = edited_line(edit)
        for table in (None, {}):
            with pytest.raises(ValidationError):
                decode_event(line, interned=table)

    @pytest.mark.parametrize("line", ["[1, 2]", '"event"', "5", "null"])
    def test_line_that_is_not_an_object_raises_validation_error(self, line):
        with pytest.raises(ValidationError):
            decode_event(line)


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
