"""Featurizer layout, network gradients, training, and snapshots.

Backprop is checked against central finite differences; everything else
against hand-computable layouts or invariants of the training loop.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_event
from slatebandit.core import (
    Action,
    Context,
    Feedback,
    LoggedEvent,
    NoDataError,
    RewardSpec,
    Slate,
    Survey,
    ValidationError,
    attributed_rewards,
    null_item,
)
from slatebandit.features import (
    TRANSFORM_MEMO_SIZE,
    FeatureMap,
    FeaturizerSpec,
    HashingEmbedder,
    TableEmbedder,
    TrainConfig,
    featurize,
    forward,
    init_params,
    load_feature_map,
    loss_and_grads,
    save_feature_map,
    train,
    training_pairs,
)


class TestHashingEmbedder:
    def test_deterministic_and_unit_norm(self):
        emb = HashingEmbedder(dim=16, seed=3)
        a = emb.embed("reset my password please")
        b = emb.embed("reset my password please")
        assert_allclose(a, b)
        assert_allclose(np.linalg.norm(a), 1.0, rtol=1e-12)

    def test_seed_changes_projection(self):
        a = HashingEmbedder(dim=16, seed=0).embed("billing question")
        b = HashingEmbedder(dim=16, seed=1).embed("billing question")
        assert not np.allclose(a, b)

    def test_empty_text_is_zero(self):
        emb = HashingEmbedder(dim=8)
        assert_allclose(emb.embed(None), np.zeros(8))
        assert_allclose(emb.embed(""), np.zeros(8))

    def test_bigrams_distinguish_word_order(self):
        emb = HashingEmbedder(dim=64, seed=0, max_ngram=2)
        assert not np.allclose(emb.embed("cancel account"), emb.embed("account cancel"))

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValidationError):
            HashingEmbedder(dim=0)
        with pytest.raises(ValidationError):
            HashingEmbedder(dim=4, max_ngram=0)


class TestTableEmbedder:
    def test_averages_known_tokens(self):
        emb = TableEmbedder({"red": [1.0, 0.0], "blue": [0.0, 1.0]}, dim=2)
        assert_allclose(emb.embed("red blue"), [0.5, 0.5])
        assert_allclose(emb.embed("red unknown"), [1.0, 0.0])
        assert_allclose(emb.embed("unknown"), [0.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            TableEmbedder({"red": [1.0, 0.0, 0.0]}, dim=2)


class TestFeaturize:
    def test_layout_is_query_title_then_sorted_vocab_blocks(self):
        spec = FeaturizerSpec(
            embedding=TableEmbedder({"q": [1.0], "t": [-1.0]}, dim=1),
            context_vocabs={"channel": ["web", "app"]},
            action_vocabs={"kind": ["faq"]},
        )
        assert spec.dim == 2 * 1 + (2 + 1) + (1 + 1)
        ctx = Context(context_id="c", query="q", features={"channel": "app"})
        act = Action(action_id="a", title="t", features={"kind": "faq"})
        got = featurize(spec, ctx, act)
        assert_allclose(got, [1.0, -1.0, 0.0, 1.0, 0.0, 1.0, 0.0])

    def test_unknown_and_missing_values_use_trailing_slot(self):
        spec = FeaturizerSpec(
            embedding=TableEmbedder({}, dim=1),
            context_vocabs={"channel": ["web", "app"]},
        )
        unknown = featurize(spec, Context(context_id="c", features={"channel": "sms"}), Action(action_id="a"))
        missing = featurize(spec, Context(context_id="c"), Action(action_id="a"))
        assert_allclose(unknown[2:], [0.0, 0.0, 1.0])
        assert_allclose(missing[2:], [0.0, 0.0, 1.0])

    def test_vocab_block_order_sorted_by_name(self):
        spec = FeaturizerSpec(
            embedding=TableEmbedder({}, dim=1),
            context_vocabs={"zeta": ["z"], "alpha": ["a"]},
        )
        ctx = Context(context_id="c", features={"alpha": "a", "zeta": "other"})
        got = featurize(spec, ctx, Action(action_id="x"))
        # alpha block first: one-hot on "a"; zeta block second: unknown slot
        assert_allclose(got[2:], [1.0, 0.0, 0.0, 1.0])

    def test_round_trip_spec_preserves_features(self):
        spec = FeaturizerSpec(
            embedding=HashingEmbedder(dim=8, seed=5),
            context_vocabs={"channel": ["web"]},
            action_vocabs={"kind": ["faq", "howto"]},
        )
        again = FeaturizerSpec.from_dict(spec.to_dict())
        ctx = Context(context_id="c", query="reset password", features={"channel": "web"})
        act = Action(action_id="a", title="password help", features={"kind": "howto"})
        assert_allclose(featurize(spec, ctx, act), featurize(again, ctx, act))


class TestBackprop:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            input_dim = int(rng.integers(2, 6))
            hidden = tuple(int(h) for h in rng.integers(2, 5, size=int(rng.integers(1, 3))))
            weights, biases = init_params(input_dim, hidden, rng)
            x = rng.normal(size=(4, input_dim))
            y = rng.normal(size=4)
            _, grad_w, grad_b = loss_and_grads(weights, biases, x, y)

            h = 1e-5
            for layer in range(len(weights)):
                flat_idx = int(rng.integers(weights[layer].size))
                i, j = np.unravel_index(flat_idx, weights[layer].shape)
                weights[layer][i, j] += h
                up, _, _ = loss_and_grads(weights, biases, x, y)
                weights[layer][i, j] -= 2 * h
                down, _, _ = loss_and_grads(weights, biases, x, y)
                weights[layer][i, j] += h
                numeric = (up - down) / (2 * h)
                assert_allclose(grad_w[layer][i, j], numeric, rtol=1e-4, atol=1e-7)

                k = int(rng.integers(biases[layer].size))
                biases[layer][k] += h
                up, _, _ = loss_and_grads(weights, biases, x, y)
                biases[layer][k] -= 2 * h
                down, _, _ = loss_and_grads(weights, biases, x, y)
                biases[layer][k] += h
                numeric = (up - down) / (2 * h)
                assert_allclose(grad_b[layer][k], numeric, rtol=1e-4, atol=1e-7)

    def test_loss_is_mean_squared_error(self):
        weights = [np.array([[1.0], [0.0]]), np.array([[2.0]])]
        biases = [np.zeros(1), np.zeros(1)]
        x = np.array([[0.5, 9.0]])
        # tanh(0.5) * 2 forward value; target 0
        pred = 2.0 * np.tanh(0.5)
        loss, _, _ = loss_and_grads(weights, biases, x, np.array([0.0]))
        assert_allclose(loss, pred**2, rtol=1e-12)

    def test_forward_returns_all_activations(self):
        rng = np.random.default_rng(1)
        weights, biases = init_params(3, (4, 2), rng)
        acts = forward(weights, biases, rng.normal(size=3))
        assert [a.shape[1] for a in acts] == [3, 4, 2, 1]
        assert np.all(np.abs(acts[1]) < 1.0) and np.all(np.abs(acts[2]) < 1.0)


class TestTrainingPairs:
    def _spec(self):
        return FeaturizerSpec(embedding=HashingEmbedder(dim=4))

    def test_keeps_only_defined_rewards_on_content_actions(self):
        events = [
            make_event(action_ids=["a1", "a2"], click=0, survey=Survey.YES),
            make_event(action_ids=["a1", "a2"], click=0, survey=Survey.SKIPPED),
            make_event(action_ids=["a1", "a2"], click=None),
        ]
        x, y = training_pairs(events, RewardSpec(), self._spec())
        assert x.shape == (1, self._spec().dim)
        assert_allclose(y, [1.0])

    def test_null_click_survey_excluded(self):
        # a free-typed answer grades the null slot, which has no features
        events = [make_event(action_ids=["a1"], click=1, survey=Survey.NO)]
        x, y = training_pairs(events, RewardSpec(), self._spec())
        assert len(y) == 0

    def test_no_returns_negative_reward(self):
        events = [make_event(action_ids=["a1", "a2"], click=1, survey=Survey.NO)]
        _, y = training_pairs(events, RewardSpec(), self._spec())
        assert_allclose(y, [-1.0])


def reference_training_pairs(events, reward_spec, featurizer):
    """``training_pairs`` without its memo: every row featurized on its own."""
    rows = [
        (featurize(featurizer, event.context, action), reward)
        for _, event, action, reward in attributed_rewards(events, reward_spec)
        if not action.is_null_item
    ]
    return np.asarray([x for x, _ in rows]), np.asarray([y for _, y in rows])


class CountingEmbedder(HashingEmbedder):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = 0

    def embed(self, text):
        self.calls += 1
        return super().embed(text)


class TestTrainingPairsMemo:
    def _log(self, n=300):
        """Rows repeat, and some differ only in one vocabulary slot."""
        rng = np.random.default_rng(4)
        events = []
        for ts in range(n):
            ctx = Context(
                context_id="c",
                features={"channel": str(rng.choice(["web", "app", "fax"]))},
                query=str(rng.choice(["reset password", "refund", None])),
            )
            items = [
                Action("a1", "Reset guide", features={"kind": str(rng.choice(["faq", "howto"]))}),
                Action("a2", "Refund policy"),
                null_item(),
            ]
            slate = Slate(items=items, scores=[0.5, 0.4, 0.1])
            click = int(rng.integers(3))
            survey = Survey.YES if rng.random() < 0.5 else Survey.NO
            events.append(
                LoggedEvent(ts=ts, context=ctx, slate=slate, feedback=Feedback(click, survey))
            )
        return events

    def _spec(self, embedding):
        return FeaturizerSpec(
            embedding=embedding,
            context_vocabs={"channel": ["app", "web"]},
            action_vocabs={"kind": ["faq", "howto"]},
        )

    def test_bit_equal_to_featurizing_every_row(self):
        events = self._log()
        spec = self._spec(HashingEmbedder(dim=8, seed=2))
        x, y = training_pairs(events, RewardSpec(), spec)
        ref_x, ref_y = reference_training_pairs(events, RewardSpec(), spec)
        assert len(y) > 100
        assert x.dtype == ref_x.dtype and x.shape == ref_x.shape
        assert x.tobytes() == ref_x.tobytes()
        assert y.tobytes() == ref_y.tobytes()

    def test_each_distinct_row_is_embedded_once(self):
        events = self._log()
        embedder = CountingEmbedder(dim=8, seed=2)
        x, _ = training_pairs(events, RewardSpec(), self._spec(embedder))
        distinct = len(np.unique(x, axis=0))
        assert distinct < len(x) / 4
        assert embedder.calls == 2 * distinct


class TestTrain:
    def _events(self, n=80):
        # channel alone decides the outcome, so the net has signal to find
        events = []
        for i in range(n):
            channel = "web" if i % 2 == 0 else "app"
            survey = Survey.YES if channel == "web" else Survey.NO
            events.append(
                make_event(
                    ts=i,
                    context_id="ctx",
                    action_ids=["a1", "a2"],
                    click=0,
                    survey=survey,
                )
            )
        return events

    def _spec(self):
        return FeaturizerSpec(
            embedding=HashingEmbedder(dim=4, seed=1),
            context_vocabs={},
            action_vocabs={},
        )

    def test_loss_decreases_on_learnable_data(self):
        spec = FeaturizerSpec(
            embedding=TableEmbedder({}, dim=1),
            context_vocabs={"channel": ["web", "app"]},
        )
        events = []
        for i in range(80):
            channel = "web" if i % 2 == 0 else "app"
            event = make_event(
                ts=i,
                action_ids=["a1"],
                click=0,
                survey=Survey.YES if channel == "web" else Survey.NO,
            )
            event = type(event)(
                ts=event.ts,
                context=Context(context_id="ctx", features={"channel": channel}),
                slate=event.slate,
                feedback=event.feedback,
                propensity=event.propensity,
                policy_tag=event.policy_tag,
            )
            events.append(event)
        fm = train(events, RewardSpec(), spec, TrainConfig(hidden_sizes=(8,), epochs=40, seed=0))
        assert len(fm.epoch_losses) == 40
        assert fm.epoch_losses[-1] < 0.1 * fm.epoch_losses[0]

    def test_training_is_seed_deterministic(self):
        cfg = TrainConfig(hidden_sizes=(6,), epochs=5, seed=9)
        a = train(self._events(), RewardSpec(), self._spec(), cfg)
        b = train(self._events(), RewardSpec(), self._spec(), cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert_allclose(wa, wb)
        assert a.epoch_losses == b.epoch_losses

    def test_empty_log_raises(self):
        with pytest.raises(NoDataError):
            train([], RewardSpec(), self._spec(), TrainConfig())

    def test_transform_width_matches_last_hidden_layer(self):
        fm = train(
            self._events(20), RewardSpec(), self._spec(), TrainConfig(hidden_sizes=(7, 3), epochs=2)
        )
        assert fm.dim == 3
        phi = fm.transform(Context(context_id="c", query="help"), Action(action_id="a1"))
        assert phi.shape == (3,)
        assert np.all(np.abs(phi) < 1.0)


class TestTransformMemo:
    def _map(self):
        spec = FeaturizerSpec(
            embedding=HashingEmbedder(dim=4, seed=1),
            context_vocabs={"channel": ["web", "app"]},
            action_vocabs={"kind": ["faq"]},
        )
        weights, biases = init_params(spec.dim, (6, 3), np.random.default_rng(0))
        return FeatureMap(featurizer=spec, weights=weights, biases=biases, config=TrainConfig())

    @staticmethod
    def _uncached(fm, ctx, act):
        return forward(fm.weights, fm.biases, featurize(fm.featurizer, ctx, act))[-2][0]

    def test_matches_the_uncached_pass_through_eviction(self):
        fm = self._map()
        act = Action(action_id="a", title="reset guide", features={"kind": "faq"})
        contexts = [
            Context(context_id="c", query=f"query {i}", features={"channel": "web"})
            for i in range(TRANSFORM_MEMO_SIZE + 1)
        ]
        phis = [fm.transform(ctx, act) for ctx in contexts[:TRANSFORM_MEMO_SIZE]]
        for ctx, phi in zip(contexts, phis):
            assert phi.tobytes() == self._uncached(fm, ctx, act).tobytes()
        # the memo is full; a hit makes contexts[0] the most recently used
        assert fm.transform(contexts[0], act) is phis[0]
        fm.transform(contexts[-1], act)
        assert fm.transform(contexts[0], act) is phis[0]
        # contexts[1] was the least recently used, so it was dropped
        again = fm.transform(contexts[1], act)
        assert again is not phis[1]
        assert again.tobytes() == phis[1].tobytes()
        assert fm.transform(contexts[1], act) is again

    def test_unknown_and_missing_values_share_the_extra_slot(self):
        fm = self._map()
        act = Action(action_id="a", title="t", features={"kind": "howto"})
        unknown = Context(context_id="c", query="q", features={"channel": "sms"})
        missing = Context(context_id="c", query="q")
        phi = fm.transform(unknown, act)
        assert fm.transform(missing, Action(action_id="b", title="t")) is phi
        assert phi.tobytes() == self._uncached(fm, missing, act).tobytes()

    def test_every_input_featurize_reads_is_in_the_key(self):
        fm = self._map()
        ctx = Context(context_id="c", query="q", features={"channel": "web"})
        act = Action(action_id="a", title="t", features={"kind": "faq"})
        fm.transform(ctx, act)
        for other_ctx, other_act in [
            (Context(context_id="c", query="other", features={"channel": "web"}), act),
            (ctx, Action(action_id="a", title="other", features={"kind": "faq"})),
            (Context(context_id="c", query="q", features={"channel": "app"}), act),
            (ctx, Action(action_id="a", title="t")),
        ]:
            got = fm.transform(other_ctx, other_act)
            assert got.tobytes() == self._uncached(fm, other_ctx, other_act).tobytes()

    def test_returned_vector_is_read_only(self):
        fm = self._map()
        phi = fm.transform(Context(context_id="c", query="q"), Action(action_id="a"))
        with pytest.raises(ValueError):
            phi[0] = 1.0

    def test_weights_cannot_change_in_place(self):
        fm = self._map()
        with pytest.raises(ValueError):
            fm.weights[0][0, 0] = 1.0
        with pytest.raises(ValueError):
            fm.biases[-1] += 1.0
        with pytest.raises(AttributeError):
            fm.weights = ()


class TestFeatureMapSnapshot:
    def test_round_trip_preserves_predictions(self, tmp_path):
        events = [
            make_event(ts=i, action_ids=["a1", "a2"], click=0, survey=Survey.YES)
            for i in range(10)
        ]
        spec = FeaturizerSpec(embedding=HashingEmbedder(dim=4, seed=2))
        fm = train(events, RewardSpec(), spec, TrainConfig(hidden_sizes=(5,), epochs=3))
        path = tmp_path / "fm.json"
        save_feature_map(fm, path)
        loaded = load_feature_map(path)
        ctx = Context(context_id="c", query="reset password")
        act = Action(action_id="a9", title="password reset guide")
        x = featurize(spec, ctx, act)
        output = forward(fm.weights, fm.biases, x)[-1]
        assert forward(loaded.weights, loaded.biases, x)[-1].tobytes() == output.tobytes()
        assert_allclose(loaded.transform(ctx, act), fm.transform(ctx, act))
        assert loaded.epoch_losses == fm.epoch_losses

    def test_snapshot_survives_second_save(self, tmp_path):
        events = [make_event(ts=0, action_ids=["a1"], click=0, survey=Survey.YES)]
        spec = FeaturizerSpec(embedding=HashingEmbedder(dim=2))
        fm = train(events, RewardSpec(), spec, TrainConfig(hidden_sizes=(3,), epochs=1))
        save_feature_map(fm, tmp_path / "one.json")
        save_feature_map(load_feature_map(tmp_path / "one.json"), tmp_path / "two.json")
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()
