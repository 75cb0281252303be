"""Windowed counters, Thompson scoring, aggregation, propensity estimation.

Distributional checks compare Monte-Carlo output against closed-form Beta
moments or quadrature integrals computed independently of the implementation.
Draw-for-draw checks compare ``joint_scores`` with its per-element form, kept
here as the reference.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from conftest import make_event
from slatebandit.core import NoDataError, Survey, ValidationError
from slatebandit.mab import (
    ArmStats,
    ContextBank,
    LambdaConfig,
    COMBINER_NAIVE_PRODUCT,
    click_weight,
    combine_scores,
    estimate_propensities,
    evict,
    joint_scores,
    load_bank,
    pre_sample,
    rank_by_score,
    save_bank,
    update,
)


def rank_first_oracle(posterior_params):
    """P(arm i draws the largest value) by quadrature: f_i times the others'
    CDFs, integrated over [0, 1]. Independent of the sampling code."""
    out = []
    for i, (ai, bi) in enumerate(posterior_params):
        def integrand(x, ai=ai, bi=bi, i=i):
            v = stats.beta.pdf(x, ai, bi)
            for j, (aj, bj) in enumerate(posterior_params):
                if j != i:
                    v *= stats.beta.cdf(x, aj, bj)
            return v
        p, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
        out.append(p)
    return out


def reference_joint_scores(bank, action_ids, rng):
    """The per-element form of ``joint_scores``, kept as the reference: one
    beta call for the click draws, one for the surveyed subset, then a scalar
    clamp and blend per action."""

    def clamp(x):
        if x <= 0.0:
            return np.finfo(float).tiny
        if x >= 1.0:
            return float(np.nextafter(1.0, 0.0))
        return x

    m = len(action_ids)
    if m == 0:
        return np.zeros(0)
    click_a = np.ones(m)
    click_b = np.ones(m)
    for i, action_id in enumerate(action_ids):
        stats = bank.click_stats.get(action_id)
        if stats is not None:
            click_a[i] = stats.successes + 1.0
            click_b[i] = stats.failures + 1.0
    click_draws = rng.beta(click_a, click_b)
    naive = bank.lambda_config.combiner == COMBINER_NAIVE_PRODUCT
    has_survey = np.zeros(m, dtype=bool)
    survey_a = np.ones(m)
    survey_b = np.ones(m)
    for i, action_id in enumerate(action_ids):
        stats = bank.survey_stats.get(action_id)
        if stats is not None and stats.trials > 0:
            has_survey[i] = True
            survey_a[i] = stats.successes + 1.0
            survey_b[i] = stats.failures + 1.0
    draw_mask = np.ones(m, dtype=bool) if naive else has_survey
    survey_draws = np.ones(m)
    if draw_mask.any():
        survey_draws[draw_mask] = rng.beta(survey_a[draw_mask], survey_b[draw_mask])
    weight = click_weight(bank)
    out = np.empty(m)
    for i in range(m):
        qc = clamp(float(click_draws[i]))
        if naive:
            out[i] = qc * clamp(float(survey_draws[i]))
        elif has_survey[i]:
            out[i] = combine_scores(qc, clamp(float(survey_draws[i])), weight)
        else:
            out[i] = qc
    return out


def click_bank(successes=0.0, trials=0.0, action_id="a"):
    """A bank whose one action holds the given click counters."""
    bank = ContextBank(context_id="c")
    arm = bank.click_arm(action_id)
    if trials:
        arm.add(0, successes, trials)
    return bank


def one_score(bank, action_id, rng):
    """One action scored alone, as the safe gate rescores a baseline item."""
    return float(joint_scores(bank, [action_id], rng)[0])


class TestArmStats:
    def test_counters_track_entry_sums(self):
        s = ArmStats()
        s.add(0, 1.0, 1.0)
        s.add(10, 0.0, 1.0)
        s.add(20, 0.5, 2.0)
        assert s.successes == 1.5
        assert s.trials == 4.0
        assert s.failures == 2.5

    def test_success_cannot_exceed_trials(self):
        s = ArmStats()
        with pytest.raises(ValidationError):
            s.add(0, 2.0, 1.0)

    def test_entries_must_arrive_in_time_order(self):
        s = ArmStats()
        s.add(10, 0.0, 1.0)
        with pytest.raises(ValidationError):
            s.add(5, 0.0, 1.0)

    def test_eviction_drops_only_aged_entries(self):
        s = ArmStats()
        s.add(0, 1.0, 1.0)
        s.add(100, 0.0, 1.0)
        s.evict_before(0)
        assert s.trials == 1.0 and s.successes == 0.0

    def test_eviction_never_increases_counters(self):
        # property over a seeded grid of entry layouts and cutoffs
        rng = np.random.default_rng(42)
        for _ in range(50):
            s = ArmStats()
            ts = np.sort(rng.integers(0, 1000, size=12))
            for t in ts:
                s.add(int(t), float(rng.integers(0, 2)), 1.0)
            prev = (s.successes, s.trials)
            for cutoff in sorted(rng.integers(-10, 1100, size=8)):
                s.evict_before(int(cutoff))
                assert s.successes <= prev[0] + 1e-12
                assert s.trials <= prev[1] + 1e-12
                assert 0.0 <= s.successes <= s.trials + 1e-12
                prev = (s.successes, s.trials)

    def test_copy_is_independent(self):
        s = ArmStats()
        s.add(0, 1.0, 2.0)
        c = s.copy()
        c.add(1, 1.0, 1.0)
        assert s.trials == 2.0 and c.trials == 3.0


class TestSampleScore:
    def test_matches_beta_moments(self):
        # logged (successes=3, trials=10) -> Beta(4, 8): mean 1/3
        rng = np.random.default_rng(7)
        draws = joint_scores(click_bank(3.0, 10.0), ["a"] * 20000, rng)
        assert_allclose(draws.mean(), 4.0 / 12.0, atol=0.01)
        assert_allclose(draws.var(), (4.0 * 8.0) / (12.0**2 * 13.0), atol=0.005)

    def test_empty_stats_draw_uniform(self):
        rng = np.random.default_rng(3)
        draws = joint_scores(click_bank(), ["a"] * 20000, rng)
        assert_allclose(draws.mean(), 0.5, atol=0.02)
        assert_allclose(draws.var(), 1.0 / 12.0, atol=0.01)

    def test_draws_stay_inside_open_interval(self):
        rng = np.random.default_rng(0)
        bank = click_bank(0.0, 1000.0)  # posterior mass hugs zero
        draws = joint_scores(bank, ["a"] * 200, rng)
        assert np.all((0.0 < draws) & (draws < 1.0))


class TestCombineScores:
    def test_full_click_weight_returns_click_draw_exactly(self):
        assert combine_scores(0.8373, 0.1, 1.0) == 0.8373

    def test_zero_click_weight_returns_survey_draw_exactly(self):
        assert combine_scores(0.8373, 0.1, 0.0) == 0.1

    def test_half_weight_is_geometric_mean(self):
        # exp(0.5 ln 0.9 + 0.5 ln 0.4) = sqrt(0.36) = 0.6
        assert_allclose(combine_scores(0.9, 0.4, 0.5), 0.6, rtol=1e-12)

    def test_interpolation_between_draws(self):
        q = combine_scores(0.9, 0.4, 0.25)
        assert_allclose(q, 0.9**0.25 * 0.4**0.75, rtol=1e-12)


class TestClickWeight:
    def test_decays_with_survey_volume(self):
        bank = ContextBank(context_id="c", lambda_config=LambdaConfig(k=50.0))
        assert click_weight(bank) == 1.0
        bank.survey_arm("a1").add(0, 10.0, 50.0)
        assert_allclose(click_weight(bank), 50.0 / 100.0)
        bank.survey_arm("a2").add(0, 0.0, 150.0)
        assert_allclose(click_weight(bank), 50.0 / 250.0)

    def test_fixed_weight_overrides_schedule(self):
        bank = ContextBank(
            context_id="c", lambda_config=LambdaConfig(fixed_weight=0.3)
        )
        bank.survey_arm("a1").add(0, 5.0, 500.0)
        assert click_weight(bank) == 0.3


class TestJointScore:
    def test_no_survey_stats_equals_click_draw_exactly(self):
        bank = ContextBank(context_id="c")
        bank.click_arm("a1").add(0, 3.0, 10.0)
        draw_joint = one_score(bank, "a1", np.random.default_rng(5))
        rng = np.random.default_rng(5)
        expected = float(rng.beta(np.array([4.0]), np.array([8.0]))[0])
        assert draw_joint == expected

    def test_unknown_action_scores_through_uniform_prior(self):
        bank = ContextBank(context_id="c")
        rng = np.random.default_rng(11)
        draws = np.array([one_score(bank, "ghost", rng) for _ in range(20000)])
        assert_allclose(draws.mean(), 0.5, atol=0.02)

    def test_survey_stats_pull_score_toward_survey_rate(self):
        bank = ContextBank(
            context_id="c", lambda_config=LambdaConfig(fixed_weight=0.2)
        )
        bank.click_arm("a1").add(0, 90.0, 100.0)
        bank.survey_arm("a1").add(0, 5.0, 100.0)  # bad survey record
        rng = np.random.default_rng(2)
        draws = np.array([one_score(bank, "a1", rng) for _ in range(4000)])
        # 0.9^0.2 * 0.06^0.8 is about 0.10; far below the click rate
        assert draws.mean() < 0.2

    def test_evicted_survey_stats_fall_back_to_click_draw(self):
        bank = ContextBank(context_id="c", window_seconds=100)
        bank.click_arm("a1").add(1000, 3.0, 10.0)
        bank.survey_arm("a1").add(0, 1.0, 1.0)
        evict(bank, 1000)
        assert bank.survey_stats["a1"].trials == 0.0
        draw_joint = one_score(bank, "a1", np.random.default_rng(5))
        rng = np.random.default_rng(5)
        expected = float(rng.beta(np.array([4.0]), np.array([8.0]))[0])
        assert draw_joint == expected

    def test_naive_product_multiplies_draws(self):
        bank = ContextBank(
            context_id="c",
            lambda_config=LambdaConfig(combiner=COMBINER_NAIVE_PRODUCT),
        )
        bank.click_arm("a1").add(0, 3.0, 10.0)
        bank.survey_arm("a1").add(0, 8.0, 10.0)
        got = one_score(bank, "a1", np.random.default_rng(9))
        rng = np.random.default_rng(9)
        qc = float(rng.beta(np.array([4.0]), np.array([8.0]))[0])
        qs = float(rng.beta(np.array([9.0]), np.array([3.0]))[0])
        assert_allclose(got, qc * qs, rtol=1e-12)

    def test_vector_and_scalar_paths_agree(self):
        # the one-action call the safe gate makes, against the per-element form
        bank = ContextBank(context_id="c")
        bank.click_arm("a1").add(0, 3.0, 10.0)
        bank.survey_arm("a1").add(0, 2.0, 4.0)
        vec = joint_scores(bank, ["a1"], np.random.default_rng(21))
        scalar = reference_joint_scores(bank, ["a1"], np.random.default_rng(21))
        assert vec.tobytes() == scalar.tobytes()


def random_bank(cases, lambda_config):
    """Click arms with integer or fractional counters; about half also hold
    survey counters, some of them empty."""
    bank = ContextBank(context_id="c", lambda_config=lambda_config)
    for i in range(int(cases.integers(0, 10))):
        action_id = f"a{i}"
        fractional = bool(cases.integers(2))
        trials = cases.random() * 40 if fractional else float(cases.integers(0, 40))
        successes = trials * cases.random() if fractional else float(cases.integers(0, trials + 1))
        bank.click_arm(action_id).add(0, successes, trials)
        if cases.random() < 0.5:
            trials = float(cases.integers(0, 20)) + (cases.random() if fractional else 0.0)
            bank.survey_arm(action_id).add(0, trials * cases.random(), trials)
    return bank


class StubBeta:
    """Stands in for the generator: ``beta`` returns the next values of a
    fixed cycle, one per parameter pair, in the order they are asked for."""

    def __init__(self, values):
        self.values = values
        self.used = 0

    def beta(self, a, b):
        n = len(np.atleast_1d(a))
        out = [self.values[(self.used + j) % len(self.values)] for j in range(n)]
        self.used += n
        return np.array(out)


LAMBDA_CONFIGS = [
    LambdaConfig(),
    LambdaConfig(k=3.0),
    LambdaConfig(fixed_weight=0.0),
    LambdaConfig(fixed_weight=1.0),
    LambdaConfig(fixed_weight=0.37),
    LambdaConfig(combiner=COMBINER_NAIVE_PRODUCT),
]


class TestJointScoresMatchReference:
    def test_random_banks_give_the_same_scores_and_stream(self):
        cases = np.random.default_rng(15)
        for case in range(600):
            bank = random_bank(cases, LAMBDA_CONFIGS[case % len(LAMBDA_CONFIGS)])
            known = sorted(bank.click_stats)
            ghosts = [f"ghost{j}" for j in range(int(cases.integers(0, 3)))]
            ids = [a for a in known if cases.random() < 0.8] + ghosts
            ids = [ids[j] for j in cases.permutation(len(ids))]
            seed = int(cases.integers(2**32))
            rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
            got = joint_scores(bank, ids, rng_got)
            want = reference_joint_scores(bank, ids, rng_want)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (case, ids)
            assert rng_got.bit_generator.state == rng_want.bit_generator.state

    def test_empty_list_draws_nothing(self):
        bank = click_bank(2.0, 5.0)
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        assert joint_scores(bank, [], rng).shape == (0,)
        assert rng.bit_generator.state == before

    def test_clamp_maps_the_edges_and_keeps_subnormals(self):
        edges = [0.0, 1.0, 5e-324, -0.0, 0.25]
        got = joint_scores(click_bank(1.0, 3.0), list("abcde"), StubBeta(edges))
        tiny, below_one = np.finfo(float).tiny, np.nextafter(1.0, 0.0)
        # np.clip(x, tiny, below_one) would lift the subnormal to tiny
        assert got.tolist() == [tiny, below_one, 5e-324, tiny, 0.25]
        for config in LAMBDA_CONFIGS:
            bank = ContextBank(context_id="c", lambda_config=config)
            for i, action_id in enumerate("abcdef"):
                bank.click_arm(action_id).add(0, 1.0, 2.0)
                if i % 2:
                    bank.survey_arm(action_id).add(0, 1.0, 3.0)
            ids = list("abcdef") + ["ghost"]
            got = joint_scores(bank, ids, StubBeta(edges))
            want = reference_joint_scores(bank, ids, StubBeta(edges))
            assert got.tobytes() == want.tobytes()


class TestRanking:
    def test_ties_break_by_action_id(self):
        ids = ["b", "a10", "a2", "a1"]
        scores = np.array([0.5, 0.5, 0.5, 0.9])
        order = rank_by_score(ids, scores)
        assert [ids[i] for i in order] == ["a1", "a10", "a2", "b"]

    def test_matches_the_key_sort_on_ties(self):
        # "__null__" sorts after upper-case ids and before lower-case ones
        pool = ["__null__", "A1", "a1", "Zed", "b", "a10", "a2", "_x", "B"]
        cases = np.random.default_rng(8)
        for _ in range(500):
            ids = [pool[j] for j in cases.permutation(len(pool))[: int(cases.integers(1, 10))]]
            scores = cases.choice([0.0, 0.25, 0.5, 5e-324, 1.0], size=len(ids))
            want = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
            assert rank_by_score(ids, scores) == want
            assert rank_by_score(ids, scores.tolist()) == want


class TestPreSample:
    def test_returns_k_unique_candidates(self):
        bank = ContextBank(context_id="c")
        ids = [f"a{i:04d}" for i in range(1000)]
        picked = pre_sample(bank, ids, 25, np.random.default_rng(0))
        assert len(picked) == 25
        assert len(set(picked)) == 25
        assert set(picked) <= set(ids)

    def test_deterministic_for_a_seed(self):
        bank = ContextBank(context_id="c")
        ids = [f"a{i:04d}" for i in range(1000)]
        first = pre_sample(bank, ids, 25, np.random.default_rng(123))
        second = pre_sample(bank, ids, 25, np.random.default_rng(123))
        assert first == second

    def test_favors_strong_arms(self):
        bank = ContextBank(context_id="c")
        for i in range(50):
            bank.click_arm(f"a{i:02d}").add(0, 0.0, 30.0)
        bank.click_arm("best").add(0, 29.0, 30.0)
        ids = sorted(bank.click_stats)
        hits = sum(
            "best" in pre_sample(bank, ids, 5, np.random.default_rng(seed))
            for seed in range(50)
        )
        assert hits >= 45

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(ValidationError):
            pre_sample(ContextBank(context_id="c"), ["a", "a"], 1, np.random.default_rng(0))


class TestUpdate:
    def test_observed_items_gain_trials_and_click_gains_success(self):
        bank = ContextBank(context_id="ctx")
        event = make_event(context_id="ctx", action_ids=["a1", "a2"], click=0)
        update(bank, event)
        assert bank.click_stats["a1"].successes == 1.0
        assert bank.click_stats["a1"].trials == 1.0
        assert bank.click_stats["a2"].successes == 0.0
        assert bank.click_stats["a2"].trials == 1.0

    def test_abandonment_counts_trials_without_success(self):
        bank = ContextBank(context_id="ctx")
        update(bank, make_event(context_id="ctx", action_ids=["a1", "a2"], click=None))
        assert bank.click_stats["a1"].trials == 1.0
        assert bank.click_stats["a1"].successes == 0.0

    def test_answered_survey_lands_on_clicked_action(self):
        bank = ContextBank(context_id="ctx")
        update(
            bank,
            make_event(context_id="ctx", action_ids=["a1", "a2"], click=1, survey=Survey.YES),
        )
        assert bank.survey_stats["a2"].successes == 1.0
        assert bank.survey_stats["a2"].trials == 1.0
        assert "a1" not in bank.survey_stats

    def test_null_click_surveys_the_null_item_without_click_trial(self):
        bank = ContextBank(context_id="ctx")
        event = make_event(context_id="ctx", action_ids=["a1"], click=1, survey=Survey.NO)
        update(bank, event)
        null_id = event.slate.items[1].action_id
        assert bank.survey_stats[null_id].trials == 1.0
        assert bank.survey_stats[null_id].successes == 0.0
        assert null_id not in bank.click_stats or bank.click_stats[null_id].trials == 0.0

    def test_direct_trigger_counts_trial_but_censors_click_success(self):
        bank = ContextBank(context_id="ctx")
        event = make_event(
            context_id="ctx", action_ids=["a1"], click=None, survey=Survey.YES, with_null=False
        )
        update(bank, event)
        assert bank.click_stats["a1"].trials == 1.0
        assert bank.click_stats["a1"].successes == 0.0
        assert bank.survey_stats["a1"].successes == 1.0

    def test_survey_stats_imply_click_stats(self):
        bank = ContextBank(context_id="ctx")
        update(bank, make_event(context_id="ctx", action_ids=["a1"], click=1, survey=Survey.YES))
        for action_id in bank.survey_stats:
            assert action_id in bank.click_stats

    def test_window_eviction_runs_before_counting(self):
        bank = ContextBank(context_id="ctx", window_seconds=100)
        update(bank, make_event(ts=0, context_id="ctx", action_ids=["a1"], click=0))
        update(bank, make_event(ts=1000, context_id="ctx", action_ids=["a1"], click=None))
        assert bank.click_stats["a1"].trials == 1.0
        assert bank.click_stats["a1"].successes == 0.0

    def test_entry_at_window_edge_survives(self):
        bank = ContextBank(context_id="ctx", window_seconds=100)
        update(bank, make_event(ts=0, context_id="ctx", action_ids=["a1"], click=0))
        evict(bank, 99)
        assert bank.click_stats["a1"].trials == 1.0
        evict(bank, 100)
        assert bank.click_stats["a1"].trials == 0.0

    def test_wrong_context_rejected(self):
        bank = ContextBank(context_id="ctx")
        with pytest.raises(ValidationError):
            update(bank, make_event(context_id="other"))


class TestEstimatePropensities:
    def test_matches_quadrature_oracle_three_arms(self):
        # logged (s, t): x=(3,10) y=(5,10) z=(0,0); oracle integrates
        # Beta(4,8), Beta(6,6), Beta(1,1) rank-first probabilities.
        params = {"x": (3.0, 10.0), "y": (5.0, 10.0), "z": (0.0, 0.0)}
        oracle = rank_first_oracle([(4.0, 8.0), (6.0, 6.0), (1.0, 1.0)])
        got = estimate_propensities(params, np.random.default_rng(17), n_draws=200000)
        assert_allclose([got["x"], got["y"], got["z"]], oracle, atol=0.005)

    def test_probabilities_sum_to_one(self):
        params = {f"a{i}": (float(i), 10.0) for i in range(6)}
        got = estimate_propensities(params, np.random.default_rng(1), n_draws=50000)
        assert_allclose(sum(got.values()), 1.0, atol=1e-12)

    def test_dominant_arm_gets_nearly_all_mass(self):
        params = {"weak": (1.0, 10.0), "strong": (8.0, 10.0)}
        oracle = rank_first_oracle([(2.0, 10.0), (9.0, 3.0)])
        got = estimate_propensities(params, np.random.default_rng(23), n_draws=200000)
        assert_allclose([got["weak"], got["strong"]], oracle, atol=0.003)

    def test_empty_params_raise(self):
        with pytest.raises(NoDataError):
            estimate_propensities({}, np.random.default_rng(0))


class TestBankSnapshot:
    def test_round_trip_preserves_counters_and_config(self, tmp_path):
        bank = ContextBank(
            context_id="ctx",
            window_seconds=3600,
            lambda_config=LambdaConfig(k=25.0, combiner=COMBINER_NAIVE_PRODUCT),
        )
        bank.click_arm("a1").add(0, 2.0, 5.0)
        bank.click_arm("a1").add(50, 1.0, 2.0)
        bank.survey_arm("a1").add(60, 1.0, 1.0)
        path = tmp_path / "bank.json"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert loaded.context_id == "ctx"
        assert loaded.window_seconds == 3600
        assert loaded.lambda_config.combiner == COMBINER_NAIVE_PRODUCT
        assert loaded.click_stats["a1"].successes == 3.0
        assert loaded.click_stats["a1"].trials == 7.0
        assert list(loaded.click_stats["a1"].entries) == list(bank.click_stats["a1"].entries)

    def test_snapshot_bytes_are_deterministic(self, tmp_path):
        bank = ContextBank(context_id="ctx")
        bank.click_arm("b").add(0, 1.0, 2.0)
        bank.click_arm("a").add(1, 0.0, 1.0)
        save_bank(bank, tmp_path / "one.json")
        save_bank(bank, tmp_path / "two.json")
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_window_eviction_after_reload_matches(self, tmp_path):
        bank = ContextBank(context_id="ctx", window_seconds=100)
        bank.click_arm("a1").add(0, 1.0, 1.0)
        bank.click_arm("a1").add(90, 0.0, 1.0)
        save_bank(bank, tmp_path / "bank.json")
        loaded = load_bank(tmp_path / "bank.json")
        evict(loaded, 150)
        assert loaded.click_stats["a1"].trials == 1.0
