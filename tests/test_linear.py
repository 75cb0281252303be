"""Sufficient statistics, subspace fitting, effective counts, samplers.

Fits are checked against a dense normal-equation solve; effective counts
against the quadratic form computed with a generic linear solver, plus the
integer-exactness contract on one-hot features. Sampler distributions are
checked against hand-computed probabilities and Gaussian moments.
"""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from slatebandit.core import NoDataError, ValidationError
from slatebandit.linear import (
    BanditHead,
    SufficientStats,
    absorb,
    bonus,
    evict_before,
    ews_probabilities,
    ews_sample,
    ews_weights,
    fit,
    load_head,
    predict,
    save_head,
    ts_sample,
)


def random_stats(rng, n=200, dim=6, window=None):
    stats = SufficientStats(dim=dim, window_seconds=window)
    for t in range(n):
        phi = rng.normal(size=dim)
        absorb(stats, phi, float(rng.normal()), t)
    return stats


def batch_recompute(stats):
    """The sums recomputed from scratch over the retained entries."""
    f = np.zeros(stats.dim)
    g = np.zeros((stats.dim, stats.dim))
    for _, phi, reward in stats.entries:
        f += reward * phi
        g += np.outer(phi, phi)
    return f, g


def one_hot_stats(counts, rewards_per_arm=None, dim=None):
    """counts[i] absorptions of basis vector e_i; rewards default to 1."""
    dim = dim if dim is not None else len(counts)
    stats = SufficientStats(dim=dim)
    ts = 0
    for i, c in enumerate(counts):
        for j in range(c):
            reward = 1.0 if rewards_per_arm is None else rewards_per_arm[i][j]
            phi = np.zeros(dim)
            phi[i] = 1.0
            absorb(stats, phi, reward, ts)
            ts += 1
    return stats


class TestSufficientStats:
    def test_running_sums_match_batch_recompute(self):
        rng = np.random.default_rng(0)
        stats = random_stats(rng, n=120, dim=5, window=50)
        f, g = batch_recompute(stats)
        assert_allclose(stats.reward_feature_sum, f, rtol=1e-9, atol=1e-9)
        assert_allclose(stats.gram, g, rtol=1e-9, atol=1e-9)

    def test_eviction_matches_batch_recompute_under_random_cutoffs(self):
        rng = np.random.default_rng(1)
        stats = random_stats(rng, n=80, dim=4)
        for cutoff in (10, 30, 30, 55, 200):
            evict_before(stats, cutoff)
            f, g = batch_recompute(stats)
            assert_allclose(stats.reward_feature_sum, f, atol=1e-9)
            assert_allclose(stats.gram, g, atol=1e-9)
            assert stats.count == len(stats.entries)

    def test_full_eviction_resets_to_exact_zero(self):
        rng = np.random.default_rng(2)
        stats = random_stats(rng, n=30, dim=3)
        evict_before(stats, 10**9)
        assert stats.count == 0
        assert np.all(stats.reward_feature_sum == 0.0)
        assert np.all(stats.gram == 0.0)

    def test_window_ages_out_entries_on_absorb(self):
        stats = SufficientStats(dim=2, window_seconds=100)
        absorb(stats, np.array([1.0, 0.0]), 1.0, 0)
        absorb(stats, np.array([0.0, 1.0]), 1.0, 99)
        assert stats.count == 2
        absorb(stats, np.array([0.0, 1.0]), 1.0, 100)
        assert stats.count == 2  # the ts=0 entry aged out exactly at the edge
        assert stats.gram[0, 0] == 0.0

    def test_absorb_validates_shape_order_and_finiteness(self):
        stats = SufficientStats(dim=2)
        with pytest.raises(ValidationError):
            absorb(stats, np.zeros(3), 1.0, 0)
        with pytest.raises(ValidationError):
            absorb(stats, np.array([np.nan, 0.0]), 1.0, 0)
        absorb(stats, np.zeros(2), 1.0, 5)
        with pytest.raises(ValidationError):
            absorb(stats, np.zeros(2), 1.0, 4)


class TestFit:
    def test_full_threshold_matches_dense_normal_equations(self):
        rng = np.random.default_rng(3)
        stats = random_stats(rng, n=400, dim=6)
        head = fit(stats, pcr_threshold=1.0)
        dense = np.linalg.solve(stats.gram, stats.reward_feature_sum)
        assert_allclose(head.weights, dense, rtol=1e-8, atol=1e-10)
        assert head.ridge == 0.0
        assert head.rank == 6

    def test_predictions_match_dense_solution(self):
        rng = np.random.default_rng(4)
        stats = random_stats(rng, n=300, dim=5)
        head = fit(stats, pcr_threshold=1.0)
        dense = np.linalg.solve(stats.gram, stats.reward_feature_sum)
        for _ in range(10):
            phi = rng.normal(size=5)
            assert_allclose(predict(head, phi), float(dense @ phi), rtol=1e-8)

    def test_threshold_retains_smallest_sufficient_rank(self):
        rng = np.random.default_rng(5)
        stats = random_stats(rng, n=200, dim=8)
        head = fit(stats, pcr_threshold=0.9)
        eigvals = np.sort(np.linalg.eigvalsh((stats.gram + stats.gram.T) / 2.0))[::-1]
        total = eigvals.sum()
        kept = eigvals[: head.rank].sum()
        assert kept >= 0.9 * total
        if head.rank > 1:
            assert eigvals[: head.rank - 1].sum() < 0.9 * total

    def test_rank_deficient_data_keeps_positive_spectrum_at_full_threshold(self):
        # two distinct directions in a 4-dim space
        stats = SufficientStats(dim=4)
        for t in range(20):
            phi = np.zeros(4)
            phi[t % 2] = 1.0
            absorb(stats, phi, 1.0, t)
        head = fit(stats, pcr_threshold=1.0)
        assert head.rank == 2
        assert head.ridge == 0.0

    def test_ridge_applied_only_when_retained_spectrum_touches_zero(self):
        # a single entry makes the gram rank one; threshold 1.0 keeps the
        # positive part only, so no ridge is needed
        stats = SufficientStats(dim=3)
        absorb(stats, np.array([1.0, 1.0, 0.0]), 1.0, 0)
        head = fit(stats, pcr_threshold=1.0)
        assert head.ridge == 0.0
        assert head.rank == 1

    def test_empty_stats_raise(self):
        with pytest.raises(NoDataError):
            fit(SufficientStats(dim=3))

    def test_threshold_must_be_in_unit_interval(self):
        rng = np.random.default_rng(6)
        stats = random_stats(rng, n=10, dim=2)
        with pytest.raises(ValidationError):
            fit(stats, pcr_threshold=0.0)
        with pytest.raises(ValidationError):
            fit(stats, pcr_threshold=1.5)


class TestBonus:
    def test_one_hot_counts_come_back_as_exact_integers(self):
        # 49, 93, 98 are counts where the naive double-rounding chain
        # float(1/(1/c)) does not return c; the head must still be exact
        counts = [49, 93, 98, 1, 7, 1000]
        head = fit(one_hot_stats(counts), pcr_threshold=1.0)
        for i, c in enumerate(counts):
            phi = np.zeros(len(counts))
            phi[i] = 1.0
            assert bonus(head, phi) == float(c)

    def test_exactness_over_a_count_sweep(self):
        for c in [1, 2, 3, 10, 49, 64, 93, 98, 255, 1023, 4097]:
            head = fit(one_hot_stats([c, 5]), pcr_threshold=1.0)
            assert bonus(head, np.array([1.0, 0.0])) == float(c)
            assert bonus(head, np.array([0.0, 1.0])) == 5.0

    def test_matches_quadratic_form_oracle_on_dense_data(self):
        rng = np.random.default_rng(8)
        stats = random_stats(rng, n=300, dim=5)
        head = fit(stats, pcr_threshold=1.0)
        for _ in range(10):
            phi = rng.normal(size=5)
            quad = float(phi @ np.linalg.solve(stats.gram, phi))
            assert_allclose(bonus(head, phi), 1.0 / quad, rtol=1e-8)

    def test_direction_without_evidence_scores_zero(self):
        stats = SufficientStats(dim=3)
        for t in range(10):
            absorb(stats, np.array([1.0, 0.0, 0.0]), 1.0, t)
        head = fit(stats, pcr_threshold=1.0)
        assert bonus(head, np.array([0.0, 1.0, 0.0])) == 0.0
        assert bonus(head, np.array([0.0, 0.0, 1.0])) == 0.0

    def test_one_hot_weights_are_exact_success_ratios(self):
        # arm 0: 3 wins and 1 loss in 4 trials; arm 1: all 5 lost
        rewards = [[1.0, 1.0, -1.0, 1.0], [-1.0] * 5]
        head = fit(one_hot_stats([4, 5], rewards_per_arm=rewards), pcr_threshold=1.0)
        assert predict(head, np.array([1.0, 0.0])) == 0.5
        assert predict(head, np.array([0.0, 1.0])) == -1.0


class TestEwsWeights:
    def test_matches_closed_form(self):
        got = ews_weights(np.array([2.0, 0.0, 1.0]), np.array([0.5, 3.0, 0.0]))
        assert_allclose(got, [np.exp(-1.0), 1.0, 1.0], rtol=1e-12)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValidationError):
            ews_weights(np.array([-1.0]), np.array([0.0]))
        with pytest.raises(ValidationError):
            ews_weights(np.array([1.0]), np.array([-0.1]))
        with pytest.raises(ValidationError):
            ews_weights(np.array([1.0, 2.0]), np.array([0.0]))


def diagonal_head(eigenvalues, weights):
    lam = np.asarray(eigenvalues, dtype=float)
    return BanditHead(
        dim=len(lam),
        basis=np.eye(len(lam)),
        eigenvalues=lam,
        weights=np.asarray(weights, dtype=float),
        pcr_threshold=1.0,
    )


class TestEwsSampling:
    def test_probabilities_match_hand_computation(self):
        # estimates 1 and 0; counts 4 and 1; leader has gap 0
        head = diagonal_head([4.0, 1.0], [1.0, 0.0])
        probs = ews_probabilities(head, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        w = np.array([1.0, np.exp(-2.0)])
        assert_allclose(probs, w / w.sum(), rtol=1e-12)

    def test_unexplored_candidate_keeps_full_weight(self):
        head = diagonal_head([100.0, 1.0], [1.0, 0.0])
        phi_far = np.array([0.0, 0.0])  # no evidence in any retained direction
        probs = ews_probabilities(head, [np.array([1.0, 0.0]), phi_far])
        assert_allclose(probs, [0.5, 0.5], rtol=1e-12)

    def test_sampling_frequencies_match_probabilities(self):
        head = diagonal_head([4.0, 1.0], [1.0, 0.0])
        candidates = [("lead", np.array([1.0, 0.0])), ("trail", np.array([0.0, 1.0]))]
        rng = np.random.default_rng(10)
        picks = np.array([ews_sample(head, candidates, rng)[0] for _ in range(20000)])
        probs = ews_probabilities(head, [phi for _, phi in candidates])
        assert_allclose(np.mean(picks == 0), probs[0], atol=0.01)

    def test_empty_candidate_list_raises(self):
        head = diagonal_head([1.0], [0.0])
        with pytest.raises(NoDataError):
            ews_probabilities(head, [])


class TestTsSampling:
    def test_score_moments_follow_the_posterior(self):
        head = diagonal_head([4.0, 1.0], [1.0, 0.0])
        phi = np.array([1.0, 0.0])
        rng = np.random.default_rng(11)
        scores = np.array([ts_sample(head, [phi], 2.0, rng)[0] for _ in range(20000)])
        # score ~ Normal(w.phi, prior_scale * phi' inv(design) phi)
        assert_allclose(scores.mean(), 1.0, atol=0.02)
        assert_allclose(scores.var(), 2.0 / 4.0, atol=0.02)

    def test_one_draw_ranks_all_candidates(self):
        head = diagonal_head([4.0, 1.0], [1.0, 0.0])
        rng = np.random.default_rng(12)
        scores = ts_sample(head, [np.array([1.0, 0.0]), np.array([2.0, 0.0])], 0.5, rng)
        # the second feature is a scalar multiple of the first: scores must
        # share the sign structure of a single weight draw
        assert_allclose(scores[1], 2.0 * scores[0], rtol=1e-12)

    def test_parameter_validation(self):
        head = diagonal_head([1.0], [0.0])
        with pytest.raises(ValidationError):
            ts_sample(head, [np.array([1.0])], 0.0, np.random.default_rng(0))
        with pytest.raises(NoDataError):
            ts_sample(head, [], 1.0, np.random.default_rng(0))


class TestHeadSnapshot:
    def test_round_trip_preserves_queries(self, tmp_path):
        rng = np.random.default_rng(13)
        stats = random_stats(rng, n=150, dim=4)
        head = fit(stats, pcr_threshold=0.95)
        path = tmp_path / "head.json"
        save_head(head, path)
        loaded = load_head(path)
        assert loaded.count == head.count
        assert loaded.time_range == head.time_range
        for _ in range(5):
            phi = rng.normal(size=4)
            assert predict(loaded, phi) == predict(head, phi)
            assert bonus(loaded, phi) == bonus(head, phi)

    def test_saved_head_has_no_design_factor(self, tmp_path):
        head = fit(random_stats(np.random.default_rng(14), n=50, dim=3))
        save_head(head, tmp_path / "head.json")
        record = json.loads((tmp_path / "head.json").read_text())
        assert set(record) == {
            "dim", "basis", "eigenvalues", "weights", "pcr_threshold", "ridge", "count",
            "time_range",
        }

    def test_old_heads_with_the_factor_load_and_sample_as_before(self, tmp_path):
        # Older heads stored inv_factor = inv(cholesky(diag(eigenvalues))) and
        # sampled with basis @ (inv_factor.T @ z); the reciprocal-root scaling
        # must give the same sampled scores bit for bit.
        rng = np.random.default_rng(15)
        head = fit(random_stats(rng, n=120, dim=5), pcr_threshold=0.9)
        save_head(head, tmp_path / "head.json")
        record = json.loads((tmp_path / "head.json").read_text())
        factor = np.linalg.cholesky(np.diag(head.eigenvalues))
        inv_factor = np.diag(1.0 / np.diag(factor))
        record["inv_factor"] = inv_factor.tolist()
        (tmp_path / "old.json").write_text(json.dumps(record, sort_keys=True))
        loaded = load_head(tmp_path / "old.json")
        candidates = [rng.normal(size=5) for _ in range(6)]
        for seed in range(20):
            scores = ts_sample(loaded, candidates, 0.7, np.random.default_rng(seed))
            z = np.random.default_rng(seed).standard_normal(head.rank)
            weights = head.weights + np.sqrt(0.7) * (head.basis @ (inv_factor.T @ z))
            expected = np.array([float(weights @ phi) for phi in candidates])
            assert np.array_equal(scores, expected)

    def test_integer_exactness_survives_the_round_trip(self, tmp_path):
        head = fit(one_hot_stats([49, 93]), pcr_threshold=1.0)
        save_head(head, tmp_path / "head.json")
        loaded = load_head(tmp_path / "head.json")
        assert bonus(loaded, np.array([1.0, 0.0])) == 49.0
        assert bonus(loaded, np.array([0.0, 1.0])) == 93.0
