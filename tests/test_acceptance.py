"""Whole-system acceptance checks, one test per numbered claim.

Each test prints a single ``ACCEPTANCE nn <name>: PASS/FAIL`` line (visible
with ``pytest -s``; shown in the failure report otherwise) and asserts the
claim at its stated tolerance. The simulator checks run on frozen seeds that
were picked after sweeping neighborhoods for stable margins, not tuned to the
edge; the numeric checks recompute their expectations from independent
oracles (closed forms, dense solves, finite differences, quadrature) inside
the test body.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
from numpy.testing import assert_allclose
from scipy import integrate, stats as sps

from slatebandit import expansion, features, linear, mab
from slatebandit.cli import EXIT_OK, main
from slatebandit.core import Action, RewardSpec, Slate, null_item
from slatebandit.evaluation import prr_hat, snips
from slatebandit.sim import (
    ActionTruth,
    ContextWorld,
    FeatureTable,
    FixedSlatePolicy,
    MabPolicy,
    NlbPolicy,
    Schedule,
    UniformRandomPolicy,
    WorldSpec,
    analytic_oracle_prr,
    run,
)
from slatebandit.slates import SlatePolicyConfig


@contextmanager
def criterion(number: int, name: str):
    """Collects a detail note and prints the one-line verdict."""
    note = {}
    try:
        yield note
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL ({note.get('detail', 'see assertion')})")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({note.get('detail', 'ok')})")


def test_01_posterior_sampling_means():
    """Beta-sampling means match (successes+1)/(trials+2) within 3 SE at 1e5 draws."""
    with criterion(1, "posterior-sampling") as note:
        started = time.monotonic()
        rng = np.random.default_rng(102)
        worst = 0.0
        for alpha, n in [(0.0, 0.0), (3.0, 10.0), (17.0, 40.0), (1e6, 1e6)]:
            bank = mab.ContextBank(context_id="c")
            if n:
                bank.click_arm("a").add(0, alpha, n)
            draws = mab.joint_scores(bank, ["a"] * 100_000, rng)
            a, b = alpha + 1.0, n - alpha + 1.0
            mean = a / (a + b)
            se = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)) / len(draws))
            z = abs(float(draws.mean()) - mean) / se
            worst = max(worst, z)
            assert z <= 3.0, f"(alpha={alpha}, n={n}): {z:.2f} standard errors off"
        elapsed = time.monotonic() - started
        note["detail"] = f"worst offset {worst:.2f} SE, {elapsed:.1f}s"
        assert elapsed < 10.0


def test_02_one_hot_bonus_is_the_trial_count():
    """With one-hot features and no truncation, bonus(e_a) == the exact count."""
    with criterion(2, "one-hot-count-identity") as note:
        rng = np.random.default_rng(7)
        checked = 0
        for dim, high in ((32, 400), (8, 5000)):
            counts = rng.integers(1, high, size=dim)
            # plant counts whose float reciprocal does not round-trip, plus
            # an empty arm (its direction drops out and the count is zero)
            counts[: 4] = (49, 93, 98, 0)
            built = linear.SufficientStats(dim=dim)
            ts = 0
            for i, c in enumerate(counts):
                phi = np.zeros(dim)
                phi[i] = 1.0
                for _ in range(int(c)):
                    linear.absorb(built, phi, float(rng.choice((-1.0, 1.0))), ts)
                    ts += 1
            head = linear.fit(built, pcr_threshold=1.0)
            for i, c in enumerate(counts):
                phi = np.zeros(dim)
                phi[i] = 1.0
                assert linear.bonus(head, phi) == float(c)
                checked += 1
        note["detail"] = f"{checked} arm counts reproduced exactly"


def test_03_fit_matches_dense_solve_and_truncates():
    """fit() tracks a dense normal-equation solve; 0.99 threshold drops a 1000:1 runt."""
    with criterion(3, "least-squares-oracle") as note:
        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            n = 12 * dim
            built = linear.SufficientStats(dim=dim)
            w_true = rng.normal(size=dim)
            for t in range(n):
                phi = rng.normal(size=dim)
                linear.absorb(built, phi, float(phi @ w_true + 0.1 * rng.normal()), t)
            head = linear.fit(built, pcr_threshold=1.0)
            dense = np.linalg.solve(built.gram, built.reward_feature_sum)
            worst = max(worst, float(np.max(np.abs(head.weights - dense))))
        assert worst < 1e-8

        lopsided = linear.SufficientStats(dim=2)
        linear.absorb(lopsided, np.array([np.sqrt(1000.0), 0.0]), 2.0, 0)
        linear.absorb(lopsided, np.array([0.0, 1.0]), 0.5, 1)
        head = linear.fit(lopsided, pcr_threshold=0.99)
        assert head.rank == 1
        assert head.weights[1] == 0.0
        assert linear.bonus(head, np.array([0.0, 1.0])) == 0.0
        assert_allclose(head.weights[0], 2.0 / np.sqrt(1000.0), rtol=1e-12)
        note["detail"] = f"max |fit - solve| {worst:.2e}; 1000:1 case kept rank 1"


def test_04_network_gradients_match_finite_differences():
    """Backprop agrees with central differences to 1e-4 relative on 20 random nets."""
    with criterion(4, "gradient-check") as note:
        rng = np.random.default_rng(23)
        compared = 0
        for _ in range(20):
            input_dim = int(rng.integers(2, 7))
            depth = int(rng.integers(1, 3))
            hidden = tuple(int(rng.integers(3, 9)) for _ in range(depth))
            batch = int(rng.integers(2, 7))
            weights, biases = features.init_params(input_dim, hidden, rng)
            x = rng.normal(size=(batch, input_dim))
            y = rng.normal(size=batch)
            _, grad_w, grad_b = features.loss_and_grads(weights, biases, x, y)
            eps = 1e-6
            for layer in range(len(weights)):
                for _ in range(3):
                    i = int(rng.integers(weights[layer].shape[0]))
                    j = int(rng.integers(weights[layer].shape[1]))
                    for sign in (1.0, -1.0):
                        weights[layer][i, j] += sign * eps
                        loss = features.loss_and_grads(weights, biases, x, y)[0]
                        weights[layer][i, j] -= sign * eps
                        if sign > 0:
                            up = loss
                        else:
                            down = loss
                    numeric = (up - down) / (2 * eps)
                    assert_allclose(grad_w[layer][i, j], numeric, rtol=1e-4, atol=1e-7)
                    compared += 1
                k = int(rng.integers(len(biases[layer])))
                biases[layer][k] += eps
                up = features.loss_and_grads(weights, biases, x, y)[0]
                biases[layer][k] -= 2 * eps
                down = features.loss_and_grads(weights, biases, x, y)[0]
                biases[layer][k] += eps
                assert_allclose(grad_b[layer][k], (up - down) / (2 * eps), rtol=1e-4, atol=1e-7)
                compared += 1
        note["detail"] = f"{compared} sampled coordinates across 20 networks"


def _diagonal_head(eigenvalues, weights):
    lam = np.asarray(eigenvalues, dtype=float)
    return linear.BanditHead(
        dim=len(lam),
        basis=np.eye(len(lam)),
        eigenvalues=lam,
        weights=np.asarray(weights, dtype=float),
        pcr_threshold=1.0,
    )


def test_05_sampling_weights_and_frequencies():
    """Selection probabilities equal normalized exp(-2 b g^2); draws follow them."""
    with criterion(5, "weighted-sampling") as note:
        head = _diagonal_head([4.0, 9.0, 25.0], [0.5, 0.2, -0.1])
        phis = [np.eye(3)[i] for i in range(3)]
        raw = np.exp(-2.0 * np.array([4.0, 9.0, 25.0]) * np.array([0.0, 0.3, 0.6]) ** 2)
        assert_allclose(linear.ews_probabilities(head, phis), raw / raw.sum(), rtol=1e-12)

        head = _diagonal_head([4.0, 9.0, 25.0], [0.5, 0.45, 0.35])
        expected = np.exp(-2.0 * np.array([4.0, 9.0, 25.0]) * np.array([0.0, 0.05, 0.15]) ** 2)
        expected /= expected.sum()
        assert_allclose(linear.ews_probabilities(head, phis), expected, rtol=1e-12)

        rng = np.random.default_rng(31)
        keyed = [(f"a{i}", phis[i]) for i in range(3)]
        hits = np.zeros(3)
        for _ in range(100_000):
            index, _ = linear.ews_sample(head, keyed, rng)
            hits[index] += 1
        freq = hits / hits.sum()
        assert_allclose(freq, expected, atol=0.01)
        note["detail"] = (
            f"probs exact to 1e-12; worst frequency gap {np.max(np.abs(freq - expected)):.4f}"
        )


def test_06_snips_identity_and_two_arm_truth():
    """Weighting by the logging policy returns its mean exactly; a held-out
    two-arm world is estimated within 0.05 of ground truth from 1e4 events."""
    with criterion(6, "off-policy-estimate") as note:
        world = WorldSpec(
            contexts=[
                ContextWorld(
                    context_id="c0",
                    weight=1.0,
                    actions={
                        "x": ActionTruth(p_click=0.8, p_yes=0.8),
                        "y": ActionTruth(p_click=0.8, p_yes=0.3),
                    },
                )
            ],
            seed=41,
            survey_skip_rate=0.0,
            seconds_per_event=1,
        )
        result = run(
            world,
            UniformRandomPolicy(),
            Schedule(horizon=10_000, aggregation_seconds=10_000),
            policy_seed=9,
        )
        spec = RewardSpec()
        identity = snips(
            result.events,
            lambda ctx: {"x": 1 / 3, "y": 1 / 3, null_item().action_id: 1 / 3},
            spec,
        )
        assert identity.estimate == identity.logging_policy_mean

        always_x = snips(result.events, lambda ctx: {"x": 1.0}, spec)
        always_y = snips(result.events, lambda ctx: {"y": 1.0}, spec)
        # survey reward is +-1, so truth is 2 p_yes - 1
        assert abs(always_x.estimate - 0.6) <= 0.05
        assert abs(always_y.estimate - (-0.4)) <= 0.05
        note["detail"] = (
            f"identity exact; always-x err {always_x.estimate - 0.6:+.4f}, "
            f"always-y err {always_y.estimate + 0.4:+.4f}"
        )


def _discrete_learning_world(seed: int = 11) -> WorldSpec:
    """Five contexts, twenty actions each: one at p_yes 0.9, the rest spread
    over 0.1..0.6, shuffled per context so the best arm differs."""
    rng = np.random.default_rng(seed)
    contexts = []
    for c in range(5):
        p_yes = np.concatenate([[0.9], np.linspace(0.1, 0.6, 19)])
        rng.shuffle(p_yes)
        actions = {
            f"a{i:02d}": ActionTruth(p_click=0.75, p_yes=float(p_yes[i]))
            for i in range(20)
        }
        contexts.append(ContextWorld(context_id=f"c{c}", weight=0.2, actions=actions))
    return WorldSpec(
        contexts=contexts, seed=seed, survey_skip_rate=0.7, seconds_per_event=1
    )


def test_07_discrete_policy_learns_the_world():
    """At survey skip 0.7 over 50k events, the discrete policy's final-10% PRR
    sits within 5 points of the always-best oracle and 15+ above uniform."""
    with criterion(7, "discrete-simulator-learning") as note:
        started = time.monotonic()
        world = _discrete_learning_world()
        schedule = Schedule(horizon=50_000, aggregation_seconds=500)
        learner = run(
            world,
            MabPolicy(slate_config=SlatePolicyConfig(max_length=2)),
            schedule,
            policy_seed=3,
        )
        uniform = run(
            world,
            UniformRandomPolicy(slate_config=SlatePolicyConfig(max_length=2)),
            schedule,
            policy_seed=3,
        )
        elapsed = time.monotonic() - started
        oracle = analytic_oracle_prr(world)
        learned = prr_hat(learner.final_slice(0.1))
        floor = prr_hat(uniform.final_slice(0.1))
        note["detail"] = (
            f"prr {learned:.3f} vs oracle {oracle:.3f} and uniform {floor:.3f}, "
            f"{elapsed:.0f}s"
        )
        assert abs(learned - oracle) <= 0.05
        assert learned - floor >= 0.15
        assert elapsed < 120.0


def test_08_rich_feature_policy_regret_collapses():
    """On a 16-dim linear world with hourly refits, the final window's regret
    per event falls below 20% of the first (cold) window's."""
    with criterion(8, "rich-simulator-learning") as note:
        dim = 16
        w_star = np.linspace(-0.9, 0.9, 15)
        actions, table = {}, {}
        for i, w in enumerate(w_star):
            action_id = f"a{i:02d}"
            # survey reward is +-1, so p_yes (1 + w)/2 makes the expected
            # reward exactly w_star . e_i
            actions[action_id] = ActionTruth(p_click=0.8, p_yes=(1.0 + w) / 2.0)
            phi = np.zeros(dim)
            phi[i] = 1.0
            table[("c0", action_id)] = phi
        phi_null = np.zeros(dim)
        phi_null[15] = 1.0
        table[("c0", null_item().action_id)] = phi_null
        world = WorldSpec(
            contexts=[
                ContextWorld(
                    context_id="c0", weight=1.0, actions=actions, freetype_p_yes=0.5
                )
            ],
            seed=77,
            survey_skip_rate=0.3,
            freetype_enabled=True,
        )
        policy = NlbPolicy(
            feature_fn=FeatureTable(table, dim=dim),
            dim=dim,
            reward_spec=RewardSpec(),
            slate_config=SlatePolicyConfig(max_length=4),
            sampler="ews",
            pcr_threshold=1.0,
        )
        result = run(
            world,
            policy,
            Schedule(horizon=6000, aggregation_seconds=3600, refit_seconds=3600),
            policy_seed=5,
        )
        first = result.windows[0].regret_mean
        last = result.windows[-1].regret_mean
        note["detail"] = f"regret/event {first:.3f} -> {last:.4f} over {len(result.windows)} windows"
        assert first > 0.2  # the first window really is cold
        assert last < 0.2 * first


def test_09_safety_gate_protects_the_baseline():
    """The gate never serves below the baseline's value, and in paired runs the
    gated learner's windowed PRR never drops 2+ points below baseline-only."""
    with criterion(9, "safe-exploration") as note:
        actions = {"best": ActionTruth(p_click=0.85, p_yes=0.9)}
        for i in range(5):
            actions[f"alt{i}"] = ActionTruth(p_click=0.02, p_yes=0.7)
        world = WorldSpec(
            contexts=[ContextWorld(context_id="c0", weight=1.0, actions=actions)],
            seed=29,
            survey_skip_rate=0.3,
            seconds_per_event=1,
        )
        baseline = Slate(
            items=[Action(action_id="best", title="best"), null_item()],
            scores=[1.0, 0.0],
        )
        gated = MabPolicy(
            slate_config=SlatePolicyConfig(
                max_length=2, safe_exploration=True, baselines={"c0": baseline}
            )
        )
        schedule = Schedule(horizon=6000, aggregation_seconds=1000)
        gated_run = run(world, gated, schedule, policy_seed=7)
        baseline_run = run(
            world, FixedSlatePolicy({"c0": baseline}), schedule, policy_seed=7
        )

        assert len(gated.gate_audit) == 6000
        rescued = 0
        for sampled_value, baseline_value, used_baseline in gated.gate_audit:
            served_value = baseline_value if used_baseline else sampled_value
            assert served_value >= baseline_value
            rescued += used_baseline
        assert rescued > 0  # the gate actually bites

        margins = []
        for gated_window, baseline_window in zip(gated_run.windows, baseline_run.windows):
            assert gated_window.prr is not None and baseline_window.prr is not None
            margins.append(gated_window.prr - baseline_window.prr)
            assert gated_window.prr >= baseline_window.prr - 0.02
        note["detail"] = (
            f"{rescued} of 6000 decisions rescued; worst window margin {min(margins):+.4f}"
        )


def test_10_promotion_probability_and_gate_rules():
    """prob_better tracks the exact two-Beta exceedance integral within 1e-6;
    the evidence floor and the fresh-click rule hold by construction."""
    with criterion(10, "pool-expansion") as note:
        reference = mab.ArmStats()
        reference.add(0, 7.0, 12.0)
        ref_dist = sps.beta(reference.successes + 1.0, reference.failures + 1.0)
        worst = 0.0
        for trials in np.linspace(1.0, 40.0, 10):
            for fraction in np.linspace(0.0, 1.0, 10):
                candidate = mab.ArmStats()
                candidate.add(0, float(fraction * trials), float(trials))
                cand_dist = sps.beta(
                    candidate.successes + 1.0, candidate.failures + 1.0
                )
                exact, _ = integrate.quad(
                    lambda x: cand_dist.pdf(x) * ref_dist.cdf(x), 0.0, 1.0
                )
                estimate = expansion.prob_better(candidate, reference)
                worst = max(worst, abs(estimate - exact))
        assert worst <= 1e-6

        bank = mab.ContextBank(context_id="c0")
        bank.survey_arm(null_item().action_id).add(0, 2.0, 10.0)
        thin = mab.ArmStats()
        thin.add(0, 9.0, 9.0)
        strong = mab.ArmStats()
        strong.add(0, 19.0, 20.0)
        report = expansion.expand(
            bank,
            {"thin": thin, "strong": strong},
            expansion.ExpansionConfig(min_trials=10.0),
        )
        verdicts = {v.action_id: v.verdict for v in report.verdicts}
        assert verdicts["thin"] == "insufficient_trials"
        assert report.promoted == ["strong"]
        assert bank.click_stats["strong"].trials == 0.0
        assert bank.survey_stats["strong"].trials == 20.0
        strong.add(1, 1.0, 1.0)  # the promoted copy must be detached
        assert bank.survey_stats["strong"].trials == 20.0
        note["detail"] = f"worst exceedance gap {worst:.1e}; floor and fresh-click rules hold"


def test_11_pipeline_bytes_reproduce(tmp_path):
    """The seeded simulate/train/fit/evaluate chain is byte-identical twice."""
    with criterion(11, "determinism") as note:
        world = {
            "seed": 7,
            "survey_skip_rate": 0.2,
            "min_null_weight": 0.05,
            "freetype_enabled": False,
            "seconds_per_event": 60,
            "start_ts": 0,
            "contexts": [
                {
                    "id": "c0",
                    "weight": 1.0,
                    "features": {"channel": "web"},
                    "query_templates": ["reset my password", "cannot log in"],
                    "actions": {
                        "a_good": {"p_click": 0.7, "p_yes": 0.9, "title": "Reset guide"},
                        "a_bad": {"p_click": 0.7, "p_yes": 0.1, "title": "Old article"},
                    },
                }
            ],
        }
        world_path = tmp_path / "world.json"
        world_path.write_text(json.dumps(world))
        target_path = tmp_path / "target.json"
        target_path.write_text(json.dumps({"c0": {"a_good": 1.0}}))

        def pipeline(out_dir):
            out_dir.mkdir()
            run_dir = out_dir / "run"
            assert main([
                "simulate", "--world", str(world_path), "--out", str(run_dir),
                "--seed", "3", "--horizon", "300", "--policy", "uniform",
            ]) == EXIT_OK
            log = run_dir / "events.jsonl"
            assert main([
                "train-repr", "--log", str(log), "--out", str(out_dir / "feature_map.json"),
                "--seed", "4", "--hidden", "8", "--epochs", "3", "--embedding-dim", "4",
            ]) == EXIT_OK
            assert main([
                "fit-bandit", "--log", str(log),
                "--features", str(out_dir / "feature_map.json"),
                "--out", str(out_dir / "head.json"),
            ]) == EXIT_OK
            assert main([
                "evaluate", "--log", str(log), "--target", str(target_path),
                "--out", str(out_dir / "eval.json"),
            ]) == EXIT_OK
            return {
                p.relative_to(out_dir): p.read_bytes()
                for p in sorted(out_dir.rglob("*"))
                if p.is_file()
            }

        first = pipeline(tmp_path / "one")
        second = pipeline(tmp_path / "two")
        assert set(first) == set(second)
        for name in first:
            assert first[name] == second[name], f"{name} differs between runs"
        note["detail"] = f"{len(first)} files byte-identical across two runs"
