import numpy as np
import pytest

from hetpref.errors import ConfigError, RankError
from hetpref.identify import (
    binary_likelihood_flatness,
    expected_record_loglik,
    recover_theta_from_binary,
    recovery_catalog,
    ternary_recovery_experiment,
    verify_binary_flatness,
)
from hetpref.rewards import Catalog, Population, mixture_choice_prob
from hetpref.simulate import make_adversarial_pair, simulate_dataset


@pytest.fixture(scope="module")
def wide_catalog():
    rng = np.random.default_rng(0)
    return Catalog.build(
        {
            f"p{j}": [(f"r{i}", rng.normal(size=4)) for i in range(8)]
            for j in range(4)
        }
    )


class TestBinaryFlatness:
    def test_flat_for_random_thetas(self, wide_catalog):
        rng = np.random.default_rng(1)
        for _ in range(20):
            theta = rng.normal(size=4) * rng.uniform(0.5, 4.0)
            assert verify_binary_flatness(wide_catalog, theta) <= 1e-12

    def test_point_mass_control_is_not_flat(self, wide_catalog):
        # a single nonzero type produces real deviations from 1/2
        theta = np.array([1.0, 0.0, 0.0, 0.0])
        pop = Population.from_weights([theta], [1.0])
        worst = 0.0
        for p in wide_catalog.prompts:
            rids = wide_catalog.responses(p)
            for i in range(len(rids)):
                for j in range(i + 1, len(rids)):
                    v = mixture_choice_prob(wide_catalog, pop, p, [rids[i], rids[j]], rids[i])
                    worst = max(worst, abs(v - 0.5))
        assert worst > 0.01

    def test_zero_theta_single_type_flat(self, wide_catalog):
        pop = Population.from_weights([np.zeros(4)], [1.0])
        worst = 0.0
        for p in wide_catalog.prompts:
            rids = wide_catalog.responses(p)
            v = mixture_choice_prob(wide_catalog, pop, p, [rids[0], rids[1]], rids[0])
            worst = max(worst, abs(v - 0.5))
        assert worst == 0.0


class TestLikelihoodFlatness:
    def make_candidates(self, theta):
        return [
            make_adversarial_pair(theta),
            make_adversarial_pair(2.0 * theta),
            Population.from_weights([np.zeros_like(theta)], [1.0]),
        ]

    def test_binary_spread_vanishes(self):
        theta = np.array([1.4, -0.6])
        catalog = recovery_catalog(theta, n_responses=5, reward_spread=2.5)
        truth = make_adversarial_pair(theta)
        ds = simulate_dataset(catalog, truth, n=150, m=1, choice_set_size=2, rng_seed=3)
        spread = binary_likelihood_flatness(ds, catalog, truth, self.make_candidates(theta))
        assert spread <= 1e-12

    def test_ternary_record_breaks_flatness(self):
        theta = np.array([1.4, -0.6])
        catalog = recovery_catalog(theta, n_responses=5, reward_spread=2.5)
        truth = make_adversarial_pair(theta)
        ds = simulate_dataset(catalog, truth, n=150, m=1, choice_set_size=3, rng_seed=3)
        spread = binary_likelihood_flatness(ds, catalog, truth, self.make_candidates(theta))
        assert spread > 0.01

    def test_true_model_beats_null_on_ternary(self):
        # identifiability has teeth: the true adversarial model gains
        # strictly positive expected log-likelihood over the null
        theta = np.array([2.0, 1.0])
        catalog = recovery_catalog(theta, n_responses=4, reward_spread=3.0)
        truth = make_adversarial_pair(theta)
        ds = simulate_dataset(catalog, truth, n=100, m=1, choice_set_size=3, rng_seed=4)

        null = Population.from_weights([np.zeros(2)], [1.0])
        ll_true = expected_record_loglik(ds, catalog, truth, truth)
        ll_null = expected_record_loglik(ds, catalog, truth, null)
        assert ll_true - ll_null >= 0.01


class TestRecoverTheta:
    def test_identity_design(self):
        theta = recover_theta_from_binary(np.eye(2), np.array([0.3, -0.7]))
        np.testing.assert_allclose(theta, [0.3, -0.7], atol=1e-12)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(5)
        for d in (2, 5, 10):
            theta = rng.normal(size=d)
            design = rng.normal(size=(3 * d, d))
            logits = design @ theta
            got = recover_theta_from_binary(design, logits)
            np.testing.assert_allclose(got, theta, atol=1e-8)

    def test_rank_deficient_rejected(self):
        design = np.array([[1.0, 2.0], [2.0, 4.0], [-1.0, -2.0]])
        with pytest.raises(RankError):
            recover_theta_from_binary(design, np.zeros(3))


class TestTernaryRecovery:
    def test_ternary_recovers_mixture(self):
        rep = ternary_recovery_experiment(np.array([2.0, 0.5]), n=5000, seed=0)
        assert rep.margin_correlation >= 0.95
        assert max(rep.eta_error) <= 0.05
        assert rep.expected_loglik_fit - rep.expected_loglik_null > 0.01

    def test_binary_control_learns_nothing(self):
        rep = ternary_recovery_experiment(
            np.array([2.0, 0.5]), n=5000, seed=0, choice_set_size=2
        )
        gap = abs(rep.expected_loglik_fit - rep.expected_loglik_null)
        assert gap <= 1e-3

    def test_report_invariant_under_truth_swap(self):
        # swapping +theta and -theta in the ground truth (same catalog)
        # relabels types only; the matched report is unchanged
        theta = np.array([1.8, -0.4])
        catalog = recovery_catalog(theta, n_responses=4, reward_spread=3.0)
        a = ternary_recovery_experiment(theta, n=1200, seed=2, catalog=catalog)
        b = ternary_recovery_experiment(-theta, n=1200, seed=2, catalog=catalog)
        assert a.margin_correlation == pytest.approx(b.margin_correlation, abs=1e-9)
        assert sorted(a.eta_error) == pytest.approx(sorted(b.eta_error), abs=1e-9)

    def test_json_round_trip(self):
        rep = ternary_recovery_experiment(np.array([1.5, 0.0]), n=400, seed=1)
        doc = rep.to_json_dict()
        assert doc["n"] == 400
        assert 0.0 <= doc["margin_correlation"] <= 1.0
        assert len(doc["eta_error"]) == 2

    def test_k_in_em_config_rejected(self):
        # the experiment always fits two types; a k would be silently ignored
        with pytest.raises(ConfigError, match="'k'"):
            ternary_recovery_experiment(np.array([2.0, 0.0]), n=50, seed=0,
                                        em_config={"k": 5})
