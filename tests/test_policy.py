import json
import math

import numpy as np
import pytest

from hetpref.policy import (
    ReferencePolicy,
    ScoreEnsemble,
    ScoreTable,
    ensemble_from_json_dict,
    ensemble_to_json_dict,
    gauge_fix,
    optimal_table_for_type,
    policy_probs,
    uniform_prompt_weights,
)
from hetpref.rewards import Catalog
from reference import (
    InvalidChoiceError,
    choice_prob,
    kl_to_ref,
    mixture_policy_probs,
    multi_item_pref_prob,
    prompt_scores,
    reward_margin,
    zero_table,
)


@pytest.fixture
def two_prompt_catalog():
    rng = np.random.default_rng(1)
    return Catalog.build(
        {
            "p0": [(f"r{i}", rng.normal(size=3)) for i in range(4)],
            "p1": [(f"s{i}", rng.normal(size=3)) for i in range(3)],
        }
    )


def random_table(catalog, rng, kappa=1.0, scale=1.0):
    scores = rng.normal(size=catalog.offsets[-1]) * scale
    return gauge_fix(ScoreTable(kappa=kappa, scores=scores), catalog)


class TestConstruction:
    def test_score_table_copies_its_input(self):
        scores = np.array([1.0, -1.0, 0.5])
        table = ScoreTable(kappa=1.0, scores=scores)
        scores[0] = 7.0
        assert scores.flags.writeable
        np.testing.assert_array_equal(table.scores, [1.0, -1.0, 0.5])
        assert not table.scores.flags.writeable

    @pytest.mark.parametrize("scores", [np.zeros((2, 3)), np.array([0.0, np.nan]),
                                        np.array([np.inf, 0.0])])
    def test_score_table_rejects_non_flat_or_non_finite(self, scores):
        with pytest.raises(ValueError):
            ScoreTable(kappa=1.0, scores=scores)

    def test_reference_policy_copies_its_input(self):
        probs = {"p": np.array([0.25, 0.75]), "q": np.array([0.5, 0.5])}
        ref = ReferencePolicy(probs=probs)
        probs["p"][0] = 0.9
        probs["q"] = np.array([0.1, 0.9])
        assert probs["p"].flags.writeable
        np.testing.assert_array_equal(ref.probs["p"], [0.25, 0.75])
        np.testing.assert_array_equal(ref.probs["q"], [0.5, 0.5])
        assert not ref.probs["p"].flags.writeable


class TestPolicyProbs:
    def test_zero_scores_reproduce_reference(self, two_prompt_catalog):
        table = zero_table(two_prompt_catalog, kappa=0.1)
        rng = np.random.default_rng(2)
        raw = rng.uniform(0.1, 1.0, size=4)
        ref = ReferencePolicy(probs={"p0": raw / raw.sum(), "p1": np.full(3, 1 / 3)})
        np.testing.assert_allclose(policy_probs(table, ref, two_prompt_catalog, "p0"),
                                   ref.probs["p0"], atol=1e-15)

    def test_analytic_two_response(self):
        cat = Catalog.build({"p": [("a", [1.0]), ("b", [0.0])]})
        table = ScoreTable(kappa=1.0, scores=np.array([math.log(2), 0.0]))
        ref = ReferencePolicy.uniform(cat)
        np.testing.assert_allclose(policy_probs(table, ref, cat, "p"), [2 / 3, 1 / 3], atol=1e-12)

    def test_log_ratio_round_trip(self, two_prompt_catalog):
        rng = np.random.default_rng(3)
        table = random_table(two_prompt_catalog, rng, kappa=0.3)
        ref = ReferencePolicy.uniform(two_prompt_catalog)
        for p in two_prompt_catalog.prompts:
            pi = policy_probs(table, ref, two_prompt_catalog, p)
            implied = table.kappa * (np.log(pi) - np.log(ref.probs[p]))
            # recovers the scores up to a per-prompt constant
            diff = implied - prompt_scores(table, two_prompt_catalog, p)
            assert diff.max() - diff.min() <= 1e-10


class TestOptimalTable:
    def test_zero_theta(self, two_prompt_catalog):
        table = optimal_table_for_type(two_prompt_catalog, np.zeros(3), kappa=0.5)
        np.testing.assert_array_equal(table.scores, 0.0)

    def test_two_response_sigmoid(self):
        cat = Catalog.build({"p": [("a", [1.0]), ("b", [0.0])]})
        table = optimal_table_for_type(cat, np.array([1.0]), kappa=1.0)
        ref = ReferencePolicy.uniform(cat)
        pi = policy_probs(table, ref, cat, "p")
        assert pi[0] == pytest.approx(0.7311, abs=1e-4)
        assert pi[1] == pytest.approx(0.2689, abs=1e-4)

    def test_beats_random_perturbations(self):
        # random-search oracle for the regularized objective on one prompt
        rng = np.random.default_rng(7)
        cat = Catalog.build({"p": [(f"r{i}", rng.normal(size=2)) for i in range(5)]})
        theta = rng.normal(size=2) * 2
        kappa = 0.4
        ref = ReferencePolicy.uniform(cat)
        rewards = cat.features("p") @ theta

        def objective(pi):
            return float(pi @ rewards) - kappa * float(
                pi @ (np.log(pi) - np.log(ref.probs["p"]))
            )

        table = optimal_table_for_type(cat, theta, kappa)
        star = objective(policy_probs(table, ref, cat, "p"))
        for _ in range(1000):
            raw = rng.uniform(0.01, 1.0, size=5)
            assert star >= objective(raw / raw.sum()) - 1e-12

    def test_first_order_condition(self, two_prompt_catalog):
        rng = np.random.default_rng(11)
        theta = rng.normal(size=3)
        kappa = 0.2
        table = optimal_table_for_type(two_prompt_catalog, theta, kappa)
        ref = ReferencePolicy.uniform(two_prompt_catalog)
        for p in two_prompt_catalog.prompts:
            pi = policy_probs(table, ref, two_prompt_catalog, p)
            r = two_prompt_catalog.features(p) @ theta
            residual = kappa * (np.log(pi) - np.log(ref.probs[p])) - r
            assert residual.max() - residual.min() <= 1e-9


class TestMultiItemPrefProb:
    def test_equal_scores(self, two_prompt_catalog):
        table = zero_table(two_prompt_catalog, kappa=1.0)
        p = multi_item_pref_prob(table, two_prompt_catalog, "p0", "r1", ["r0", "r2"])
        assert p == pytest.approx(1 / 3, abs=1e-15)

    def test_single_rejected_reduces_to_sigmoid(self, two_prompt_catalog):
        rng = np.random.default_rng(4)
        table = random_table(two_prompt_catalog, rng)
        m = reward_margin(table, two_prompt_catalog, "p0", "r0", "r3")
        p = multi_item_pref_prob(table, two_prompt_catalog, "p0", "r0", ["r3"])
        assert p == pytest.approx(1.0 / (1.0 + math.exp(-m)), abs=1e-12)

    def test_matches_choice_prob_for_optimal_table(self, two_prompt_catalog):
        rng = np.random.default_rng(5)
        for _ in range(50):
            theta = rng.normal(size=3) * 2
            table = optimal_table_for_type(two_prompt_catalog, theta, kappa=1.0)
            cset = [f"r{i}" for i in rng.choice(4, size=3, replace=False)]
            a = multi_item_pref_prob(table, two_prompt_catalog, "p0", cset[0], cset[1:])
            b = choice_prob(two_prompt_catalog, theta, "p0", cset, cset[0])
            assert abs(a - b) <= 1e-12

    def test_empty_rejected_rejected(self, two_prompt_catalog):
        table = zero_table(two_prompt_catalog, kappa=1.0)
        # empty, holding the winner, or holding a duplicate
        for rejected in ([], ["r0"], ["r1", "r1"]):
            with pytest.raises(InvalidChoiceError):
                multi_item_pref_prob(table, two_prompt_catalog, "p0", "r0", rejected)


class TestRewardMargin:
    def test_zero_and_antisymmetry(self, two_prompt_catalog):
        rng = np.random.default_rng(6)
        table = random_table(two_prompt_catalog, rng)
        assert reward_margin(table, two_prompt_catalog, "p0", "r2", "r2") == 0.0
        a = reward_margin(table, two_prompt_catalog, "p0", "r1", "r3")
        b = reward_margin(table, two_prompt_catalog, "p0", "r3", "r1")
        assert a == -b

    def test_optimal_margin_is_reward_difference(self, two_prompt_catalog):
        rng = np.random.default_rng(8)
        for _ in range(50):
            theta = rng.normal(size=3)
            table = optimal_table_for_type(two_prompt_catalog, theta, kappa=1.0)
            f = two_prompt_catalog.features("p0")
            m = reward_margin(table, two_prompt_catalog, "p0", "r0", "r2")
            assert m == pytest.approx(float(theta @ (f[0] - f[2])), abs=1e-12)


class TestKl:
    def test_zero_table(self, two_prompt_catalog):
        table = zero_table(two_prompt_catalog, kappa=0.1)
        ref = ReferencePolicy.uniform(two_prompt_catalog)
        w = uniform_prompt_weights(two_prompt_catalog)
        assert kl_to_ref(table, ref, two_prompt_catalog, w) == 0.0

    def test_nonnegative(self, two_prompt_catalog):
        rng = np.random.default_rng(9)
        ref = ReferencePolicy.uniform(two_prompt_catalog)
        w = uniform_prompt_weights(two_prompt_catalog)
        for _ in range(100):
            table = random_table(two_prompt_catalog, rng, kappa=0.3, scale=2.0)
            assert kl_to_ref(table, ref, two_prompt_catalog, w) >= 0.0

    def test_hand_value(self):
        # pi = (0.75, 0.25) against a uniform reference, kappa = 1
        cat = Catalog.build({"p": [("a", [1.0]), ("b", [0.0])]})
        ref = ReferencePolicy.uniform(cat)
        s = np.array([math.log(3), 0.0])
        table = ScoreTable(kappa=1.0, scores=s)
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        got = kl_to_ref(table, ref, cat, np.array([1.0]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.13081, abs=1e-5)

    def test_underflowing_probability_stays_finite(self):
        # pi = (1, e^-1000, e^-2000) up to rounding: the last two underflow
        # to zero, and KL(pi || uniform) = log 3
        cat = Catalog.build({"p": [("a", [1.0]), ("b", [0.0]), ("c", [-1.0])]})
        ref = ReferencePolicy.uniform(cat)
        table = ScoreTable(kappa=0.1, scores=np.array([100.0, 0.0, -100.0]))
        got = kl_to_ref(table, ref, cat, np.array([1.0]))
        assert got == pytest.approx(0.1 * math.log(3), abs=1e-12)


class TestMixturePolicy:
    def test_single_member(self, two_prompt_catalog):
        rng = np.random.default_rng(10)
        table = random_table(two_prompt_catalog, rng)
        ens = ScoreEnsemble(tables=(table,), eta=np.array([1.0]))
        ref = ReferencePolicy.uniform(two_prompt_catalog)
        np.testing.assert_allclose(
            mixture_policy_probs(ens, np.array([1.0]), ref, two_prompt_catalog, "p0"),
            policy_probs(table, ref, two_prompt_catalog, "p0"),
        )

    def test_identical_tables(self, two_prompt_catalog):
        rng = np.random.default_rng(11)
        table = random_table(two_prompt_catalog, rng)
        ens = ScoreEnsemble(tables=(table, table, table), eta=np.full(3, 1 / 3))
        ref = ReferencePolicy.uniform(two_prompt_catalog)
        np.testing.assert_allclose(
            mixture_policy_probs(ens, np.full(3, 1 / 3), ref, two_prompt_catalog, "p0"),
            policy_probs(table, ref, two_prompt_catalog, "p0"),
            atol=1e-15,
        )

    def test_convexity_bounds(self, two_prompt_catalog):
        rng = np.random.default_rng(12)
        tables = tuple(random_table(two_prompt_catalog, rng) for _ in range(3))
        ens = ScoreEnsemble(tables=tables, eta=np.full(3, 1 / 3))
        ref = ReferencePolicy.uniform(two_prompt_catalog)
        members = np.stack([policy_probs(t, ref, two_prompt_catalog, "p0") for t in tables])
        for _ in range(50):
            w = rng.dirichlet(np.ones(3))
            mix = mixture_policy_probs(ens, w, ref, two_prompt_catalog, "p0")
            assert np.all(mix >= members.min(axis=0) - 1e-12)
            assert np.all(mix <= members.max(axis=0) + 1e-12)


class TestGaugeInvariance:
    def test_shift_changes_nothing(self, two_prompt_catalog):
        rng = np.random.default_rng(13)
        ref = ReferencePolicy.uniform(two_prompt_catalog)
        for _ in range(100):
            table = random_table(two_prompt_catalog, rng, kappa=0.5)
            shifts = rng.normal(size=len(two_prompt_catalog.prompts)) * 10
            shifted = ScoreTable(
                kappa=table.kappa,
                scores=table.scores + np.repeat(shifts, np.diff(two_prompt_catalog.offsets)),
            )
            a = multi_item_pref_prob(table, two_prompt_catalog, "p0", "r0", ["r1", "r2"])
            b = multi_item_pref_prob(shifted, two_prompt_catalog, "p0", "r0", ["r1", "r2"])
            assert abs(a - b) <= 1e-10
            ma = reward_margin(table, two_prompt_catalog, "p0", "r0", "r1")
            mb = reward_margin(shifted, two_prompt_catalog, "p0", "r0", "r1")
            assert abs(ma - mb) <= 1e-10
            np.testing.assert_allclose(policy_probs(table, ref, two_prompt_catalog, "p0"),
                                       policy_probs(shifted, ref, two_prompt_catalog, "p0"),
                                       atol=1e-10)
            recanon = gauge_fix(shifted, two_prompt_catalog)
            np.testing.assert_allclose(recanon.scores, table.scores, atol=1e-10)


class TestEnsembleSerialization:
    def test_round_trip(self, two_prompt_catalog):
        rng = np.random.default_rng(14)
        tables = tuple(random_table(two_prompt_catalog, rng, kappa=0.1) for _ in range(2))
        ens = ScoreEnsemble(tables=tables, eta=np.array([0.25, 0.75]))
        doc = ensemble_to_json_dict(ens, two_prompt_catalog)
        back = ensemble_from_json_dict(doc, two_prompt_catalog)
        assert back.kappa == ens.kappa
        np.testing.assert_allclose(back.eta, ens.eta)
        for t1, t2 in zip(back.tables, ens.tables):
            np.testing.assert_allclose(t1.scores, t2.scores, atol=1e-12)

    def test_write_enforces_gauge_read_validates(self, two_prompt_catalog):
        shifted = ScoreTable(kappa=0.1, scores=np.array([5.0, 6.0, 7.0, 8.0, 1.0, 1.0, 1.0]))
        ens = ScoreEnsemble(tables=(shifted,), eta=np.array([1.0]))
        doc = ensemble_to_json_dict(ens, two_prompt_catalog)
        vals = np.array(list(doc["tables"][0]["p0"].values()))
        assert abs(vals.mean()) <= 1e-9
        doc["tables"][0]["p0"]["r0"] += 1.0
        with pytest.raises(ValueError):
            ensemble_from_json_dict(doc, two_prompt_catalog)

    def test_large_scores_round_trip(self):
        # centering rounds in the scores' own scale: at 1e8 a prompt's mean is off zero by
        # up to about 1e-8, which an absolute bound of 1e-9 rejected
        catalog = Catalog.build({"p": [(f"r{i}", [float(i)]) for i in range(7)]})
        rng = np.random.default_rng(16)
        tables = tuple(random_table(catalog, rng, scale=1e8) for _ in range(50))
        ens = ScoreEnsemble(tables=tables, eta=np.full(50, 0.02))
        doc = json.loads(json.dumps(ensemble_to_json_dict(ens, catalog)))
        back = ensemble_from_json_dict(doc, catalog)
        np.testing.assert_array_equal(np.stack([t.scores for t in back.tables]),
                                      catalog.centered(np.stack([t.scores for t in tables])))
        for response in doc["tables"][0]["p"]:  # off by 1 in 1e8 is still off the gauge
            doc["tables"][0]["p"][response] += 1.0
        with pytest.raises(ValueError, match="violates the canonical gauge"):
            ensemble_from_json_dict(doc, catalog)

    @pytest.mark.parametrize("prompt, response", [("p0", "r3"), ("p1", "s0"), ("p1", "s2")])
    def test_read_names_the_prompt_of_a_non_finite_score(self, two_prompt_catalog, prompt,
                                                         response):
        table = random_table(two_prompt_catalog, np.random.default_rng(15), kappa=0.1)
        doc = ensemble_to_json_dict(ScoreEnsemble(tables=(table,), eta=np.array([1.0])),
                                    two_prompt_catalog)
        doc["tables"][0][prompt][response] = math.inf
        with pytest.raises(ValueError, match=f"non-finite score under prompt '{prompt}'"):
            ensemble_from_json_dict(doc, two_prompt_catalog)
