import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from hetpref.errors import CatalogKeyError
from hetpref.identify import verify_binary_flatness
from hetpref.policy import ReferencePolicy, ScoreEnsemble, ScoreTable, policy_probs
from hetpref.rewards import (
    Catalog,
    Population,
    choice_weights,
    segment_log_softmax,
    softmax,
    softmax_lse,
)
from hetpref.simulate import make_adversarial_pair
from reference import (
    InvalidChoiceError,
    choice_prob,
    exact_choice_weights,
    mixture_choice_prob,
    mixture_policy_probs,
    multi_item_pref_prob,
    pairwise_prob,
    reward,
)


def catalog_from_rewards(theta, rewards_per_response):
    """One-prompt catalog with features collinear with theta hitting given rewards."""
    theta = np.asarray(theta, dtype=float)
    scale = theta / float(theta @ theta)
    items = [(f"r{i}", c * scale) for i, c in enumerate(rewards_per_response)]
    return Catalog.build({"p": items})


@pytest.fixture
def unit_catalog():
    # five one-hot trait responses, d=5
    items = [(f"t{i}", np.eye(5)[i]) for i in range(5)]
    return Catalog.build({"p": items})


class TestReward:
    def test_personality_inner_product(self, unit_catalog):
        p1 = np.array([3.0, 0.0, 2.0, 0.0, -2.5])
        assert reward(unit_catalog, p1, "p", "t0") == 3.0

    def test_zero_theta(self, unit_catalog):
        assert reward(unit_catalog, np.zeros(5), "p", "t3") == 0.0

    def test_orthogonal(self):
        cat = Catalog.build({"p": [("a", [0.5, -0.25]), ("b", [1.0, 0.0])]})
        assert reward(cat, np.array([1.0, 2.0]), "p", "a") == 0.0

    def test_unknown_ids(self, unit_catalog):
        with pytest.raises(CatalogKeyError):
            reward(unit_catalog, np.zeros(5), "nope", "t0")
        with pytest.raises(CatalogKeyError):
            reward(unit_catalog, np.zeros(5), "p", "nope")


class TestPairwiseProb:
    def test_equal_features(self):
        cat = Catalog.build({"p": [("a", [1.0]), ("b", [1.0])]})
        assert pairwise_prob(cat, np.array([2.0]), "p", "a", "b") == 0.5

    def test_log3_margin(self):
        cat = catalog_from_rewards([1.0], [math.log(3), 0.0])
        p = pairwise_prob(cat, np.array([1.0]), "p", "r0", "r1")
        assert p == pytest.approx(0.75, abs=1e-12)
        q = pairwise_prob(cat, np.array([1.0]), "p", "r1", "r0")
        assert q == pytest.approx(0.25, abs=1e-12)

    def test_same_response_rejected(self):
        cat = catalog_from_rewards([1.0], [0.0, 1.0])
        with pytest.raises(InvalidChoiceError):
            pairwise_prob(cat, np.array([1.0]), "p", "r0", "r0")

    def test_complement(self):
        rng = np.random.default_rng(3)
        cat = Catalog.build(
            {"p": [(f"r{i}", rng.normal(size=4)) for i in range(8)]}
        )
        for _ in range(200):
            theta = rng.normal(size=4)
            i, j = rng.choice(8, size=2, replace=False)
            a = pairwise_prob(cat, theta, "p", f"r{i}", f"r{j}")
            b = pairwise_prob(cat, theta, "p", f"r{j}", f"r{i}")
            assert abs(a + b - 1.0) <= 1e-12


class TestChoiceProb:
    def test_symmetric_three(self):
        cat = Catalog.build({"p": [("a", [1.0]), ("b", [1.0]), ("c", [1.0])]})
        assert choice_prob(cat, np.array([0.7]), "p", ["a", "b", "c"], "b") == pytest.approx(
            1 / 3, abs=1e-15
        )

    def test_two_alternatives_match_sigmoid(self):
        rng = np.random.default_rng(9)
        cat = Catalog.build({"p": [(f"r{i}", rng.normal(size=3)) for i in range(5)]})
        for _ in range(100):
            theta = rng.normal(size=3)
            i, j = rng.choice(5, size=2, replace=False)
            cp = choice_prob(cat, theta, "p", [f"r{i}", f"r{j}"], f"r{i}")
            pp = pairwise_prob(cat, theta, "p", f"r{i}", f"r{j}")
            assert abs(cp - pp) <= 1e-15

    def test_log2_first(self):
        cat = catalog_from_rewards([2.0], [math.log(2), 0.0, 0.0])
        p = choice_prob(cat, np.array([2.0]), "p", ["r0", "r1", "r2"], "r0")
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(21)
        cat = Catalog.build({"p": [(f"r{i}", rng.normal(size=4)) for i in range(7)]})
        for _ in range(100):
            theta = rng.normal(size=4) * rng.uniform(0, 5)
            size = rng.integers(2, 8)
            cset = [f"r{i}" for i in rng.choice(7, size=size, replace=False)]
            total = sum(choice_prob(cat, theta, "p", cset, y) for y in cset)
            assert abs(total - 1.0) <= 1e-12

    def test_chosen_not_in_set(self):
        cat = catalog_from_rewards([1.0], [0.0, 1.0, 2.0])
        with pytest.raises(InvalidChoiceError):
            choice_prob(cat, np.array([1.0]), "p", ["r0", "r1"], "r2")

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(6, 3))
        shift = rng.normal(size=3) * 10
        cat = Catalog.build({"p": [(f"r{i}", feats[i]) for i in range(6)]})
        cat2 = Catalog.build({"p": [(f"r{i}", feats[i] + shift) for i in range(6)]})
        for _ in range(50):
            theta = rng.normal(size=3)
            cset = [f"r{i}" for i in rng.choice(6, size=3, replace=False)]
            a = choice_prob(cat, theta, "p", cset, cset[0])
            b = choice_prob(cat2, theta, "p", cset, cset[0])
            assert abs(a - b) <= 1e-12


class TestMixtureChoiceProb:
    def test_single_type_degenerate(self):
        cat = catalog_from_rewards([1.0, 1.0], [0.0, 0.7, 1.4])
        theta = np.array([1.0, 1.0])
        pop = Population.from_weights([theta], [1.0])
        cset = ["r0", "r1", "r2"]
        assert mixture_choice_prob(cat, pop, "p", cset, "r1") == pytest.approx(
            choice_prob(cat, theta, "p", cset, "r1"), abs=1e-15
        )

    def test_adversarial_binary_is_half(self):
        rng = np.random.default_rng(12)
        cat = Catalog.build({"p": [(f"r{i}", rng.normal(size=4)) for i in range(10)]})
        theta = rng.normal(size=4) * 3
        pop = make_adversarial_pair(theta)
        for i in range(10):
            for j in range(i + 1, 10):
                p = mixture_choice_prob(cat, pop, "p", [f"r{i}", f"r{j}"], f"r{i}")
                assert abs(p - 0.5) <= 1e-12

    def test_adversarial_ternary_hand_value(self):
        # rewards (ln 2, 0, 0) under +theta: softmax -> 2/(2+1+1) = 0.5
        # rewards (-ln 2, 0, 0) under -theta: softmax -> 0.5/(0.5+1+1) = 0.2
        # equal mixture -> 0.35, which differs from 1/3: ternary sets are
        # not flat under the adversarial pair
        theta = np.array([1.5, -0.5])
        cat = catalog_from_rewards(theta, [math.log(2), 0.0, 0.0])
        pop = make_adversarial_pair(theta)
        p = mixture_choice_prob(cat, pop, "p", ["r0", "r1", "r2"], "r0")
        assert p == pytest.approx(0.35, abs=1e-12)
        assert abs(p - 1 / 3) > 0.01


class TestCatalogSerialization:
    def test_round_trip_and_hash(self):
        rng = np.random.default_rng(4)
        cat = Catalog.build(
            {
                "a": [(f"r{i}", rng.normal(size=3)) for i in range(4)],
                "b": [(f"s{i}", rng.normal(size=3)) for i in range(3)],
            }
        )
        doc = cat.to_json_dict()
        back = Catalog.from_json_dict(doc)
        assert back.content_hash() == cat.content_hash()
        assert back.prompts == cat.prompts
        assert back.responses("b") == cat.responses("b")
        np.testing.assert_array_equal(back.features("a"), cat.features("a"))

    def test_build_validation(self):
        with pytest.raises(ValueError):
            Catalog.build({"p": [("only", [1.0])]})
        with pytest.raises(ValueError):
            Catalog.build({"p": [("a", [1.0]), ("a", [2.0])]})
        with pytest.raises(ValueError):
            Catalog.build({"p": [("a", [1.0]), ("b", [1.0, 2.0])]})


# -- the kernel contract ------------------------------------------------------
# Features and scores spread up to +-700 (rewards up to +-1050) put exp(s)
# itself out of range; the references below divide by a sum of
# exp(s_j - s_i) instead, where an overflow to inf gives a correct 0.

SPREADS = st.sampled_from([1.0, 40.0, 700.0])


def ref_top1(r):
    """P(i is top) = 1 / sum_j exp(r_j - r_i) for every i."""
    with np.errstate(over="ignore"):
        return 1.0 / np.exp(r[None, :] - r[:, None]).sum(axis=1)


@st.composite
def choice_worlds(draw):
    """A one-prompt catalog with d = 1 (reward = theta * feature), a choice
    set in random order, a population and a score table over the prompt."""
    n = draw(st.integers(2, 6))
    spread = draw(SPREADS)
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    feats = np.array(draw(st.lists(unit, min_size=n, max_size=n))) * spread
    catalog = Catalog.build({"p": [(f"r{i}", [f]) for i, f in enumerate(feats)]})
    cset = draw(st.permutations(range(n)))[:draw(st.integers(2, n))]
    k = draw(st.integers(1, 3))
    thetas = draw(st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=k, max_size=k))
    etas = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    population = Population.from_weights([[t] for t in thetas], etas / etas.sum())
    kappa = draw(st.floats(0.5, 2.0))
    scores = np.array(draw(st.lists(unit, min_size=n, max_size=n))) * spread
    return catalog, feats, [f"r{i}" for i in cset], list(cset), population, kappa, scores


class TestKernelContract:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(choice_worlds())
    def test_choice_probabilities_match_reference(self, world):
        catalog, feats, cset, idx, population, kappa, scores = world
        theta = population.thetas[0]
        r = feats[idx] * theta[0]
        want = ref_top1(r)
        got = exact_choice_weights(catalog, theta, "p", cset)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert abs(got.sum() - 1.0) <= 1e-12
        each = [choice_prob(catalog, theta, "p", cset, y) for y in cset]
        np.testing.assert_allclose(each, want, rtol=0, atol=1e-12)
        assert abs(sum(each) - 1.0) <= 1e-12

        a, b = cset[0], cset[1]
        p_ab = pairwise_prob(catalog, theta, "p", a, b)
        assert abs(p_ab - expit(r[0] - r[1])) <= 1e-12
        assert abs(p_ab + pairwise_prob(catalog, theta, "p", b, a) - 1.0) <= 1e-12

        # mixtures: a loop over types
        mix = sum(t.eta * ref_top1(feats[idx] * t.theta[0]) for t in population.types)
        np.testing.assert_allclose(exact_choice_weights(catalog, population, "p", cset), mix,
                                   rtol=0, atol=1e-12)
        each = [mixture_choice_prob(catalog, population, "p", cset, y) for y in cset]
        np.testing.assert_allclose(each, mix, rtol=0, atol=1e-12)
        assert abs(sum(each) - 1.0) <= 1e-12

        table = ScoreTable(kappa=kappa, scores={"p": scores})
        each = [multi_item_pref_prob(table, catalog, "p", y, [z for z in cset if z != y])
                for y in cset]
        np.testing.assert_allclose(each, ref_top1(scores[idx]), rtol=0, atol=1e-12)
        assert abs(sum(each) - 1.0) <= 1e-12

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(choice_worlds(), st.data())
    def test_policies_match_reference(self, world, data):
        catalog, _feats, _cset, _idx, population, kappa, scores = world
        n = len(scores)
        ref_probs = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)))
        ref = ReferencePolicy({"p": ref_probs / ref_probs.sum()})
        tables = [ScoreTable(kappa=kappa, scores={"p": scores * t.theta[0]})
                  for t in population.types]
        members = [ref_top1(np.log(ref.probs["p"]) + t.scores["p"] / kappa) for t in tables]
        for table, want in zip(tables, members):
            got = policy_probs(table, ref, "p")
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            assert abs(got.sum() - 1.0) <= 1e-12
        ensemble = ScoreEnsemble(tables=tuple(tables), eta=population.etas)
        got = mixture_policy_probs(ensemble, population.etas, ref, "p")
        want = sum(w * m for w, m in zip(population.etas, members))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert abs(got.sum() - 1.0) <= 1e-12

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), SPREADS, st.sampled_from([0, 1, -1]),
           st.data())
    def test_softmax_is_shifted_exp_over_sum(self, rows, cols, spread, axis, data):
        unit = st.floats(-1.0, 1.0, allow_nan=False)
        s = np.array(data.draw(st.lists(unit, min_size=rows * cols, max_size=rows * cols)))
        s = s.reshape(rows, cols) * spread
        e = np.exp(s - s.max(axis=axis, keepdims=True))
        want = e / e.sum(axis=axis, keepdims=True)
        assert np.array_equal(softmax(s, axis=axis), want)
        probs, lse = softmax_lse(s, axis=axis)
        assert np.array_equal(probs, want)
        np.testing.assert_allclose(lse, np.logaddexp.reduce(s, axis=axis), rtol=1e-15,
                                   atol=1e-12)
        # the ragged kernel on the rows of s laid end to end
        offsets = np.arange(0, rows * cols + 1, cols)
        logp = segment_log_softmax(s.ravel(), offsets)
        np.testing.assert_allclose(np.exp(logp), softmax(s, axis=1).ravel(), rtol=0,
                                   atol=1e-12)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), SPREADS, st.data())
    def test_binary_flatness_equals_per_pair_loop(self, n_prompts, d, spread, data):
        unit = st.floats(-1.0, 1.0, allow_nan=False)
        entries = {}
        for j in range(n_prompts):
            n = data.draw(st.integers(2, 7))
            entries[f"q{j}"] = [
                (f"r{i}", np.array(data.draw(st.lists(unit, min_size=d, max_size=d))) * spread)
                for i in range(n)
            ]
        catalog = Catalog.build(entries)
        theta = np.array(data.draw(st.lists(st.floats(0.1, 2.0), min_size=d, max_size=d)))

        # the per-pair loop verify_binary_flatness ran before its one kernel call per prompt
        population = make_adversarial_pair(theta)
        worst = 0.0
        for prompt in catalog.prompts:
            for y1, y2 in combinations(catalog.responses(prompt), 2):
                p = mixture_choice_prob(catalog, population, prompt, [y1, y2], y1)
                worst = max(worst, abs(p - 0.5))
        assert verify_binary_flatness(catalog, theta) == worst


@st.composite
def kernel_worlds(draw):
    """Up to 3 prompts of 2-11 responses, d <= 8 features and a K <= 3 population."""
    d, k = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    vec = st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=d, max_size=d)
    spread = draw(st.floats(0.1, 5.0))
    entries = {}
    for j in range(draw(st.integers(1, 3))):
        entries[f"q{j}"] = [(f"r{i}", np.array(draw(vec)) * spread)
                            for i in range(draw(st.integers(2, 11)))]
    thetas = np.array(draw(st.lists(vec, min_size=k, max_size=k))) * draw(st.floats(0.1, 4.0))
    etas = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    return Catalog.build(entries), Population.from_weights(thetas, etas / etas.sum())


class TestChoiceKernel:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(kernel_worlds(), st.integers(2, 11))
    def test_batch_rows_equal_single_sets(self, world, size):
        catalog, population = world
        sets = catalog.choice_sets(size)
        want = [start + np.array(list(combinations(range(len(catalog.responses(p))), size)),
                                 dtype=np.intp).reshape(-1, size)
                for p, start in zip(catalog.prompts, catalog.offsets)]
        assert np.array_equal(sets, np.concatenate(want))
        names = [(p, y) for p in catalog.prompts for y in catalog.responses(p)]
        for mixture in (population, population.thetas[0]):
            pop = Population.of(mixture)
            got = choice_weights(catalog.flat_features[sets] @ pop.thetas.T, pop.etas)
            assert got.shape == sets.shape
            for row, s in zip(got, sets.tolist()):
                cset = [names[i][1] for i in s]
                assert np.array_equal(row, exact_choice_weights(catalog, mixture, names[s[0]][0],
                                                                cset))

