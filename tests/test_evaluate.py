import numpy as np
import pytest

from hetpref.emdpo import CompiledRecords, mixture_loglik, run_em
from hetpref.evaluate import (
    accuracy,
    max_mean_reward_margin,
    max_regret,
    mean_margin,
    run_cluster_dpo,
    run_vanilla_dpo,
    split_by_true_type,
)
from hetpref.policy import (
    ReferencePolicy,
    ScoreEnsemble,
    ScoreTable,
    optimal_table_for_type,
    policy_probs,
    uniform_prompt_weights,
)
from hetpref.rewards import Catalog, Population
from hetpref.simulate import (
    Dataset,
    PreferenceRecord,
    expected_dataset,
    make_adversarial_pair,
    simulate_dataset,
)
from reference import fit_record_weights, reward_margin, zero_table


@pytest.fixture(scope="module")
def eval_world():
    rng = np.random.default_rng(7)
    catalog = Catalog.build(
        {f"p{j}": [(f"r{i}", rng.normal(size=3)) for i in range(5)] for j in range(3)}
    )
    theta = np.array([1.0, -0.6, 0.4])
    population = Population.from_weights([theta], [1.0])
    dataset = simulate_dataset(catalog, population, n=300, m=3, choice_set_size=2, rng_seed=2)
    return catalog, theta, population, dataset


def argmax_dataset(catalog, theta, n_pairs=60, seed=0):
    """Noiseless records: the winner is always the higher-reward response."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n_pairs):
        prompt = catalog.prompts[rng.integers(len(catalog.prompts))]
        rids = catalog.responses(prompt)
        a, b = rng.choice(len(rids), size=2, replace=False)
        rewards = catalog.features(prompt) @ theta
        w, l = (a, b) if rewards[a] >= rewards[b] else (b, a)
        records.append(
            PreferenceRecord(annotator=i, prompt=prompt, winner=rids[w], rejected=(rids[l],))
        )
    return Dataset.from_records(
        records,
        true_types={i: 0 for i in range(n_pairs)},
        catalog_hash=catalog.content_hash(),
        seed=seed,
        m=1,
        choice_set_size=2,
    )


class TestMargins:
    def test_zero_table(self, eval_world):
        catalog, _t, _p, dataset = eval_world
        ens = ScoreEnsemble(tables=(zero_table(catalog, 0.1),), eta=np.array([1.0]))
        assert max_mean_reward_margin(ens, catalog, dataset) == 0.0

    def test_monotone_in_ensemble_inclusion(self, eval_world):
        catalog, theta, _p, dataset = eval_world
        weak = zero_table(catalog, 0.1)
        strong = optimal_table_for_type(catalog, theta, 0.1)
        small = ScoreEnsemble(tables=(weak,), eta=np.array([1.0]))
        big = ScoreEnsemble(tables=(weak, strong), eta=np.array([0.5, 0.5]))
        assert max_mean_reward_margin(big, catalog, dataset) >= max_mean_reward_margin(
            small, catalog, dataset
        )

    def test_optimal_table_margin_is_mean_reward_gap(self, eval_world):
        catalog, theta, _p, dataset = eval_world
        table = optimal_table_for_type(catalog, theta, kappa=1.0)
        expected = np.mean(
            [
                float(
                    theta
                    @ (
                        catalog.feature(r.prompt, r.winner)
                        - catalog.feature(r.prompt, r.rejected[0])
                    )
                )
                for r in dataset.records()
            ]
        )
        assert mean_margin(table, catalog, dataset) == pytest.approx(expected, abs=1e-10)

    def test_ternary_records_rejected(self, eval_world):
        catalog, theta, population, _d = eval_world
        ds3 = simulate_dataset(catalog, population, n=5, m=1, choice_set_size=3, rng_seed=1)
        table = optimal_table_for_type(catalog, theta, 0.1)
        with pytest.raises(ValueError):
            mean_margin(table, catalog, ds3)


@pytest.mark.parametrize("size", [3, 7])
@pytest.mark.parametrize("metric", [
    lambda table, ensemble, catalog, data: mean_margin(table, catalog, data),
    lambda table, ensemble, catalog, data: accuracy(table, catalog, data),
    lambda table, ensemble, catalog, data: max_mean_reward_margin(ensemble, catalog, data),
    lambda table, ensemble, catalog, data: mixture_loglik(data, catalog, ensemble),
    lambda table, ensemble, catalog, data: policy_probs(
        table, ReferencePolicy.uniform(catalog), catalog, "p"),
], ids=["mean_margin", "accuracy", "max_mean_reward_margin", "mixture_loglik", "policy_probs"])
def test_table_not_as_long_as_the_catalog(metric, size):
    # a table carries no catalog: a longer one was read by its first entries, a shorter
    # one raised a bare IndexError
    catalog = Catalog.build({"p": [(f"r{i}", [float(i), 1.0]) for i in range(4)]})
    population = Population.from_weights([[1.0, 0.0]], [1.0])
    data = simulate_dataset(catalog, population, n=20, m=1, choice_set_size=2, rng_seed=0)
    table = ScoreTable(kappa=0.1, scores=np.linspace(-1.0, 1.0, size))
    ensemble = ScoreEnsemble(tables=(table,), eta=np.array([1.0]))
    with pytest.raises(ValueError, match=f"^{size} scores for 4 catalog responses$"):
        metric(table, ensemble, catalog, data)


class TestAccuracy:
    def test_zero_table_is_chance(self, eval_world):
        catalog, _t, _p, dataset = eval_world
        assert accuracy(zero_table(catalog, 0.1), catalog, dataset) == 0.5

    def test_perfect_on_noiseless_winners(self, eval_world):
        catalog, theta, _p, _d = eval_world
        ds = argmax_dataset(catalog, theta)
        table = optimal_table_for_type(catalog, theta, 0.1)
        assert accuracy(table, catalog, ds) == 1.0

    def test_bradley_terry_sampled_accuracy(self):
        # two responses, margin ln 3: the true table scores 75% +- noise
        import math

        theta = np.array([math.log(3)])
        catalog = Catalog.build({"p": [("hi", [1.0]), ("lo", [0.0])]})
        population = Population.from_weights([theta], [1.0])
        n = 8000
        ds = simulate_dataset(catalog, population, n=n, m=1, choice_set_size=2, rng_seed=9)
        table = optimal_table_for_type(catalog, theta, 0.1)
        acc = accuracy(table, catalog, ds)
        sigma = np.sqrt(0.75 * 0.25 / n)
        assert abs(acc - 0.75) <= 3 * sigma


class TestMaxRegret:
    def test_own_optimum_zero(self, eval_world):
        catalog, theta, _p, _d = eval_world
        table = optimal_table_for_type(catalog, theta, 0.1)
        ens = ScoreEnsemble(tables=(table,), eta=np.array([1.0]))
        ref = ReferencePolicy.uniform(catalog)
        pw = uniform_prompt_weights(catalog)
        assert abs(max_regret(table, ens, ref, catalog, pw)) <= 1e-10

    def test_nonnegative_against_own_optima(self, eval_world):
        catalog, _t, _p, _d = eval_world
        rng = np.random.default_rng(3)
        tables = tuple(
            optimal_table_for_type(catalog, rng.normal(size=3), 0.1) for _ in range(3)
        )
        ens = ScoreEnsemble(tables=tables, eta=np.full(3, 1 / 3))
        ref = ReferencePolicy.uniform(catalog)
        pw = uniform_prompt_weights(catalog)
        for _ in range(20):
            w = rng.dirichlet(np.ones(3))
            assert max_regret(w, ens, ref, catalog, pw) >= -1e-12

    def test_permutation_invariance(self, eval_world):
        catalog, _t, _p, _d = eval_world
        rng = np.random.default_rng(4)
        tables = [optimal_table_for_type(catalog, rng.normal(size=3), 0.1) for _ in range(3)]
        ref = ReferencePolicy.uniform(catalog)
        pw = uniform_prompt_weights(catalog)
        ens = ScoreEnsemble(tables=tuple(tables), eta=np.full(3, 1 / 3))
        perm = [2, 0, 1]
        ens_p = ScoreEnsemble(tables=tuple(tables[i] for i in perm), eta=np.full(3, 1 / 3))
        candidate = zero_table(catalog, 0.1)
        assert max_regret(candidate, ens, ref, catalog, pw) == pytest.approx(
            max_regret(candidate, ens_p, ref, catalog, pw), abs=1e-12
        )


class TestVanillaDpo:
    def test_equals_k1_em(self, eval_world):
        catalog, _t, _p, dataset = eval_world
        table = run_vanilla_dpo(dataset, catalog, kappa=0.1)
        state = run_em(dataset, catalog, k=1, kappa=0.1, max_iters=1)
        np.testing.assert_allclose(table.scores, state.ensemble.tables[0].scores, atol=1e-10)

    def test_homogeneous_consistency_population_level(self, eval_world):
        # infinite-data route: fitted margins match the generating rewards
        catalog, theta, _p, _d = eval_world
        dataset, weights = expected_dataset(catalog, theta, choice_set_size=2)
        compiled = CompiledRecords.from_dataset(dataset, catalog)
        table, _ = fit_record_weights(compiled, weights, kappa=0.1)
        for prompt in catalog.prompts:
            rids = catalog.responses(prompt)
            feats = catalog.features(prompt)
            for j in range(1, len(rids)):
                got = reward_margin(table, catalog, prompt, rids[0], rids[j])
                want = float(theta @ (feats[0] - feats[j]))
                assert got == pytest.approx(want, abs=1e-3)

    def test_adversarial_cancellation(self):
        # pooled training on a 50/50 +/-theta binary population learns nothing
        theta = np.array([2.0, 0.0])
        pop = make_adversarial_pair(theta)
        catalog = Catalog.build(
            {"q": [("a", [0.0, 0.0]), ("b", [0.5, 0.5]), ("c", [1.0, -0.5]), ("d", [1.5, 1.0])]}
        )
        dataset, weights = expected_dataset(catalog, pop, choice_set_size=2)
        compiled = CompiledRecords.from_dataset(dataset, catalog)
        table, _ = fit_record_weights(compiled, weights, kappa=0.1)
        margins = [
            abs(reward_margin(table, catalog, "q", "a", r)) for r in ("b", "c", "d")
        ]
        assert max(margins) <= 0.05


class TestClusterDpo:
    def test_k1_equals_vanilla(self, eval_world):
        catalog, _t, _p, dataset = eval_world
        ens = run_cluster_dpo(dataset, catalog, k=1, kappa=0.1, seed=0)
        vanilla = run_vanilla_dpo(dataset, catalog, kappa=0.1)
        np.testing.assert_allclose(ens.eta, [1.0])
        np.testing.assert_allclose(ens.tables[0].scores, vanilla.scores, atol=1e-8)

    def test_separated_clusters_match_per_type_fits(self):
        # diametric types with strong margins: every annotator's mean winner
        # feature lands near +/-0.6 on the first trait, k-means recovers the
        # partition exactly, and the per-cluster fits equal oracle-labeled fits
        catalog = Catalog.build(
            {
                "q": [
                    ("a", [1.0, 0.0]),
                    ("b", [0.5, 0.3]),
                    ("c", [-0.5, -0.3]),
                    ("d", [-1.0, 0.0]),
                ]
            }
        )
        population = Population.from_weights([[4.0, 0.0], [-4.0, 0.0]], [0.5, 0.5])
        dataset = simulate_dataset(catalog, population, n=200, m=8, choice_set_size=2, rng_seed=12)
        clustered = run_cluster_dpo(dataset, catalog, k=2, kappa=0.1, seed=3)
        oracle = run_em(
            dataset, catalog, k=2, kappa=0.1, max_iters=1, init="from_true_labels"
        )

        def key_margin(t):
            return reward_margin(t, catalog, "q", "a", "d")

        got = sorted(clustered.tables, key=key_margin)
        want = sorted(oracle.ensemble.tables, key=key_margin)
        for tg, tw in zip(got, want):
            np.testing.assert_allclose(tg.scores, tw.scores, atol=1e-3)

    def test_eta_are_cluster_fractions(self, eval_world):
        catalog, _t, _p, dataset = eval_world
        # Some clusters' data leave comparisons one-sided (no finite maximizer).
        with pytest.warns(RuntimeWarning, match="no finite maximizer"):
            ens = run_cluster_dpo(dataset, catalog, k=3, kappa=0.1, seed=1,
                                  on_nonconvergence="warn")
        assert ens.eta.sum() == pytest.approx(1.0, abs=1e-12)
        counts = ens.eta * dataset.n
        np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)


class TestSplitByTrueType:
    def test_partition(self):
        catalog = Catalog.build({"q": [("a", [1.0]), ("b", [0.0])]})
        pop = Population.from_weights([[1.0], [-1.0]], [0.5, 0.5])
        ds = simulate_dataset(catalog, pop, n=50, m=1, choice_set_size=2, rng_seed=5)
        groups = split_by_true_type(ds)
        assert sum(g.n for g in groups.values()) == 50
        for t, g in groups.items():
            assert all(a.true_type == t for a in g.annotators)
