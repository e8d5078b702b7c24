import inspect
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from hetpref import aggregate, emdpo, evaluate
from hetpref.emdpo import (
    CompiledRecords,
    EmptyClusterWarning,
    fit_preference_table,
    init_responsibilities,
    lloyd_kmeans,
    m_step_policy,
    mixture_loglik,
    run_em,
)
from hetpref.errors import ConfigError
from hetpref.identify import recovery_catalog
from hetpref.policy import (
    ReferencePolicy,
    ScoreEnsemble,
    ScoreTable,
    optimal_table_for_type,
)
from hetpref.rewards import Catalog, Population
from hetpref.simulate import (
    Dataset,
    PreferenceRecord,
    expected_dataset,
    make_adversarial_pair,
    simulate_dataset,
)
from reference import e_step, fit_record_weights, m_step_eta, reward_margin, zero_table


def line_catalog(theta, rewards, prompt="q"):
    theta = np.asarray(theta, dtype=float)
    scale = theta / float(theta @ theta)
    return Catalog.build({prompt: [(f"r{i}", c * scale) for i, c in enumerate(rewards)]})


def dataset_from_records(catalog, records_spec, m_header=1, css=2):
    """records_spec: list of per-annotator lists of (prompt, winner, rejected)."""
    from hetpref.simulate import Dataset, PreferenceRecord

    records = [PreferenceRecord(annotator=i, prompt=p, winner=w, rejected=tuple(r))
               for i, recs in enumerate(records_spec) for p, w, r in recs]
    return Dataset.from_records(
        records,
        catalog_hash=catalog.content_hash(),
        seed=0,
        m=m_header,
        choice_set_size=css,
    )


@pytest.fixture(scope="module")
def mixed_world():
    rng = np.random.default_rng(100)
    catalog = Catalog.build(
        {
            f"p{j}": [(f"r{i}", rng.normal(size=3)) for i in range(4)]
            for j in range(3)
        }
    )
    population = Population.from_weights(
        [[1.2, 0.0, 0.6], [-0.8, 1.0, -0.4]], [0.45, 0.55]
    )
    return catalog, population


class TestEStep:
    def test_single_type_all_ones(self, mixed_world):
        catalog, population = mixed_world
        ds = simulate_dataset(catalog, population, n=20, m=2, choice_set_size=2, rng_seed=1)
        table = optimal_table_for_type(catalog, population.types[0].theta, 0.1)
        ens = ScoreEnsemble(tables=(table,), eta=np.array([1.0]))
        gamma = e_step(ds, catalog, ens)
        np.testing.assert_array_equal(gamma, np.ones((20, 1)))

    def test_identical_tables_symmetric(self, mixed_world):
        catalog, population = mixed_world
        ds = simulate_dataset(catalog, population, n=15, m=3, choice_set_size=3, rng_seed=2)
        table = optimal_table_for_type(catalog, population.types[0].theta, 0.1)
        ens = ScoreEnsemble(tables=(table, table), eta=np.array([0.5, 0.5]))
        gamma = e_step(ds, catalog, ens)
        np.testing.assert_allclose(gamma, 0.5, atol=1e-12)

    def test_hand_posterior(self):
        # one binary record; margins ln 3 and 0 -> posterior (0.6, 0.4)
        cat = Catalog.build({"q": [("w", [1.0]), ("l", [0.0])]})
        ds = dataset_from_records(cat, [[("q", "w", ["l"])]])
        t1 = ScoreTable(kappa=1.0, scores=np.array([math.log(3) / 2, -math.log(3) / 2]))
        t2 = zero_table(cat, kappa=1.0)
        ens = ScoreEnsemble(tables=(t1, t2), eta=np.array([0.5, 0.5]))
        gamma = e_step(ds, cat, ens)
        np.testing.assert_allclose(gamma, [[0.6, 0.4]], atol=1e-12)

    def test_rows_on_simplex(self, mixed_world):
        catalog, population = mixed_world
        ds = simulate_dataset(catalog, population, n=30, m=4, choice_set_size=2, rng_seed=3)
        tables = tuple(
            optimal_table_for_type(catalog, t.theta, 0.1) for t in population.types
        )
        gamma = e_step(ds, catalog, ScoreEnsemble(tables=tables, eta=population.etas))
        assert np.all(gamma >= 0)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-10)


class TestMStepEta:
    def test_hard_rows(self):
        np.testing.assert_allclose(
            m_step_eta(np.array([[1.0, 0.0], [0.0, 1.0]])), [0.5, 0.5]
        )

    def test_uniform_rows(self):
        gamma = np.full((7, 3), 1 / 3)
        np.testing.assert_allclose(m_step_eta(gamma), [1 / 3] * 3, atol=1e-15)

    def test_mixed_rows(self):
        gamma = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        np.testing.assert_allclose(m_step_eta(gamma), [2.5 / 3, 0.5 / 3], atol=1e-12)
        assert m_step_eta(gamma)[0] == pytest.approx(0.8333, abs=1e-4)


class TestMStepPolicy:
    def test_zero_weight_column_warns_and_keeps_table(self, mixed_world):
        catalog, population = mixed_world
        ds = simulate_dataset(catalog, population, n=10, m=2, choice_set_size=2, rng_seed=4)
        gamma = np.zeros((10, 2))
        gamma[:, 0] = 1.0
        init = [
            optimal_table_for_type(catalog, population.types[0].theta, 0.1),
            optimal_table_for_type(catalog, population.types[1].theta, 0.1),
        ]
        # Ten annotators leave some comparisons one-sided: type 0's data has no
        # finite maximizer, which warn mode reports and fits anyway.
        with pytest.warns(EmptyClusterWarning), \
                pytest.warns(RuntimeWarning, match="type 0: no finite maximizer"):
            tables = m_step_policy(ds, catalog, gamma, kappa=0.1, init_tables=init,
                                   on_nonconvergence="warn")
        np.testing.assert_allclose(tables[1].scores, init[1].scores, atol=1e-12)

    def test_population_level_consistency(self):
        # infinite-data weighted records from one type recover its margins
        theta = np.array([1.3, -0.7])
        catalog = Catalog.build(
            {
                "q": [
                    ("a", [0.0, 0.0]),
                    ("b", [0.9, 0.1]),
                    ("c", [0.2, -1.0]),
                    ("d", [-0.5, 0.6]),
                ]
            }
        )
        dataset, weights = expected_dataset(catalog, theta, choice_set_size=2)
        compiled = CompiledRecords.from_dataset(dataset, catalog)
        table, grad_norm = fit_record_weights(compiled, weights, kappa=1.0)
        assert grad_norm <= 1e-8
        feats = catalog.features("q")
        rids = catalog.responses("q")
        for i in range(4):
            for j in range(i + 1, 4):
                got = reward_margin(table, catalog, "q", rids[i], rids[j])
                want = float(theta @ (feats[i] - feats[j]))
                assert got == pytest.approx(want, abs=1e-4)

    def test_weight_scale_invariance(self, mixed_world):
        catalog, population = mixed_world
        ds = simulate_dataset(catalog, population, n=40, m=4, choice_set_size=2, rng_seed=5)
        gamma = init_responsibilities(ds, catalog, 2, "random_dirichlet", 3)
        t1 = m_step_policy(ds, catalog, gamma, kappa=0.1)
        t2 = m_step_policy(ds, catalog, 2.0 * gamma, kappa=0.1)
        for a, b in zip(t1, t2):
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-8)


class TestMixtureLoglik:
    def test_single_binary_record_flat_table(self):
        cat = Catalog.build({"q": [("w", [1.0]), ("l", [0.0])]})
        ds = dataset_from_records(cat, [[("q", "w", ["l"])]])
        ens = ScoreEnsemble(tables=(zero_table(cat, 1.0),), eta=np.array([1.0]))
        assert mixture_loglik(ds, cat, ens) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_permutation_invariance(self, mixed_world):
        catalog, population = mixed_world
        ds = simulate_dataset(catalog, population, n=25, m=2, choice_set_size=3, rng_seed=6)
        t0 = optimal_table_for_type(catalog, population.types[0].theta, 0.1)
        t1 = optimal_table_for_type(catalog, population.types[1].theta, 0.1)
        a = mixture_loglik(ds, catalog, ScoreEnsemble(tables=(t0, t1), eta=np.array([0.3, 0.7])))
        b = mixture_loglik(ds, catalog, ScoreEnsemble(tables=(t1, t0), eta=np.array([0.7, 0.3])))
        assert a == pytest.approx(b, abs=1e-12)

    def test_matches_manual_computation(self, mixed_world):
        catalog, population = mixed_world
        ds = simulate_dataset(catalog, population, n=12, m=3, choice_set_size=2, rng_seed=7)
        tables = tuple(
            optimal_table_for_type(catalog, t.theta, 0.1) for t in population.types
        )
        ens = ScoreEnsemble(tables=tables, eta=population.etas)
        from reference import multi_item_pref_prob

        manual = 0.0
        for a in ds.annotators:
            per_type = []
            for k, t in enumerate(tables):
                ll = sum(
                    math.log(multi_item_pref_prob(t, catalog, r.prompt, r.winner, r.rejected))
                    for r in a.records
                )
                per_type.append(math.log(population.etas[k]) + ll)
            m = max(per_type)
            manual += m + math.log(sum(math.exp(v - m) for v in per_type))
        assert mixture_loglik(ds, catalog, ens) == pytest.approx(manual, abs=1e-10)


class TestInitResponsibilities:
    def test_true_labels_one_hot(self, mixed_world):
        catalog, population = mixed_world
        ds = simulate_dataset(catalog, population, n=20, m=1, choice_set_size=2, rng_seed=8)
        gamma = init_responsibilities(ds, catalog, 2, "from_true_labels", 0)
        assert set(np.unique(gamma)) == {0.0, 1.0}
        for i, a in enumerate(ds.annotators):
            assert gamma[i, a.true_type] == 1.0

    def test_k1_all_ones(self, mixed_world):
        catalog, population = mixed_world
        ds = simulate_dataset(catalog, population, n=10, m=1, choice_set_size=2, rng_seed=9)
        np.testing.assert_array_equal(
            init_responsibilities(ds, catalog, 1, "kmeans_winner_features", 0),
            np.ones((10, 1)),
        )

    def test_unknown_strategy(self, mixed_world):
        catalog, population = mixed_world
        ds = simulate_dataset(catalog, population, n=5, m=1, choice_set_size=2, rng_seed=10)
        with pytest.raises(ConfigError):
            init_responsibilities(ds, catalog, 2, "mystery", 0)

    def test_kmeans_recovers_separated_clusters(self):
        # winner features land in two balls 4 units apart
        rng = np.random.default_rng(11)
        pts = np.concatenate(
            [rng.normal(0.0, 0.3, size=(60, 2)), rng.normal(4.0, 0.3, size=(40, 2))]
        )
        labels, _ = lloyd_kmeans(pts, 2, seed=1)
        truth = np.array([0] * 60 + [1] * 40)
        agreement = max((labels == truth).mean(), (labels == 1 - truth).mean())
        assert agreement >= 0.95

    def test_softening(self, mixed_world):
        catalog, population = mixed_world
        ds = simulate_dataset(catalog, population, n=30, m=2, choice_set_size=2, rng_seed=12)
        gamma = init_responsibilities(ds, catalog, 3, "kmeans_winner_features", 0)
        assert set(np.round(np.unique(gamma), 12)) == {0.05, 0.9}
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-12)


class TestRunEm:
    def test_defaults_match_contract(self):
        sig = inspect.signature(run_em)
        assert sig.parameters["max_iters"].default == 5
        assert sig.parameters["kappa"].default == 0.1
        assert sig.parameters["tol"].default == 1e-8

    def test_eta_equals_gamma_column_means(self, mixed_world):
        catalog, population = mixed_world
        ds = simulate_dataset(catalog, population, n=50, m=3, choice_set_size=2, rng_seed=13)
        state = run_em(ds, catalog, k=2, max_iters=4, seed=0)
        np.testing.assert_allclose(
            state.ensemble.eta, state.gamma.mean(axis=0), atol=1e-10
        )

    def test_monotone_loglik_few_seeds(self, mixed_world):
        catalog, population = mixed_world
        for seed in range(3):
            ds = simulate_dataset(
                catalog, population, n=40, m=3, choice_set_size=2, rng_seed=20 + seed
            )
            state = run_em(ds, catalog, k=2, max_iters=8, seed=seed)
            lls = [row["loglik"] for row in state.trace]
            diffs = np.diff(lls)
            assert np.all(diffs >= -1e-7)
            assert state.loglik >= lls[-1] - 1e-9

    def test_degenerate_k2_on_single_type(self):
        # jittered near-uniform init on single-type data: the two tables
        # either agree or one cluster collapses
        from hetpref.emdpo import _e_step_compiled

        theta = np.array([1.0, 0.5])
        catalog = line_catalog(theta, [0.0, 0.8, 1.6, 2.4])
        population = Population.from_weights([theta], [1.0])
        ds = simulate_dataset(catalog, population, n=400, m=4, choice_set_size=3, rng_seed=50)
        rng = np.random.default_rng(1)
        gamma = np.full((400, 2), 0.5) + rng.normal(0, 0.01, size=(400, 2))
        gamma = np.abs(gamma)
        gamma /= gamma.sum(axis=1, keepdims=True)
        compiled = CompiledRecords.from_dataset(ds, catalog)
        tables = None
        lls = []
        for _ in range(12):
            eta = m_step_eta(gamma)
            tables = m_step_policy(ds, catalog, gamma, 0.1, tables, 1e-8, 1000, "raise")
            ens = ScoreEnsemble(tables=tuple(tables), eta=eta)
            gamma, ll = _e_step_compiled(compiled, ens)
            lls.append(ll)
        assert np.all(np.diff(lls) >= -1e-7)
        margins = [
            np.array([reward_margin(t, catalog, "q", "r0", f"r{j}") for j in range(1, 4)])
            for t in ens.tables
        ]
        agree = np.abs(margins[0] - margins[1]).max() <= 0.05
        collapsed = eta.min() < 0.02
        assert agree or collapsed

    def test_permutation_equivariance(self, mixed_world):
        catalog, population = mixed_world
        ds = simulate_dataset(catalog, population, n=35, m=3, choice_set_size=2, rng_seed=15)

        def run_with(gamma0):
            from hetpref.emdpo import _e_step_compiled

            compiled = CompiledRecords.from_dataset(ds, catalog)
            gamma = gamma0
            tables = None
            for _ in range(4):
                eta = m_step_eta(gamma)
                tables = m_step_policy(ds, catalog, gamma, 0.1, tables, 1e-8, 1000, "raise")
                ens = ScoreEnsemble(tables=tuple(tables), eta=eta)
                gamma, _ll = _e_step_compiled(compiled, ens)
            return ens

        gamma0 = init_responsibilities(ds, catalog, 2, "random_dirichlet", 7)
        ens_a = run_with(gamma0)
        ens_b = run_with(gamma0[:, ::-1])
        np.testing.assert_allclose(ens_a.eta, ens_b.eta[::-1], atol=1e-8)
        np.testing.assert_allclose(ens_a.tables[0].scores, ens_b.tables[1].scores, atol=1e-6)
        np.testing.assert_allclose(ens_a.tables[1].scores, ens_b.tables[0].scores, atol=1e-6)

    def test_restarts_pick_best(self, mixed_world):
        catalog, population = mixed_world
        ds = simulate_dataset(catalog, population, n=30, m=2, choice_set_size=2, rng_seed=16)
        # 30 annotators leave some comparisons one-sided (no finite maximizer).
        with pytest.warns(RuntimeWarning, match="no finite maximizer"):
            single = run_em(ds, catalog, k=2, max_iters=3, init="random_dirichlet", seed=0,
                            on_nonconvergence="warn")
            multi = run_em(ds, catalog, k=2, max_iters=3, init="random_dirichlet", seed=0,
                           restarts=4, on_nonconvergence="warn")
        assert multi.loglik >= single.loglik - 1e-12

    def test_tied_restarts_keep_the_first(self, monkeypatch):
        # The from_true_labels init ignores the seed, so both restarts run the
        # same EM; restart 1's E-step log-likelihoods are then raised by a
        # relative 1e-13 or 1e-11. A later restart wins only by more than 1e-12.
        catalog = recovery_catalog([2.0, 0.5])
        ds = simulate_dataset(catalog, make_adversarial_pair([2.0, 0.5]), n=200, m=2,
                              choice_set_size=3, rng_seed=5)
        e_step = emdpo._e_step
        for raise_by, winner in ((1e-13, 0), (1e-11, 1)):
            calls = []

            def raised_e_step(compiled, x, eta):
                gamma, norm = e_step(compiled, x, eta)
                calls.append(None)
                return gamma, norm + raise_by * np.abs(norm) * (len(calls) > 3)

            monkeypatch.setattr(emdpo, "_e_step", raised_e_step)
            state = run_em(ds, catalog, k=2, max_iters=3, tol=-math.inf,
                           init="from_true_labels", restarts=2)
            assert len(calls) == 6
            first, second = (trace[-1]["loglik"] for trace in state.restart_traces)
            assert second == pytest.approx(first - raise_by * first, rel=1e-14, abs=0)
            assert state.trace == state.restart_traces[winner]
            assert state.loglik == (first, second)[winner]

    @pytest.mark.parametrize("k, iters", [(2, 5), (3, 4)])
    def test_existence_warning_once_per_type_and_call(self, k, iters):
        # r3 never loses to r0 or r1, so every type's data has no finite
        # maximizer in every iteration; warn mode says so once per type and
        # call, while the capped fits' gradient-norm warnings stay.
        catalog = Catalog.build({"p0": [(f"r{i}", [float(i)]) for i in range(4)]})
        sets = [("r3", "r2", "r1"), ("r2", "r0", "r1"), ("r0", "r1"), ("r2", "r3")]
        ds = Dataset.from_records(PreferenceRecord(annotator=a, prompt="p0", winner=c[0],
                                                   rejected=c[1:]) for a in range(4) for c in sets)

        def caught_messages(fit):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fit()
            return result, [str(w.message) for w in caught if w.category is RuntimeWarning]

        state, messages = caught_messages(lambda: run_em(
            ds, catalog, k=k, max_iters=iters, tol=-math.inf, init="random_dirichlet",
            inner_max_iter=5, on_nonconvergence="warn"))
        assert len(state.trace) == iters
        existence = [m for m in messages if "no finite maximizer" in m]
        assert sorted(m.split(":")[0] for m in existence) == [
            f"policy M-step for type {j}" for j in range(k)]
        assert sum("stopped at gradient norm" in m for m in messages) > k
        for _ in range(2):
            _, messages = caught_messages(lambda: m_step_policy(
                ds, catalog, np.full((ds.n, k), 1.0 / k), kappa=0.1, max_iter=5,
                on_nonconvergence="warn"))
            assert sum("no finite maximizer" in m for m in messages) == k


@pytest.fixture(scope="module")
def adversarial_fit():
    """The adversarial pair on a 4-response catalog, 200 ternary choices and a
    two-type EM fit of them."""
    theta = np.array([2.0, 0.5])
    catalog = recovery_catalog(theta, n_responses=4, reward_spread=3.0)
    ds = simulate_dataset(catalog, make_adversarial_pair(theta), n=200, m=1,
                          choice_set_size=3, rng_seed=0)
    state = run_em(ds, catalog, k=2, max_iters=3, init="random_dirichlet",
                   on_nonconvergence="warn")
    return catalog, ds, state


class TestOneFitKernel:
    def test_misshaped_counts_or_scores_raise(self, adversarial_fit):
        catalog, ds, _ = adversarial_fit
        compiled = CompiledRecords.from_dataset(ds, catalog)
        counts, x = np.ones(compiled.n_patterns), np.zeros(compiled.size)
        for bad in [(counts[:-1], x), (counts, x[:-1]), (counts[None], x), (counts, x[None])]:
            with pytest.raises(ValueError, match="pattern counts"):
                fit_preference_table(compiled, *bad)
        with pytest.raises(TypeError):
            fit_preference_table(compiled, counts, x, 1e-8)  # grad_tol is keyword-only

    @pytest.mark.filterwarnings("ignore")
    def test_every_fit_goes_through_the_name(self, adversarial_fit, monkeypatch):
        """Tracing wraps ``fit_preference_table`` where emdpo and aggregate
        look it up; every fit of the pipeline must be one call through it.
        An M-step fits all its types in one call."""
        catalog, ds, fitted = adversarial_fit
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs["grad_tol"])
            return fit_preference_table(*args, **kwargs)

        monkeypatch.setattr(emdpo, "fit_preference_table", counting)
        monkeypatch.setattr(aggregate, "fit_preference_table", counting)

        state = run_em(ds, catalog, k=2, max_iters=4, init="random_dirichlet", restarts=2,
                       on_nonconvergence="warn")
        assert len(calls) == sum(len(trace) for trace in state.restart_traces)
        calls.clear()
        m_step_policy(ds, catalog, np.full((ds.n, 3), 1 / 3), kappa=0.1,
                      on_nonconvergence="warn")
        assert len(calls) == 1
        calls.clear()
        evaluate.run_cluster_dpo(ds, catalog, k=2, on_nonconvergence="warn")
        assert len(calls) == 1
        calls.clear()
        evaluate.run_vanilla_dpo(ds, catalog, on_nonconvergence="warn")
        assert len(calls) == 1
        calls.clear()
        aggregate.minimax_policy_lightweight(ds, catalog, fitted.ensemble, fitted.gamma,
                                             ReferencePolicy.uniform(catalog), iters=5)
        assert calls == [1e-10] * 5

    @pytest.mark.filterwarnings("ignore")
    def test_one_compile_per_dataset_and_catalog(self, adversarial_fit, monkeypatch):
        """EM, the lightweight aggregator, mixture_loglik and repeated
        m_step_policy calls share one compile of a dataset and catalog; an
        equal dataset or catalog that is another object gets its own."""
        catalog, ds, _ = adversarial_fit
        ds = simulate_dataset(catalog, make_adversarial_pair(np.array([2.0, 0.5])), n=60, m=1,
                              choice_set_size=3, rng_seed=1)
        builds = []
        build = CompiledRecords.__init__

        def counting(self, *args):
            builds.append(args)
            build(self, *args)

        monkeypatch.setattr(CompiledRecords, "__init__", counting)
        state = run_em(ds, catalog, k=2, max_iters=2, on_nonconvergence="warn")
        aggregate.minimax_policy_lightweight(ds, catalog, state.ensemble, state.gamma,
                                             ReferencePolicy.uniform(catalog), iters=2)
        mixture_loglik(ds, catalog, state.ensemble)
        for _ in range(2):
            m_step_policy(ds, catalog, state.gamma, kappa=0.1, on_nonconvergence="warn")
        assert len(builds) == 1
        compiled = CompiledRecords.from_dataset(ds, catalog)
        twin = Catalog.from_json_dict(catalog.to_json_dict())
        assert CompiledRecords.from_dataset(ds, twin) is not compiled
        assert CompiledRecords.from_dataset(replace(ds), catalog) is not compiled
        assert len(builds) == 3

    @pytest.mark.parametrize("k, n_init", [(2, 3), (3, 2)])
    def test_init_tables_must_match_gamma_columns(self, adversarial_fit, k, n_init):
        # an extra table would come back unfitted, a missing one end in IndexError
        catalog, ds, fitted = adversarial_fit
        init = [fitted.ensemble.tables[0]] * n_init
        with pytest.raises(ValueError, match=f"{n_init} init tables for {k} gamma columns"):
            m_step_policy(ds, catalog, np.full((ds.n, k), 1 / k), kappa=0.1,
                          init_tables=init, on_nonconvergence="warn")

    @pytest.mark.parametrize("fault", ["nan_row", "negated_column"])
    @pytest.mark.parametrize("method", ["m_step_policy", "lightweight"])
    def test_malformed_posteriors_raise(self, adversarial_fit, fault, method):
        # rows need not sum to 1 (see test_weight_scale_invariance), but every
        # entry must be a finite non-negative weight
        catalog, ds, fitted = adversarial_fit
        gamma = fitted.gamma.copy()
        if fault == "nan_row":
            gamma[7] = np.nan
        else:
            gamma[:, 1] *= -1.0
        with pytest.raises(ValueError, match="gamma must be finite and non-negative"):
            if method == "m_step_policy":
                m_step_policy(ds, catalog, gamma, kappa=0.1, on_nonconvergence="warn")
            else:
                aggregate.minimax_policy_lightweight(ds, catalog, fitted.ensemble, gamma,
                                                     ReferencePolicy.uniform(catalog), iters=3)
