import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from hetpref._streams import Streams
from hetpref.errors import ConfigError, DegeneratePopulationError
from hetpref.identify import recovery_catalog
from hetpref.rewards import (
    Catalog,
    Population,
    exact_choice_weights,
    pairwise_prob,
    reward,
    softmax,
)
from hetpref.simulate import (
    AnnotatorData,
    PreferenceRecord,
    _canonical_type_order,
    expected_dataset,
    make_adversarial_pair,
    make_mpi_population,
    read_dataset,
    simulate_dataset,
    write_dataset,
)


@pytest.fixture(scope="module")
def small_world():
    rng = np.random.default_rng(0)
    catalog = Catalog.build(
        {
            f"p{j}": [(f"r{i}", rng.normal(size=3)) for i in range(5)]
            for j in range(4)
        }
    )
    population = Population.from_weights(
        [[1.0, 0.0, 0.5], [-0.5, 1.0, 0.0]], [0.4, 0.6]
    )
    return catalog, population


class TestMpiPopulation:
    def test_weights_and_adversarial_structure(self):
        population, catalog = make_mpi_population()
        np.testing.assert_allclose(population.etas, [0.3, 0.3, 0.4])
        np.testing.assert_array_equal(
            population.types[1].theta, -population.types[0].theta
        )
        assert len(catalog.responses("instruction")) == 990

    def test_trait_unit_reward(self):
        population, catalog = make_mpi_population()
        p3 = population.types[2].theta
        # phrase_001 scores +1 on the second trait, whose weight is 2
        assert reward(catalog, p3, "instruction", "phrase_001") == 2.0

    def test_every_phrase_single_trait(self):
        _, catalog = make_mpi_population(n_phrases=25)
        feats = catalog.features("instruction")
        assert np.all(np.count_nonzero(feats, axis=1) == 1)
        assert set(np.unique(feats[feats != 0])) == {-1.0, 1.0}
        # balanced signs per trait
        for t in range(5):
            col = feats[:, t]
            assert (col == 1).sum() == (col == -1).sum() or abs(
                (col == 1).sum() - (col == -1).sum()
            ) <= 1


class TestAdversarialPair:
    def test_construction(self):
        pop = make_adversarial_pair(np.array([1.0, 0.0]))
        assert pop.k == 2
        np.testing.assert_array_equal(pop.types[0].theta, [1.0, 0.0])
        np.testing.assert_array_equal(pop.types[1].theta, [-1.0, 0.0])
        np.testing.assert_allclose(pop.etas, [0.5, 0.5])

    def test_zero_theta_rejected(self):
        with pytest.raises(DegeneratePopulationError):
            make_adversarial_pair(np.zeros(3))


class TestSimulateDataset:
    def test_determinism(self, small_world):
        catalog, population = small_world
        a = simulate_dataset(catalog, population, n=50, m=3, choice_set_size=3, rng_seed=42)
        b = simulate_dataset(catalog, population, n=50, m=3, choice_set_size=3, rng_seed=42)
        assert a == b

    def test_rejected_count(self, small_world):
        catalog, population = small_world
        ds = simulate_dataset(catalog, population, n=10, m=2, choice_set_size=3, rng_seed=0)
        assert all(len(r.rejected) == 2 for r in ds.records())

    def test_set_size_validation(self, small_world):
        catalog, population = small_world
        with pytest.raises(ConfigError):
            simulate_dataset(catalog, population, n=5, m=1, choice_set_size=6, rng_seed=0)

    @pytest.mark.parametrize("field, value", [
        ("n", 2.5), ("n", True), ("m", 1.0), ("m", np.float64(2)), ("choice_set_size", 3.0),
        ("choice_set_size", "3"),
    ])
    def test_non_integer_sizes_rejected(self, small_world, field, value):
        catalog, population = small_world
        sizes = {"n": 5, "m": 2, "choice_set_size": 3} | {field: value}
        with pytest.raises(ConfigError, match=field):
            simulate_dataset(catalog, population, rng_seed=0, **sizes)

    def test_numpy_integer_sizes_accepted(self, small_world):
        catalog, population = small_world
        a = simulate_dataset(catalog, population, n=np.int64(6), m=np.int32(2),
                             choice_set_size=np.int64(3), rng_seed=4)
        assert a == simulate_dataset(catalog, population, n=6, m=2, choice_set_size=3, rng_seed=4)

    @pytest.mark.parametrize("seed, error, message", [
        (-1, ValueError, "non-negative"),
        (1.5, TypeError, "int or sequence of ints"),
        ("7", TypeError, "int or sequence of ints"),
    ])
    def test_bad_seed_raises_numpys_error(self, small_world, seed, error, message):
        catalog, population = small_world
        with pytest.raises(error, match=message):
            simulate_dataset(catalog, population, n=5, m=1, choice_set_size=2, rng_seed=seed)

    def test_none_seed_draws_fresh_entropy(self, small_world):
        catalog, population = small_world
        a, b = (simulate_dataset(catalog, population, n=50, m=3, choice_set_size=3, rng_seed=None)
                for _ in range(2))
        assert isinstance(a.seed, int) and a.records() != b.records()
        assert simulate_dataset(catalog, population, n=50, m=3, choice_set_size=3,
                                rng_seed=a.seed) == a

    def test_winner_frequency_matches_pairwise_prob(self):
        theta = np.array([0.9])
        catalog = Catalog.build({"p": [("a", [1.0]), ("b", [0.0])]})
        population = Population.from_weights([theta], [1.0])
        n, m = 10_000, 10
        ds = simulate_dataset(catalog, population, n=n, m=m, choice_set_size=2, rng_seed=5)
        wins = sum(r.winner == "a" for r in ds.records())
        p = pairwise_prob(catalog, theta, "p", "a", "b")
        draws = n * m
        sigma = np.sqrt(p * (1 - p) / draws)
        assert abs(wins / draws - p) <= 3 * sigma

    def test_prompt_assignment_independent_of_type(self, small_world):
        # contingency chi-square of (true type x prompt) stays below the
        # 99.9% critical value on >= 1e4 records
        catalog, population = small_world
        ds = simulate_dataset(catalog, population, n=2500, m=4, choice_set_size=2, rng_seed=8)
        prompts = {p: i for i, p in enumerate(catalog.prompts)}
        counts = np.zeros((population.k, len(prompts)))
        for a in ds.annotators:
            for r in a.records:
                counts[a.true_type, prompts[r.prompt]] += 1
        total = counts.sum()
        row = counts.sum(axis=1, keepdims=True)
        col = counts.sum(axis=0, keepdims=True)
        expected = row @ col / total
        stat = float(((counts - expected) ** 2 / expected).sum())
        dof = (counts.shape[0] - 1) * (counts.shape[1] - 1)
        assert stat < chi2.ppf(0.999, dof)

    def test_label_symmetry_under_type_permutation(self, small_world):
        catalog, population = small_world
        swapped = Population.from_weights(
            [population.types[1].theta, population.types[0].theta],
            [population.types[1].eta, population.types[0].eta],
        )
        a = simulate_dataset(catalog, population, n=60, m=2, choice_set_size=2, rng_seed=17)
        b = simulate_dataset(catalog, swapped, n=60, m=2, choice_set_size=2, rng_seed=17)
        for ann_a, ann_b in zip(a.annotators, b.annotators):
            assert ann_a.records == ann_b.records
            assert ann_a.true_type == 1 - ann_b.true_type


class TestExactChoiceWeights:
    def test_uniform_over_identical(self):
        cat = Catalog.build({"p": [("a", [1.0]), ("b", [1.0]), ("c", [1.0])]})
        w = exact_choice_weights(cat, np.array([2.0]), "p", ["a", "b", "c"])
        np.testing.assert_allclose(w, [1 / 3] * 3, atol=1e-15)

    def test_normalization_random(self):
        rng = np.random.default_rng(2)
        cat = Catalog.build({"p": [(f"r{i}", rng.normal(size=3)) for i in range(6)]})
        for _ in range(100):
            theta = rng.normal(size=3) * 4
            size = rng.integers(2, 7)
            cset = [f"r{i}" for i in rng.choice(6, size=size, replace=False)]
            w = exact_choice_weights(cat, theta, "p", cset)
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_adversarial_pair_flat(self):
        rng = np.random.default_rng(6)
        cat = Catalog.build({"p": [(f"r{i}", rng.normal(size=2)) for i in range(5)]})
        pop = make_adversarial_pair(np.array([2.0, -1.0]))
        w = exact_choice_weights(cat, pop, "p", ["r0", "r3"])
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)


def reference_expected_dataset(catalog, theta_or_population, choice_set_size):
    """The record-list construction expected_dataset made before it built columns."""
    from itertools import combinations

    records: list[PreferenceRecord] = []
    weights: list[float] = []
    n_prompts = len(catalog.prompts)
    i = 0
    for prompt in catalog.prompts:
        rids = catalog.responses(prompt)
        sets = list(combinations(rids, choice_set_size))
        for s in sets:
            probs = exact_choice_weights(catalog, theta_or_population, prompt, s)
            for j, winner in enumerate(s):
                rejected = tuple(y for y in s if y != winner)
                records.append(
                    PreferenceRecord(annotator=i, prompt=prompt, winner=winner, rejected=rejected)
                )
                weights.append(float(probs[j]) / (len(sets) * n_prompts))
                i += 1
    return records, np.asarray(weights)


class TestExpectedDataset:
    def test_equals_record_list_reference(self, small_world):
        rng = np.random.default_rng(11)
        wide = Catalog.build({f"q{j}": [(f"r{i}", rng.normal(size=8)) for i in range(r)]
                              for j, r in enumerate((4, 9, 6))})
        for catalog, population in (small_world, (wide, Population.from_weights(
                rng.normal(size=(3, 8)), [0.2, 0.5, 0.3]))):
            smallest = min(len(catalog.responses(p)) for p in catalog.prompts)
            for mixture in (population, population.thetas[1]):
                for size in range(2, smallest + 1):
                    dataset, weights = expected_dataset(catalog, mixture, size)
                    records, want = reference_expected_dataset(catalog, mixture, size)
                    assert dataset.records() == records
                    assert np.array_equal(weights, want)

    def test_set_size_below_two_rejected(self, small_world):
        catalog, population = small_world
        with pytest.raises(ConfigError, match="choice_set_size"):
            expected_dataset(catalog, population, choice_set_size=1)

    def test_prompt_smaller_than_set_rejected(self):
        # a prompt with fewer responses than the set size has no choice set;
        # leaving it out would make the weights sum to 0.5 here
        cat = Catalog.build({"a": [(r, [float(i)]) for i, r in enumerate("xyz")],
                             "b": [(r, [float(i)]) for i, r in enumerate("vwxyz")]})
        with pytest.raises(ConfigError, match="choice_set_size 4 exceeds responses of prompt 'a'"):
            expected_dataset(cat, np.array([1.0]), 4)

    def test_weights_sum_to_one(self, small_world):
        catalog, population = small_world
        _records, weights = expected_dataset(catalog, population, choice_set_size=2)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_records_cover_all_winners(self):
        cat = Catalog.build({"p": [("a", [1.0]), ("b", [0.0]), ("c", [-1.0])]})
        dataset, weights = expected_dataset(cat, np.array([1.0]), choice_set_size=3)
        records = dataset.records()
        assert len(records) == 3
        assert {r.winner for r in records} == {"a", "b", "c"}


class TestDatasetIo:
    def test_round_trip_bytes(self, small_world, tmp_path):
        catalog, population = small_world
        ds = simulate_dataset(catalog, population, n=25, m=2, choice_set_size=3, rng_seed=3)
        p1 = tmp_path / "d1.jsonl"
        p2 = tmp_path / "d2.jsonl"
        write_dataset(ds, p1)
        back = read_dataset(p1)
        assert back == ds
        write_dataset(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_integer_header_round_trip(self, small_world, tmp_path):
        catalog, population = small_world
        ds = simulate_dataset(catalog, population, n=np.int64(6), m=np.int32(2),
                              choice_set_size=np.int64(3), rng_seed=np.uint64(4))
        assert all(type(v) is int for v in (ds.seed, ds.m, ds.choice_set_size))
        write_dataset(ds, tmp_path / "d.jsonl")
        back = read_dataset(tmp_path / "d.jsonl")
        assert back == ds
        write_dataset(simulate_dataset(catalog, population, n=6, m=2, choice_set_size=3,
                                       rng_seed=4), tmp_path / "plain.jsonl")
        assert (tmp_path / "d.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()


def reference_annotators(catalog, population, n, m, choice_set_size, rng_seed):
    """The record-by-record sampler the vectorized one must reproduce exactly."""
    order = _canonical_type_order(population)
    cum = np.cumsum(population.etas[order])
    prompt_ids = catalog.prompts
    rewards_by_prompt = {p: catalog.features(p) @ population.thetas.T for p in prompt_ids}
    annotators = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=rng_seed, spawn_key=(i,)))
        z = int(order[np.searchsorted(cum, rng.random(), side="right").clip(0, len(order) - 1)])
        records = []
        for _ in range(m):
            prompt = prompt_ids[rng.integers(len(prompt_ids))]
            rids = catalog.responses(prompt)
            sel = rng.choice(len(rids), size=choice_set_size, replace=False)
            probs = softmax(rewards_by_prompt[prompt][sel, z])
            w = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right").clip(
                0, choice_set_size - 1
            ))
            rejected = tuple(rids[j] for k, j in enumerate(sel) if k != w)
            records.append(PreferenceRecord(i, prompt, rids[sel[w]], rejected))
        annotators.append(AnnotatorData(annotator=i, records=tuple(records), true_type=z))
    return tuple(annotators)


@st.composite
def sampler_inputs(draw):
    sizes = draw(st.lists(st.integers(2, 7), min_size=1, max_size=5))
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([0.1, 1.0, 8.0]))
    catalog = Catalog.build(
        {f"p{j}": [(f"r{i}", rng.normal(size=d)) for i in range(r)] for j, r in enumerate(sizes)}
    )
    weights = rng.uniform(0.2, 1.0, size=k)
    if k > 1 and draw(st.booleans()):
        weights[draw(st.integers(0, k - 1))] = 1e-9
    population = Population.from_weights(scale * rng.normal(size=(k, d)), weights / weights.sum())
    m = draw(st.integers(1, 4))
    choice_set_size = draw(st.integers(2, min(sizes)))
    seed = draw(st.sampled_from([0, 1, 12345, 2**32 + 17, 2**130]) | st.integers(0, 2**64))
    return catalog, population, draw(st.integers(1, 25)), m, choice_set_size, seed


class TestVectorizedSampler:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(sampler_inputs())
    def test_matches_record_by_record_sampler(self, inputs):
        ds = simulate_dataset(*inputs)
        ref = reference_annotators(*inputs)
        assert [a.records for a in ds.annotators] == [a.records for a in ref]
        assert [a.true_type for a in ds.annotators] == [a.true_type for a in ref]

    @pytest.mark.parametrize("world, digest", [
        ("adversarial", "ef8a2cd64f369a0ff6a82690d1a98f247b58862854b71836d51c2e8dd4f4c1fc"),
        ("mpi40", "0f3f84a8ebd58cda64f5221babceffc8b9a82642db354432c0744720abeeb385"),
    ])
    def test_golden_digest(self, tmp_path, world, digest):
        # Digests of write_dataset bytes from the record-by-record sampler; a
        # change to the random streams or their order changes them.
        if world == "adversarial":
            theta = np.array([2.0, 0.0])
            catalog, population = recovery_catalog(theta, 4, 3.0), make_adversarial_pair(theta)
            ds = simulate_dataset(catalog, population, n=200, m=2, choice_set_size=3, rng_seed=11)
        else:
            population, catalog = make_mpi_population(40)
            ds = simulate_dataset(catalog, population, n=150, m=3, choice_set_size=4,
                                  rng_seed=2**33 + 5)
        write_dataset(ds, tmp_path / "d.jsonl")
        assert hashlib.sha256((tmp_path / "d.jsonl").read_bytes()).hexdigest() == digest


def generator_draws(seed, n, calls):
    """Each call made on numpy's Generator for every child of SeedSequence(seed)."""
    rows = []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.default_rng(child)
        row = []
        for name, *args in calls:
            if name == "choice":
                r = int(np.broadcast_to(args[0], n)[i])
                row.extend(rng.choice(r, size=args[1], replace=False).tolist())
            else:
                row.append(getattr(rng, name)(*args))
        rows.append(row)
    return rows


def stream_draws(seed, n, calls):
    """The same calls made once on all n lanes of Streams, regrouped by lane."""
    streams = Streams(seed, n)
    columns = [getattr(streams, name)(*args).reshape(n, -1) for name, *args in calls]
    return [[x for c in columns for x in c[i].tolist()] for i in range(n)]


class TestStreams:
    """Streams against numpy's Generator on paths the sampler tests do not reach."""

    MIXED = [("random",), ("integers", 5), ("choice", 7, 3), ("random",), ("integers", 1),
             ("choice", 2, 2), ("random",)]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_rejection_heavy_range(self, seed):
        # Range 2**31 + 1: Lemire's threshold is 2**31 - 1, so about half of
        # all 32-bit words are rejected and lanes fall out of step.
        calls = [("integers", 2**31 + 1)] * 6 + [("random",), ("choice", 9, 4)]
        assert stream_draws(seed, 64, calls) == generator_draws(seed, 64, calls)

    @pytest.mark.parametrize("seed", [2**128, 2**130, 2**200 + 12345, [3, 2**40, 5, 6, 7]])
    def test_entropy_longer_than_the_pool(self, seed):
        assert stream_draws(seed, 16, self.MIXED) == generator_draws(seed, 16, self.MIXED)

    def test_choice_sizes_per_lane(self):
        calls = [("choice", np.array([2, 3, 7, 9, 5, 2, 2, 6]), 2), ("integers", 3), ("random",)]
        assert stream_draws(5, 8, calls) == generator_draws(5, 8, calls)

    def test_tail_shuffle(self):
        # numpy shuffles the tail of arange(r) when r > 10000 and k > r // 50:
        # 10001 and 20000 take that branch with k = 201, 10050 and 201 do not.
        calls = [("choice", np.array([10_001, 20_000, 10_050, 201, 10_001]), 201), ("random",),
                 ("choice", 10_001, 200), ("integers", 3)]
        assert stream_draws(3, 5, calls) == generator_draws(3, 5, calls)

    def test_tail_shuffle_of_the_whole_population(self):
        calls = [("choice", 10_001, 10_001), ("random",)]
        assert stream_draws(9, 2, calls) == generator_draws(9, 2, calls)

    def test_one_prompt_catalog(self):
        # integers(1) draws nothing, so the choice set follows the type uniform
        catalog = Catalog.build({"only": [(f"r{i}", [float(i), 1.0 - i]) for i in range(5)]})
        population = Population.from_weights([[1.0, 0.0], [0.0, 1.0]], [0.3, 0.7])
        inputs = (catalog, population, 40, 3, 3, 2**64 + 3)
        ds = simulate_dataset(*inputs)
        assert [a.records for a in ds.annotators] == [a.records for a in
                                                      reference_annotators(*inputs)]
