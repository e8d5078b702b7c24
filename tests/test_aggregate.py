import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.special import logsumexp

from hetpref.aggregate import (
    _MAX_VERTICES,
    brute_force_game,
    discrepancy_matrix,
    minimax_policy_direct,
    minimax_policy_lightweight,
    regret_matrix,
    regret_of_policy,
    solve_regret_game,
    uniform_mixture,
)
from hetpref.emdpo import CompiledRecords, _unbounded_support, run_em
from hetpref.errors import StepSizeError
from hetpref.evaluate import max_regret, run_vanilla_dpo
from hetpref.policy import (
    ReferencePolicy,
    ScoreEnsemble,
    ScoreTable,
    optimal_table_for_type,
    uniform_prompt_weights,
)
from hetpref.rewards import Catalog, Population
from hetpref.simulate import simulate_dataset
from reference import kl_to_ref, policy_distributions, record_counts, zero_table


def lp_game_value(R):
    """Exact minimax value via linear programming (independent oracle)."""
    n_rows, k = R.shape
    # variables: (w_1..w_k, v); minimize v s.t. Rw <= v, sum w = 1, w >= 0
    c = np.zeros(k + 1)
    c[-1] = 1.0
    a_ub = np.hstack([R, -np.ones((n_rows, 1))])
    b_ub = np.zeros(n_rows)
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    bounds = [(0, None)] * k + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=bounds)
    assert res.success
    return float(res.fun)


@pytest.fixture(scope="module")
def world():
    rng = np.random.default_rng(0)
    catalog = Catalog.build(
        {
            f"p{j}": [(f"r{i}", rng.normal(size=3)) for i in range(5)]
            for j in range(3)
        }
    )
    thetas = [rng.normal(size=3) * 2 for _ in range(3)]
    ensemble = ScoreEnsemble(
        tables=tuple(optimal_table_for_type(catalog, t, 0.1) for t in thetas),
        eta=np.full(3, 1 / 3),
    )
    ref = ReferencePolicy.uniform(catalog)
    pw = uniform_prompt_weights(catalog)
    return catalog, ensemble, ref, pw


class TestRegretOfPolicy:
    def test_own_optimum_zero(self, world):
        catalog, ensemble, ref, pw = world
        for k in range(ensemble.k):
            r = regret_of_policy(ensemble.tables[k], ensemble, ref, catalog, pw, k)
            assert abs(r) <= 1e-10

    def test_reference_positive_hand_value(self):
        # one prompt, two responses, s_k = (+ln3/2, -ln3/2), uniform ref:
        # E_opt[s] = (0.75 - 0.25) * ln3/2, E_ref[s] = 0 -> regret = ln3/4
        cat = Catalog.build({"p": [("a", [1.0]), ("b", [0.0])]})
        s = np.array([math.log(3) / 2, -math.log(3) / 2])
        table = ScoreTable(kappa=1.0, scores={"p": s})
        ens = ScoreEnsemble(tables=(table,), eta=np.array([1.0]))
        ref = ReferencePolicy.uniform(cat)
        r = regret_of_policy(ref, ens, ref, cat, np.array([1.0]), 0)
        assert r == pytest.approx(math.log(3) / 4, abs=1e-12)
        assert r == pytest.approx(0.2747, abs=1e-4)

    def test_affine_in_mixture_weights(self, world):
        catalog, ensemble, ref, pw = world
        rng = np.random.default_rng(1)
        for _ in range(25):
            w = rng.dirichlet(np.ones(ensemble.k))
            for k in range(ensemble.k):
                mixed = regret_of_policy(w, ensemble, ref, catalog, pw, k)
                parts = sum(
                    w[j] * regret_of_policy(ensemble.tables[j], ensemble, ref, catalog, pw, k)
                    for j in range(ensemble.k)
                )
                assert abs(mixed - parts) <= 1e-10


class TestDiscrepancyMatrix:
    def test_identical_tables_identical_columns(self, world):
        catalog, ensemble, ref, pw = world
        t = ensemble.tables[0]
        same = ScoreEnsemble(tables=(t, t), eta=np.array([0.5, 0.5]))
        L = discrepancy_matrix(same, ref, catalog, pw)
        np.testing.assert_allclose(L[:, 0], L[:, 1], atol=1e-12)

    def test_zero_ensemble(self, world):
        catalog, _e, ref, pw = world
        zeros = ScoreEnsemble(
            tables=tuple(zero_table(catalog, 0.1) for _ in range(2)),
            eta=np.array([0.5, 0.5]),
        )
        L = discrepancy_matrix(zeros, ref, catalog, pw)
        np.testing.assert_allclose(L, 0.0, atol=1e-12)

    def test_row0_zero_and_diagonal_dominance(self, world):
        catalog, ensemble, ref, pw = world
        L = discrepancy_matrix(ensemble, ref, catalog, pw)
        np.testing.assert_array_equal(L[0], 0.0)
        for z in range(1, ensemble.k + 1):
            for zp in range(ensemble.k):
                assert L[z, z - 1] >= L[z, zp] - 1e-10


class TestRegretMatrix:
    def test_zero_in_zero_out(self):
        R = regret_matrix(np.zeros((4, 3)))
        np.testing.assert_array_equal(R, 0.0)

    def test_own_column_zero_and_null_row(self, world):
        catalog, ensemble, ref, pw = world
        R = regret_matrix(discrepancy_matrix(ensemble, ref, catalog, pw))
        np.testing.assert_array_equal(R[0], 0.0)
        for k in range(1, ensemble.k + 1):
            assert abs(R[k, k - 1]) <= 1e-10

    def test_consistent_with_regret_of_policy(self, world):
        # matrix entries are Eq-style regrets divided by kappa
        catalog, ensemble, ref, pw = world
        R = regret_matrix(discrepancy_matrix(ensemble, ref, catalog, pw))
        for k in range(ensemble.k):
            for kp in range(ensemble.k):
                direct = regret_of_policy(
                    ensemble.tables[kp], ensemble, ref, catalog, pw, k
                )
                assert R[k + 1, kp] == pytest.approx(direct / ensemble.kappa, abs=1e-9)


class TestSolveRegretGame:
    def test_single_column(self):
        R = np.array([[0.0], [1.3]])
        sol = solve_regret_game(R, iters=50)
        np.testing.assert_allclose(sol.w, [1.0])

    def test_zero_matrix(self):
        sol = solve_regret_game(np.zeros((4, 3)), iters=100)
        assert sol.value == 0.0
        np.testing.assert_allclose(sol.w, np.full(3, 1 / 3), atol=1e-12)

    def test_simplex_preservation(self):
        rng = np.random.default_rng(5)
        R = rng.uniform(0, 2, size=(5, 4))
        sol = solve_regret_game(R, iters=500)
        assert abs(sol.w.sum() - 1.0) <= 1e-10 and np.all(sol.w >= 0)
        assert abs(sol.p.sum() - 1.0) <= 1e-10 and np.all(sol.p >= 0)
        assert abs(sol.w_avg_trace[-1].sum() - 1.0) <= 1e-10

    def test_matches_brute_force_and_lp(self):
        rng = np.random.default_rng(7)
        for trial in range(4):
            k = int(rng.integers(2, 5))
            R = rng.uniform(0, 2, size=(k + 1, k))
            sol = solve_regret_game(R, iters=100_000)
            brute, _w = brute_force_game(R)
            lp = lp_game_value(R)
            assert abs(brute - lp) <= 2e-5
            assert abs(sol.value - brute) <= 1e-3

    def test_gap_shrinks_with_iterations(self):
        rng = np.random.default_rng(9)
        R = rng.uniform(0, 2, size=(4, 3))
        sol = solve_regret_game(R, iters=10_000)
        assert sol.gap_trace[9_999 - 1] < sol.gap_trace[99]

    def test_game_value_sandwich(self):
        # no random simplex point beats the solver by more than 1e-3, and
        # the solver beats the uniform mixture
        rng = np.random.default_rng(13)
        R = rng.uniform(0, 2, size=(4, 3))
        sol = solve_regret_game(R, iters=100_000)
        samples = rng.dirichlet(np.ones(3), size=1000)
        sampled_min = float((R @ samples.T).max(axis=0).min())
        assert sampled_min >= sol.value - 1e-3
        uniform_value = float((R @ np.full(3, 1 / 3)).max())
        assert sol.value <= uniform_value + 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            solve_regret_game(np.array([[np.inf, 0.0]]), iters=10)


@st.composite
def oracle_games(draw):
    # K up to 8 with up to K + 1 rows; some entries rounded to one decimal
    # (ties), some games with a duplicated column. Entries are multiples of
    # 1e-3 before scaling: the HiGHS reference zeroes constraint entries
    # below 1e-9, so smaller nonzero ones would test the reference instead.
    k = draw(st.integers(1, 8))
    n_rows = draw(st.integers(1, k + 1))
    cells = draw(st.lists(st.integers(-1000, 2000), min_size=n_rows * k,
                          max_size=n_rows * k))
    R = np.array(cells).reshape(n_rows, k) / 1000 * draw(st.sampled_from([1.0, 1e-3, 50.0]))
    if draw(st.booleans()):
        R = np.round(R, 1)
    if k > 1 and draw(st.booleans()):
        R[:, draw(st.integers(1, k - 1))] = R[:, 0]
    return R


class TestBruteForce:
    def test_matches_lp_all_k(self):
        rng = np.random.default_rng(11)
        for k in (1, 2, 3, 4):
            R = rng.uniform(-1, 2, size=(k + 1, k))
            value, w = brute_force_game(R)
            assert abs(value - lp_game_value(R)) <= 5e-5
            assert abs(w.sum() - 1.0) <= 1e-9

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(oracle_games())
    @example(np.zeros((3, 2)))
    @example(np.array([[1.0, 1.0], [0.0, 2.0], [2.0, 0.0]]))
    @example(np.tile([[0.5], [1.5], [-1.0]], (1, 8)))
    def test_exact_against_lp(self, R):
        value, w = brute_force_game(R)
        assert abs(value - lp_game_value(R)) <= 1e-12 * max(1.0, float(np.abs(R).max()))
        assert w.shape == (R.shape[1],) and np.all(w >= 0.0)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert float((R @ w).max()) == value

    @pytest.mark.parametrize("scale", [2.0 ** -600, 2.0 ** 600])
    def test_extreme_scale_without_warnings(self, scale):
        # a det of these systems would underflow to 0 or overflow to inf
        R = np.random.default_rng(4).uniform(-1.0, 2.0, size=(9, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, w = brute_force_game(R * scale)
        want, want_w = brute_force_game(R)
        assert abs(value / scale - want) <= 1e-12 and np.abs(w - want_w).max() <= 1e-12

    def test_k8_game_within_cap_and_k9_rejected(self):
        R = np.random.default_rng(3).uniform(0.0, 2.0, size=(9, 8))
        assert math.comb(17, 8) <= _MAX_VERTICES < math.comb(19, 9)
        assert abs(brute_force_game(R)[0] - lp_game_value(R)) <= 2e-12
        msg = re.escape(f"C(n + K, K) = {math.comb(19, 9)} systems for a regret matrix "
                        "of shape (10, 9)")
        with pytest.raises(ValueError, match=msg):
            brute_force_game(np.zeros((10, 9)))


def symmetric_two_type_setup(seed=0):
    # +/- theta clusters of equal size over a symmetric catalog
    theta = np.array([1.5, 0.0])
    items = [
        ("a", [-1.0, 0.0]),
        ("b", [-1 / 3, 0.0]),
        ("c", [1 / 3, 0.0]),
        ("d", [1.0, 0.0]),
    ]
    catalog = Catalog.build({"q": items})
    population = Population.from_weights([theta, -theta], [0.5, 0.5])
    dataset = simulate_dataset(catalog, population, n=400, m=3, choice_set_size=3, rng_seed=seed)
    return catalog, population, dataset


class TestMinimaxLightweight:
    def test_k1_reduces_to_weighted_fit(self, world):
        # mild preferences and dense data: every comparison lies inside a
        # strongly connected component, so the weighted fit has a unique
        # finite optimum (up to gauge) shared by both routes
        catalog, _e, ref, pw = world
        rng = np.random.default_rng(3)
        thetas = [rng.normal(size=3) * 0.3]
        pop = Population.from_weights(thetas, [1.0])
        ds = simulate_dataset(catalog, pop, n=250, m=4, choice_set_size=2, rng_seed=4)
        compiled = CompiledRecords.from_dataset(ds, catalog)
        assert _unbounded_support(
            compiled, record_counts(compiled, np.ones(compiled.n_records)) > 0) is None
        ens = ScoreEnsemble(
            tables=(optimal_table_for_type(catalog, thetas[0], 0.1),), eta=np.array([1.0])
        )
        gamma = np.ones((250, 1))
        table, trace = minimax_policy_lightweight(
            ds, catalog, ens, gamma, ref, iters=3, step=0.05, inner_steps=1000
        )
        assert all(row["w"] == [1.0] for row in trace)
        vanilla = run_vanilla_dpo(ds, catalog, kappa=0.1)
        for p in catalog.prompts:
            np.testing.assert_allclose(table.scores[p], vanilla.scores[p], atol=1e-5)

    def test_symmetric_problem_balances_weights(self):
        # gamma and ensemble must come from the same fit; the loop then
        # settles at the symmetric equilibrium
        catalog, population, dataset = symmetric_two_type_setup(seed=21)
        ref = ReferencePolicy.uniform(catalog)
        pw = uniform_prompt_weights(catalog)
        state = run_em(dataset, catalog, k=2, max_iters=10, seed=0)
        table, trace = minimax_policy_lightweight(
            dataset, catalog, state.ensemble, state.gamma, ref, iters=25, step=0.05
        )
        w = np.array(trace[-1]["w"])
        assert np.abs(w - 0.5).max() <= 0.05
        # minimax beats (or ties) plain pooled training on worst-case regret
        vanilla = run_vanilla_dpo(dataset, catalog, kappa=0.1)
        assert max_regret(table, state.ensemble, ref, catalog, pw) <= max_regret(
            vanilla, state.ensemble, ref, catalog, pw
        ) + 1e-6


class TestMinimaxDirect:
    def test_identical_tables_zero_regret(self, world):
        catalog, ensemble, ref, pw = world
        t = ensemble.tables[0]
        same = ScoreEnsemble(tables=(t, t), eta=np.array([0.5, 0.5]))
        table, trace = minimax_policy_direct(
            same, ref, catalog, pw, iters=1500, policy_step=0.3, mwu_step=0.02
        )
        final = max(
            regret_of_policy(table, same, ref, catalog, pw, k) for k in range(2)
        )
        assert final <= 1e-4

    def test_beats_affine_mixture(self):
        # opposing-type instance: mixing the two extreme policies is bad for
        # both groups, so a free table matches the affine optimum or better
        rng = np.random.default_rng(2)
        catalog = Catalog.build(
            {f"p{j}": [(f"r{i}", rng.normal(size=2)) for i in range(5)] for j in range(2)}
        )
        theta = np.array([1.2, -0.8])
        kappa = 0.1
        ensemble = ScoreEnsemble(
            tables=(
                optimal_table_for_type(catalog, theta, kappa),
                optimal_table_for_type(catalog, -theta, kappa),
            ),
            eta=np.array([0.5, 0.5]),
        )
        ref = ReferencePolicy.uniform(catalog)
        pw = uniform_prompt_weights(catalog)
        R = regret_matrix(discrepancy_matrix(ensemble, ref, catalog, pw))
        affine_value = solve_regret_game(R, iters=50_000).value * kappa
        table, _ = minimax_policy_direct(
            ensemble, ref, catalog, pw, iters=2000, policy_step=0.3, mwu_step=0.05
        )
        direct_value = max(
            max(regret_of_policy(table, ensemble, ref, catalog, pw, k), 0.0)
            for k in range(ensemble.k)
        )
        assert direct_value <= affine_value + 1e-3

    def test_large_kappa_returns_reference(self, world):
        catalog, ensemble, ref, pw = world
        table, _ = minimax_policy_direct(
            ensemble, ref, catalog, pw, iters=600, policy_step=0.5, mwu_step=0.02,
            kappa=1e3,
        )
        assert kl_to_ref(table, ref, catalog, pw) <= 1e-3

    def test_divergence_detection(self, world):
        catalog, ensemble, ref, pw = world
        with pytest.raises(StepSizeError):
            minimax_policy_direct(
                ensemble, ref, catalog, pw, iters=400, policy_step=500.0, mwu_step=0.02
            )

    def test_loss_decreases_under_small_steps(self, world):
        # descent sanity: with the adversary frozen at uniform, a few small
        # policy steps may not increase the loss (checked via the trace)
        catalog, ensemble, ref, pw = world
        _table, trace = minimax_policy_direct(
            ensemble, ref, catalog, pw, iters=50, policy_step=0.1, mwu_step=0.0
        )
        losses = [row["loss"] for row in trace]
        assert losses[-1] <= losses[0] + 1e-9


class TestUniformMixture:
    def test_weights(self, world):
        _c, ensemble, _r, _p = world
        w = uniform_mixture(ensemble)
        np.testing.assert_allclose(w, np.full(ensemble.k, 1 / ensemble.k))
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_regret_is_mean_of_member_regrets(self, world):
        catalog, ensemble, ref, pw = world
        w = uniform_mixture(ensemble)
        for k in range(ensemble.k):
            mixed = regret_of_policy(w, ensemble, ref, catalog, pw, k)
            mean = np.mean(
                [
                    regret_of_policy(ensemble.tables[j], ensemble, ref, catalog, pw, k)
                    for j in range(ensemble.k)
                ]
            )
            assert mixed == pytest.approx(mean, abs=1e-10)


# ---------------------------------------------------------------------------
# The flat enumeration pass against per-prompt reference formulas.


def ref_policy_probs(table, ref, prompt):
    logits = np.log(ref.probs[prompt]) + table.scores[prompt] / table.kappa
    e = np.exp(logits - logits.max())
    return e / e.sum()


def ref_distributions(policy, ensemble, ref, catalog):
    if isinstance(policy, ScoreTable):
        return {p: ref_policy_probs(policy, ref, p) for p in catalog.prompts}
    if isinstance(policy, ReferencePolicy):
        return dict(policy.probs)
    if isinstance(policy, dict):
        return {p: np.asarray(policy[p], dtype=float) for p in catalog.prompts}
    return {
        p: sum(wk * ref_policy_probs(t, ref, p) for wk, t in zip(policy, ensemble.tables))
        for p in catalog.prompts
    }


def ref_regret(policy, ensemble, ref, catalog, pw, k):
    dists = ref_distributions(policy, ensemble, ref, catalog)
    table_k = ensemble.tables[k]
    total = 0.0
    for wx, p in zip(pw, catalog.prompts):
        if wx == 0.0:
            continue
        s_k = table_k.scores[p]
        total += wx * float(ref_policy_probs(table_k, ref, p) @ s_k - dists[p] @ s_k)
    return total


def ref_discrepancy(ensemble, ref, catalog, pw):
    k = ensemble.k
    out = np.zeros((k + 1, k))
    for z in range(k):
        for zp in range(k):
            for wx, p in zip(pw, catalog.prompts):
                if wx == 0.0:
                    continue
                log_ratio = np.log(ref_policy_probs(ensemble.tables[z], ref, p) / ref.probs[p])
                out[z + 1, zp] += wx * float(ref_policy_probs(ensemble.tables[zp], ref, p)
                                             @ log_ratio)
    return out


def ref_kl(table, ref, catalog, pw):
    total = 0.0
    for wx, p in zip(pw, catalog.prompts):
        if wx == 0.0:
            continue
        pi = ref_policy_probs(table, ref, p)
        total += wx * float(np.sum(pi * table.kappa * (np.log(pi) - np.log(ref.probs[p]))))
    return total


def ref_direct_trace(ensemble, ref, catalog, pw, iters, policy_step, mwu_step):
    """Per-iteration loss, regrets and updated adversary weights of direct descent."""
    kappa = ensemble.kappa
    k = ensemble.k
    prompts = [p for wx, p in zip(pw, catalog.prompts) if wx > 0.0]
    wxs = [wx for wx in pw if wx > 0.0]
    s_tables = [np.stack([t.scores[p] for t in ensemble.tables]) for p in prompts]
    own_means = np.zeros(k)
    for wx, p, s_k in zip(wxs, prompts, s_tables):
        for j in range(k):
            own_means[j] += wx * float(ref_policy_probs(ensemble.tables[j], ref, p) @ s_k[j])
    log_ref = [np.log(ref.probs[p]) for p in prompts]
    s = [np.zeros(len(catalog.responses(p))) for p in prompts]
    log_w = np.log(np.full(k, 1.0 / k))
    w = np.exp(log_w)
    rows = []
    for _ in range(iters):
        pis, kl, cand = [], 0.0, np.zeros(k)
        for sp, lr, wx, s_k in zip(s, log_ref, wxs, s_tables):
            logits = lr + sp / kappa
            pi = np.exp(logits - logits.max())
            pi /= pi.sum()
            pis.append(pi)
            g = kappa * (np.log(pi) - lr)
            kl += wx * float(pi @ np.where(pi > 0, g, 0.0))
            cand += wx * (s_k @ pi)
        regrets = own_means - cand
        pos = np.maximum(regrets, 0.0)
        loss = float(w @ pos) + kl
        active = (regrets > 0.0) * w
        for i, (sp, lr, wx, s_k, pi) in enumerate(zip(s, log_ref, wxs, s_tables, pis)):
            g = kappa * (np.log(pi) - lr)
            grad = (wx / kappa) * pi * (g - float(pi @ g))
            grad -= (wx / kappa) * pi * (active @ (s_k - (s_k @ pi)[:, None]))
            s[i] = sp - policy_step * grad
        log_w = log_w + mwu_step * (pos + kl)
        log_w -= logsumexp(log_w)
        w = np.exp(log_w)
        w /= w.sum()
        rows.append((loss, regrets.copy(), w.copy()))
    return rows


@st.composite
def flat_worlds(draw):
    """Multi-prompt catalog, non-uniform reference, weights with zeros, K members."""
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    k = draw(st.integers(1, 6))
    zero = draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    catalog = Catalog.build(
        {f"p{j}": [(f"r{i}", rng.normal(size=2)) for i in range(r)] for j, r in enumerate(sizes)}
    )
    ref = ReferencePolicy({p: rng.dirichlet(np.ones(r)) for p, r in
                           zip(catalog.prompts, sizes)})
    pw = rng.uniform(0.1, 1.0, size=len(sizes)) * ~np.array(zero)
    if pw.sum() == 0.0:
        pw[-1] = 1.0
    pw /= pw.sum()
    kappa = float(rng.choice([0.1, 0.5, 1.0]))
    ensemble = ScoreEnsemble(
        tables=tuple(
            ScoreTable(kappa=kappa, scores={p: rng.normal(scale=0.5, size=r)
                                            for p, r in zip(catalog.prompts, sizes)})
            for _ in range(k)
        ),
        eta=np.full(k, 1.0 / k),
    )
    candidates = [
        ScoreTable(kappa=kappa, scores={p: rng.normal(size=r)
                                        for p, r in zip(catalog.prompts, sizes)}),
        rng.dirichlet(np.ones(k)),
        {p: rng.dirichlet(np.ones(r)) for p, r in zip(catalog.prompts, sizes)},
        ReferencePolicy({p: rng.dirichlet(np.ones(r)) for p, r in zip(catalog.prompts, sizes)}),
    ]
    return catalog, ensemble, ref, pw, candidates


@settings(max_examples=60, derandomize=True, deadline=None)
@given(flat_worlds())
def test_flat_enumeration_matches_per_prompt_reference(world):
    catalog, ensemble, ref, pw, candidates = world
    for policy in candidates:
        want = [ref_regret(policy, ensemble, ref, catalog, pw, k) for k in range(ensemble.k)]
        got = [regret_of_policy(policy, ensemble, ref, catalog, pw, k)
               for k in range(ensemble.k)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert max_regret(policy, ensemble, ref, catalog, pw) == pytest.approx(
            max(want), abs=1e-12)
        dists = policy_distributions(policy, ensemble, ref, catalog)
        for p, d in ref_distributions(policy, ensemble, ref, catalog).items():
            np.testing.assert_allclose(dists[p], d, rtol=0, atol=1e-12)
    np.testing.assert_allclose(discrepancy_matrix(ensemble, ref, catalog, pw),
                               ref_discrepancy(ensemble, ref, catalog, pw), rtol=0, atol=1e-12)
    for table in (candidates[0], *ensemble.tables):
        assert kl_to_ref(table, ref, catalog, pw) == pytest.approx(
            ref_kl(table, ref, catalog, pw), abs=1e-12)

    _table, trace = minimax_policy_direct(ensemble, ref, catalog, pw, iters=8,
                                          policy_step=0.3, mwu_step=0.05)
    for row, (loss, regrets, w) in zip(trace, ref_direct_trace(
            ensemble, ref, catalog, pw, iters=8, policy_step=0.3, mwu_step=0.05)):
        assert row["loss"] == pytest.approx(loss, abs=1e-12)
        assert row["max_regret"] == pytest.approx(float(regrets.max()), abs=1e-12)
        np.testing.assert_allclose(row["w"], w, rtol=0, atol=1e-12)


def ref_game_trace(R, iters, step):
    """The per-iteration optimistic-Hedge loop the fused solver replaced."""
    n_rows, k = R.shape
    log_w, log_p = np.full(k, -np.log(k)), np.full(n_rows, -np.log(n_rows))
    w, p = np.exp(log_w), np.exp(log_p)
    w_prev, p_prev = w.copy(), p.copy()
    w_sum, p_sum = np.zeros(k), np.zeros(n_rows)
    w_avg, p_avg = np.empty((iters, k)), np.empty((iters, n_rows))
    gaps = np.empty(iters)
    for t in range(1, iters + 1):
        gw, gp = R.T @ (2.0 * p - p_prev), R @ (2.0 * w - w_prev)
        w_prev, p_prev = w, p
        log_w = log_w - step * gw
        log_w -= log_w.max()
        log_p = log_p + step * gp
        log_p -= log_p.max()
        w = np.exp(log_w)
        w /= w.sum()
        p = np.exp(log_p)
        p /= p.sum()
        w_sum += w
        p_sum += p
        w_avg[t - 1], p_avg[t - 1] = w_sum / t, p_sum / t
        gaps[t - 1] = (R @ w_avg[t - 1]).max() - (p_avg[t - 1] @ R).min()
    return w_avg, p_avg, gaps


@st.composite
def games(draw):
    k = draw(st.integers(1, 6))
    cells = draw(st.lists(st.floats(-1.0, 2.0), min_size=(k + 1) * k, max_size=(k + 1) * k))
    step = draw(st.one_of(st.none(), st.floats(1e-3, 0.5)))
    return np.array(cells).reshape(k + 1, k), draw(st.integers(2, 2000)), step


@settings(max_examples=60, derandomize=True, deadline=None)
@given(games())
@example((np.zeros((4, 3)), 500, None))
@example((np.zeros((3, 2)), 300, 0.2))
@example((np.array([[0.0, 1.0], [1.0, 0.0], [0.5, -1.0]]), 2, None))
def test_game_iterates_match_per_iteration_loop(game):
    R, iters, step = game
    sol = solve_regret_game(R, iters=iters, step=step)
    scale = float(np.abs(R).max())
    assert sol.step == (step if step is not None else 0.05 / scale if scale > 0 else 0.05)
    w_avg, p_avg, gaps = ref_game_trace(R, iters, sol.step)
    for got, want in ((sol.w_avg_trace, w_avg), (sol.p_avg_trace, p_avg), (sol.w, w_avg[-1]),
                      (sol.p, p_avg[-1]), (sol.value, (R @ w_avg[-1]).max()),
                      (sol.gap_trace, gaps)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(sol.w, sol.w_avg_trace[-1])
    np.testing.assert_array_equal(sol.p, sol.p_avg_trace[-1])
    assert sol.value == float((R @ sol.w).max())


def test_game_log_weights_recover_from_underflow():
    # column 1 is column 0 plus 2 and row 1 is row 0 plus 1, so the loser of
    # each player drifts by about 1/30 per iteration: past exp's -745 within
    # the run, which the log-space state must carry without nan or inf
    R = np.array([[0.0, 2.0], [1.0, 3.0]])
    sol = solve_regret_game(R, iters=50_000)
    for arr in (sol.w_avg_trace, sol.p_avg_trace, sol.gap_trace, sol.w, sol.p, sol.value):
        assert np.all(np.isfinite(arr))
    for trace in (sol.w_avg_trace, sol.p_avg_trace):
        assert np.abs(trace.sum(axis=1) - 1.0).max() <= 1e-12
    dominated = sol.w_avg_trace[:, 1]
    assert dominated[-1] < dominated[999] < dominated[99]
    assert dominated[-1] < 1e-3
    assert sol.value <= float((R @ np.full(2, 0.5)).max())


MISSHAPED = [(3,), (), (2, 3, 4), (3, 0), (0, 2), (0, 0)]
GAMES = {"solve_regret_game": lambda R: solve_regret_game(R, iters=10),
         "brute_force_game": brute_force_game}


# the solver's cases keep the ids shape0 to shape5
@pytest.mark.parametrize("game, shape", [
    pytest.param(game, shape, id=f"{prefix}shape{i}")
    for prefix, game in (("", "solve_regret_game"), ("brute_force_game-", "brute_force_game"))
    for i, shape in enumerate(MISSHAPED)])
def test_game_rejects_misshaped_regret_matrix(game, shape):
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        GAMES[game](np.zeros(shape))


def test_game_memory_is_one_trace_row_per_iteration():
    # the iterate buffer, its running averages and the gap trace take
    # iters * (2K + 1) floats for K = 3; a wider per-iteration state would
    # show up here as a multiple of that
    R = np.arange(12.0).reshape(4, 3) / 11.0
    iters = 30_000
    tracemalloc.start()
    try:
        solve_regret_game(R, iters=iters)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * iters * (2 * 3 + 1) * 8


@pytest.mark.parametrize("step", [0.0, -0.5, np.nan, np.inf, 1e6])
def test_game_rejects_bad_step(step):
    with pytest.raises(ValueError, match="step"):
        solve_regret_game(np.array([[0.0, 1.0], [1.0, 0.0]]), iters=10, step=step)
