"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and runtimes. Every tolerance is fixed here; nothing is calibrated at
runtime.
"""

import json
import time
import warnings

import numpy as np
import pytest
import yaml

import hetpref as hp
from hetpref.aggregate import (
    brute_force_game,
    minimax_policy_lightweight,
    regret_of_policy,
    solve_regret_game,
    uniform_mixture,
)
from hetpref.cli import main
from hetpref.emdpo import run_em
from hetpref.evaluate import (
    max_mean_reward_margin,
    max_regret,
    run_cluster_dpo,
    run_vanilla_dpo,
    split_by_true_type,
)
from hetpref.identify import (
    recover_theta_from_binary,
    ternary_recovery_experiment,
    verify_binary_flatness,
)
from hetpref.policy import (
    ReferencePolicy,
    ScoreEnsemble,
    ScoreTable,
    gauge_fix,
    policy_probs,
    uniform_prompt_weights,
)
from hetpref.rewards import Catalog, Population, softmax
from hetpref.simulate import expected_dataset, simulate_dataset
from reference import (
    mixture_policy_probs,
    multi_item_pref_prob,
    policy_distributions,
    reward_margin,
)


def report(name: str, ok: bool, detail: str, started: float, budget_s: float) -> None:
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.1f}s / budget {budget_s:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget_s, f"{name}: runtime {elapsed:.1f}s over budget {budget_s}s"


def test_criterion_1_binary_flatness_exact():
    t0 = time.time()
    rng = np.random.default_rng(11)
    catalog = Catalog.build(
        {"p": [(f"r{i}", rng.normal(size=4)) for i in range(15)]}  # 105 pairs
    )
    worst = 0.0
    for _ in range(20):
        theta = rng.normal(size=4) * rng.uniform(0.5, 4.0)
        worst = max(worst, verify_binary_flatness(catalog, theta))
    report(
        "criterion 1 (binary flatness exact)",
        worst <= 1e-12,
        f"max |p - 1/2| = {worst:.2e} over 105 pairs x 20 thetas",
        t0, 1.0,
    )


def test_criterion_2_linear_recovery_exact():
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst = 0.0
    for d in (2, 5, 10):
        theta = rng.normal(size=d)
        design = rng.normal(size=(3 * d, d))
        got = recover_theta_from_binary(design, design @ theta)
        worst = max(worst, float(np.abs(got - theta).max()))
    from hetpref.errors import RankError

    rank_rejected = False
    try:
        recover_theta_from_binary(np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros(2))
    except RankError:
        rank_rejected = True
    report(
        "criterion 2 (noiseless theta recovery)",
        worst <= 1e-8 and rank_rejected,
        f"max recovery error {worst:.2e}; rank-deficient design rejected: {rank_rejected}",
        t0, 1.0,
    )


def test_criterion_3_em_correctness_50_runs():
    t0 = time.time()
    rng = np.random.default_rng(4242)
    catalog = Catalog.build(
        {f"p{j}": [(f"r{i}", rng.normal(size=3) * 0.6) for i in range(4)] for j in range(3)}
    )
    population = Population.from_weights(
        [[1.0, 0.3, -0.2], [-0.6, 0.8, 0.4], [0.2, -0.9, 0.7]], [0.4, 0.35, 0.25]
    )
    worst_decrease = 0.0
    worst_eta_err = 0.0
    for seed in range(50):
        k = 1 + seed % 3
        css = 2 + (seed // 3) % 2
        ds = simulate_dataset(
            catalog, population, n=48, m=5, choice_set_size=css, rng_seed=1000 + seed
        )
        state = run_em(
            ds, catalog, k=k, kappa=0.1, max_iters=6, seed=seed,
            init="kmeans_winner_features" if seed % 2 == 0 else "random_dirichlet",
        )
        lls = [row["loglik"] for row in state.trace]
        if len(lls) > 1:
            worst_decrease = min(worst_decrease, float(np.diff(lls).min()))
        worst_eta_err = max(
            worst_eta_err,
            float(np.abs(state.ensemble.eta - state.gamma.mean(axis=0)).max()),
        )
    report(
        "criterion 3 (EM monotonicity + eta KKT, 50 runs)",
        worst_decrease >= -1e-7 and worst_eta_err <= 1e-10,
        f"worst per-step loglik decrease {worst_decrease:.2e}, "
        f"worst |eta - colmean(gamma)| {worst_eta_err:.2e}",
        t0, 120.0,
    )


def test_criterion_4_dpo_population_consistency():
    t0 = time.time()
    rng = np.random.default_rng(7)
    catalog = Catalog.build(
        {f"p{j}": [(f"r{i}", rng.normal(size=3)) for i in range(5)] for j in range(2)}
    )
    theta = rng.normal(size=3)
    dataset, weights = expected_dataset(catalog, theta, choice_set_size=2)
    from hetpref.emdpo import CompiledRecords
    from reference import fit_record_weights

    compiled = CompiledRecords.from_dataset(dataset, catalog)
    table, grad_norm = fit_record_weights(compiled, weights, kappa=1.0)
    worst = 0.0
    for prompt in catalog.prompts:
        rids = catalog.responses(prompt)
        feats = catalog.features(prompt)
        for i in range(len(rids)):
            for j in range(i + 1, len(rids)):
                got = reward_margin(table, catalog, prompt, rids[i], rids[j])
                want = float(theta @ (feats[i] - feats[j]))
                worst = max(worst, abs(got - want))
    report(
        "criterion 4 (population-level preference-fit consistency)",
        worst <= 1e-4,
        f"max |fitted margin - true margin| = {worst:.2e} (grad norm {grad_norm:.1e})",
        t0, 30.0,
    )


def test_criterion_5_ternary_vs_binary_identifiability():
    t0 = time.time()
    theta = np.array([2.0, 0.5])
    em_config = {"max_iters": 80, "tol": 1e-10}
    corrs, eta_errs, binary_gaps = [], [], []
    for seed in range(10):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep3 = ternary_recovery_experiment(
                theta, n=5000, seed=seed, em_config=em_config,
                choice_set_size=3, n_responses=4, reward_spread=3.0,
            )
            rep2 = ternary_recovery_experiment(
                theta, n=5000, seed=seed, em_config=em_config,
                choice_set_size=2, n_responses=4, reward_spread=3.0,
            )
        corrs.append(rep3.margin_correlation)
        eta_errs.append(max(rep3.eta_error))
        binary_gaps.append(abs(rep2.expected_loglik_fit - rep2.expected_loglik_null))
    med_corr = float(np.median(corrs))
    med_eta = float(np.median(eta_errs))
    med_gap = float(np.median(binary_gaps))
    report(
        "criterion 5 (ternary identifies, binary does not)",
        med_corr >= 0.95 and med_eta <= 0.05 and med_gap <= 1e-3,
        f"median margin corr {med_corr:.4f} (>=0.95), median |eta-1/2| {med_eta:.4f} "
        f"(<=0.05), median binary loglik gap {med_gap:.2e} nats/record (<=1e-3)",
        t0, 600.0,
    )


def test_criterion_6_game_solver_vs_brute_force():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    diffs = []
    gap_improved = 0
    for trial in range(20):
        k = 2 + trial % 3  # K in {2, 3, 4}
        R = rng.uniform(0.0, 2.0, size=(k + 1, k))
        sol = solve_regret_game(R, iters=100_000)
        brute, _w = brute_force_game(R)
        diffs.append(abs(sol.value - brute))
        if sol.gap_trace[10_000 - 1] < sol.gap_trace[100 - 1]:
            gap_improved += 1
    report(
        "criterion 6 (optimistic-Hedge game solver)",
        max(diffs) <= 1e-3 and gap_improved >= 19,
        f"max |solver - oracle| = {max(diffs):.2e} over 20 matrices; "
        f"gap(1e4) < gap(1e2) in {gap_improved}/20",
        t0, 120.0,
    )


FOUR_GROUP_POISON = 3.0
FOUR_GROUP_COMP = 1.6
FOUR_GROUP_ETAS = (0.44, 0.2335, 0.1865, 0.14)
FOUR_GROUP_KAPPA = 0.5


def four_group_world(seed=100):
    feats = {
        "own1": [3.0, -FOUR_GROUP_POISON, 0.0, 0.0],
        "own2": [-FOUR_GROUP_POISON, 3.0, 0.0, 0.0],
        "own3": [0.0, 0.0, 3.0, -FOUR_GROUP_POISON],
        "own4": [0.0, 0.0, -FOUR_GROUP_POISON, 3.0],
        "comp": [FOUR_GROUP_COMP] * 4,
    }
    catalog = Catalog.build({"q": [(k, v) for k, v in feats.items()]})
    population = Population.from_weights(np.eye(4).tolist(), FOUR_GROUP_ETAS)
    dataset = simulate_dataset(catalog, population, n=3000, m=2, choice_set_size=3, rng_seed=seed)
    return catalog, population, dataset


def test_criterion_7_regret_ordering_four_groups():
    t0 = time.time()
    catalog, population, dataset = four_group_world(seed=100)
    ref = ReferencePolicy.uniform(catalog)
    pw = uniform_prompt_weights(catalog)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = run_em(
            dataset, catalog, k=4, kappa=FOUR_GROUP_KAPPA, max_iters=15, seed=0,
            restarts=2, on_nonconvergence="warn", inner_max_iter=300, tol=1e-10,
        )
        vanilla = run_vanilla_dpo(
            dataset, catalog, kappa=FOUR_GROUP_KAPPA, on_nonconvergence="warn"
        )
        minimax_table, _trace = minimax_policy_lightweight(
            dataset, catalog, state.ensemble, state.gamma, ref,
            iters=60, step=0.3, inner_steps=10,
        )
    ensemble = state.ensemble
    uniform_dists = policy_distributions(uniform_mixture(ensemble), ensemble, ref, catalog)
    r_minimax = max_regret(minimax_table, ensemble, ref, catalog, pw)
    r_vanilla = max_regret(vanilla, ensemble, ref, catalog, pw)
    r_uniform = max_regret(uniform_dists, ensemble, ref, catalog, pw)
    report(
        "criterion 7 (worst-case regret ordering, 4 groups)",
        r_minimax <= 0.9 * r_vanilla and r_vanilla <= r_uniform,
        f"minimax {r_minimax:.3f} <= 0.9 * vanilla {r_vanilla:.3f} <= uniform {r_uniform:.3f} "
        f"(ratio {r_minimax / r_vanilla:.2f})",
        t0, 600.0,
    )


def test_criterion_8_margin_ordering_mpi():
    t0 = time.time()
    population, catalog = hp.make_mpi_population(n_phrases=40)
    n, m = 2000, 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ds_ter = simulate_dataset(catalog, population, n=n, m=m, choice_set_size=3, rng_seed=100)
        ds_bin = simulate_dataset(catalog, population, n=n, m=m, choice_set_size=2, rng_seed=100)
        em_kwargs = dict(
            kappa=0.1, max_iters=15, seed=0, restarts=2,
            on_nonconvergence="warn", inner_max_iter=200, tol=1e-10,
        )
        state_ter = run_em(ds_ter, catalog, k=3, **em_kwargs)
        state_bin = run_em(ds_bin, catalog, k=3, **em_kwargs)
        cluster_bin = run_cluster_dpo(
            ds_bin, catalog, k=3, kappa=0.1, seed=0,
            on_nonconvergence="warn", max_iter=200,
        )
    eval_ds = simulate_dataset(catalog, population, n=4000, m=1, choice_set_size=2, rng_seed=761)
    groups = split_by_true_type(eval_ds)
    ter = [max_mean_reward_margin(state_ter.ensemble, catalog, groups[t]) for t in (0, 1)]
    bin_ = [max_mean_reward_margin(state_bin.ensemble, catalog, groups[t]) for t in (0, 1)]
    clu = [max_mean_reward_margin(cluster_bin, catalog, groups[t]) for t in (0, 1)]
    ok = all(ter[i] > bin_[i] and ter[i] > clu[i] for i in (0, 1))
    report(
        "criterion 8 (margin ordering on the adversarial personalities)",
        ok,
        f"P1: ternary {ter[0]:.2f} > binary {bin_[0]:.2f}, cluster {clu[0]:.2f}; "
        f"P2: ternary {ter[1]:.2f} > binary {bin_[1]:.2f}, cluster {clu[1]:.2f}",
        t0, 600.0,
    )


def test_criterion_9_invariant_suite():
    t0 = time.time()
    rng = np.random.default_rng(909)
    cases = 1000

    # softmax normalization
    scores = rng.normal(size=(cases, 6)) * rng.uniform(0.1, 20, size=(cases, 1))
    norm_err = float(np.abs(softmax(scores, axis=1).sum(axis=1) - 1.0).max())

    # gauge invariance of preference probabilities and margins
    catalog = Catalog.build({"p": [(f"r{i}", rng.normal(size=3)) for i in range(5)]})
    ref = ReferencePolicy.uniform(catalog)
    gauge_err = 0.0
    for _ in range(cases):
        s = rng.normal(size=5) * 3
        table = ScoreTable(kappa=0.5, scores={"p": s})
        shifted = ScoreTable(kappa=0.5, scores={"p": s + float(rng.normal() * 50)})
        gauge_err = max(
            gauge_err,
            abs(
                multi_item_pref_prob(table, catalog, "p", "r0", ["r1", "r2"])
                - multi_item_pref_prob(shifted, catalog, "p", "r0", ["r1", "r2"])
            ),
            abs(
                reward_margin(table, catalog, "p", "r1", "r3")
                - reward_margin(shifted, catalog, "p", "r1", "r3")
            ),
            float(
                np.abs(
                    policy_probs(table, ref, "p") - policy_probs(shifted, ref, "p")
                ).max()
            ),
        )

    # permutation equivariance of mixtures and metrics
    tables = tuple(
        gauge_fix(ScoreTable(kappa=0.5, scores={"p": rng.normal(size=5)})) for _ in range(3)
    )
    ens = ScoreEnsemble(tables=tables, eta=np.full(3, 1 / 3))
    pw = uniform_prompt_weights(catalog)
    perm_err = 0.0
    for _ in range(cases):
        w = rng.dirichlet(np.ones(3))
        perm = rng.permutation(3)
        ens_p = ScoreEnsemble(tables=tuple(tables[i] for i in perm), eta=np.full(3, 1 / 3))
        a = mixture_policy_probs(ens, w, ref, "p")
        b = mixture_policy_probs(ens_p, w[perm], ref, "p")
        perm_err = max(perm_err, float(np.abs(a - b).max()))
        perm_err = max(
            perm_err,
            abs(
                max_regret(w, ens, ref, catalog, pw)
                - max_regret(w[perm], ens_p, ref, catalog, pw)
            ),
        )

    # regret affinity in mixture weights
    affinity_err = 0.0
    member_regrets = np.array(
        [
            [regret_of_policy(tables[j], ens, ref, catalog, pw, k) for j in range(3)]
            for k in range(3)
        ]
    )
    for _ in range(cases):
        w = rng.dirichlet(np.ones(3))
        for k in range(3):
            mixed = regret_of_policy(w, ens, ref, catalog, pw, k)
            affinity_err = max(affinity_err, abs(mixed - float(member_regrets[k] @ w)))

    # simplex preservation along optimistic-Hedge iterates
    R = rng.uniform(0, 2, size=(4, 3))
    sol = solve_regret_game(R, iters=cases)
    simplex_err = max(
        float(np.abs(sol.w_avg_trace.sum(axis=1) - 1.0).max()),
        float(np.abs(sol.p_avg_trace.sum(axis=1) - 1.0).max()),
        float(abs(sol.w.sum() - 1.0)),
        float(abs(sol.p.sum() - 1.0)),
    )

    ok = (
        norm_err <= 1e-12
        and gauge_err <= 1e-10
        and perm_err <= 1e-12
        and affinity_err <= 1e-10
        and simplex_err <= 1e-10
    )
    report(
        "criterion 9 (invariant property suite, 1e3 cases each)",
        ok,
        f"normalization {norm_err:.1e}, gauge {gauge_err:.1e}, permutation {perm_err:.1e}, "
        f"affinity {affinity_err:.1e}, simplex {simplex_err:.1e}",
        t0, 60.0,
    )


def test_criterion_10_cli_reproducibility(tmp_path):
    t0 = time.time()
    cfg = {
        "population": {
            "preset": "adversarial",
            "theta": [2.0, 0.0],
            "n_responses": 4,
            "reward_spread": 3.0,
        },
        "simulate": {"n": 150, "m": 2, "choice_set_size": 3, "seed": 17},
        "emdpo": {"k": 2, "max_iters": 6},
        "aggregate": {"method": "affine", "iters": 40, "step": 0.05},
        "identify": {"theta": [2.0, 0.0], "n_values": [400], "em": {"max_iters": 12}},
        "evaluate": {"eval_n": 200},
        "sweep": {"k_values": [1, 2]},
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))

    def run_all(out):
        out.mkdir()
        c = str(cfg_path)
        o = str(out)
        assert main(["simulate", "--config", c, "--out", o]) == 0
        ds, cat = str(out / "dataset.jsonl"), str(out / "catalog.json")
        assert main(["emdpo", "--config", c, "--dataset", ds, "--catalog", cat, "--out", o]) == 0
        assert main(["sweep-k", "--config", c, "--dataset", ds, "--catalog", cat, "--out", o]) == 0
        assert main([
            "aggregate", "--config", c, "--ensemble", str(out / "ensemble.json"),
            "--catalog", cat, "--out", o,
        ]) == 0
        assert main(["identify", "--config", c, "--out", o]) == 0
        assert main([
            "evaluate", "--config", c, "--catalog", cat,
            "--ensemble", f"fit={out / 'ensemble.json'}", "--out", o,
        ]) == 0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_all(tmp_path / "run1")
        run_all(tmp_path / "run2")
    names = sorted(p.name for p in (tmp_path / "run1").iterdir())
    mismatched = [
        name
        for name in names
        if (tmp_path / "run1" / name).read_bytes() != (tmp_path / "run2" / name).read_bytes()
    ]
    report(
        "criterion 10 (byte-identical CLI reruns)",
        len(names) >= 15 and not mismatched,
        f"{len(names)} output files compared; mismatches: {mismatched or 'none'}",
        t0, 300.0,
    )
