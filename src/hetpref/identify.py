"""Executable checks of what preference data can and cannot reveal.

Binary comparisons from an equal mixture of opposite preference vectors
are indistinguishable from coin flips, so the mixture is unrecoverable no
matter how many annotators respond. Choice sets of three or more break
the symmetry; the experiments here demonstrate both facts numerically,
plus exact recovery of a single preference vector from many diverse
binary comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping, Sequence

import numpy as np

from .emdpo import run_em
from .errors import RankError
from .policy import ScoreEnsemble, ScoreTable, optimal_table_for_type
from .rewards import Catalog, Population, exact_choice_weights, softmax
from .simulate import Dataset, make_adversarial_pair, row_groups, simulate_dataset

__all__ = [
    "verify_binary_flatness",
    "binary_likelihood_flatness",
    "ternary_recovery_experiment",
    "recover_theta_from_binary",
    "RecoveryReport",
    "expected_record_loglik",
    "recovery_catalog",
]


def verify_binary_flatness(catalog: Catalog, theta: np.ndarray) -> float:
    """Max |p - 1/2| of the adversarial mixture over every binary pair."""
    population = make_adversarial_pair(theta)
    worst = 0.0
    for prompt in catalog.prompts:
        rewards = catalog.features(prompt) @ population.thetas.T  # (responses, K)
        pairs = np.array(list(combinations(range(len(rewards)), 2)))
        # each pair's (2, K) rewards; the softmax runs over the pair
        p = softmax(rewards[pairs], axis=1)[:, 0] @ population.etas
        worst = max(worst, float(np.abs(p - 0.5).max()))
    return worst


def expected_record_loglik(
    dataset: Dataset,
    catalog: Catalog,
    truth: Population,
    model: Callable[[str, tuple[str, ...]], np.ndarray],
) -> float:
    """Average over records of E_{winner ~ truth}[log model(winner | set)].

    The expectation replaces the sampled winner with the exact winner
    distribution, giving the infinite-data (per-record cross entropy) form
    of the log-likelihood for the given choice sets. ``model`` is called
    once per distinct choice set, with the responses sorted by name.
    """
    values = np.empty(dataset.rows.size)
    for recs, sets in dataset.sets_by_size():
        sets = np.sort(sets, axis=1)
        group, first = row_groups(sets)
        per_set = []
        for row in sets[first].tolist():
            prompt = dataset.vocab[row[0]][0]
            cset = tuple(sorted(dataset.vocab[v][1] for v in row))
            p_true = exact_choice_weights(catalog, truth, prompt, cset)
            p_model = np.asarray(model(prompt, cset), dtype=float)
            per_set.append(float(p_true @ np.log(p_model)))
        values[recs] = np.array(per_set)[group]
    # np.cumsum adds in record order, as the running sum it replaces did
    return float(np.cumsum(values)[-1] / values.size)


def _mixture_model(catalog: Catalog, mixture: Population | ScoreEnsemble):
    """Winner distribution over a choice set under a population or a fitted ensemble."""
    if isinstance(mixture, Population):
        scores = {p: catalog.features(p) @ mixture.thetas.T for p in catalog.prompts}
        eta = mixture.etas
    else:
        scores = {p: np.stack([t.scores[p] for t in mixture.tables], axis=1)
                  for p in catalog.prompts}
        eta = mixture.eta

    def model(prompt: str, cset: tuple[str, ...]) -> np.ndarray:
        idx = [catalog.response_index(prompt, y) for y in cset]
        return softmax(scores[prompt][idx], axis=0) @ eta  # (set, K) @ (K,)

    return model


def binary_likelihood_flatness(
    dataset: Dataset,
    catalog: Catalog,
    truth: Population,
    candidates: Sequence[Population],
) -> float:
    """Spread (max - min) of expected per-record log-likelihood across candidates.

    On purely binary adversarial data every candidate that is flat on pairs
    scores identically; a single ternary record already separates them.
    """
    values = [
        expected_record_loglik(dataset, catalog, truth, _mixture_model(catalog, c))
        for c in candidates
    ]
    return float(max(values) - min(values))


def recover_theta_from_binary(design: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Solve design @ theta = logits by least squares; exact for consistent logits.

    ``design`` rows are feature differences of compared responses; the
    logits are log(p / (1-p)) of the observed win rates. Rank-deficient
    designs are rejected.
    """
    design = np.asarray(design, dtype=float)
    logits = np.asarray(logits, dtype=float)
    if design.ndim != 2:
        raise ValueError("design must be a 2-D matrix")
    m, d = design.shape
    if logits.shape != (m,):
        raise ValueError(f"logits must have length {m}")
    rank = int(np.linalg.matrix_rank(design))
    if rank < d:
        raise RankError(
            f"design has rank {rank} < {d}; comparisons do not span the feature space"
        )
    theta, *_ = np.linalg.lstsq(design, logits, rcond=None)
    return theta


def recovery_catalog(theta: np.ndarray, n_responses: int = 4, reward_spread: float = 3.0,
                     prompt: str = "q0") -> Catalog:
    """One-prompt catalog whose rewards under theta are evenly spaced.

    Response j gets features collinear with theta scaled so that its
    reward equals j * reward_spread / (n_responses - 1).
    """
    theta = np.asarray(theta, dtype=float)
    norm2 = float(theta @ theta)
    if norm2 == 0.0:
        raise ValueError("theta must be nonzero")
    levels = np.linspace(0.0, reward_spread, n_responses)
    items = [(f"r{j}", (c / norm2) * theta) for j, c in enumerate(levels)]
    return Catalog.build({prompt: items})


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one mixture-recovery experiment."""

    eta_error: tuple[float, ...]
    margin_correlation: float
    loglik_true: float
    loglik_fit: float
    expected_loglik_fit: float
    expected_loglik_null: float
    permutation: tuple[int, ...]
    n: int
    seed: int
    choice_set_size: int

    def to_json_dict(self) -> dict:
        return {
            "eta_error": list(self.eta_error),
            "margin_correlation": self.margin_correlation,
            "loglik_true": self.loglik_true,
            "loglik_fit": self.loglik_fit,
            "expected_loglik_fit": self.expected_loglik_fit,
            "expected_loglik_null": self.expected_loglik_null,
            "permutation": list(self.permutation),
            "n": self.n,
            "seed": self.seed,
            "choice_set_size": self.choice_set_size,
        }


def _all_margins(table: ScoreTable, catalog: Catalog) -> np.ndarray:
    """s(y1) - s(y2) for every response pair, y1 listed first, prompt by prompt."""
    pairs = [(s, np.triu_indices(len(s), 1)) for s in map(table.scores.get, catalog.prompts)]
    return np.concatenate([s[i] - s[j] for s, (i, j) in pairs])


def ternary_recovery_experiment(
    theta: np.ndarray,
    n: int,
    seed: int,
    em_config: Mapping | None = None,
    *,
    choice_set_size: int = 3,
    catalog: Catalog | None = None,
    n_responses: int = 4,
    reward_spread: float = 3.0,
) -> RecoveryReport:
    """Simulate the adversarial pair, fit a two-type mixture, report recovery.

    With ternary choice sets the fitted margins should track the true
    margins and the mixture weights should approach one half each; with
    binary sets the fitted model cannot beat the coin-flip predictor in
    expectation, whatever the sample size.
    """
    theta = np.asarray(theta, dtype=float)
    if catalog is None:
        catalog = recovery_catalog(theta, n_responses, reward_spread)
    population = make_adversarial_pair(theta)
    dataset = simulate_dataset(
        catalog, population, n=n, m=1, choice_set_size=choice_set_size, rng_seed=seed
    )

    config = {
        "kappa": 0.1,
        "max_iters": 80,
        "tol": 1e-10,
        "init": "kmeans_winner_features",
        "seed": seed,
        "restarts": 1,
    }
    if em_config:
        config.update(em_config)
    config.pop("k", None)
    state = run_em(dataset, catalog, k=2, **config)

    kappa = state.ensemble.kappa
    true_tables = [
        optimal_table_for_type(catalog, t.theta, kappa) for t in population.types
    ]
    true_margins = [_all_margins(t, catalog) for t in true_tables]
    fit_margins = [_all_margins(t, catalog) for t in state.ensemble.tables]

    def match_cost(perm):
        return sum(
            float(np.abs(fit_margins[j] - true_margins[i]).sum())
            for i, j in enumerate(perm)
        )

    perm = min(((0, 1), (1, 0)), key=match_cost)
    stacked_fit = np.concatenate([fit_margins[j] for j in perm])
    stacked_true = np.concatenate(true_margins)
    denom = stacked_fit.std() * stacked_true.std()
    corr = (
        float(np.corrcoef(stacked_fit, stacked_true)[0, 1]) if denom > 0 else 0.0
    )
    eta_err = tuple(
        abs(float(state.ensemble.eta[j]) - 0.5) for j in perm
    )

    from .emdpo import mixture_loglik

    true_ensemble = ScoreEnsemble(tables=tuple(true_tables), eta=np.array([0.5, 0.5]))
    loglik_true = mixture_loglik(dataset, catalog, true_ensemble)
    loglik_fit = state.loglik

    null = Population.from_weights([np.zeros_like(theta)], [1.0])
    exp_fit = expected_record_loglik(
        dataset, catalog, population, _mixture_model(catalog, state.ensemble)
    )
    exp_null = expected_record_loglik(
        dataset, catalog, population, _mixture_model(catalog, null)
    )
    return RecoveryReport(
        eta_error=eta_err,
        margin_correlation=corr,
        loglik_true=loglik_true,
        loglik_fit=loglik_fit,
        expected_loglik_fit=exp_fit,
        expected_loglik_null=exp_null,
        permutation=perm,
        n=n,
        seed=seed,
        choice_set_size=choice_set_size,
    )
