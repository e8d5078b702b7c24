"""Executable checks of what preference data can and cannot reveal.

Binary comparisons from an equal mixture of opposite preference vectors
are indistinguishable from coin flips, so the mixture is unrecoverable no
matter how many annotators respond. Choice sets of three or more break
the symmetry; the experiments here demonstrate both facts numerically,
plus exact recovery of a single preference vector from many diverse
binary comparisons.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .emdpo import mixture_loglik, run_em
from .errors import ConfigError, RankError
from .policy import ScoreEnsemble, ScoreTable, optimal_table_for_type
from .rewards import Catalog, Population, choice_weights
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
    p = _winner_weights(catalog, population, catalog.choice_sets(2))
    return float(np.abs(p[:, 0] - 0.5).max())


def _winner_weights(catalog: Catalog, mixture: Population | ScoreEnsemble,
                    sets: np.ndarray) -> np.ndarray:
    """Winner distributions of flat choice sets under a population or a fitted ensemble."""
    if isinstance(mixture, Population):
        return choice_weights(catalog.flat_features[sets] @ mixture.thetas.T, mixture.etas)
    scores = np.stack([t.scores for t in mixture.tables], axis=1)
    return choice_weights(scores[sets], mixture.eta)


def expected_record_loglik(
    dataset: Dataset,
    catalog: Catalog,
    truth: Population,
    model: Population | ScoreEnsemble,
) -> float:
    """Average over records of E_{winner ~ truth}[log P_model(winner | set)].

    The expectation replaces the sampled winner with the exact winner
    distribution, giving the infinite-data (per-record cross entropy) form
    of the log-likelihood for the given choice sets. Per set size, the
    distinct choice sets, each with its responses sorted by name, go
    through :func:`~hetpref.rewards.choice_weights` once for the truth and
    once for the model.
    """
    flat = dataset.catalog_index(catalog)
    by_name = np.array(sorted(range(len(dataset.vocab)), key=dataset.vocab.__getitem__),
                       dtype=np.intp)
    rank = np.empty_like(by_name)
    rank[by_name] = np.arange(by_name.size)
    values = np.empty(dataset.rows.size)
    for recs, sets in dataset.sets_by_size():
        sets = np.sort(rank[sets], axis=1)
        group, first = row_groups(sets)
        sets = flat[by_name[sets[first]]]
        p = _winner_weights(catalog, truth, sets)
        logq = np.log(_winner_weights(catalog, model, sets))
        # one dot per set, summed in name order
        values[recs] = (p[:, None, :] @ logq[:, :, None])[:, 0, 0][group]
    # np.cumsum adds in record order, as the running sum it replaces did
    return float(np.cumsum(values)[-1] / values.size)


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
    values = [expected_record_loglik(dataset, catalog, truth, c) for c in candidates]
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


def recovery_catalog(theta: np.ndarray, n_responses: int = 4,
                     reward_spread: float = 3.0) -> Catalog:
    """One-prompt catalog (prompt ``q0``) whose rewards under theta are evenly spaced.

    Response j gets features collinear with theta scaled so that its
    reward equals j * reward_spread / (n_responses - 1).
    """
    theta = np.asarray(theta, dtype=float)
    norm2 = float(theta @ theta)
    if norm2 == 0.0:
        raise ValueError("theta must be nonzero")
    levels = np.linspace(0.0, reward_spread, n_responses)
    items = [(f"r{j}", (c / norm2) * theta) for j, c in enumerate(levels)]
    return Catalog.build({"q0": items})


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
        return asdict(self)


def _all_margins(table: ScoreTable, catalog: Catalog) -> np.ndarray:
    """s(y1) - s(y2) for every response pair, y1 listed first, prompt by prompt."""
    pairs = table.scores[catalog.choice_sets(2)]
    return pairs[:, 0] - pairs[:, 1]


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
    if em_config and "k" in em_config:
        raise ConfigError("em_config must not set 'k': the experiment fits two types")
    theta = np.asarray(theta, dtype=float)
    if catalog is None:
        catalog = recovery_catalog(theta, n_responses, reward_spread)
    population = make_adversarial_pair(theta)
    dataset = simulate_dataset(
        catalog, population, n=n, m=1, choice_set_size=choice_set_size, rng_seed=seed
    )
    config = {"kappa": 0.1, "max_iters": 80, "tol": 1e-10, "init": "kmeans_winner_features",
              "seed": seed, "restarts": 1, **(em_config or {})}
    state = run_em(dataset, catalog, k=2, **config)

    kappa = state.ensemble.kappa
    true_tables = [optimal_table_for_type(catalog, t.theta, kappa) for t in population.types]
    true_margins = [_all_margins(t, catalog) for t in true_tables]
    fit_margins = [_all_margins(t, catalog) for t in state.ensemble.tables]

    def match_cost(perm):
        return sum(float(np.abs(fit_margins[j] - true_margins[i]).sum())
                   for i, j in enumerate(perm))

    perm = min(((0, 1), (1, 0)), key=match_cost)
    stacked_fit = np.concatenate([fit_margins[j] for j in perm])
    stacked_true = np.concatenate(true_margins)
    denom = stacked_fit.std() * stacked_true.std()
    corr = float(np.corrcoef(stacked_fit, stacked_true)[0, 1]) if denom > 0 else 0.0

    true_ensemble = ScoreEnsemble(tables=tuple(true_tables), eta=np.array([0.5, 0.5]))
    null = Population.from_weights([np.zeros_like(theta)], [1.0])
    return RecoveryReport(
        eta_error=tuple(abs(float(state.ensemble.eta[j]) - 0.5) for j in perm),
        margin_correlation=corr,
        loglik_true=mixture_loglik(dataset, catalog, true_ensemble),
        loglik_fit=state.loglik,
        expected_loglik_fit=expected_record_loglik(dataset, catalog, population, state.ensemble),
        expected_loglik_null=expected_record_loglik(dataset, catalog, population, null),
        permutation=perm, n=n, seed=seed, choice_set_size=choice_set_size,
    )
