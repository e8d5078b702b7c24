"""Evaluation metrics and the non-EM baseline trainers.

Margins and accuracies run over binary evaluation records; regret metrics
enumerate the catalog exactly. Grouped evaluation uses the simulation's
hidden type labels, which exist for exactly this purpose.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .aggregate import regrets_of_policy
from .emdpo import lloyd_kmeans, m_step_policy, mean_winner_features, run_em
from .errors import InputError
from .policy import ReferencePolicy, ScoreEnsemble, ScoreTable
from .rewards import Catalog
from .simulate import Dataset

__all__ = [
    "max_mean_reward_margin",
    "accuracy",
    "max_regret",
    "run_vanilla_dpo",
    "run_cluster_dpo",
    "split_by_true_type",
    "mean_margin",
]


def _margins(table: ScoreTable, catalog: Catalog, dataset: Dataset) -> np.ndarray:
    """Implicit-reward margin of each binary record's winner over its loser."""
    if np.any(np.diff(dataset.offsets) != 2):
        raise ValueError("margin/accuracy metrics need binary records")
    x = catalog.check_scores(table.scores)[dataset.catalog_index(catalog)[dataset.items]]
    return x[0::2] - x[1::2]


def mean_margin(table: ScoreTable, catalog: Catalog, dataset: Dataset) -> float:
    """Average implicit-reward margin of winner over loser."""
    return float(np.mean(_margins(table, catalog, dataset)))


def max_mean_reward_margin(
    ensemble: ScoreEnsemble, catalog: Catalog, dataset: Dataset
) -> float:
    """Best ensemble member for this group: max over members of the mean margin."""
    return max(mean_margin(t, catalog, dataset) for t in ensemble.tables)


def accuracy(table: ScoreTable, catalog: Catalog, dataset: Dataset) -> float:
    """Fraction of records ranked correctly; exact ties count one half."""
    margins = _margins(table, catalog, dataset)
    return float(((margins > 0).sum() + 0.5 * (margins == 0).sum()) / len(margins))


def max_regret(
    policy,
    ensemble: ScoreEnsemble,
    ref: ReferencePolicy,
    catalog: Catalog,
    prompt_weights: np.ndarray,
) -> float:
    """Worst-case subgroup regret of a candidate policy."""
    return float(regrets_of_policy(policy, ensemble, ref, catalog, prompt_weights).max())


def run_vanilla_dpo(
    dataset: Dataset,
    catalog: Catalog,
    kappa: float = 0.1,
    grad_tol: float = 1e-8,
    max_iter: int = 1000,
    on_nonconvergence: str = "raise",
) -> ScoreTable:
    """Single preference fit on the pooled data; identical to EM with one type."""
    state = run_em(dataset, catalog, k=1, kappa=kappa, max_iters=1, grad_tol=grad_tol,
                   inner_max_iter=max_iter, on_nonconvergence=on_nonconvergence)
    return state.ensemble.tables[0]


def run_cluster_dpo(
    dataset: Dataset,
    catalog: Catalog,
    k: int,
    kappa: float = 0.1,
    seed: int = 0,
    grad_tol: float = 1e-8,
    max_iter: int = 1000,
    on_nonconvergence: str = "raise",
) -> ScoreEnsemble:
    """Hard k-means on mean winner features, then one independent fit per cluster."""
    labels, _ = lloyd_kmeans(mean_winner_features(dataset, catalog), k, seed)
    members = np.eye(k)[labels]
    tables = m_step_policy(dataset, catalog, members, kappa, None, grad_tol, max_iter,
                           on_nonconvergence)
    return ScoreEnsemble(tables=tuple(tables), eta=members.mean(axis=0))


def binarize_records(dataset: Dataset) -> Dataset:
    """Expand each record into one binary record per rejected response.

    A top choice among a set implies a pairwise win over every rejected
    member; margin and accuracy metrics are defined on such pairs.
    """
    starts, lengths = dataset.offsets[:-1], np.diff(dataset.offsets)
    rec = np.repeat(np.arange(lengths.size), lengths - 1)
    rejected = np.flatnonzero(np.arange(dataset.items.size) != np.repeat(starts, lengths))
    items = np.column_stack([dataset.items[starts[rec]], dataset.items[rejected]]).ravel()
    return replace(dataset, rows=dataset.rows[rec], offsets=np.arange(items.size + 1, step=2),
                   items=items, choice_set_size=2)


def split_by_true_type(dataset: Dataset) -> dict[int, Dataset]:
    """Oracle grouping for evaluation: one sub-dataset per hidden type."""
    labels = dataset.true_type
    if np.any(labels < 0):
        raise InputError(f"annotator {dataset.ids[np.argmax(labels < 0)]} has no true_type "
                         "label; grouping by type needs every label")
    groups = {}
    for t in np.unique(labels).tolist():
        member = labels == t
        keep = member[dataset.rows]
        groups[t] = replace(
            dataset, ids=dataset.ids[member], true_type=labels[member],
            rows=(np.cumsum(member) - 1)[dataset.rows[keep]],
            offsets=np.concatenate([[0], np.cumsum(np.diff(dataset.offsets)[keep])]),
            items=dataset.items[np.repeat(keep, np.diff(dataset.offsets))],
        )
    return groups
