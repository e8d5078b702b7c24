"""Evaluation metrics and the non-EM baseline trainers.

Margins and accuracies run over binary evaluation records; regret metrics
enumerate the catalog exactly. Grouped evaluation uses the simulation's
hidden type labels, which exist for exactly this purpose.
"""

from __future__ import annotations

import numpy as np

from .aggregate import regret_of_policy
from .emdpo import (
    CompiledRecords,
    _m_step_policy_impl,
    lloyd_kmeans,
    mean_winner_features,
    run_em,
)
from .policy import ReferencePolicy, ScoreEnsemble, ScoreTable, reward_margin
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


def _binary_pairs(dataset: Dataset, catalog: Catalog) -> list[tuple[str, str, str]]:
    pairs = []
    for rec in dataset.records():
        if len(rec.rejected) != 1:
            raise ValueError("margin/accuracy metrics need binary records")
        pairs.append((rec.prompt, rec.winner, rec.rejected[0]))
    return pairs


def mean_margin(table: ScoreTable, catalog: Catalog, dataset: Dataset) -> float:
    """Average implicit-reward margin of winner over loser."""
    pairs = _binary_pairs(dataset, catalog)
    return float(
        np.mean([reward_margin(table, catalog, p, w, l) for p, w, l in pairs])
    )


def max_mean_reward_margin(
    ensemble: ScoreEnsemble, catalog: Catalog, dataset: Dataset
) -> float:
    """Best ensemble member for this group: max over members of the mean margin."""
    return max(mean_margin(t, catalog, dataset) for t in ensemble.tables)


def accuracy(table: ScoreTable, catalog: Catalog, dataset: Dataset) -> float:
    """Fraction of records ranked correctly; exact ties count one half."""
    pairs = _binary_pairs(dataset, catalog)
    margins = np.array([reward_margin(table, catalog, p, w, l) for p, w, l in pairs])
    return float(((margins > 0).sum() + 0.5 * (margins == 0).sum()) / len(margins))


def max_regret(
    policy,
    ensemble: ScoreEnsemble,
    ref: ReferencePolicy,
    catalog: Catalog,
    prompt_weights: np.ndarray,
) -> float:
    """Worst-case subgroup regret of a candidate policy."""
    return max(
        regret_of_policy(policy, ensemble, ref, catalog, prompt_weights, k)
        for k in range(ensemble.k)
    )


def run_vanilla_dpo(
    dataset: Dataset,
    catalog: Catalog,
    kappa: float = 0.1,
    grad_tol: float = 1e-8,
    max_iter: int = 1000,
    on_nonconvergence: str = "raise",
) -> ScoreTable:
    """Single preference fit on the pooled data; identical to EM with one type."""
    state = run_em(
        dataset,
        catalog,
        k=1,
        kappa=kappa,
        max_iters=1,
        grad_tol=grad_tol,
        inner_max_iter=max_iter,
        on_nonconvergence=on_nonconvergence,
    )
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
    tables, _ = _m_step_policy_impl(
        CompiledRecords.from_dataset(dataset, catalog), members, kappa, None,
        grad_tol, max_iter, on_nonconvergence,
    )
    return ScoreEnsemble(tables=tuple(tables), eta=members.mean(axis=0))


def binarize_records(dataset: Dataset) -> Dataset:
    """Expand each record into one binary record per rejected response.

    A top choice among a set implies a pairwise win over every rejected
    member; margin and accuracy metrics are defined on such pairs.
    """
    from .simulate import AnnotatorData, PreferenceRecord

    annotators = []
    for a in dataset.annotators:
        records = []
        for r in a.records:
            for loser in r.rejected:
                records.append(
                    PreferenceRecord(
                        annotator=a.annotator,
                        prompt=r.prompt,
                        winner=r.winner,
                        rejected=(loser,),
                    )
                )
        annotators.append(
            AnnotatorData(annotator=a.annotator, records=tuple(records), true_type=a.true_type)
        )
    return Dataset(
        annotators=tuple(annotators),
        catalog_hash=dataset.catalog_hash,
        seed=dataset.seed,
        m=dataset.m,
        choice_set_size=2,
    )


def split_by_true_type(dataset: Dataset) -> dict[int, Dataset]:
    """Oracle grouping for evaluation: one sub-dataset per hidden type."""
    groups: dict[int, list] = {}
    for a in dataset.annotators:
        if a.true_type is None:
            raise ValueError("dataset carries no true_type labels")
        groups.setdefault(a.true_type, []).append(a)
    return {
        t: Dataset(
            annotators=tuple(members),
            catalog_hash=dataset.catalog_hash,
            seed=dataset.seed,
            m=dataset.m,
            choice_set_size=dataset.choice_set_size,
        )
        for t, members in sorted(groups.items())
    }
