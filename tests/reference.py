"""Reference semantics that the package no longer carries, kept for tests.

Each definition is the former package code, so that tests can check the
current code against it.
"""

import numpy as np

from hetpref.aggregate import _FlatEnsemble
from hetpref.emdpo import CompiledRecords, fit_preference_table
from hetpref.policy import ScoreTable, gauge_fix, uniform_prompt_weights
from hetpref.rewards import softmax_lse


def record_counts(compiled, record_weights):
    """One weight per record summed onto its pattern."""
    return np.bincount(compiled.inverse, record_weights, minlength=compiled.n_patterns)


def fit_record_weights(compiled, record_weights, kappa, init_table=None, grad_tol=1e-8,
                       max_iter=1000):
    """The former record-weight fit: :func:`fit_preference_table` on the
    record weights summed onto patterns, from ``init_table`` or zeros.
    Returns the gauge-fixed table and the final gradient max norm."""
    record_weights = np.asarray(record_weights, dtype=float)
    if record_weights.shape != (compiled.n_records,):
        raise ValueError("one weight per record required")
    counts = np.bincount(compiled.inverse, record_weights, minlength=compiled.n_patterns)
    x = (np.zeros(compiled.size) if init_table is None
         else compiled.catalog.flatten(init_table.scores))
    x, grad_norm = fit_preference_table(compiled, counts, x, grad_tol=grad_tol,
                                        max_iter=max_iter)
    return gauge_fix(ScoreTable(kappa=kappa, scores=compiled.catalog.split(x))), grad_norm


def minimax_policy_lightweight_by_records(dataset, catalog, ensemble, gamma, ref, iters=20,
                                          step=0.01, kappa=None, prompt_weights=None,
                                          inner_steps=40):
    """The former lightweight aggregator: each round collapses the posteriors
    into one weight per annotator, fits a table to the record weights and
    takes every type's regret of that table."""
    if kappa is None:
        kappa = ensemble.kappa
    pw = uniform_prompt_weights(catalog) if prompt_weights is None else prompt_weights
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (dataset.n, ensemble.k):
        raise ValueError("gamma must be n x K for this dataset/ensemble")

    compiled = CompiledRecords.from_dataset(dataset, catalog)
    flat = _FlatEnsemble(ensemble, ref, catalog, pw)

    k = ensemble.k
    w = np.full(k, 1.0 / k)
    log_w = np.log(w)
    table = ScoreTable.zeros(catalog, kappa)
    trace = []
    for t in range(1, iters + 1):
        annotator_w = gamma @ w
        table, _ = fit_record_weights(
            compiled,
            annotator_w[compiled.record_rows],
            kappa,
            init_table=table,
            grad_tol=1e-10,
            max_iter=inner_steps,
        )
        regrets = flat.regrets(table)
        log_w = log_w + step * regrets
        w, lse = softmax_lse(log_w)
        log_w -= lse
        trace.append(
            {
                "iteration": t,
                "w": [float(x) for x in w],
                "regrets": [float(r) for r in regrets],
                "max_regret": float(regrets.max()),
            }
        )
    return table, trace
