"""Reference semantics that the package no longer carries, kept for tests.

Each definition is former package code: an earlier implementation that
tests check the current code against, or a helper that only tests call
(one choice set's probabilities, one table's KL and margins, the E-step
and eta update of a whole dataset, a zero table).
"""

from typing import Sequence

import numpy as np

from hetpref.aggregate import _FlatEnsemble
from hetpref.emdpo import ROW_SUM_ATOL, CompiledRecords, _e_step_compiled, fit_preference_table
from hetpref.errors import HetprefError
from hetpref.policy import (
    ReferencePolicy,
    ScoreEnsemble,
    ScoreTable,
    _check_mixture_weights,
    _flat_prompt_weights,
    gauge_fix,
    policy_probs,
    uniform_prompt_weights,
)
from hetpref.rewards import (
    Catalog,
    Population,
    choice_weights,
    segment_log_softmax,
    softmax,
    softmax_lse,
)
from hetpref.simulate import Dataset


# Former emdpo.py: the pattern-level Newton terms and their Hessian layout.
def hess_pos(compiled):
    """Each pattern block's (L, L, P) pair places in the flat Hessian
    buffer laid out by ``compiled.groups``."""
    starts, sizes = compiled.catalog.offsets[:-1], np.diff(compiled.catalog.offsets)
    by_size = np.argsort(sizes, kind="stable")
    hstart = np.empty_like(sizes)
    hstart[by_size] = np.cumsum(sizes[by_size] ** 2) - sizes[by_size] ** 2
    out = []
    for _, idx in compiled.blocks:
        own = compiled.prompt_of[idx[0]]
        loc = idx - starts[own]
        out.append(hstart[own] + loc[:, None, :] * sizes[own] + loc[None, :, :])
    return out


def newton_terms(compiled, x, weights):
    """Weighted log-likelihood per prompt, its gradient and negated Hessian.

    ``weights`` holds one multiplicity per pattern (see ``inverse``).
    The negated Hessian is the sum over patterns of c (diag(p) - p p^T),
    returned as the flat buffer laid out by ``groups``.
    """
    val = np.zeros(len(compiled.catalog.prompts))
    grad = np.zeros(compiled.size)
    hess = np.zeros(compiled.hess_size)
    for (span, idx), pos in zip(compiled.blocks, hess_pos(compiled)):
        c = weights[span]
        s = x[idx]
        p, lse = softmax_lse(s, axis=0)
        cp = c * p
        val += np.bincount(compiled.prompt_of[idx[0]], c * (s[0] - lse), minlength=val.size)
        grad += np.bincount(idx[0], c, minlength=compiled.size)
        grad -= np.bincount(idx.ravel(), cp.ravel(), minlength=compiled.size)
        # c p_i (delta_ij - p_j): -c p_i p_j everywhere, then the diagonal,
        # rows i * (L + 1) of the (L * L, patterns) view, set to c p_i (1 - p_i)
        pairs = cp[:, None, :] * -p[None, :, :]
        pairs.reshape(-1, p.shape[1])[::len(idx) + 1] = cp * (1.0 - p)
        hess += np.bincount(pos.ravel(), pairs.ravel(), minlength=compiled.hess_size)
    return val, grad, hess


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
    table = zero_table(catalog, kappa)
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


# Former errors.py: no package code raises it.
class InvalidChoiceError(HetprefError, ValueError):
    """A choice-set precondition was violated (duplicate pair, chosen not in set, ...)."""


# Former rewards.py: single-set calls to choice_weights.
def check_choice_set(choice_set: Sequence[str]) -> None:
    """A choice set holds at least 2 distinct responses, else InvalidChoiceError."""
    if len(choice_set) < 2 or len(set(choice_set)) != len(choice_set):
        raise InvalidChoiceError(
            f"choice set must hold >= 2 distinct responses, got {list(choice_set)!r}")


def reward(catalog: Catalog, theta: np.ndarray, prompt: str, response: str) -> float:
    """Linear reward theta @ psi(prompt, response)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (catalog.d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({catalog.d},)")
    return float(theta @ catalog.feature(prompt, response))


def exact_choice_weights(
    catalog: Catalog,
    theta_or_population: np.ndarray | Population,
    prompt: str,
    choice_set: Sequence[str],
) -> np.ndarray:
    """Full winner distribution over a choice set (softmax or mixture thereof)."""
    check_choice_set(choice_set)
    idx = [catalog.response_index(prompt, y) for y in choice_set]
    pop = Population.of(theta_or_population)
    return choice_weights(catalog.features(prompt)[idx][None] @ pop.thetas.T, pop.etas)[0]


def choice_prob(
    catalog: Catalog,
    theta: np.ndarray | Population,
    prompt: str,
    choice_set: Sequence[str],
    chosen: str,
) -> float:
    """P(chosen is top pick among choice_set) under theta, or a population's mixture."""
    if chosen not in choice_set:
        raise InvalidChoiceError(f"chosen {chosen!r} not in choice set")
    probs = exact_choice_weights(catalog, theta, prompt, choice_set)
    return float(probs[list(choice_set).index(chosen)])


def pairwise_prob(
    catalog: Catalog, theta: np.ndarray, prompt: str, y1: str, y2: str
) -> float:
    """P(y1 beats y2) = sigmoid of the reward difference."""
    return choice_prob(catalog, theta, prompt, (y1, y2), y1)


def mixture_choice_prob(
    catalog: Catalog,
    population: Population,
    prompt: str,
    choice_set: Sequence[str],
    chosen: str,
) -> float:
    """Population-level choice probability: eta-weighted average over types."""
    return choice_prob(catalog, population, prompt, choice_set, chosen)


# Former policy.py; zero_table was the classmethod ScoreTable.zeros.
def zero_table(catalog: Catalog, kappa: float) -> ScoreTable:
    return ScoreTable(
        kappa=kappa,
        scores={p: np.zeros(len(catalog.responses(p))) for p in catalog.prompts},
    )


def multi_item_pref_prob(
    table: ScoreTable,
    catalog: Catalog,
    prompt: str,
    winner: str,
    rejected: Sequence[str],
) -> float:
    """P(winner beats the rejected set): softmax of scores over the comparison set."""
    cset = (winner, *rejected)
    check_choice_set(cset)
    idx = [catalog.response_index(prompt, y) for y in cset]
    return float(softmax(table.scores[prompt][idx])[0])


def reward_margin(
    table: ScoreTable, catalog: Catalog, prompt: str, winner: str, loser: str
) -> float:
    """Implicit-reward margin s(x, winner) - s(x, loser)."""
    s = table.scores[prompt]
    return float(
        s[catalog.response_index(prompt, winner)] - s[catalog.response_index(prompt, loser)]
    )


def kl_to_ref(
    table: ScoreTable,
    ref: ReferencePolicy,
    catalog: Catalog,
    prompt_weights: np.ndarray,
) -> float:
    """kappa-scaled KL of the table's policy from the reference, exact enumeration."""
    w = _flat_prompt_weights(catalog, prompt_weights)
    log_ref = np.log(catalog.flatten(ref.probs))
    log_pi = segment_log_softmax(
        log_ref + catalog.flatten(table.scores) / table.kappa, catalog.offsets
    )
    return table.kappa * float(np.sum(w * np.exp(log_pi) * (log_pi - log_ref)))


def mixture_policy_probs(
    ensemble: ScoreEnsemble,
    weights: np.ndarray,
    ref: ReferencePolicy,
    prompt: str,
) -> np.ndarray:
    """Convex combination of the member policies' distributions."""
    members = np.stack([policy_probs(t, ref, prompt) for t in ensemble.tables])
    return _check_mixture_weights(ensemble, weights) @ members


# Former aggregate.py.
def policy_distributions(
    policy: ScoreTable | Sequence[float],
    ensemble: ScoreEnsemble,
    ref: ReferencePolicy,
    catalog: Catalog,
) -> dict[str, np.ndarray]:
    """Materialize per-prompt response distributions of a free score table
    or of mixture weights over the ensemble."""
    flat = _FlatEnsemble(ensemble, ref, catalog, uniform_prompt_weights(catalog))
    return catalog.split(flat.distribution(policy))


# Former emdpo.py: E-step and eta update on a dataset.
def e_step(dataset: Dataset, catalog: Catalog, ensemble: ScoreEnsemble) -> np.ndarray:
    """Posterior over types per annotator, computed with log-sum-exp."""
    return _e_step_compiled(CompiledRecords.from_dataset(dataset, catalog), ensemble)[0]


def m_step_eta(gamma: np.ndarray) -> np.ndarray:
    """Closed-form mixture-weight update: column means of the posteriors."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2:
        raise ValueError("responsibilities must be an n x K matrix")
    if np.any(gamma < 0) or np.any(np.abs(gamma.sum(axis=1) - 1.0) > ROW_SUM_ATOL):
        raise ValueError("every responsibility row must lie on the simplex")
    return gamma.mean(axis=0)
