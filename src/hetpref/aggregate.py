"""Fair aggregation of a policy ensemble under worst-case subgroup regret.

Regret of a candidate policy for type k is the gap in expected implicit
reward (type-k scores) between type k's own optimal policy and the
candidate, enumerated exactly over the catalog. Three aggregators are
provided: an optimistic-Hedge solver for the affine-mixture matrix game,
a lightweight loop that alternates weighted preference fits with
multiplicative weight updates, and direct descent on the worst-case
objective.

The output policy class is not canonical: the matrix-game solver returns
mixture weights over the ensemble (a policy in its affine hull), while
the lightweight and direct optimizers return a free score table. Free
tables can only do better on the worst-case objective; pick the solver
whose deployment story fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import logsumexp

from .emdpo import CompiledRecords, fit_preference_table
from .errors import StepSizeError
from .policy import (
    ReferencePolicy,
    ScoreEnsemble,
    ScoreTable,
    _check_prompt_weights,
    gauge_fix,
    log_policy_probs,
    mixture_policy_probs,
    policy_probs,
)
from .rewards import Catalog
from .simulate import Dataset

__all__ = [
    "GameSolution",
    "regret_of_policy",
    "discrepancy_matrix",
    "regret_matrix",
    "solve_regret_game",
    "brute_force_game",
    "minimax_policy_lightweight",
    "minimax_policy_direct",
    "uniform_mixture",
    "policy_distributions",
]


def policy_distributions(
    policy: ScoreTable | Sequence[float] | Mapping[str, np.ndarray] | ReferencePolicy,
    ensemble: ScoreEnsemble,
    ref: ReferencePolicy,
    catalog: Catalog,
) -> dict[str, np.ndarray]:
    """Materialize per-prompt response distributions for any policy flavor.

    Accepts a free score table, mixture weights over the ensemble, an
    explicit map of distributions, or a reference policy.
    """
    if isinstance(policy, ScoreTable):
        return {p: policy_probs(policy, ref, p) for p in catalog.prompts}
    if isinstance(policy, ReferencePolicy):
        return dict(policy.probs)
    if isinstance(policy, Mapping):
        return {p: np.asarray(policy[p], dtype=float) for p in catalog.prompts}
    weights = np.asarray(policy, dtype=float)
    return {p: mixture_policy_probs(ensemble, weights, ref, p) for p in catalog.prompts}


def regret_of_policy(
    policy,
    ensemble: ScoreEnsemble,
    ref: ReferencePolicy,
    catalog: Catalog,
    prompt_weights: np.ndarray,
    k: int,
) -> float:
    """Type-k regret: expected type-k score under its optimum minus under policy."""
    w = _check_prompt_weights(catalog, prompt_weights)
    dists = policy_distributions(policy, ensemble, ref, catalog)
    table_k = ensemble.tables[k]
    total = 0.0
    for wx, prompt in zip(w, catalog.prompts):
        if wx == 0.0:
            continue
        s_k = table_k.scores[prompt]
        own = policy_probs(table_k, ref, prompt)
        total += wx * float(own @ s_k - dists[prompt] @ s_k)
    return total


def discrepancy_matrix(
    ensemble: ScoreEnsemble,
    ref: ReferencePolicy,
    catalog: Catalog,
    prompt_weights: np.ndarray,
) -> np.ndarray:
    """(K+1) x K matrix of expected log policy ratios; row 0 is the null row.

    Entry [z, z'] (z >= 1) is the expectation, over prompts and responses
    drawn from member z''s policy, of log(pi_z / pi_ref).
    """
    w = _check_prompt_weights(catalog, prompt_weights)
    k = ensemble.k
    out = np.zeros((k + 1, k))
    dists = [
        {p: policy_probs(t, ref, p) for p in catalog.prompts} for t in ensemble.tables
    ]
    log_dists = [
        {p: log_policy_probs(t, ref, p) for p in catalog.prompts}
        for t in ensemble.tables
    ]
    for z in range(k):
        for zp in range(k):
            acc = 0.0
            for wx, prompt in zip(w, catalog.prompts):
                if wx == 0.0:
                    continue
                log_ratio = log_dists[z][prompt] - np.log(ref.probs[prompt])
                acc += wx * float(dists[zp][prompt] @ log_ratio)
            out[z + 1, zp] = acc
    return out


def regret_matrix(discrepancies: np.ndarray) -> np.ndarray:
    """R[k, k'] = L[k, k] - L[k, k']; the adversary's payoff matrix."""
    L = np.asarray(discrepancies, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1] + 1:
        raise ValueError("discrepancy matrix must be (K+1) x K")
    if not np.allclose(L[0], 0.0):
        raise ValueError("row 0 of the discrepancy matrix must be zero")
    k = L.shape[1]
    R = np.empty_like(L)
    for row in range(k + 1):
        # row 0 corresponds to the null type whose discrepancies are zero
        diag = 0.0 if row == 0 else L[row, row - 1]
        R[row] = diag - L[row]
    return R


@dataclass(frozen=True)
class GameSolution:
    """Averaged-iterate solution of the (K+1) x K regret game."""

    w: np.ndarray
    p: np.ndarray
    value: float
    gap_trace: np.ndarray
    w_avg_trace: np.ndarray
    p_avg_trace: np.ndarray
    step: float
    iters: int


def solve_regret_game(
    R: np.ndarray, iters: int, step: float | None = None
) -> GameSolution:
    """Optimistic Hedge vs. optimistic Hedge on the matrix game min_w max_p p'Rw.

    Both players use one-step gradient prediction; the returned solution is
    the average of the iterates, and ``value`` is the adversary's best
    response to the averaged mixture weights (an upper bound on the
    achieved minimax value).
    """
    R = np.asarray(R, dtype=float)
    if not np.all(np.isfinite(R)):
        raise ValueError("regret matrix must be finite")
    if iters < 2:
        raise ValueError("iters must be >= 2")
    n_rows, k = R.shape
    if step is None:
        scale = float(np.abs(R).max())
        step = 0.05 / scale if scale > 0 else 0.05

    log_w = np.full(k, -np.log(k))
    log_p = np.full(n_rows, -np.log(n_rows))
    w = np.exp(log_w)
    p = np.exp(log_p)
    w_prev, p_prev = w.copy(), p.copy()

    w_sum = np.zeros(k)
    p_sum = np.zeros(n_rows)
    gap_trace = np.empty(iters)
    w_avg_trace = np.empty((iters, k))
    p_avg_trace = np.empty((iters, n_rows))

    for t in range(1, iters + 1):
        gw = R.T @ (2.0 * p - p_prev)
        gp = R @ (2.0 * w - w_prev)
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
        w_avg = w_sum / t
        p_avg = p_sum / t
        w_avg_trace[t - 1] = w_avg
        p_avg_trace[t - 1] = p_avg
        gap_trace[t - 1] = (R @ w_avg).max() - (p_avg @ R).min()

    w_star = w_sum / iters
    p_star = p_sum / iters
    return GameSolution(
        w=w_star,
        p=p_star,
        value=float((R @ w_star).max()),
        gap_trace=gap_trace,
        w_avg_trace=w_avg_trace,
        p_avg_trace=p_avg_trace,
        step=step,
        iters=iters,
    )


def _simplex_grid(k: int, n: int) -> np.ndarray:
    """All weight vectors with denominator n on the (k-1)-simplex."""
    if k == 1:
        return np.ones((1, 1))
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], n, k)
    return np.asarray(out, dtype=float) / n


def brute_force_game(
    R: np.ndarray, resolution: float = 1e-3
) -> tuple[float, np.ndarray]:
    """Independent oracle for the game value: simplex grid plus an exact LP.

    The grid (full resolution for K <= 3, coarser for K = 4) brackets the
    optimum of the convex piecewise-linear objective max_k (Rw)_k; the
    exact minimizer comes from a linear program. Local pattern search
    stalls at the kinks of this objective, so the LP replaces it as the
    refinement step, and the grid value stays as a consistency check.
    """
    from scipy.optimize import linprog

    R = np.asarray(R, dtype=float)
    n_rows, k = R.shape
    if k > 4:
        raise ValueError("brute force oracle supports K <= 4")
    n = int(round(1.0 / resolution)) if k <= 3 else 40
    grid = _simplex_grid(k, n)
    grid_value = float((R @ grid.T).max(axis=0).min())

    # min v  s.t.  Rw <= v,  sum w = 1,  w >= 0
    c = np.zeros(k + 1)
    c[-1] = 1.0
    a_ub = np.hstack([R, -np.ones((n_rows, 1))])
    a_eq = np.zeros((1, k + 1))
    a_eq[0, :k] = 1.0
    res = linprog(
        c, A_ub=a_ub, b_ub=np.zeros(n_rows), A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * k + [(None, None)],
    )
    if not res.success:
        raise RuntimeError(f"LP refinement failed: {res.message}")
    w = np.clip(res.x[:k], 0.0, None)
    w /= w.sum()
    value = float((R @ w).max())
    slack = 2.0 * float(np.abs(R).max()) * k / n + 1e-9
    if not (value <= grid_value + 1e-9 and grid_value - value <= slack):
        raise RuntimeError(
            f"grid value {grid_value} and LP value {value} are inconsistent"
        )
    return value, w


def uniform_mixture(ensemble: ScoreEnsemble) -> np.ndarray:
    """Baseline aggregation: equal weight on every ensemble member."""
    return np.full(ensemble.k, 1.0 / ensemble.k)


def minimax_policy_lightweight(
    dataset: Dataset,
    catalog: Catalog,
    ensemble: ScoreEnsemble,
    gamma: np.ndarray,
    ref: ReferencePolicy,
    iters: int = 20,
    step: float = 0.01,
    kappa: float | None = None,
    prompt_weights: np.ndarray | None = None,
    inner_steps: int = 40,
    clamp_regret: bool = False,
    include_kl_in_weights: bool = False,
) -> tuple[ScoreTable, list[dict]]:
    """Alternate weighted preference fits with multiplicative weight updates.

    Per round: collapse the per-type posteriors through the current
    adversary weights into one weight per annotator, run a bounded number
    of ascent steps of the weighted preference fit (warm-started), evaluate
    every type's exact regret of the current table, then update the
    adversary weights multiplicatively. ``clamp_regret`` switches the
    update to use only positive parts; ``include_kl_in_weights`` adds the
    (type-independent) KL penalty into the update exponent.
    """
    if kappa is None:
        kappa = ensemble.kappa
    pw = (
        np.full(len(catalog.prompts), 1.0 / len(catalog.prompts))
        if prompt_weights is None
        else prompt_weights
    )
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (dataset.n, ensemble.k):
        raise ValueError("gamma must be n x K for this dataset/ensemble")

    compiled = CompiledRecords.from_dataset(dataset, catalog)

    k = ensemble.k
    w = np.full(k, 1.0 / k)
    log_w = np.log(w)
    table = ScoreTable.zeros(catalog, kappa)
    trace: list[dict] = []
    for t in range(1, iters + 1):
        annotator_w = gamma @ w
        table, _ = fit_preference_table(
            compiled,
            annotator_w[compiled.record_rows],
            kappa,
            init_table=table,
            grad_tol=1e-10,
            max_iter=inner_steps,
        )
        regrets = np.array(
            [regret_of_policy(table, ensemble, ref, catalog, pw, j) for j in range(k)]
        )
        update = np.maximum(regrets, 0.0) if clamp_regret else regrets.copy()
        if include_kl_in_weights:
            from .policy import kl_to_ref

            update = update + kl_to_ref(table, ref, catalog, pw)
        log_w = log_w + step * update
        log_w -= logsumexp(log_w)
        w = np.exp(log_w)
        w /= w.sum()
        trace.append(
            {
                "iteration": t,
                "w": [float(x) for x in w],
                "regrets": [float(r) for r in regrets],
                "max_regret": float(regrets.max()),
            }
        )
    return table, trace


def minimax_policy_direct(
    ensemble: ScoreEnsemble,
    ref: ReferencePolicy,
    catalog: Catalog,
    prompt_weights: np.ndarray,
    iters: int = 300,
    policy_step: float = 0.5,
    mwu_step: float = 0.05,
    kappa: float | None = None,
    init_table: ScoreTable | None = None,
) -> tuple[ScoreTable, list[dict]]:
    """Gradient descent on the worst-case-regret objective, exact enumeration.

    The policy player descends the weighted loss
    sum_k w_k([R_k]^+ + kappa * KL(pi || ref)); the adversary runs
    multiplicative weights on the per-type losses. Simultaneous play does
    not converge pointwise, so the returned table is the iterate with the
    lowest exactly-evaluated worst-case loss max_k [R_k]^+ + kappa*KL (the
    trace keeps the full path). Raises :class:`StepSizeError` when the
    loss exceeds ten times its initial value, which indicates a diverging
    policy step.
    """
    if kappa is None:
        kappa = ensemble.kappa
    pw = _check_prompt_weights(catalog, prompt_weights)
    k = ensemble.k
    prompts = [p for wx, p in zip(pw, catalog.prompts) if wx > 0.0]
    pw_used = np.array([wx for wx in pw if wx > 0.0])

    s_tables = [
        np.stack([t.scores[p] for t in ensemble.tables]) for p in prompts
    ]  # per prompt: (K, R)
    own_means = np.zeros(k)  # E under each type's own optimum of its score
    for wx, p, s_k in zip(pw_used, prompts, s_tables):
        for j in range(k):
            own = policy_probs(ensemble.tables[j], ref, p)
            own_means[j] += wx * float(own @ s_k[j])
    log_ref = [np.log(ref.probs[p]) for p in prompts]

    s = [np.zeros(len(catalog.responses(p))) for p in prompts]
    if init_table is not None:
        s = [init_table.scores[p].copy() for p in prompts]
    w = np.full(k, 1.0 / k)
    log_w = np.log(w)
    trace: list[dict] = []
    initial_loss = None
    best_objective = np.inf
    best_s = [sp.copy() for sp in s]
    # beyond this range the candidate softmax is saturated past floating
    # point resolution; growth out there is pure step-size divergence
    ens_scale = max(float(np.abs(st).max()) for st in s_tables)
    blowup_bound = ens_scale + 10.0 + 60.0 * kappa
    for t in range(1, iters + 1):
        pis = []
        kl = 0.0
        cand_means = np.zeros(k)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for sp, lr, wx, s_k in zip(s, log_ref, pw_used, s_tables):
                logits = lr + sp / kappa
                logits = logits - logits.max()
                pi = np.exp(logits)
                pi /= pi.sum()
                pis.append(pi)
                g = kappa * (np.log(pi) - lr)
                kl += wx * float(pi @ np.where(pi > 0, g, 0.0))
                cand_means += wx * (s_k @ pi)
        regrets = own_means - cand_means
        pos = np.maximum(regrets, 0.0)
        loss = float(w @ pos) + kl
        objective = float(pos.max()) + kl
        if objective < best_objective:
            best_objective = objective
            best_s = [sp.copy() for sp in s]
        if initial_loss is None:
            initial_loss = max(abs(loss), 1e-12)
        score_span = max(float(np.abs(sp).max()) for sp in s)
        if not np.isfinite(loss) or loss > 10.0 * initial_loss + 1e-9 or (
            score_span > blowup_bound
        ):
            raise StepSizeError(
                f"objective {loss:.3e} (initial {initial_loss:.3e}), score span "
                f"{score_span:.3e}; reduce policy_step"
            )
        active = (regrets > 0.0).astype(float) * w
        for i, (sp, lr, wx, s_k, pi) in enumerate(
            zip(s, log_ref, pw_used, s_tables, pis)
        ):
            g = kappa * (np.log(pi) - lr)
            grad = (wx / kappa) * pi * (g - float(pi @ g))
            centered = s_k - (s_k @ pi)[:, None]
            grad -= (wx / kappa) * pi * (active @ centered)
            s[i] = sp - policy_step * grad
        log_w = log_w + mwu_step * (pos + kl)
        log_w -= logsumexp(log_w)
        w = np.exp(log_w)
        w /= w.sum()
        trace.append(
            {
                "iteration": t,
                "loss": loss,
                "max_regret": float(regrets.max()),
                "w": [float(x) for x in w],
            }
        )
    scores = {p: sp for p, sp in zip(prompts, best_s)}
    for p in catalog.prompts:
        if p not in scores:
            scores[p] = np.zeros(len(catalog.responses(p)))
    return gauge_fix(ScoreTable(kappa=kappa, scores=scores)), trace
