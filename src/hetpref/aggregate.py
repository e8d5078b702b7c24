"""Fair aggregation of a policy ensemble under worst-case subgroup regret.

Regret of a candidate policy for type k is the gap in expected implicit
reward (type-k scores) between type k's own optimal policy and the
candidate, enumerated exactly over the catalog. The ensemble is built
once as (K, responses) score, log-policy and policy matrices in the
catalog's flat (prompt, response) order; regrets of all K types, the
discrepancy matrix and the direct objective and gradient are weighted
sums or matrix products along that axis. Three aggregators are provided:
an optimistic-Hedge solver for the affine-mixture matrix game, whose two
players share one log-weight state vector advanced, per iteration, by one
``dot`` on two adjacent trace rows and one for the normalizers; a
lightweight loop that alternates weighted preference fits with
multiplicative weight updates; and direct descent on the worst-case objective.

The output policy class is not canonical: the matrix-game solver returns
mixture weights over the ensemble (a policy in its affine hull), while
the lightweight and direct optimizers return a free score table. Free
tables can only do better on the worst-case objective; pick the solver
whose deployment story fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Mapping

import numpy as np

from .emdpo import CompiledRecords, _checked_gamma, fit_preference_table
from .errors import StepSizeError
from .policy import (
    ReferencePolicy,
    ScoreEnsemble,
    ScoreTable,
    _check_mixture_weights,
    _flat_prompt_weights,
    gauge_fix,
    uniform_prompt_weights,
)
from .rewards import Catalog, segment_log_softmax, softmax_lse
from .simulate import Dataset

__all__ = [
    "GameSolution",
    "regret_of_policy",
    "regrets_of_policy",
    "discrepancy_matrix",
    "regret_matrix",
    "solve_regret_game",
    "brute_force_game",
    "minimax_policy_lightweight",
    "minimax_policy_direct",
    "uniform_mixture",
]

# Averaged iterates per duality-gap matrix product; keeps the temporaries small.
GAP_BLOCK = 4096
# Largest per-iteration move of a normalized log-weight for which exp neither
# overflows nor takes a player's largest weight below the normal range.
_MAX_LOG_MOVE = 600.0
# Vertex systems brute_force_game may solve: every (K+1) x K game up to K = 8.
_MAX_VERTICES = 25_000
# Rounding allowed below zero in a vertex's w before it counts as off the simplex.
_VERTEX_TOL = 1e-9


class _FlatEnsemble:
    """The ensemble and reference laid out over the catalog's flat order.

    Row k of ``scores``, ``log_pi`` and ``pi`` belongs to member k.
    ``weight`` repeats each prompt's weight over its responses, so an
    expectation over prompts and responses is a weighted sum along the
    last axis; ``own[k]`` is type k's expected score under its own policy.
    """

    def __init__(self, ensemble: ScoreEnsemble, ref: ReferencePolicy, catalog: Catalog,
                 prompt_weights: np.ndarray):
        self.ensemble = ensemble
        self.catalog = catalog
        self.weight = _flat_prompt_weights(catalog, prompt_weights)
        self.log_ref = np.log(catalog.flatten(ref.probs))
        self.scores = np.stack([catalog.flatten(t.scores) for t in ensemble.tables])
        self.log_pi = self.log_policy(self.scores, ensemble.kappa)
        self.pi = np.exp(self.log_pi)
        self.weighted_scores = self.weight * self.scores
        self.own = (self.weighted_scores * self.pi).sum(axis=1)

    def log_policy(self, scores: np.ndarray, kappa: float) -> np.ndarray:
        """log pi for flat scores: pi proportional to pi_ref * exp(s / kappa) per prompt."""
        return segment_log_softmax(self.log_ref + scores / kappa, self.catalog.offsets)

    def distribution(self, policy) -> np.ndarray:
        """Flat response distribution of a free score table, a reference policy,
        an explicit map of distributions, or mixture weights over the ensemble."""
        if isinstance(policy, ScoreTable):
            return np.exp(self.log_policy(self.catalog.flatten(policy.scores), policy.kappa))
        if isinstance(policy, ReferencePolicy):
            return self.catalog.flatten(policy.probs)
        if isinstance(policy, Mapping):
            return self.catalog.flatten(policy)
        return _check_mixture_weights(self.ensemble, policy) @ self.pi

    def regrets(self, policy) -> np.ndarray:
        """Every type's regret of ``policy``: own expected score minus the policy's."""
        return self.own - self.weighted_scores @ self.distribution(policy)


def regrets_of_policy(
    policy,
    ensemble: ScoreEnsemble,
    ref: ReferencePolicy,
    catalog: Catalog,
    prompt_weights: np.ndarray,
) -> np.ndarray:
    """Every type's regret of one policy, in ensemble order."""
    return _FlatEnsemble(ensemble, ref, catalog, prompt_weights).regrets(policy)


def regret_of_policy(
    policy,
    ensemble: ScoreEnsemble,
    ref: ReferencePolicy,
    catalog: Catalog,
    prompt_weights: np.ndarray,
    k: int,
) -> float:
    """Type-k regret: expected type-k score under its optimum minus under policy."""
    return float(regrets_of_policy(policy, ensemble, ref, catalog, prompt_weights)[k])


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
    flat = _FlatEnsemble(ensemble, ref, catalog, prompt_weights)
    out = np.zeros((ensemble.k + 1, ensemble.k))
    out[1:] = (flat.log_pi - flat.log_ref) @ (flat.weight * flat.pi).T
    return out


def regret_matrix(discrepancies: np.ndarray) -> np.ndarray:
    """R[k, k'] = L[k, k] - L[k, k']; the adversary's payoff matrix (row 0: null type)."""
    L = np.asarray(discrepancies, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1] + 1:
        raise ValueError("discrepancy matrix must be (K+1) x K")
    if not np.allclose(L[0], 0.0):
        raise ValueError("row 0 of the discrepancy matrix must be zero")
    return np.concatenate([[0.0], np.diagonal(L[1:])])[:, None] - L


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


def _checked_regret_matrix(R: np.ndarray) -> np.ndarray:
    """R as a float array; a ValueError unless it is 2-D with rows and columns, and finite."""
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or 0 in R.shape:
        raise ValueError(f"regret matrix must be 2-D with rows and columns, got shape {R.shape}")
    if not np.all(np.isfinite(R)):
        raise ValueError("regret matrix must be finite")
    return R


def solve_regret_game(
    R: np.ndarray, iters: int, step: float | None = None
) -> GameSolution:
    """Optimistic Hedge vs. optimistic Hedge on the matrix game min_w max_p p'Rw.

    Both players use one-step gradient prediction; the returned solution is
    the average of the iterates, and ``value`` is the adversary's best
    response to the averaged mixture weights (an upper bound on the
    achieved minimax value). Both players share one state vector x = [w; p]
    of length K + N, kept as log x. Each iterate is a row of one buffer, so
    x_prev and x are two adjacent rows: one ``ndarray.dot`` of [-M | 2M], with
    M = [[0, -step R'], [step R, 0]], on that flat slice gives both optimistic
    gradients M(2x - x_prev), and one with a block-of-ones matrix gives each
    player's normalizer. A cumulative sum turns the rows into running averages;
    the gaps come from one matrix product per ``GAP_BLOCK`` averaged iterates.
    """
    R = _checked_regret_matrix(R)
    if iters < 2:
        raise ValueError("iters must be >= 2")
    n_rows, k = R.shape
    scale = float(np.abs(R).max())
    if step is None:
        step = 0.05 / scale if scale > 0 else 0.05
    if not (np.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    # |2x - x_prev|_1 <= 3 per player, so a log-weight moves by at most
    # 3 * step * scale per iteration; beyond _MAX_LOG_MOVE exp could
    # overflow, or all of one player's weights underflow to zero
    if 3.0 * step * scale > _MAX_LOG_MOVE:
        raise ValueError(f"step {step!r} is too large for a regret matrix of scale "
                         f"{scale!r}: log-weights could move by {3.0 * step * scale:.3g} "
                         f"per iteration (at most {_MAX_LOG_MOVE:g})")

    size = k + n_rows
    move = np.zeros((size, size))
    move[:k, k:] = -step * R.T
    move[k:, :k] = step * R
    optimistic = np.hstack([-move, 2.0 * move]).dot  # [x_prev; x] -> move (2x - x_prev)
    side = np.arange(size) < k
    normalizers = (side[:, None] == side).astype(float).dot  # each player's sum

    log_x = np.concatenate([np.full(k, -np.log(k)), np.full(n_rows, -np.log(n_rows))])
    # rows 0 and 1 hold x_0, so the first step sees x_prev = x; step t reads
    # rows t and t + 1 (x_prev, x) as one flat slice and writes row t + 2
    buf = np.empty((iters + 2, size))
    buf[:2] = np.exp(log_x)
    flat = buf.reshape(-1)
    exp, log = np.exp, np.log
    for t in range(iters):
        log_x += optimistic(flat[t * size:(t + 2) * size])
        x = exp(log_x, out=buf[t + 2])
        z = normalizers(x)
        x /= z
        log_x -= log(z, out=z)

    # in place: the iterates become the running averages
    trace = buf[2:]
    np.cumsum(trace, axis=0, out=trace)
    trace /= np.arange(1, iters + 1)[:, None]
    w_avg_trace, p_avg_trace = trace[:, :k], trace[:, k:]
    gap_trace = np.empty(iters)
    for lo in range(0, iters, GAP_BLOCK):
        block = slice(lo, lo + GAP_BLOCK)
        gap_trace[block] = ((w_avg_trace[block] @ R.T).max(axis=1)
                            - (p_avg_trace[block] @ R).min(axis=1))

    w_star = w_avg_trace[-1].copy()
    return GameSolution(
        w=w_star,
        p=p_avg_trace[-1].copy(),
        value=float((R @ w_star).max()),
        gap_trace=gap_trace,
        w_avg_trace=w_avg_trace,
        p_avg_trace=p_avg_trace,
        step=step,
        iters=iters,
    )


def brute_force_game(R: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact game value min_w max_i (Rw)_i, by enumerating the vertices of its LP.

    The LP min v s.t. Rw <= v, w >= 0, sum w = 1 attains its optimum at a
    vertex, where K of its n + K inequalities hold with equality next to
    sum w = 1. Every such (K+1) x (K+1) system is solved in one batch.
    Singular systems are dropped first: ties and duplicated columns make
    many, and one singular member makes a stacked solve raise. They are the
    ones whose ``slogdet`` sign is 0, which, unlike ``det``, cannot underflow
    or overflow at extreme scales of R. Each solution with w >= 0 is a point
    of the simplex, and the best of them is the value.
    Shapes with more than ``_MAX_VERTICES`` systems raise a ValueError.
    """
    R = _checked_regret_matrix(R)
    n_rows, k = R.shape
    count = math.comb(n_rows + k, k)
    if count > _MAX_VERTICES:
        raise ValueError(f"brute force oracle would solve C(n + K, K) = {count} systems for a "
                         f"regret matrix of shape {R.shape}; at most {_MAX_VERTICES} are allowed")
    # each inequality as an equality on (w, v): (Rw)_i - v = 0 or w_j = 0
    rows = np.block([[R, -np.ones((n_rows, 1))], [np.eye(k), np.zeros((k, 1))]])
    active = np.fromiter(chain.from_iterable(combinations(range(n_rows + k), k)),
                         dtype=np.intp, count=count * k).reshape(count, k)
    systems = np.zeros((count, k + 1, k + 1))
    systems[:, :k] = rows[active]
    systems[:, k, :k] = 1.0
    systems = systems[np.linalg.slogdet(systems)[0] != 0.0]
    rhs = np.zeros((k + 1, 1))
    rhs[k] = 1.0
    w = np.linalg.solve(systems, rhs)[:, :k, 0]
    # a vertex's w is nonnegative up to rounding; off-simplex solutions go
    w = np.clip(w[w.min(axis=1) >= -_VERTEX_TOL], 0.0, None)
    w /= w.sum(axis=1, keepdims=True)
    w_star = w[np.argmin((w @ R.T).max(axis=1))].copy()
    return float((R @ w_star).max()), w_star


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
) -> tuple[ScoreTable, list[dict]]:
    """Alternate weighted preference fits with multiplicative weight updates.

    Per round: mix the per-type pattern counts (each type's posterior mass
    on each pattern) by the current adversary weights, run a bounded number
    of Newton steps of the weighted preference fit (warm-started), evaluate
    every type's exact regret of the current scores, then update the
    adversary weights multiplicatively by those regrets.
    """
    if kappa is None:
        kappa = ensemble.kappa
    pw = uniform_prompt_weights(catalog) if prompt_weights is None else prompt_weights
    gamma = _checked_gamma(gamma, dataset.n, ensemble.k)

    compiled = CompiledRecords.from_dataset(dataset, catalog)
    flat = _FlatEnsemble(ensemble, ref, catalog, pw)
    base = compiled.pattern_counts(compiled.profile_mass(gamma))

    k = ensemble.k
    w = np.full(k, 1.0 / k)
    log_w = np.log(w)
    x = np.zeros(compiled.size)
    trace: list[dict] = []
    for t in range(1, iters + 1):
        x, _ = fit_preference_table(compiled, w @ base, x, grad_tol=1e-10, max_iter=inner_steps)
        regrets = flat.own - flat.weighted_scores @ np.exp(flat.log_policy(x, kappa))
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
    return gauge_fix(ScoreTable(kappa=kappa, scores=catalog.split(x))), trace


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
    trace keeps the full path). Prompts of weight zero keep zero scores.
    Raises :class:`StepSizeError` when the loss exceeds ten times its
    initial value, which indicates a diverging policy step.
    """
    if kappa is None:
        kappa = ensemble.kappa
    flat = _FlatEnsemble(ensemble, ref, catalog, prompt_weights)
    starts, sizes = catalog.offsets[:-1], np.diff(catalog.offsets)
    used = flat.weight > 0.0
    k = ensemble.k

    s = np.where(used, 0.0 if init_table is None else catalog.flatten(init_table.scores), 0.0)
    w = np.full(k, 1.0 / k)
    log_w = np.log(w)
    trace: list[dict] = []
    initial_loss = None
    best_objective = np.inf
    best_s = s
    # beyond this range the candidate softmax is saturated past floating
    # point resolution; growth out there is pure step-size divergence
    blowup_bound = float(np.abs(flat.scores[:, used]).max()) + 10.0 + 60.0 * kappa
    for t in range(1, iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            log_pi = flat.log_policy(s, kappa)
            pi = np.exp(log_pi)
            g = kappa * (log_pi - flat.log_ref)
            kl = float(flat.weight @ (pi * g))
            regrets = flat.own - flat.weighted_scores @ pi
        pos = np.maximum(regrets, 0.0)
        loss = float(w @ pos) + kl
        objective = float(pos.max()) + kl
        if objective < best_objective:
            best_objective = objective
            best_s = s
        if initial_loss is None:
            initial_loss = max(abs(loss), 1e-12)
        score_span = float(np.abs(s).max())
        if not np.isfinite(loss) or loss > 10.0 * initial_loss + 1e-9 or (
            score_span > blowup_bound
        ):
            raise StepSizeError(
                f"objective {loss:.3e} (initial {initial_loss:.3e}), score span "
                f"{score_span:.3e}; reduce policy_step"
            )
        # d loss / d s = (weight / kappa) * pi * (h - E_pi[h]) per prompt,
        # with h the KL term minus the active types' weighted scores
        h = g - ((regrets > 0.0) * w) @ flat.scores
        h -= np.repeat(np.add.reduceat(pi * h, starts), sizes)
        s = s - policy_step * (flat.weight / kappa) * pi * h
        log_w = log_w + mwu_step * (pos + kl)
        w, lse = softmax_lse(log_w)
        log_w -= lse
        trace.append(
            {
                "iteration": t,
                "loss": loss,
                "max_regret": float(regrets.max()),
                "w": [float(x) for x in w],
            }
        )
    return gauge_fix(ScoreTable(kappa=kappa, scores=catalog.split(best_s))), trace
