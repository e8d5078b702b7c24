"""Expectation-maximization over latent annotator types.

The E-step computes per-annotator posteriors over types in log space; the
mixture-weight M-step is the closed-form column mean of the posteriors;
the policy M-step maximizes a weighted multi-item preference
log-likelihood independently per type and per prompt. Both likelihoods
run over unique (prompt, choice set, winner) patterns with multiplicities
rather than over records: they depend on the records only through those
counts. The problem is concave in the tabular scores, so the inner solver
(deterministic quasi-Newton with an exact Hessian-vector polish) reaches
tight gradient tolerances whenever the maximizer is finite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError, ConvergenceError
from .policy import ScoreEnsemble, ScoreTable, gauge_fix
from .rewards import Catalog
from .simulate import Dataset, PreferenceRecord

__all__ = [
    "CompiledRecords",
    "EmState",
    "EmptyClusterWarning",
    "e_step",
    "m_step_eta",
    "m_step_policy",
    "mixture_loglik",
    "init_responsibilities",
    "run_em",
    "fit_preference_table",
    "lloyd_kmeans",
    "mean_winner_features",
]

def _pattern_logp(x: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log P(winner) and choice probabilities of each column of an (L, P) block.

    ``idx`` holds one pattern per column, winner in row 0; rows are
    contiguous, so the reductions over a pattern run along axis 0.
    """
    s = x[idx]
    mx = s.max(axis=0)
    e = np.exp(s - mx)
    tot = e.sum(axis=0)
    return s[0] - mx - np.log(tot), e / tot


INIT_STRATEGIES = ("kmeans_winner_features", "random_dirichlet", "from_true_labels")
ROW_SUM_ATOL = 1e-10


class EmptyClusterWarning(UserWarning):
    """A type received (essentially) zero posterior mass."""


class CompiledRecords:
    """Preference records compressed to unique (prompt, choice set, winner) patterns.

    A pattern lists global indices into the flat score vector of
    :func:`_flatten_layout`: the winner first, then the rejected responses
    sorted, since the likelihood is symmetric in them. Patterns are
    numbered by set size; each entry ``(span, idx)`` of ``blocks`` holds
    the C-contiguous (L, P) index matrix of the patterns in slice ``span``.
    ``inverse`` maps each record to its pattern and ``record_rows`` to its
    annotator's row.
    """

    def __init__(self, catalog: Catalog, records: Sequence[PreferenceRecord],
                 row_of_annotator: Mapping[int, int]):
        self.catalog = catalog
        self.n_rows = len(row_of_annotator)
        self.n_records = len(records)
        self.layout, self.size = _flatten_layout(catalog)
        self.record_rows = np.array([row_of_annotator[r.annotator] for r in records], np.intp)
        # Most records repeat an earlier one; ``seen`` skips their catalog lookups.
        seen: dict[tuple, int] = {}
        patterns: dict[tuple[int, ...], int] = {}
        inverse = np.empty(self.n_records, dtype=np.intp)
        for g, rec in enumerate(records):
            raw = (rec.prompt, rec.winner, rec.rejected)
            pid = seen.get(raw)
            if pid is None:
                win = catalog.response_index(rec.prompt, rec.winner)
                rej = sorted(catalog.response_index(rec.prompt, y) for y in rec.rejected)
                off = self.layout[rec.prompt].start
                key = (off + win, *[off + j for j in rej])
                pid = seen[raw] = patterns.setdefault(key, len(patterns))
            inverse[g] = pid
        keys = list(patterns)
        lengths = np.array([len(k) for k in keys], dtype=np.intp)
        order = np.argsort(lengths, kind="stable")
        renumber = np.empty_like(order)
        renumber[order] = np.arange(len(order))
        self.inverse = renumber[inverse]
        self.n_patterns = len(keys)
        self.blocks: list[tuple[slice, np.ndarray]] = []
        for L in np.unique(lengths):
            idx = np.array([keys[i] for i in order[lengths[order] == L]], dtype=np.intp).T.copy()
            start = self.blocks[-1][0].stop if self.blocks else 0
            self.blocks.append((slice(start, start + idx.shape[1]), idx))

    @classmethod
    def from_dataset(cls, dataset: Dataset, catalog: Catalog) -> "CompiledRecords":
        rows = {a.annotator: i for i, a in enumerate(dataset.annotators)}
        return cls(catalog, dataset.records(), rows)

    @classmethod
    def from_records(cls, records: Sequence[PreferenceRecord], catalog: Catalog
                     ) -> "CompiledRecords":
        rows = {}
        for rec in records:
            rows.setdefault(rec.annotator, len(rows))
        return cls(catalog, records, rows)

    def flatten(self, table: ScoreTable) -> np.ndarray:
        """The table's scores as one vector in :func:`_flatten_layout` order."""
        return np.concatenate([table.scores[p] for p in self.layout])

    def loglik_grad(self, x: np.ndarray, weights: np.ndarray) -> tuple[float, np.ndarray]:
        """Weighted log-likelihood of the flat scores ``x`` and its gradient.

        ``weights`` holds one multiplicity per pattern (see ``inverse``).
        """
        val = 0.0
        grad = np.zeros(self.size)
        for span, idx in self.blocks:
            c = weights[span]
            logp, p = _pattern_logp(x, idx)
            val += float(c @ logp)
            grad += np.bincount(idx[0], c, minlength=self.size)
            grad -= np.bincount(idx.ravel(), (p * c).ravel(), minlength=self.size)
        return val, grad

    def annotator_logliks(self, tables: Sequence[ScoreTable]) -> np.ndarray:
        """(n_rows, K) sums of record log-probabilities per annotator and type."""
        out = np.empty((self.n_rows, len(tables)))
        logp = np.empty(self.n_patterns)
        for k, table in enumerate(tables):
            x = self.flatten(table)
            for span, idx in self.blocks:
                logp[span] = _pattern_logp(x, idx)[0]
            out[:, k] = np.bincount(self.record_rows, logp[self.inverse],
                                    minlength=self.n_rows)
        return out


def _flatten_layout(catalog: Catalog) -> tuple[dict[str, slice], int]:
    layout = {}
    off = 0
    for p in catalog.prompts:
        n = len(catalog.responses(p))
        layout[p] = slice(off, off + n)
        off += n
    return layout, off


def fit_preference_table(
    compiled: CompiledRecords,
    record_weights: np.ndarray,
    kappa: float,
    init_table: ScoreTable | None = None,
    grad_tol: float = 1e-8,
    max_iter: int = 1000,
) -> tuple[ScoreTable, float]:
    """Maximize the weighted multi-item preference log-likelihood over a table.

    Record weights are summed onto patterns first, so each evaluation
    costs one pass over the unique patterns. Returns the gauge-fixed
    argmax and the final gradient infinity norm. The objective is concave;
    warm starts never lose objective value, so a capped run still
    constitutes a valid generalized M-step.
    """
    record_weights = np.asarray(record_weights, dtype=float)
    if record_weights.shape != (compiled.n_records,):
        raise ValueError("one weight per record required")
    counts = np.bincount(compiled.inverse, record_weights, minlength=compiled.n_patterns)

    def neg_ll_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        val, grad = compiled.loglik_grad(x, counts)
        return -val, -grad

    def newton_polish(x: np.ndarray, rounds: int) -> np.ndarray:
        # Quasi-Newton stalls once curvature collapses along near-separable
        # directions; damped Newton per prompt (step capped, backtracked so
        # the objective never worsens) finishes the job. Prompts too large
        # for a dense Hessian are left to the quasi-Newton result.
        slices = list(compiled.layout.values())
        starts = np.array([sl.start for sl in slices])
        by_prompt: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for span, idx in compiled.blocks:
            owner = np.searchsorted(starts, idx[0], side="right") - 1
            for j in np.unique(owner):
                cols = owner == j
                by_prompt.setdefault(int(j), []).append((idx[:, cols] - starts[j],
                                                         counts[span][cols]))
        for j, prompt_parts in by_prompt.items():
            sl = slices[j]
            r = sl.stop - sl.start
            if r > 256:
                continue
            s = x[sl].copy()
            # The negated Hessian is sum c (diag(p) - p p^T) over patterns,
            # scattered into a flat r*r buffer.
            def fg(sv):
                val = 0.0
                g = np.zeros(r)
                h = np.zeros(r * r)
                for sets, c in prompt_parts:
                    logp, p = _pattern_logp(sv, sets)
                    cp = c * p
                    mass = np.bincount(sets.ravel(), cp.ravel(), minlength=r)
                    val += float(c @ logp)
                    g += np.bincount(sets[0], c, minlength=r) - mass
                    h[::r + 1] += mass
                    pairs = sets[:, None, :] * r + sets[None, :, :]
                    h -= np.bincount(pairs.ravel(), (cp[:, None, :] * p[None, :, :]).ravel(),
                                     minlength=r * r)
                return val, g, h.reshape(r, r)

            val, g, h = fg(s)
            for _ in range(rounds):
                if np.abs(g).max() <= grad_tol * 0.5:
                    break
                damping = max(1e-12, 1e-10 * float(np.trace(h)) / r)
                try:
                    step = np.linalg.solve(h + damping * np.eye(r), g)
                except np.linalg.LinAlgError:
                    step = np.linalg.lstsq(h + damping * np.eye(r), g, rcond=None)[0]
                norm = float(np.linalg.norm(step))
                if norm > 4.0:
                    step *= 4.0 / norm
                for _bt in range(30):
                    cand = s + step
                    new_val, new_g, new_h = fg(cand)
                    if new_val >= val - 1e-13 * max(1.0, abs(val)):
                        s, val, g, h = cand, new_val, new_g, new_h
                        break
                    step *= 0.5
                else:
                    break
            x[sl] = s
        return x

    x = np.zeros(compiled.size) if init_table is None else compiled.flatten(init_table)

    res = minimize(
        neg_ll_grad, x, jac=True, method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": grad_tol * 0.5, "ftol": 1e-16,
                 "maxls": 100},
    )
    x = res.x
    grad_norm = float(np.abs(neg_ll_grad(x)[1]).max())
    if grad_norm > grad_tol:
        x = newton_polish(x, rounds=max(10, min(max_iter, 50)))
        grad_norm = float(np.abs(neg_ll_grad(x)[1]).max())

    scores = {p: x[sl].copy() for p, sl in compiled.layout.items()}
    return gauge_fix(ScoreTable(kappa=kappa, scores=scores)), grad_norm


def validate_responsibilities(gamma: np.ndarray) -> np.ndarray:
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2:
        raise ValueError("responsibilities must be an n x K matrix")
    if np.any(gamma < 0) or np.any(np.abs(gamma.sum(axis=1) - 1.0) > ROW_SUM_ATOL):
        raise ValueError("every responsibility row must lie on the simplex")
    return gamma


def e_step(dataset: Dataset, catalog: Catalog, ensemble: ScoreEnsemble) -> np.ndarray:
    """Posterior over types per annotator, computed with log-sum-exp."""
    compiled = CompiledRecords.from_dataset(dataset, catalog)
    return _e_step_compiled(compiled, ensemble)[0]


def _e_step_compiled(
    compiled: CompiledRecords, ensemble: ScoreEnsemble
) -> tuple[np.ndarray, float]:
    logl = compiled.annotator_logliks(ensemble.tables)
    with np.errstate(divide="ignore"):
        joint = logl + np.log(ensemble.eta)[None, :]
    mx = joint.max(axis=1)
    norm = np.log(np.exp(joint - mx[:, None]).sum(axis=1)) + mx
    if not np.all(np.isfinite(norm)):
        raise ArithmeticError("zero mixture likelihood for some annotator")
    gamma = np.exp(joint - norm[:, None])
    return gamma, float(norm.sum())


def m_step_eta(gamma: np.ndarray) -> np.ndarray:
    """Closed-form mixture-weight update: column means of the posteriors."""
    gamma = validate_responsibilities(gamma)
    return gamma.mean(axis=0)


def m_step_policy(
    dataset: Dataset,
    catalog: Catalog,
    gamma: np.ndarray,
    kappa: float,
    init_tables: Sequence[ScoreTable] | None = None,
    grad_tol: float = 1e-8,
    max_iter: int = 1000,
    on_nonconvergence: str = "raise",
) -> list[ScoreTable]:
    """Weighted multi-item preference fit per type; gauge-fixed tables.

    ``on_nonconvergence`` selects what happens when the gradient tolerance
    is not met within the iteration cap: "raise" (default) or "warn". The
    warn mode still returns the best iterate found, which never scores
    worse than the warm start.
    """
    tables, _ = _m_step_policy_impl(
        CompiledRecords.from_dataset(dataset, catalog), gamma, kappa,
        init_tables, grad_tol, max_iter, on_nonconvergence,
    )
    return tables


def _m_step_policy_impl(
    compiled: CompiledRecords,
    gamma: np.ndarray,
    kappa: float,
    init_tables: Sequence[ScoreTable] | None,
    grad_tol: float,
    max_iter: int,
    on_nonconvergence: str,
) -> tuple[list[ScoreTable], list[float]]:
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape[0] != compiled.n_rows:
        raise ValueError("gamma must have one row per annotator")
    if on_nonconvergence not in ("raise", "warn"):
        raise ValueError("on_nonconvergence must be 'raise' or 'warn'")
    tables: list[ScoreTable] = []
    norms: list[float] = []
    for k in range(gamma.shape[1]):
        init = init_tables[k] if init_tables is not None else None
        weights = gamma[compiled.record_rows, k]
        if weights.sum() <= 0.0:
            warnings.warn(
                f"type {k} received zero posterior mass; keeping its table",
                EmptyClusterWarning,
            )
            table = init if init is not None else ScoreTable.zeros(compiled.catalog, kappa)
            tables.append(gauge_fix(table))
            norms.append(0.0)
            continue
        table, grad_norm = fit_preference_table(
            compiled, weights, kappa, init_table=init,
            grad_tol=grad_tol, max_iter=max_iter,
        )
        if grad_norm > grad_tol:
            msg = (f"policy M-step for type {k} stopped at gradient norm "
                   f"{grad_norm:.3e} > {grad_tol:.1e}")
            if on_nonconvergence == "raise":
                raise ConvergenceError(msg, grad_norm=grad_norm)
            warnings.warn(msg, RuntimeWarning)
        tables.append(table)
        norms.append(grad_norm)
    return tables, norms


def mixture_loglik(dataset: Dataset, catalog: Catalog, ensemble: ScoreEnsemble) -> float:
    """Observed-data log-likelihood of the mixture, log-space stable."""
    compiled = CompiledRecords.from_dataset(dataset, catalog)
    return _e_step_compiled(compiled, ensemble)[1]


def mean_winner_features(dataset: Dataset, catalog: Catalog) -> np.ndarray:
    """(n, d) matrix of each annotator's average winning-response features."""
    out = np.zeros((dataset.n, catalog.d))
    for i, a in enumerate(dataset.annotators):
        acc = np.zeros(catalog.d)
        for r in a.records:
            acc += catalog.feature(r.prompt, r.winner)
        out[i] = acc / len(a.records)
    return out


def lloyd_kmeans(
    points: np.ndarray, k: int, seed: int, n_iter: int = 50
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic Lloyd's algorithm; empty clusters steal the farthest point."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds number of points {n}")
    rng = np.random.default_rng(seed)
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=int)
    for sweep in range(n_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for empty in range(k):
            if not np.any(new_labels == empty):
                far = d2[np.arange(n), new_labels].argmax()
                new_labels[far] = empty
                d2[far] = 0.0
                warnings.warn(f"kmeans cluster {empty} was empty; reassigned the "
                              "farthest point", EmptyClusterWarning)
        if sweep > 0 and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = points[labels == j].mean(axis=0)
    return labels, centers


def init_responsibilities(
    dataset: Dataset, catalog: Catalog, k: int, strategy: str, seed: int
) -> np.ndarray:
    """Initial posteriors: k-means on winner features, Dirichlet, or oracle labels."""
    if strategy not in INIT_STRATEGIES:
        raise ConfigError(
            f"unknown init strategy {strategy!r}; expected one of {INIT_STRATEGIES}"
        )
    n = dataset.n
    if k == 1:
        return np.ones((n, 1))
    if strategy == "random_dirichlet":
        rng = np.random.default_rng(seed)
        return rng.dirichlet(np.ones(k), size=n)
    if strategy == "from_true_labels":
        gamma = np.zeros((n, k))
        for i, a in enumerate(dataset.annotators):
            if a.true_type is None:
                raise ValueError("dataset carries no true_type labels")
            gamma[i, a.true_type] = 1.0
        return gamma
    labels, _ = lloyd_kmeans(mean_winner_features(dataset, catalog), k, seed)
    gamma = np.full((n, k), 0.1 / (k - 1))
    gamma[np.arange(n), labels] = 0.9
    return gamma


@dataclass(frozen=True)
class EmState:
    """Final EM state plus per-iteration traces.

    ``trace`` belongs to the winning restart; ``restart_traces`` keeps one
    trace per restart in launch order.
    """

    ensemble: ScoreEnsemble
    gamma: np.ndarray
    loglik: float
    iteration: int
    trace: tuple[dict, ...]
    restart_traces: tuple[tuple[dict, ...], ...] = ()


def run_em(
    dataset: Dataset,
    catalog: Catalog,
    k: int,
    *,
    kappa: float = 0.1,
    max_iters: int = 5,
    tol: float = 1e-8,
    init: str = "kmeans_winner_features",
    seed: int = 0,
    restarts: int = 1,
    grad_tol: float = 1e-8,
    inner_max_iter: int = 1000,
    on_nonconvergence: str = "raise",
) -> EmState:
    """Full EM loop with restarts; best restart by final log-likelihood.

    Each iteration is one closed-form eta update plus one policy M-step,
    followed by an E-step that also yields the current observed-data
    log-likelihood. Restart r reruns the initializer with ``seed + r``.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    if restarts < 1:
        raise ConfigError("restarts must be >= 1")
    compiled = CompiledRecords.from_dataset(dataset, catalog)

    best: EmState | None = None
    all_traces: list[tuple[dict, ...]] = []
    for r in range(restarts):
        gamma = init_responsibilities(dataset, catalog, k, init, seed + r)
        tables: list[ScoreTable] | None = None
        eta = np.full(k, 1.0 / k)
        trace: list[dict] = []
        prev_ll = None
        gamma_fed = gamma
        ll = -np.inf
        it = 0
        for it in range(1, max_iters + 1):
            gamma_fed = gamma
            eta = m_step_eta(gamma)
            tables, grad_norms = _m_step_policy_impl(
                compiled, gamma, kappa, tables, grad_tol, inner_max_iter,
                on_nonconvergence,
            )
            ensemble = ScoreEnsemble(tables=tuple(tables), eta=eta)
            gamma, ll = _e_step_compiled(compiled, ensemble)
            trace.append(
                {
                    "iteration": it,
                    "loglik": ll,
                    "eta": [float(x) for x in eta],
                    "grad_norms": [float(g) for g in grad_norms],
                }
            )
            if prev_ll is not None and ll - prev_ll < tol:
                break
            prev_ll = ll
        all_traces.append(tuple(trace))
        state = EmState(
            ensemble=ScoreEnsemble(tables=tuple(tables), eta=eta),
            gamma=gamma_fed,
            loglik=ll,
            iteration=it,
            trace=tuple(trace),
        )
        if best is None or state.loglik > best.loglik:
            best = state
    assert best is not None
    return EmState(
        ensemble=best.ensemble,
        gamma=best.gamma,
        loglik=best.loglik,
        iteration=best.iteration,
        trace=best.trace,
        restart_traces=tuple(all_traces),
    )
