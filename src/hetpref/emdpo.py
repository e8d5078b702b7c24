"""Expectation-maximization over latent annotator types, on weighted profiles.

The E-step computes posteriors over types in log space; the mixture-weight
M-step is the closed-form mean of the posteriors; the policy M-step
maximizes a weighted multi-item preference log-likelihood per type and per
prompt. Both depend on the records only through unique (prompt, choice
set, winner) patterns, so EM carries each profile's posterior mass and a
(K, size) score matrix (see :class:`CompiledRecords`). The fit is concave
and separable by prompt, and its maximizer is finite iff every comparison
(winner beats a rejected response) lies inside a strongly connected
component of its prompt's comparison digraph (Ford 1957; Hunter 2004). The
policy M-step checks that condition first, finding the components with
Tarjan's algorithm (Tarjan 1972), then runs one solver per type:
damped Newton on per-prompt Hessian blocks, prompts of equal response
count solved as one batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError, InputError
from .policy import ScoreEnsemble, ScoreTable, gauge_fix
from .rewards import Catalog, softmax_lse
from .simulate import Dataset, PreferenceRecord, row_groups

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

INIT_STRATEGIES = ("kmeans_winner_features", "random_dirichlet", "from_true_labels")
ROW_SUM_ATOL = 1e-10


class EmptyClusterWarning(UserWarning):
    """A type received (essentially) zero posterior mass."""


class CompiledRecords:
    """Preference records compressed to unique (prompt, choice set, winner) patterns.

    A pattern lists global indices into the flat score vector laid out by
    :attr:`Catalog.offsets`: the winner first, then the rejected responses
    sorted, since the likelihood is symmetric in them. Patterns are
    numbered by set size; each entry ``(span, idx)`` of ``blocks`` holds
    the C-contiguous (L, P) index matrix of the patterns in slice ``span``.
    ``inverse`` maps each record to its pattern and ``record_rows`` to its
    annotator's row. A block's scores ``x[idx]`` have one pattern per
    column, so its softmax runs along axis 0 and row 0 is the winner's.
    Each prompt's negated Hessian is an r x r block of one flat buffer;
    entry ``(hslice, cols)`` of ``groups`` is the (G, r, r) run of the G
    prompts with r responses and their flat score indices; ``hess_pos``
    places the (L, L, P) pattern pairs of each block in the buffer.

    EM runs on weighted *profiles*: annotators with the same ordered sequence
    of pattern ids (the order fixes the rounding of a log-likelihood sum)
    share a posterior. ``profile_of`` maps each row to its profile and
    ``mult`` counts its rows; ``rep_patterns`` and ``rep_profiles`` hold, in
    record order, the pattern and the profile of each record of one
    representative row per profile, from which :meth:`pattern_counts` reads.
    """

    def __init__(self, catalog: Catalog, dataset: Dataset):
        self.catalog = catalog
        self.n_rows = dataset.n
        self.n_records = dataset.rows.size
        self.size = int(catalog.offsets[-1])
        self.record_rows = dataset.rows
        flat = dataset.catalog_index(catalog)
        self.inverse = np.empty(self.n_records, dtype=np.intp)
        self.blocks: list[tuple[slice, np.ndarray]] = []
        for recs, sets in dataset.sets_by_size():
            sets = flat[sets]
            sets[:, 1:].sort(axis=1)
            group, first = row_groups(sets)
            # patterns of one size are numbered by first occurrence
            rank = np.empty_like(first)
            rank[np.argsort(first)] = np.arange(first.size)
            start = self.blocks[-1][0].stop if self.blocks else 0
            self.inverse[recs] = start + rank[group]
            self.blocks.append((slice(start, start + first.size), sets[np.sort(first)].T.copy()))
        self.n_patterns = self.blocks[-1][0].stop if self.blocks else 0
        # One row per annotator of its pattern ids in record order, padded with -1.
        by_row = np.argsort(self.record_rows, kind="stable")
        per_row = np.bincount(self.record_rows, minlength=self.n_rows)
        pos = np.arange(self.n_records) - np.repeat(np.cumsum(per_row) - per_row, per_row)
        seqs = np.full((self.n_rows, per_row.max(initial=0)), -1, dtype=np.intp)
        seqs[self.record_rows[by_row], pos] = self.inverse[by_row]
        # Equal rows share a profile (np.unique(axis=0) finds the same groups,
        # 9x slower at 5000 rows).
        self.profile_of, first = row_groups(seqs)
        self.n_profiles = first.size
        representative = np.zeros(self.n_rows, dtype=bool)
        representative[first] = True
        rep = representative[self.record_rows]
        self.rep_patterns = self.inverse[rep]
        self.rep_profiles = self.profile_of[self.record_rows[rep]]
        self.mult = np.bincount(self.profile_of, minlength=self.n_profiles).astype(float)

        starts, sizes = catalog.offsets[:-1], np.diff(catalog.offsets)
        self.prompt_of = np.repeat(np.arange(len(sizes)), sizes)
        by_size = np.argsort(sizes, kind="stable")
        hstart = np.empty_like(sizes)
        hstart[by_size] = np.cumsum(sizes[by_size] ** 2) - sizes[by_size] ** 2
        self.hess_size = int((sizes ** 2).sum())
        self.groups: list[tuple[slice, np.ndarray]] = []
        for r in np.unique(sizes):
            members = by_size[sizes[by_size] == r]
            h0 = hstart[members[0]]
            self.groups.append((slice(h0, h0 + members.size * r * r),
                                starts[members][:, None] + np.arange(r)))
        self.hess_pos = []
        for _, idx in self.blocks:
            own = self.prompt_of[idx[0]]
            loc = idx - starts[own]
            self.hess_pos.append(hstart[own] + loc[:, None, :] * sizes[own] + loc[None, :, :])

    @classmethod
    def from_dataset(cls, dataset: Dataset, catalog: Catalog) -> "CompiledRecords":
        return cls(catalog, dataset)

    @classmethod
    def from_records(cls, records: Sequence[PreferenceRecord], catalog: Catalog
                     ) -> "CompiledRecords":
        """Records in any order; one row per annotator in order of first appearance."""
        return cls(catalog, Dataset.from_records(records))

    def newton_terms(self, x: np.ndarray, weights: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Weighted log-likelihood per prompt, its gradient and negated Hessian.

        ``weights`` holds one multiplicity per pattern (see ``inverse``).
        The negated Hessian is the sum over patterns of c (diag(p) - p p^T),
        returned as the flat buffer laid out by ``groups``.
        """
        val = np.zeros(len(self.catalog.prompts))
        grad = np.zeros(self.size)
        hess = np.zeros(self.hess_size)
        for (span, idx), pos in zip(self.blocks, self.hess_pos):
            c = weights[span]
            s = x[idx]
            p, lse = softmax_lse(s, axis=0)
            cp = c * p
            val += np.bincount(self.prompt_of[idx[0]], c * (s[0] - lse), minlength=val.size)
            grad += np.bincount(idx[0], c, minlength=self.size)
            grad -= np.bincount(idx.ravel(), cp.ravel(), minlength=self.size)
            # c p_i (delta_ij - p_j): -c p_i p_j everywhere, then the diagonal,
            # rows i * (L + 1) of the (L * L, patterns) view, set to c p_i (1 - p_i)
            pairs = cp[:, None, :] * -p[None, :, :]
            pairs.reshape(-1, p.shape[1])[::len(idx) + 1] = cp * (1.0 - p)
            hess += np.bincount(pos.ravel(), pairs.ravel(), minlength=self.hess_size)
        return val, grad, hess

    def profile_mass(self, gamma: np.ndarray) -> np.ndarray:
        """(n_profiles, K) sums of (n_rows, K) posteriors over each profile's rows."""
        return _bin_sums(self.profile_of, gamma, self.n_profiles)

    def pattern_counts(self, mass: np.ndarray) -> np.ndarray:
        """(K, n_patterns) counts of each type from (n_profiles, K) profile masses."""
        return _bin_sums(self.rep_patterns, mass[self.rep_profiles], self.n_patterns).T

    def profile_logliks(self, x: np.ndarray) -> np.ndarray:
        """(n_profiles, K) sums of record log-probabilities under (K, size) scores."""
        logp = np.empty((len(x), self.n_patterns))
        for span, idx in self.blocks:
            s = np.take(x, idx, axis=1)  # C order: each type's block laid out as x[idx]
            logp[:, span] = s[:, 0] - softmax_lse(s, axis=1)[1]
        return _bin_sums(self.rep_profiles, logp[:, self.rep_patterns].T, self.n_profiles)

    def gauge_fix(self, x: np.ndarray) -> None:
        """:func:`policy.gauge_fix` of every row of (K, size) scores ``x``, in place."""
        for _, cols in self.groups:
            # C order, so each mean sums as for one table (x[:, cols] puts K innermost)
            s = np.take(x, cols, axis=1)
            x[:, cols] = s - s.mean(axis=-1, keepdims=True)


def _bin_sums(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """(size, K) sums of the (len(index), K) ``values`` by row ``index``, in row order."""
    k = values.shape[1]
    return np.bincount((index[:, None] * k + np.arange(k)).ravel(), values.ravel(),
                       minlength=size * k).reshape(size, k)


def fit_preference_table(
    compiled: CompiledRecords,
    record_weights: np.ndarray,
    kappa: float,
    init_table: ScoreTable | None = None,
    grad_tol: float = 1e-8,
    max_iter: int = 1000,
) -> tuple[ScoreTable, float]:
    """Maximize the weighted multi-item preference log-likelihood over a table.

    :func:`_newton_fit` on the record weights summed onto patterns, from
    ``init_table`` or zeros. Returns the gauge-fixed table and the final
    gradient max norm.
    """
    record_weights = np.asarray(record_weights, dtype=float)
    if record_weights.shape != (compiled.n_records,):
        raise ValueError("one weight per record required")
    counts = np.bincount(compiled.inverse, record_weights, minlength=compiled.n_patterns)
    x = (np.zeros(compiled.size) if init_table is None
         else compiled.catalog.flatten(init_table.scores))
    x, grad_norm = _newton_fit(compiled, counts, x, grad_tol, max_iter)
    return gauge_fix(ScoreTable(kappa=kappa, scores=compiled.catalog.split(x))), grad_norm


def _newton_fit(compiled: CompiledRecords, counts: np.ndarray, x: np.ndarray,
                grad_tol: float, max_iter: int) -> tuple[np.ndarray, float]:
    """Fit flat scores ``x`` to pattern ``counts``; the new scores and gradient max norm.

    Each of at most ``max_iter`` iterations takes a damped Newton step in
    every prompt whose gradient exceeds ``grad_tol / 2``, caps its largest
    entry at 4 and halves it until that prompt's objective does not fall:
    warm starts never lose objective value, so a capped run is still a
    valid generalized M-step. The scores are not gauge-fixed.
    """
    starts, sizes = compiled.catalog.offsets[:-1], np.diff(compiled.catalog.offsets)
    val, grad, hess = compiled.newton_terms(x, counts)
    stuck = np.zeros(len(sizes), dtype=bool)
    for _ in range(max_iter):
        active = (np.maximum.reduceat(np.abs(grad), starts) > grad_tol * 0.5) & ~stuck
        if not active.any():
            break
        step = np.empty(compiled.size)
        for hslice, cols in compiled.groups:
            g, r = cols.shape
            blocks = hess[hslice].reshape(g, r, r)
            diag = np.einsum("gii->gi", blocks)  # a view: damping writes into hess
            diag += np.maximum(1e-12, 1e-10 * diag.sum(axis=1) / r)[:, None]
            step[cols] = np.linalg.solve(blocks, grad[cols][..., None])[..., 0]
        longest = np.maximum.reduceat(np.abs(step), starts)
        step *= np.repeat(np.where(active, 4.0 / np.maximum(longest, 4.0), 0.0), sizes)
        floor = val - 1e-13 * np.maximum(1.0, np.abs(val))
        for _bt in range(30):
            terms = compiled.newton_terms(x + step, counts)
            worse = terms[0] < floor
            if not worse.any():
                break
            step[np.repeat(worse, sizes)] *= 0.5
        else:
            # A prompt whose step fails 30 halvings stops where it is.
            stuck |= worse
            step[np.repeat(worse, sizes)] = 0.0
            terms = compiled.newton_terms(x + step, counts)
        x = x + step
        val, grad, hess = terms
    return x, float(np.abs(grad).max())


def _unbounded_prompt(compiled: CompiledRecords, record_weights: np.ndarray) -> str | None:
    """Why the fit with ``record_weights`` has no finite maximizer, or None."""
    counts = np.bincount(compiled.inverse, record_weights, minlength=compiled.n_patterns)
    return _unbounded_support(compiled, counts > 0)


def _unbounded_cached(compiled: CompiledRecords, counts: np.ndarray,
                      checked: dict[bytes, str | None]) -> str | None:
    """:func:`_unbounded_support` of the patterns with positive ``counts``, kept in ``checked``."""
    support = counts > 0
    key = support.tobytes()
    if key not in checked:
        checked[key] = _unbounded_support(compiled, support)
    return checked[key]


def _unbounded_support(compiled: CompiledRecords, support: np.ndarray) -> str | None:
    """Why a fit weighting the patterns in ``support`` has no finite maximizer, or None.

    Each supported pattern's winner beats its rejected responses. A win
    across strongly connected components (found by :func:`_strong_components`,
    Tarjan 1972) lets the likelihood grow without bound by pushing the
    winning side up (Ford's condition fails).
    """
    src, dst = [], []
    for span, idx in compiled.blocks:
        keep = support[span]
        src.append(np.tile(idx[0, keep], idx.shape[0] - 1))
        dst.append(idx[1:, keep].ravel())
    src, dst = np.concatenate(src), np.concatenate(dst)
    label = _strong_components(compiled.size, src, dst)
    cross = label[src] != label[dst]
    if not cross.any():
        return None
    j = int(compiled.prompt_of[src[cross]].min())
    here = cross & (compiled.prompt_of[src] == j)
    # The first source of the condensation (a DAG with an edge has one).
    top = np.isin(label, np.setdiff1d(label[src[here]], label[dst[here]]))
    prompt = compiled.catalog.prompts[j]
    names = [compiled.catalog.responses(prompt)[i - compiled.catalog.offsets[j]]
             for i in np.flatnonzero(label == label[np.argmax(top)])]
    more = f" and {len(names) - 5} more" if len(names) > 5 else ""
    return (f"no finite maximizer: in prompt {prompt!r}, {', '.join(map(repr, names[:5]))}"
            f"{more} never lose to the rest of the prompt ({int(cross.sum())} comparisons "
            "cross strongly connected components)")


def _strong_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Label each of ``n`` nodes with the root of its strongly connected component.

    Tarjan's algorithm (Tarjan 1972): one O(n + edges) pass over the edges
    src -> dst with explicit stacks, so no recursion limit applies.
    """
    keys = np.unique(src.astype(np.int64) * n + dst)
    heads = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n).tolist()
    succ, nxt = (keys % n).tolist(), heads[:-1]  # nxt[v]: v's next edge to follow
    order, low, label = [-1] * n, [0] * n, [-1] * n  # label -1: unseen or on ``stack``
    stack: list[int] = []
    count = 0
    for root in range(n):
        path = [root] if order[root] < 0 else []
        while path:
            v = path[-1]
            if order[v] < 0:
                order[v] = low[v] = count
                count += 1
                stack.append(v)
            if nxt[v] < heads[v + 1]:
                w = succ[nxt[v]]
                nxt[v] += 1
                if order[w] < 0:
                    path.append(w)
                elif label[w] < 0:
                    low[v] = min(low[v], order[w])
                continue
            path.pop()
            if path:
                low[path[-1]] = min(low[path[-1]], low[v])
            if low[v] == order[v]:  # v roots a component: pop it off ``stack``
                while label[v] < 0:
                    label[stack.pop()] = v
    return np.array(label, dtype=np.intp)


def e_step(dataset: Dataset, catalog: Catalog, ensemble: ScoreEnsemble) -> np.ndarray:
    """Posterior over types per annotator, computed with log-sum-exp."""
    return _e_step_compiled(CompiledRecords.from_dataset(dataset, catalog), ensemble)[0]


def _e_step_compiled(compiled: CompiledRecords, ensemble: ScoreEnsemble
                     ) -> tuple[np.ndarray, float]:
    """(n_rows, K) posteriors and the observed-data log-likelihood."""
    x = np.stack([compiled.catalog.flatten(t.scores) for t in ensemble.tables])
    gamma, norm = _e_step(compiled, x, ensemble.eta)
    return gamma[compiled.profile_of], float(norm[compiled.profile_of].sum())


def _e_step(compiled: CompiledRecords, x: np.ndarray, eta: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """(n_profiles, K) posteriors under (K, size) scores and each profile's log-likelihood."""
    logl = compiled.profile_logliks(x)
    with np.errstate(divide="ignore"):
        joint = logl + np.log(eta)[None, :]
    gamma, norm = softmax_lse(joint, axis=1)
    if not np.all(np.isfinite(norm)):
        raise ArithmeticError("zero mixture likelihood for some annotator")
    return gamma, norm


def m_step_eta(gamma: np.ndarray) -> np.ndarray:
    """Closed-form mixture-weight update: column means of the posteriors."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2:
        raise ValueError("responsibilities must be an n x K matrix")
    if np.any(gamma < 0) or np.any(np.abs(gamma.sum(axis=1) - 1.0) > ROW_SUM_ATOL):
        raise ValueError("every responsibility row must lie on the simplex")
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

    Before each type's fit, the data it weights is checked for a finite
    maximizer. ``on_nonconvergence`` selects what happens when that check
    fails or the gradient tolerance is not met within the iteration cap:
    "raise" (default) or "warn". The warn mode still returns the best
    iterate found, which never scores worse than the warm start.
    """
    compiled = CompiledRecords.from_dataset(dataset, catalog)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape[0] != compiled.n_rows:
        raise ValueError("gamma must have one row per annotator")
    x = (np.zeros((gamma.shape[1], compiled.size)) if init_tables is None
         else np.stack([catalog.flatten(t.scores) for t in init_tables]))
    counts = compiled.pattern_counts(compiled.profile_mass(gamma))
    _fit_types(compiled, counts, x, grad_tol, max_iter, on_nonconvergence, {})
    return [ScoreTable(kappa=kappa, scores=catalog.split(row)) for row in x]


def _fit_types(compiled: CompiledRecords, counts: np.ndarray, x: np.ndarray, grad_tol: float,
               max_iter: int, on_nonconvergence: str, checked: dict[bytes, str | None]
               ) -> list[float]:
    """Fit row k of (K, size) scores ``x`` to ``counts[k]`` in place; the gradient norms.

    A type without posterior mass keeps its scores; the others are checked
    (:func:`_unbounded_cached`), then fit by :func:`_newton_fit`. Every row
    ends gauge-fixed.
    """
    if on_nonconvergence not in ("raise", "warn"):
        raise ValueError("on_nonconvergence must be 'raise' or 'warn'")

    def fail(msg: str) -> None:
        if on_nonconvergence == "raise":
            raise ConvergenceError(msg)
        warnings.warn(msg, RuntimeWarning)

    norms: list[float] = []
    for k, c in enumerate(counts):
        if c.sum() <= 0.0:
            warnings.warn(f"type {k} received zero posterior mass; keeping its table",
                          EmptyClusterWarning)
            norms.append(0.0)
            continue
        unbounded = _unbounded_cached(compiled, c, checked)
        if unbounded is not None:
            fail(f"policy M-step for type {k}: {unbounded}")
        x[k], grad_norm = _newton_fit(compiled, c, x[k], grad_tol, max_iter)
        if grad_norm > grad_tol:
            fail(f"policy M-step for type {k} stopped at gradient norm "
                 f"{grad_norm:.3e} > {grad_tol:.1e}")
        norms.append(grad_norm)
    compiled.gauge_fix(x)
    return norms


def mixture_loglik(dataset: Dataset, catalog: Catalog, ensemble: ScoreEnsemble) -> float:
    """Observed-data log-likelihood of the mixture, log-space stable."""
    return _e_step_compiled(CompiledRecords.from_dataset(dataset, catalog), ensemble)[1]


def mean_winner_features(dataset: Dataset, catalog: Catalog) -> np.ndarray:
    """(n, d) matrix of each annotator's average winning-response features."""
    win = dataset.catalog_index(catalog)[dataset.items[dataset.offsets[:-1]]]
    sizes = np.bincount(dataset.rows, minlength=dataset.n)
    feats = np.concatenate([catalog.features(p) for p in catalog.prompts])[win]
    # bincount adds each annotator's records in order, as a running sum would
    sums = [np.bincount(dataset.rows, feats[:, j], minlength=dataset.n)
            for j in range(catalog.d)]
    return np.column_stack(sums) / sizes[:, None]


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
        labels = dataset.true_type
        bad = np.flatnonzero((labels < 0) | (labels >= k))
        if bad.size:
            i = bad[0]
            raise InputError(f"annotator {dataset.ids[i]} has no true_type label" if labels[i] < 0
                             else f"annotator {dataset.ids[i]} has true_type {labels[i]}, "
                                  f"not below k={k}")
        return np.eye(k)[labels]
    if k > n:
        raise ConfigError(f"k={k} exceeds the dataset's annotator count ({n}); "
                          f"{strategy} init needs k <= {n}")
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
    log-likelihood. Between iterations the state is each profile's posterior
    mass and the (K, size) scores. Restart r reruns the initializer with
    ``seed + r``. A later restart wins only with a log-likelihood higher by
    more than a relative 1e-12, so restarts tied up to rounding keep the first.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    if max_iters < 1:
        raise ConfigError("max_iters must be >= 1")
    if restarts < 1:
        raise ConfigError("restarts must be >= 1")
    compiled = CompiledRecords.from_dataset(dataset, catalog)

    checked: dict[bytes, str | None] = {}
    best: EmState | None = None
    all_traces: list[tuple[dict, ...]] = []
    for r in range(restarts):
        gamma0 = init_responsibilities(dataset, catalog, k, init, seed + r)
        mass = compiled.profile_mass(gamma0)
        x = np.zeros((k, compiled.size))
        gamma = None  # per profile; None while the start is still being fed
        trace: list[dict] = []
        prev_ll = None
        for it in range(1, max_iters + 1):  # runs at least once: max_iters >= 1
            gamma_fed = gamma
            eta = mass.sum(axis=0) / compiled.n_rows
            grad_norms = _fit_types(compiled, compiled.pattern_counts(mass), x, grad_tol,
                                    inner_max_iter, on_nonconvergence, checked)
            gamma, norm = _e_step(compiled, x, eta)
            mass = compiled.mult[:, None] * gamma
            ll = float(compiled.mult @ norm)
            trace.append({"iteration": it, "loglik": ll, "eta": [float(v) for v in eta],
                          "grad_norms": [float(g) for g in grad_norms]})
            if prev_ll is not None and ll - prev_ll < tol:
                break
            prev_ll = ll
        all_traces.append(tuple(trace))
        if best is None or ll - best.loglik > 1e-12 * abs(best.loglik):
            tables = tuple(ScoreTable(kappa=kappa, scores=catalog.split(row)) for row in x)
            best = EmState(
                ensemble=ScoreEnsemble(tables=tables, eta=eta), loglik=ll, iteration=it,
                gamma=gamma0 if gamma_fed is None else gamma_fed[compiled.profile_of],
                trace=tuple(trace))
    return replace(best, restart_traces=tuple(all_traces))
