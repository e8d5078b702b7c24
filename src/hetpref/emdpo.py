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
count solved as one batch. Under the Luce choice model a pattern's softmax
depends only on its choice set, so the solver works on distinct sets: each
fit folds its pattern counts into set totals and winner counts, and builds
the Hessian only before it takes a step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cache
from typing import Sequence

import numpy as np

from .errors import ConfigError, ConvergenceError, InputError
from .policy import ScoreEnsemble, ScoreTable
from .rewards import Catalog, softmax_lse
from .simulate import Dataset, PreferenceRecord, row_groups

__all__ = [
    "CompiledRecords",
    "EmState",
    "EmptyClusterWarning",
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

    The fit works on distinct choice sets (a pattern's indices, sorted).
    ``winner`` holds each pattern's winner and ``set_of`` its set; per set
    size, entry ``(span, members, own, upper)`` of ``set_blocks`` holds the
    sets numbered in ``span`` as an (L, S) matrix of flat indices, their
    prompts and the (L(L-1)/2, S) places of their upper pairs i < j in the
    Hessian buffer. Each prompt's negated Hessian is an r x r block of that
    flat buffer; entry ``(hslice, cols)`` of ``groups`` is the (G, r, r)
    run of the G prompts with r responses and their flat score indices.
    ``hess_rows`` and ``hess_diag`` hold each block row's first and diagonal
    places, in buffer order.

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
        rows, diag = [], []
        for r in np.unique(sizes):
            members = by_size[sizes[by_size] == r]
            h0 = hstart[members[0]]
            self.groups.append((slice(h0, h0 + members.size * r * r),
                                starts[members][:, None] + np.arange(r)))
            row = np.arange(members.size * r)
            rows.append(h0 + r * row)
            diag.append(h0 + r * row + row % r)
        # groups follow each other in the buffer, so these cover it in order
        self.hess_rows, self.hess_diag = np.concatenate(rows), np.concatenate(diag)
        # Distinct choice sets: a pattern's indices sorted, numbered by first
        # occurrence within each set size.
        self.winner = np.empty(self.n_patterns, dtype=np.intp)
        self.set_of = np.empty(self.n_patterns, dtype=np.intp)
        self.set_blocks: list[tuple[slice, np.ndarray, np.ndarray, np.ndarray]] = []
        for span, idx in self.blocks:
            self.winner[span] = idx[0]
            members = np.sort(idx, axis=0)
            group, first = row_groups(members.T)
            rank = np.empty_like(first)
            rank[np.argsort(first)] = np.arange(first.size)
            s0 = self.set_blocks[-1][0].stop if self.set_blocks else 0
            self.set_of[span] = s0 + rank[group]
            members = members[:, np.sort(first)].copy()
            own = self.prompt_of[members[0]]
            loc = members - starts[own]
            i, j = _upper_pairs(len(members))
            upper = hstart[own] + loc[i] * sizes[own] + loc[j]
            self.set_blocks.append((slice(s0, s0 + first.size), members, own, upper))
        self.n_sets = self.set_blocks[-1][0].stop if self.set_blocks else 0

    @classmethod
    def from_dataset(cls, dataset: Dataset, catalog: Catalog) -> "CompiledRecords":
        """The compile of ``dataset`` against ``catalog``, built once per pair of
        objects and kept by the dataset."""
        # keyed by id: the compile holds its catalog, so the id is not reused
        compiled = dataset._compiled.get(id(catalog))
        if compiled is None:
            compiled = dataset._compiled[id(catalog)] = cls(catalog, dataset)
        return compiled

    @classmethod
    def from_records(cls, records: Sequence[PreferenceRecord], catalog: Catalog
                     ) -> "CompiledRecords":
        """Records in any order; one row per annotator in order of first appearance."""
        return cls(catalog, Dataset.from_records(records))

    def set_totals(self, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pattern ``counts`` folded into each choice set's total and each
        response's winner count."""
        return (np.bincount(self.set_of, counts, minlength=self.n_sets),
                np.bincount(self.winner, counts, minlength=self.size))

    def set_terms(self, x: np.ndarray, totals: np.ndarray, wins: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Weighted log-likelihood per prompt, its gradient and each block's softmax.

        With set totals C and winner counts w from :meth:`set_totals`, the
        value is w.x - sum C lse and the gradient w - sum C p: a Luce
        choice's softmax depends on its set, not on the winner.
        """
        val = np.bincount(self.prompt_of, wins * x, minlength=len(self.catalog.prompts))
        grad = wins.copy()
        probs = []
        for span, members, own, _ in self.set_blocks:
            c = totals[span]
            p, lse = softmax_lse(x[members], axis=0)
            val -= np.bincount(own, c * lse, minlength=val.size)
            grad -= np.bincount(members.ravel(), (c * p).ravel(), minlength=self.size)
            probs.append(p)
        return val, grad, probs

    def neg_hessian(self, totals: np.ndarray, probs: list[np.ndarray]) -> np.ndarray:
        """The negated Hessian, the sum over sets of C (diag(p) - p p^T), as
        per-prompt (r, r) blocks of the flat buffer laid out by ``groups``.

        Only the upper pairs C p_i p_j are scattered; the buffer is then
        symmetrized and each diagonal entry set to its row's off-diagonal
        sum, as the rows of diag(p) - p p^T sum to zero.
        """
        pairs = np.zeros(self.hess_size)
        for (span, members, _, upper), p in zip(self.set_blocks, probs):
            i, j = _upper_pairs(len(members))
            pairs += np.bincount(upper.ravel(), (totals[span] * p[i] * p[j]).ravel(),
                                 minlength=self.hess_size)
        for hslice, cols in self.groups:
            r = cols.shape[1]
            half = pairs[hslice].reshape(-1, r, r)
            half += half.transpose(0, 2, 1)  # numpy buffers the overlapping operand
        hess = -pairs
        hess[self.hess_diag] = np.add.reduceat(pairs, self.hess_rows)
        return hess

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


@cache
def _upper_pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices i < j of the upper triangle of a size x size
    matrix, read-only as every caller shares them."""
    pairs = np.triu_indices(size, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _bin_sums(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """(size, K) sums of the (len(index), K) ``values`` by row ``index``, in row order."""
    k = values.shape[1]
    return np.bincount((index[:, None] * k + np.arange(k)).ravel(), values.ravel(),
                       minlength=size * k).reshape(size, k)


def fit_preference_table(compiled: CompiledRecords, counts: np.ndarray, x: np.ndarray, *,
                         grad_tol: float = 1e-8, max_iter: int = 1000
                         ) -> tuple[np.ndarray, float]:
    """Fit flat scores ``x`` to pattern ``counts``; the new scores and gradient max norm.

    The package's one preference fit; EM's M-step and the lightweight
    aggregator both call it. ``counts`` holds one weight per pattern (see
    ``inverse``) and ``x`` the (size,) warm start; they are folded once into
    per-set totals (:meth:`CompiledRecords.set_totals`), and the negated
    Hessian is built only when a step follows. Each of at most
    ``max_iter`` iterations takes a damped Newton step in every prompt
    whose gradient exceeds ``grad_tol / 2``, caps its largest
    entry at 4 and halves it until that prompt's objective does not fall:
    warm starts never lose objective value, so a capped run is still a
    valid generalized M-step. The scores are not gauge-fixed.
    """
    if np.shape(counts) != (compiled.n_patterns,) or np.shape(x) != (compiled.size,):
        raise ValueError(f"need {compiled.n_patterns} pattern counts and {compiled.size} scores, "
                         f"got shapes {np.shape(counts)} and {np.shape(x)}")
    starts, sizes = compiled.catalog.offsets[:-1], np.diff(compiled.catalog.offsets)
    totals, wins = compiled.set_totals(counts)
    val, grad, probs = compiled.set_terms(x, totals, wins)
    stuck = np.zeros(len(sizes), dtype=bool)
    for _ in range(max_iter):
        active = (np.maximum.reduceat(np.abs(grad), starts) > grad_tol * 0.5) & ~stuck
        if not active.any():
            break
        hess = compiled.neg_hessian(totals, probs)
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
            terms = compiled.set_terms(x + step, totals, wins)
            worse = terms[0] < floor
            if not worse.any():
                break
            step[np.repeat(worse, sizes)] *= 0.5
        else:
            # A prompt whose step fails 30 halvings stops where it is.
            stuck |= worse
            step[np.repeat(worse, sizes)] = 0.0
            terms = compiled.set_terms(x + step, totals, wins)
        x = x + step
        val, grad, probs = terms
    return x, float(np.abs(grad).max())


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
    gamma = _checked_gamma(gamma, compiled.n_rows)
    if init_tables is not None and len(init_tables) != gamma.shape[1]:
        raise ValueError(f"{len(init_tables)} init tables for {gamma.shape[1]} gamma columns")
    x = (np.zeros((gamma.shape[1], compiled.size)) if init_tables is None
         else np.stack([catalog.flatten(t.scores) for t in init_tables]))
    counts = compiled.pattern_counts(compiled.profile_mass(gamma))
    _fit_types(compiled, counts, x, grad_tol, max_iter, on_nonconvergence, {}, set())
    return [ScoreTable(kappa=kappa, scores=catalog.split(row)) for row in x]


def _checked_gamma(gamma: np.ndarray, n_rows: int, k: int | None = None) -> np.ndarray:
    """(n_rows, K) posteriors as floats; a ValueError unless finite and non-negative.

    Rows need not sum to 1: a fit depends on its weights only up to scale.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 2 or gamma.shape[0] != n_rows or k not in (None, gamma.shape[1]):
        raise ValueError(f"gamma must be {n_rows} x {'K' if k is None else k} "
                         f"(one row per annotator), got shape {gamma.shape}")
    if not np.all(np.isfinite(gamma)) or np.any(gamma < 0.0):
        raise ValueError("gamma must be finite and non-negative")
    return gamma


def _fit_types(compiled: CompiledRecords, counts: np.ndarray, x: np.ndarray, grad_tol: float,
               max_iter: int, on_nonconvergence: str, checked: dict[bytes, str | None],
               warned: set[str]) -> list[float]:
    """Fit row k of (K, size) scores ``x`` to ``counts[k]`` in place; the gradient norms.

    A type without posterior mass keeps its scores; the others are checked
    (:func:`_unbounded_cached`), then fit by :func:`fit_preference_table`.
    In warn mode an existence-check message already in ``warned`` is not
    repeated. Every row ends gauge-fixed.
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
            msg = f"policy M-step for type {k}: {unbounded}"
            if msg not in warned:
                fail(msg)
                warned.add(msg)
        x[k], grad_norm = fit_preference_table(compiled, c, x[k], grad_tol=grad_tol,
                                               max_iter=max_iter)
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
    warned: set[str] = set()
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
                                    inner_max_iter, on_nonconvergence, checked, warned)
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
