"""Reference semantics that the package no longer carries, kept for tests.

Each definition is former package code: an earlier implementation that
tests check the current code against, or a helper that only tests call
(one choice set's probabilities, one table's KL and margins, the E-step
and eta update of a whole dataset, a zero table). The record-by-record
dataset reader and the row-by-row gamma reader are the former CLI readers
that the text I/O must match, byte for byte and message for message.
"""

import json
import warnings
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from hetpref import emdpo
from hetpref.aggregate import _FlatEnsemble
from hetpref.emdpo import (
    ROW_SUM_ATOL,
    CompiledRecords,
    EmptyClusterWarning,
    _e_step_compiled,
    _unbounded_cached,
    fit_preference_table,
)
from hetpref.errors import ConvergenceError, HetprefError, InputError
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
from hetpref.simulate import Dataset, _is_int


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
    x = np.zeros(compiled.size) if init_table is None else init_table.scores
    x, grad_norm, _ = fit_preference_table(compiled, counts, x, grad_tol=grad_tol,
                                           max_iter=max_iter)
    return gauge_fix(ScoreTable(kappa=kappa, scores=x), compiled.catalog), grad_norm


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


# Former emdpo.py: the M-step's loop of one fit per type. Verbatim but for
# unpacking the fit's third value, the per-copy gradient norms.
def fit_types_one_by_one(compiled: CompiledRecords, counts: np.ndarray, x: np.ndarray,
                         grad_tol: float, max_iter: int, on_nonconvergence: str,
                         checked: dict[bytes, str | None], warned: set[str]) -> list[float]:
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
        x[k], grad_norm, _ = fit_preference_table(compiled, c, x[k], grad_tol=grad_tol,
                                                  max_iter=max_iter)
        if grad_norm > grad_tol:
            fail(f"policy M-step for type {k} stopped at gradient norm "
                 f"{grad_norm:.3e} > {grad_tol:.1e}")
        norms.append(grad_norm)
    x[:] = compiled.catalog.centered(x)
    return norms


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


# Former rewards.py: Catalog.split, the inverse of Catalog.flatten.
def split_flat(catalog: Catalog, flat: np.ndarray) -> dict[str, np.ndarray]:
    """One view of the flat array ``flat`` per prompt."""
    return dict(zip(catalog.prompts, np.split(flat, catalog.offsets[1:-1])))


def prompt_scores(table: ScoreTable, catalog: Catalog, prompt: str) -> np.ndarray:
    """The scores of one prompt's responses, a view of the flat table."""
    return split_flat(catalog, table.scores)[prompt]


# Former policy.py: gauge_fix on per-prompt arrays, one mean per prompt.
def gauge_fix_per_prompt(catalog: Catalog, flat: np.ndarray) -> np.ndarray:
    """Flat scores minus each prompt's ``s.mean()``, prompt by prompt."""
    return np.concatenate([s - s.mean() for s in split_flat(catalog, flat).values()])


# Former policy.py; zero_table was the classmethod ScoreTable.zeros.
def zero_table(catalog: Catalog, kappa: float) -> ScoreTable:
    return ScoreTable(kappa=kappa, scores=np.zeros(catalog.offsets[-1]))


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
    return float(softmax(prompt_scores(table, catalog, prompt)[idx])[0])


def reward_margin(
    table: ScoreTable, catalog: Catalog, prompt: str, winner: str, loser: str
) -> float:
    """Implicit-reward margin s(x, winner) - s(x, loser)."""
    s = prompt_scores(table, catalog, prompt)
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
    log_pi = segment_log_softmax(log_ref + table.scores / table.kappa, catalog.offsets)
    return table.kappa * float(np.sum(w * np.exp(log_pi) * (log_pi - log_ref)))


def mixture_policy_probs(
    ensemble: ScoreEnsemble,
    weights: np.ndarray,
    ref: ReferencePolicy,
    catalog: Catalog,
    prompt: str,
) -> np.ndarray:
    """Convex combination of the member policies' distributions."""
    members = np.stack([policy_probs(t, ref, catalog, prompt) for t in ensemble.tables])
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
    return split_flat(catalog, flat.distribution(policy))


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


# Former simulate.py: the dataset reader, record by record, and its row checks.
class _Columns:
    """Ragged choice-set columns, grown one annotator row at a time."""

    def __init__(self):
        self.vocab, self.items, self.ends, self.rows = {}, [], [0], []

    def add(self, row: int, records: Iterable[tuple[str, str, Sequence[str]]]) -> None:
        """Append ``(prompt, winner, rejected)`` records of annotator ``row``."""
        entry = self.vocab.setdefault
        for prompt, winner, rejected in records:
            self.items.append(entry((prompt, winner), len(self.vocab)))
            self.items.extend([entry((prompt, y), len(self.vocab)) for y in rejected])
            self.ends.append(len(self.items))
            self.rows.append(row)

    def dataset(self, ids: list, types: list, where: Callable[[int], str], **meta) -> "Dataset":
        """The checked dataset; a malformed row raises :class:`InputError` at ``where(row)``."""
        rows, offsets, items = (np.array(c, dtype=np.intp)
                                for c in (self.rows, self.ends, self.items))
        fault = _first_fault(ids, types, rows, offsets, items)
        if fault is not None:
            raise InputError(f"{where(fault[0])}: {fault[1]}")
        return Dataset(ids=np.array(ids, dtype=np.int64),
                       true_type=np.array([-1 if t is None else t for t in types], dtype=np.int64),
                       rows=rows, offsets=offsets, items=items, vocab=tuple(self.vocab), **meta)


def _first_fault(ids: list, types: list, rows: np.ndarray, offsets: np.ndarray,
                 items: np.ndarray) -> tuple[int, str] | None:
    """The first malformed annotator row and what is wrong with it, or None.

    Faults are ordered by row, then by the order of the checks.
    """
    lengths = np.diff(offsets)
    rec = np.repeat(np.arange(lengths.size), lengths)
    rejected = np.arange(items.size) != offsets[rec]
    span = int(items.max(initial=0)) + 1
    pairs = np.sort((rec * span + items)[rejected])
    checks = [
        (np.flatnonzero(np.bincount(rows, minlength=len(ids)) == 0),
         "annotator needs at least one record"),
        (rows[lengths < 2], "a record needs at least one rejected response"),
        (rows[rec[rejected & (items == items[offsets[rec]])]], "winner cannot also be rejected"),
        (rows[pairs[1:][pairs[1:] == pairs[:-1]] // span], "rejected ids must be distinct"),
    ]
    row, _, fault = min(((int(bad.min()), c, msg) for c, (bad, msg) in enumerate(checks)
                         if bad.size), default=(len(ids), 0, None))
    seen: dict[int, int] = {}
    for i, (a, t) in enumerate(zip(ids[:row + 1], types)):
        if not (_is_int(a) and -2**63 <= a < 2**63):
            return i, f"annotator id must be a 64-bit integer, got {a!r}"
        if seen.setdefault(a, i) != i:
            return i, f"annotator id {a} is not unique"
        if t is not None and not (_is_int(t) and 0 <= t < 2**63):
            return i, f"true_type must be null or a non-negative integer, got {t!r}"
    return None if fault is None else (row, fault)


def read_dataset(path: str | Path) -> Dataset:
    """Read a dataset; a malformed file raises :class:`InputError` naming the line."""
    path = Path(path)
    lineno = 1
    columns, ids, types = _Columns(), [], []
    try:
        with path.open("r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            for lineno, raw in enumerate(fh, start=2):
                doc = json.loads(raw)
                ids.append(doc["annotator"])
                types.append(doc["true_type"])
                columns.add(lineno - 2, ((r["prompt"], r["winner"], r["rejected"])
                                         for r in doc["records"]))
        lineno = 1
        dataset = columns.dataset(
            ids, types, lambda row: f"{path}, line {row + 2}",
            catalog_hash=header["catalog_hash"],
            seed=header["seed"],
            m=header["m"],
            choice_set_size=header["choice_set_size"],
        )
        if dataset.n != header["n"]:
            raise ValueError(f"header says n={header['n']} but file holds {dataset.n}")
    except OSError as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from None
    except InputError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}, line {lineno}: {type(exc).__name__}: {exc}") from None
    return dataset


# Former cli.py: the gamma.csv reader, row by row.
def _read_gamma(path: Path, annotators: Sequence[int], k: int) -> np.ndarray:
    """Posteriors from a gamma CSV: one row per annotator in dataset order, on the simplex."""
    try:
        rows = path.read_text(encoding="utf-8").strip().splitlines()[1:]
    except OSError as exc:
        raise InputError(f"gamma file {path}: {type(exc).__name__}: {exc}") from None
    if len(rows) != len(annotators):
        raise InputError(f"gamma file {path} has {len(rows)} rows, dataset has "
                         f"{len(annotators)} annotators")
    gamma = np.empty((len(annotators), k))
    for i, (line, annotator) in enumerate(zip(rows, annotators)):
        where = f"gamma file {path}, line {i + 2}"
        cells = line.split(",")
        if len(cells) != k + 1:
            raise InputError(f"{where}: {len(cells) - 1} columns, ensemble has {k}")
        if cells[0].strip() != str(annotator):
            raise InputError(f"{where}: annotator {cells[0]!r}, but the dataset's "
                             f"annotator {i + 1} is {annotator}")
        try:
            row = [float(v) for v in cells[1:]]
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
        if not (min(row) >= 0.0 and abs(sum(row) - 1.0) <= emdpo.ROW_SUM_ATOL):
            raise InputError(f"{where}: {row} does not lie on the simplex")
        gamma[i] = row
    return gamma
