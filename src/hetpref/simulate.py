"""Data-generating process for latent-type preference data.

Each annotator draws a hidden type from the population, then produces m
records: a uniformly chosen prompt (independent of the type), a uniform
choice set without replacement, and a winner drawn from the type's choice
model. Includes the synthetic personality population used throughout the
experiments and the adversarial +/-theta pair.

Sampling runs in two phases. The first makes only the random calls, in a
fixed order, on one child random stream per annotator; ``_streams`` makes
each call for all annotators at once, with the draws numpy's ``Generator``
would make on each stream. The second turns every draw into types, winners
and record columns in one vectorized pass. The streams and the order of calls on
them are part of the output: the two phases give the same records as
drawing record by record, and changing either changes every dataset
(golden digests in ``tests/test_simulate.py`` pin them).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._streams import Streams
from .errors import ConfigError, DegeneratePopulationError, InputError
from .rewards import Catalog, Population, choice_weights, softmax

__all__ = [
    "PreferenceRecord",
    "AnnotatorData",
    "Dataset",
    "make_mpi_population",
    "make_adversarial_pair",
    "simulate_dataset",
    "expected_dataset",
    "write_dataset",
    "read_dataset",
]

PERSONALITY_VECTORS = (
    (3.0, 0.0, 2.0, 0.0, -2.5),
    (-3.0, 0.0, -2.0, 0.0, 2.5),
    (0.0, 2.0, 0.0, 2.0, 0.0),
)
PERSONALITY_WEIGHTS = (0.3, 0.3, 0.4)
MPI_PROMPT = "instruction"


@dataclass(frozen=True)
class PreferenceRecord:
    """A view of one record: a winner against an ordered set of rejected responses."""

    annotator: int
    prompt: str
    winner: str
    rejected: tuple[str, ...]

    @property
    def choice_set(self) -> tuple[str, ...]:
        return (self.winner, *self.rejected)


@dataclass(frozen=True)
class AnnotatorData:
    """A view of one annotator's records plus the hidden type (evaluation only)."""

    annotator: int
    records: tuple[PreferenceRecord, ...]
    true_type: int | None = None


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def row_groups(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Groups of equal rows of a 2-D array, numbered in lexicographic order:
    each row's group and the index of each group's first row."""
    by = np.lexsort(a.T[::-1]) if a.size else np.arange(len(a))
    new = np.ones(len(by), dtype=bool)
    new[1:] = (a[by[1:]] != a[by[:-1]]).any(axis=1)
    group = np.empty(len(by), dtype=np.intp)
    group[by] = np.cumsum(new) - 1
    return group, by[new]  # lexsort is stable: a run starts at its first row


@dataclass(frozen=True, eq=False)
class Dataset:
    """Annotator-level preference data as integer columns, tied to a catalog by hash.

    Record r belongs to annotator row ``rows[r]`` and offers the choice set
    ``items[offsets[r]:offsets[r + 1]]``: the winner first, then the
    rejected responses in recorded order. Items index ``vocab``, the
    (prompt, response) names; a simulated dataset uses the catalog's flat
    order. Row i has annotator id ``ids[i]`` and hidden type
    ``true_type[i]``, -1 where unknown. Each annotator's records keep their
    order; a dataset read from a file lists them row by row. ``annotators``
    and ``records()`` are views built on demand.
    """

    ids: np.ndarray
    true_type: np.ndarray
    rows: np.ndarray
    offsets: np.ndarray
    items: np.ndarray
    vocab: tuple[tuple[str, str], ...]
    catalog_hash: str | None = None
    seed: Any = None
    m: int | None = None
    choice_set_size: int | None = None

    @classmethod
    def from_records(cls, records: Iterable[PreferenceRecord],
                     true_types: Mapping[int, int] | None = None, **meta) -> "Dataset":
        """Columns of records in the given order, one row per annotator id in order
        of first appearance; a malformed record raises :class:`InputError`."""
        columns, row_of = _Columns(), {}
        for r in records:
            columns.add(row_of.setdefault(r.annotator, len(row_of)),
                        [(r.prompt, r.winner, r.rejected)])
        ids = list(row_of)
        return columns.dataset(ids, [(true_types or {}).get(a) for a in ids],
                               lambda i: f"annotator {ids[i]!r}", **meta)

    def __eq__(self, other) -> bool:
        fields = ("ids", "true_type", "rows", "offsets", "catalog_hash", "seed", "m",
                  "choice_set_size")
        return isinstance(other, Dataset) and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in fields
        ) and np.array_equal(*(np.array(d.vocab, dtype=object)[d.items] for d in (self, other)))

    @property
    def n(self) -> int:
        return len(self.ids)

    def catalog_index(self, catalog: Catalog) -> np.ndarray:
        """Each vocabulary entry's index in the catalog's flat order."""
        start = dict(zip(catalog.prompts, catalog.offsets.tolist()))
        return np.array([catalog.response_index(p, y) + start[p] for p, y in self.vocab],
                        dtype=np.intp)

    def sets_by_size(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Per set size L, ascending: the records offering L responses and
        their (records, L) matrix of vocabulary indices, winner first."""
        lengths = np.diff(self.offsets)
        for size in np.unique(lengths).tolist():
            recs = np.flatnonzero(lengths == size)
            yield recs, self.items[self.offsets[recs, None] + np.arange(size)]

    def first_row_with(self, entry: int) -> int:
        """Row of the first record whose choice set holds vocabulary ``entry``."""
        pos = int(np.argmax(self.items == entry))
        return int(self.rows[np.searchsorted(self.offsets, pos, side="right") - 1])

    def records(self) -> list[PreferenceRecord]:
        """A view of every record, in record order."""
        vocab, items, ends = self.vocab, self.items.tolist(), self.offsets.tolist()
        ids = self.ids.tolist()
        return [PreferenceRecord(ids[row], *vocab[items[s]],
                                 tuple(vocab[j][1] for j in items[s + 1:e]))
                for row, s, e in zip(self.rows.tolist(), ends, ends[1:])]

    def _row_records(self) -> list[list[int]]:
        """The record indices of each annotator row, in record order."""
        by_row = np.argsort(self.rows, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.rows, minlength=self.n)).tolist()
        return [by_row[s:e] for s, e in zip([0] + ends, ends)]

    @cached_property
    def _compiled(self) -> dict:
        """Compiles of this dataset by catalog id (:meth:`emdpo.CompiledRecords.from_dataset`)."""
        return {}

    @cached_property
    def annotators(self) -> tuple[AnnotatorData, ...]:
        """A view of every annotator row with its records."""
        records = self.records()
        return tuple(AnnotatorData(a, tuple(records[j] for j in recs), None if t < 0 else t)
                     for a, t, recs in zip(self.ids.tolist(), self.true_type.tolist(),
                                           self._row_records()))


def make_mpi_population(n_phrases: int = 990, seed: int = 0) -> tuple[Population, Catalog]:
    """Three synthetic personalities over a phrase catalog with unit trait scores.

    Every phrase scores +1 or -1 on exactly one of five traits; traits are
    assigned round-robin and signs alternate deterministically (the seed
    shifts the phase). All phrases hang off a single shared instruction
    prompt, so a choice set is a set of phrases.
    """
    if n_phrases < 2:
        raise ConfigError("n_phrases must be >= 2")
    width = len(str(n_phrases - 1))
    items = []
    for i in range(n_phrases):
        trait = i % 5
        sign = 1.0 if ((i // 5) + seed) % 2 == 0 else -1.0
        vec = [0.0] * 5
        vec[trait] = sign
        items.append((f"phrase_{i:0{width}d}", vec))
    catalog = Catalog.build({MPI_PROMPT: items})
    population = Population.from_weights(PERSONALITY_VECTORS, PERSONALITY_WEIGHTS)
    return population, catalog


def make_adversarial_pair(theta: Iterable[float]) -> Population:
    """Equal mixture of theta and -theta; flat on every binary comparison."""
    theta = np.asarray(theta, dtype=float)
    if not np.any(theta != 0.0):
        raise DegeneratePopulationError(
            "theta is the zero vector; both pair members would coincide"
        )
    return Population.from_weights([theta, -theta], [0.5, 0.5])


def _canonical_type_order(population: Population) -> np.ndarray:
    # Sort types by a fingerprint of theta so that the sampled theta for a
    # given uniform draw does not depend on how the population is indexed.
    # Permuting the types then only permutes the recorded labels.
    import hashlib

    keys = [
        hashlib.sha256(np.ascontiguousarray(t.theta, dtype=float).tobytes()).hexdigest()
        for t in population.types
    ]
    return np.array(sorted(range(len(keys)), key=lambda i: keys[i]), dtype=int)


def _check_sets_fit(catalog: Catalog, choice_set_size: int) -> None:
    """ConfigError naming the first prompt with fewer responses than the set size."""
    for p in catalog.prompts:
        if choice_set_size > len(catalog.responses(p)):
            raise ConfigError(
                f"choice_set_size {choice_set_size} exceeds responses of prompt {p!r}"
            )


def simulate_dataset(
    catalog: Catalog,
    population: Population,
    n: int,
    m: int,
    choice_set_size: int,
    rng_seed: int,
) -> Dataset:
    """Draw n annotators with m records each; deterministic given rng_seed.

    Annotator i draws from its own child stream,
    ``SeedSequence(rng_seed).spawn(n)[i]``, so generation order cannot
    change the output. Phase 1 makes only the random calls: a type uniform,
    then per record a prompt, a choice set and a winner uniform. Each call
    runs on all n streams at once, so phase 1 takes about
    m * (2 * choice_set_size + 1) draws, each a few dozen array operations
    over n lanes: cheap for many annotators, slower than one numpy
    ``Generator`` per annotator when n is tiny and m is large. Phase 2 turns
    all draws into types, winners and records in one vectorized pass.

    ``n``, ``m`` and ``choice_set_size`` must be integers; ``rng_seed`` is
    anything ``numpy.random.SeedSequence`` accepts as entropy. With None,
    the fresh entropy drawn is recorded as the dataset's ``seed``.
    """
    for name, value in (("n", n), ("m", m), ("choice_set_size", choice_set_size)):
        if not _is_int(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if n < 1 or m < 1:
        raise ConfigError("n and m must be >= 1")
    if choice_set_size < 2:
        raise ConfigError("choice_set_size must be >= 2")
    _check_sets_fit(catalog, choice_set_size)

    prompt_ids = catalog.prompts
    sizes = np.diff(catalog.offsets)

    # Phase 1: only the random calls, in each stream's fixed order, all
    # streams at once. Record r = i * m + j is annotator i's j-th record.
    if rng_seed is None:
        rng_seed = np.random.SeedSequence().entropy
    streams = Streams(rng_seed, n)
    type_u = streams.random()
    prompt = np.empty((n, m), dtype=np.intp)
    sel = np.empty((n, m, choice_set_size), dtype=np.intp)
    winner_u = np.empty((n, m))
    for j in range(m):
        prompt[:, j] = streams.integers(len(prompt_ids))
        sel[:, j] = streams.choice(sizes[prompt[:, j]], choice_set_size)
        winner_u[:, j] = streams.random()
    prompt, sel, winner_u = prompt.ravel(), sel.reshape(n * m, -1), winner_u.ravel()

    # Phase 2: types, then each record's winner from the inverse CDF of its
    # type's softmax over the set, gathered from one flat (response, type)
    # reward table.
    order = _canonical_type_order(population)
    cum = np.cumsum(population.etas[order])
    z = order[np.searchsorted(cum, type_u, side="right").clip(0, len(order) - 1)]
    rewards = np.concatenate([catalog.features(p) @ population.thetas.T for p in prompt_ids])
    flat = catalog.offsets[prompt][:, None] + sel
    probs = softmax(rewards[flat, np.repeat(z, m)[:, None]], axis=1)
    below = np.cumsum(probs, axis=1) <= winner_u[:, None]
    w = np.minimum(below.sum(axis=1), choice_set_size - 1)
    # a Python int seed, so that write_dataset can encode numpy-integer arguments
    return _flat_dataset(catalog, flat, w, z, m, int(rng_seed) if _is_int(rng_seed) else rng_seed)


def _flat_dataset(catalog: Catalog, sets: np.ndarray, winner: np.ndarray,
                  true_type: np.ndarray, m: int, seed: Any = None) -> Dataset:
    """n = ``true_type.size`` annotators with m records each. Record r offers
    row r of the (n * m, L) flat catalog indices ``sets``: its ``winner[r]``-th
    entry first, then the rest of the set in order."""
    n, size = true_type.size, sets.shape[1]
    col = np.arange(size)
    col = col - (col <= winner[:, None])
    col[:, 0] = winner
    return Dataset(
        ids=np.arange(n, dtype=np.int64), true_type=true_type.astype(np.int64),
        rows=np.repeat(np.arange(n), m), offsets=np.arange(len(sets) + 1) * size,
        items=np.take_along_axis(sets, col, axis=1).ravel(),
        vocab=tuple((p, r) for p in catalog.prompts for r in catalog.responses(p)),
        catalog_hash=catalog.content_hash(), seed=seed, m=int(m), choice_set_size=int(size),
    )


def expected_dataset(
    catalog: Catalog,
    theta_or_population: np.ndarray | Population,
    choice_set_size: int,
) -> tuple[Dataset, np.ndarray]:
    """Infinite-data surrogate: every choice set with every winner, weighted.

    Each prompt's choice sets of the given size, in ``itertools.combinations``
    order, give one record per possible winner: the winner first, then the
    rest of the set in order, each record on its own annotator row. A
    record's weight is its prompt probability (uniform) times its set
    probability (uniform) times the exact winner probability. Feeding the
    weighted records to the preference-table fitter reproduces the
    population-level optimum without sampling noise.
    """
    if not _is_int(choice_set_size) or choice_set_size < 2:
        raise ConfigError(f"choice_set_size must be an integer >= 2, got {choice_set_size!r}")
    _check_sets_fit(catalog, choice_set_size)
    population = Population.of(theta_or_population)
    sets = catalog.choice_sets(choice_set_size)
    probs = choice_weights(catalog.flat_features[sets] @ population.thetas.T, population.etas)
    prompt = np.searchsorted(catalog.offsets, sets[:, 0], side="right") - 1
    n_sets = np.bincount(prompt, minlength=len(catalog.prompts))
    dataset = _flat_dataset(catalog, np.repeat(sets, choice_set_size, axis=0),
                            np.tile(np.arange(choice_set_size), len(sets)),
                            np.full(probs.size, -1), 1)
    return dataset, (probs / (n_sets[prompt, None] * len(catalog.prompts))).ravel()


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """JSON-lines: one header line, then one annotator per line.

    A line is ``json.dumps`` of the annotator's id, records and type with
    sorted keys; each distinct record is encoded once.
    """
    header = {
        "catalog_hash": dataset.catalog_hash,
        "seed": dataset.seed,
        "n": dataset.n,
        "m": dataset.m,
        "choice_set_size": dataset.choice_set_size,
    }
    vocab, items, ends = dataset.vocab, dataset.items.tolist(), dataset.offsets.tolist()
    encoded: dict[tuple[int, ...], str] = {}

    def encode(cset: tuple[int, ...]) -> str:
        if cset not in encoded:
            encoded[cset] = json.dumps({"prompt": vocab[cset[0]][0], "winner": vocab[cset[0]][1],
                                        "rejected": [vocab[j][1] for j in cset[1:]]},
                                       sort_keys=True)
        return encoded[cset]

    records = [encode(tuple(items[s:e])) for s, e in zip(ends, ends[1:])]
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for a, t, recs in zip(dataset.ids.tolist(), dataset.true_type.tolist(),
                              dataset._row_records()):
            line = ", ".join([records[j] for j in recs])
            fh.write(f'{{"annotator": {a}, "records": [{line}], '
                     f'"true_type": {"null" if t < 0 else t}}}\n')


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
