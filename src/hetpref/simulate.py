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
and records in one vectorized pass. The streams and the order of calls on
them are part of the output: the two phases give the same records as
drawing record by record, and changing either changes every dataset
(golden digests in ``tests/test_simulate.py`` pin them).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from ._streams import Streams
from .errors import ConfigError, DegeneratePopulationError, InputError
from .rewards import Catalog, Population, exact_choice_weights, softmax

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
    """One observation: a winner against an ordered set of rejected responses."""

    annotator: int
    prompt: str
    winner: str
    rejected: tuple[str, ...]

    def __post_init__(self):
        if len(self.rejected) < 1:
            raise ValueError("a record needs at least one rejected response")
        if self.winner in self.rejected:
            raise ValueError("winner cannot also be rejected")
        if len(set(self.rejected)) != len(self.rejected):
            raise ValueError("rejected ids must be distinct")

    @property
    def choice_set(self) -> tuple[str, ...]:
        return (self.winner, *self.rejected)


@dataclass(frozen=True)
class AnnotatorData:
    """All records of one annotator plus the hidden type (evaluation only)."""

    annotator: int
    records: tuple[PreferenceRecord, ...]
    true_type: int | None = None

    def __post_init__(self):
        if len(self.records) < 1:
            raise ValueError("annotator needs at least one record")
        for r in self.records:
            if r.annotator != self.annotator:
                raise ValueError("record annotator id mismatch")


@dataclass(frozen=True)
class Dataset:
    """Annotator-level preference data tied to a catalog by hash."""

    annotators: tuple[AnnotatorData, ...]
    catalog_hash: str
    seed: int
    m: int
    choice_set_size: int

    def __post_init__(self):
        ids = [a.annotator for a in self.annotators]
        if len(set(ids)) != len(ids):
            raise ValueError("annotator ids must be unique")

    @property
    def n(self) -> int:
        return len(self.annotators)

    def records(self) -> list[PreferenceRecord]:
        return [r for a in self.annotators for r in a.records]


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
    anything ``numpy.random.SeedSequence`` accepts as entropy.
    """
    for name, value in (("n", n), ("m", m), ("choice_set_size", choice_set_size)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if n < 1 or m < 1:
        raise ConfigError("n and m must be >= 1")
    if choice_set_size < 2:
        raise ConfigError("choice_set_size must be >= 2")
    for p in catalog.prompts:
        if choice_set_size > len(catalog.responses(p)):
            raise ConfigError(
                f"choice_set_size {choice_set_size} exceeds responses of prompt {p!r}"
            )

    prompt_ids = catalog.prompts
    sizes = np.diff(catalog.offsets)

    # Phase 1: only the random calls, in each stream's fixed order, all
    # streams at once. Record r = i * m + j is annotator i's j-th record.
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
    # Winner first, then the rest of the set in draw order.
    col = np.arange(choice_set_size)
    col = col - (col <= w[:, None])
    col[:, 0] = w
    response_ids = np.array([r for p in prompt_ids for r in catalog.responses(p)], dtype=object)
    sets = response_ids[np.take_along_axis(flat, col, axis=1)].tolist()
    records = [
        PreferenceRecord(annotator=r // m, prompt=prompt_ids[p], winner=s[0], rejected=tuple(s[1:]))
        for r, (p, s) in enumerate(zip(prompt.tolist(), sets))
    ]
    annotators = [
        AnnotatorData(annotator=i, records=tuple(records[i * m:(i + 1) * m]), true_type=t)
        for i, t in enumerate(z.tolist())
    ]
    return Dataset(
        annotators=tuple(annotators),
        catalog_hash=catalog.content_hash(),
        seed=rng_seed,
        m=m,
        choice_set_size=choice_set_size,
    )


def expected_dataset(
    catalog: Catalog,
    theta_or_population: np.ndarray | Population,
    choice_set_size: int,
) -> tuple[list[PreferenceRecord], np.ndarray]:
    """Infinite-data surrogate: every choice set with every winner, weighted.

    Enumerates all choice sets of the given size per prompt and emits one
    record per possible winner, weighted by prompt probability (uniform),
    set probability (uniform) and the exact winner probability. Feeding
    these weighted records to the preference-table fitter reproduces the
    population-level optimum without sampling noise.
    """
    from itertools import combinations

    records: list[PreferenceRecord] = []
    weights: list[float] = []
    n_prompts = len(catalog.prompts)
    i = 0
    for prompt in catalog.prompts:
        rids = catalog.responses(prompt)
        sets = list(combinations(rids, choice_set_size))
        for s in sets:
            probs = exact_choice_weights(catalog, theta_or_population, prompt, s)
            for j, winner in enumerate(s):
                rejected = tuple(y for y in s if y != winner)
                records.append(
                    PreferenceRecord(annotator=i, prompt=prompt, winner=winner, rejected=rejected)
                )
                weights.append(float(probs[j]) / (len(sets) * n_prompts))
                i += 1
    return records, np.asarray(weights)


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    """JSON-lines: one header line, then one annotator per line."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        header = {
            "catalog_hash": dataset.catalog_hash,
            "seed": dataset.seed,
            "n": dataset.n,
            "m": dataset.m,
            "choice_set_size": dataset.choice_set_size,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for a in dataset.annotators:
            line = {
                "annotator": a.annotator,
                "true_type": a.true_type,
                "records": [
                    {"prompt": r.prompt, "winner": r.winner, "rejected": list(r.rejected)}
                    for r in a.records
                ],
            }
            fh.write(json.dumps(line, sort_keys=True) + "\n")


def read_dataset(path: str | Path) -> Dataset:
    """Read a dataset; a malformed file raises :class:`InputError` naming the line."""
    path = Path(path)
    lineno = 1
    try:
        with path.open("r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            annotators = []
            for lineno, raw in enumerate(fh, start=2):
                doc = json.loads(raw)
                records = tuple(
                    PreferenceRecord(
                        annotator=doc["annotator"],
                        prompt=r["prompt"],
                        winner=r["winner"],
                        rejected=tuple(r["rejected"]),
                    )
                    for r in doc["records"]
                )
                annotators.append(
                    AnnotatorData(
                        annotator=doc["annotator"],
                        records=records,
                        true_type=doc["true_type"],
                    )
                )
        lineno = 1
        dataset = Dataset(
            annotators=tuple(annotators),
            catalog_hash=header["catalog_hash"],
            seed=header["seed"],
            m=header["m"],
            choice_set_size=header["choice_set_size"],
        )
        if dataset.n != header["n"]:
            raise ValueError(f"header says n={header['n']} but file holds {dataset.n}")
    except OSError as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from None
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}, line {lineno}: {type(exc).__name__}: {exc}") from None
    return dataset
