"""Linear reward model over a finite prompt/response catalog.

A catalog fixes the world: prompts, their candidate responses, and a
d-dimensional feature vector per (prompt, response). Rewards are linear,
``theta @ features``. Choice probabilities follow the conditional logit
(McFadden 1974): a softmax of rewards over the choice set, or a population
mixture thereof. Every softmax in the package is one of the two kernels
here: :func:`softmax_lse` along an axis, and :func:`segment_log_softmax`
over the prompt blocks of a flat array laid out by :attr:`Catalog.offsets`.
Every exact winner distribution is :func:`choice_weights`, the mixture
kernel over :func:`softmax`: per-type scores of a batch of choice sets
(gathered from :attr:`Catalog.flat_features` by :meth:`Catalog.choice_sets`
indices, then multiplied) in, one distribution per set out. Every gauge
fix of flat scores is :meth:`Catalog.centered`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CatalogKeyError

__all__ = [
    "Catalog",
    "LatentType",
    "Population",
    "choice_weights",
    "softmax",
    "softmax_lse",
    "segment_log_softmax",
]

SIMPLEX_ATOL = 1e-12


def softmax_lse(scores: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Softmax along ``axis`` and the log-normalizer log(sum(exp(scores))).

    The probabilities are exp(s - max) / sum; the log-normalizer has
    ``axis`` removed and is finite wherever the scores are.
    """
    scores = np.asarray(scores, dtype=float)
    mx = scores.max(axis=axis, keepdims=True)
    e = np.exp(scores - mx)
    tot = e.sum(axis=axis, keepdims=True)
    return e / tot, np.squeeze(mx + np.log(tot), axis=axis)


def softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max subtraction)."""
    return softmax_lse(scores, axis)[0]


def choice_weights(scores: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """(n, L) winner distributions of n choice sets from their (n, L, K)
    per-type scores, mixed by the (K,) type weights ``eta``."""
    return softmax(scores, axis=1) @ eta


def segment_log_softmax(logits: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Log-softmax of each prompt's block of the last axis of flat logits.

    ``offsets`` is :attr:`Catalog.offsets`. The result is finite wherever
    the logits are, even where the probability itself underflows.
    """
    starts, sizes = offsets[:-1], np.diff(offsets)
    shifted = logits - np.repeat(np.maximum.reduceat(logits, starts, axis=-1), sizes, axis=-1)
    lse = np.log(np.add.reduceat(np.exp(shifted), starts, axis=-1))
    return shifted - np.repeat(lse, sizes, axis=-1)


@dataclass(frozen=True)
class Catalog:
    """Finite prompt/response universe with feature vectors.

    Use :meth:`build` rather than the raw constructor; it validates the
    invariants (>= 2 responses per prompt, consistent feature dimension,
    unique response ids within a prompt).
    """

    d: int
    prompts: tuple[str, ...]
    _responses: dict[str, tuple[str, ...]] = field(repr=False)
    _features: dict[str, np.ndarray] = field(repr=False)
    _index: dict[str, dict[str, int]] = field(repr=False)

    @classmethod
    def build(
        cls, entries: Mapping[str, Sequence[tuple[str, Iterable[float]]]]
    ) -> "Catalog":
        """Build from ``{prompt_id: [(response_id, feature_vector), ...]}``.

        Response order within a prompt is preserved and meaningful.
        """
        if not entries:
            raise ValueError("catalog needs at least one prompt")
        responses: dict[str, tuple[str, ...]] = {}
        features: dict[str, np.ndarray] = {}
        index: dict[str, dict[str, int]] = {}
        d: int | None = None
        for prompt, items in entries.items():
            rids = [rid for rid, _ in items]
            if len(rids) < 2:
                raise ValueError(f"prompt {prompt!r} has fewer than 2 responses")
            if len(set(rids)) != len(rids):
                raise ValueError(f"duplicate response ids under prompt {prompt!r}")
            mat = np.array([np.asarray(vec, dtype=float) for _, vec in items])
            if mat.ndim != 2:
                raise ValueError(f"features for prompt {prompt!r} must be vectors")
            if d is None:
                d = mat.shape[1]
            elif mat.shape[1] != d:
                raise ValueError(
                    f"feature dimension mismatch at prompt {prompt!r}: "
                    f"{mat.shape[1]} != {d}"
                )
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"non-finite feature under prompt {prompt!r}")
            mat.setflags(write=False)
            responses[prompt] = tuple(rids)
            features[prompt] = mat
            index[prompt] = {rid: i for i, rid in enumerate(rids)}
        assert d is not None
        if d < 1:
            raise ValueError("feature dimension must be >= 1")
        return cls(
            d=d,
            prompts=tuple(entries.keys()),
            _responses=responses,
            _features=features,
            _index=index,
        )

    def responses(self, prompt: str) -> tuple[str, ...]:
        try:
            return self._responses[prompt]
        except KeyError:
            raise CatalogKeyError(f"unknown prompt {prompt!r}") from None

    def features(self, prompt: str) -> np.ndarray:
        """(n_responses, d) feature matrix of a prompt; read-only view."""
        try:
            return self._features[prompt]
        except KeyError:
            raise CatalogKeyError(f"unknown prompt {prompt!r}") from None

    def feature(self, prompt: str, response: str) -> np.ndarray:
        return self.features(prompt)[self.response_index(prompt, response)]

    def response_index(self, prompt: str, response: str) -> int:
        try:
            return self._index[prompt][response]
        except KeyError:
            if prompt not in self._index:
                raise CatalogKeyError(f"unknown prompt {prompt!r}") from None
            raise CatalogKeyError(
                f"unknown response {response!r} under prompt {prompt!r}"
            ) from None

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start of each prompt in the flat (prompt, response) order, then the total."""
        out = np.cumsum([0] + [len(self._responses[p]) for p in self.prompts], dtype=np.intp)
        out.setflags(write=False)
        return out

    @cached_property
    def flat_features(self) -> np.ndarray:
        """(size, d) features of every (prompt, response) in the flat order; read-only."""
        out = np.concatenate([self._features[p] for p in self.prompts])
        out.setflags(write=False)
        return out

    def choice_sets(self, size: int) -> np.ndarray:
        """(sets, size) flat indices of every choice set of ``size`` responses,
        prompt by prompt, each prompt's in ``itertools.combinations`` order."""
        bounds = self.offsets.tolist()
        per_prompt = (combinations(range(s, e), size) for s, e in zip(bounds, bounds[1:]))
        return np.fromiter(chain.from_iterable(chain.from_iterable(per_prompt)),
                           dtype=np.intp).reshape(-1, size)

    def check_scores(self, x: np.ndarray) -> np.ndarray:
        """``x`` if its last axis holds one score per (prompt, response); else a
        ValueError naming both lengths."""
        if x.shape[-1] != self.offsets[-1]:
            raise ValueError(f"{x.shape[-1]} scores for {self.offsets[-1]} catalog responses")
        return x

    def flatten(self, per_prompt: Mapping[str, np.ndarray]) -> np.ndarray:
        """Per-prompt arrays (aligned with :meth:`responses`) joined in the flat order."""
        return np.concatenate([np.asarray(per_prompt[p], dtype=float) for p in self.prompts])

    @cached_property
    def _by_count(self) -> list[np.ndarray]:
        """(G, r) flat indices of the G prompts with r responses, for each count r."""
        starts, sizes = self.offsets[:-1], np.diff(self.offsets)
        return [starts[sizes == r][:, None] + np.arange(r) for r in np.unique(sizes)]

    def centered(self, x: np.ndarray) -> np.ndarray:
        """Flat scores ``x`` (1-D or (K, size)) minus each prompt's mean: the canonical
        gauge. Prompts of equal response count are centered as one batch, with
        means summed as each prompt's ``s.mean()``, so the two agree bit for bit."""
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        for cols in self._by_count:
            s = np.take(x, cols, axis=-1)  # C order (x[..., cols] puts K innermost)
            out[..., cols] = s - s.mean(axis=-1, keepdims=True)
        return out

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "prompts": [
                {
                    "id": p,
                    "responses": [
                        {"id": r, "features": list(map(float, f))}
                        for r, f in zip(self._responses[p], self._features[p])
                    ],
                }
                for p in self.prompts
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Catalog":
        entries = {
            p["id"]: [(r["id"], r["features"]) for r in p["responses"]]
            for p in doc["prompts"]
        }
        cat = cls.build(entries)
        if int(doc["d"]) != cat.d:
            raise ValueError(f"declared d={doc['d']} but features have d={cat.d}")
        return cat

    def content_hash(self) -> str:
        """sha256 over the canonical JSON form; identity for manifests."""
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class LatentType:
    """One latent preference type: weight vector theta and mixture mass eta."""

    id: int
    theta: np.ndarray
    eta: float

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        if not (0.0 <= self.eta <= 1.0):
            raise ValueError(f"eta must be in [0, 1], got {self.eta}")


@dataclass(frozen=True)
class Population:
    """Discrete mixture of latent types; etas sum to one."""

    types: tuple[LatentType, ...]

    def __post_init__(self):
        if len(self.types) < 1:
            raise ValueError("population needs at least one type")
        total = sum(t.eta for t in self.types)
        if abs(total - 1.0) > SIMPLEX_ATOL:
            raise ValueError(f"mixture weights sum to {total}, not 1")
        dims = {t.theta.shape for t in self.types}
        if len(dims) != 1:
            raise ValueError("all types must share the same theta dimension")

    @classmethod
    def from_weights(
        cls, thetas: Sequence[Iterable[float]], etas: Sequence[float]
    ) -> "Population":
        if len(thetas) != len(etas):
            raise ValueError("thetas and etas must have equal length")
        return cls(
            types=tuple(
                LatentType(id=k, theta=np.asarray(t, dtype=float), eta=float(e))
                for k, (t, e) in enumerate(zip(thetas, etas))
            )
        )

    @classmethod
    def of(cls, theta_or_population: np.ndarray | Population) -> Population:
        """A population as is; a bare theta as one type of weight 1."""
        if isinstance(theta_or_population, Population):
            return theta_or_population
        return cls.from_weights([theta_or_population], [1.0])

    @property
    def k(self) -> int:
        return len(self.types)

    @property
    def etas(self) -> np.ndarray:
        return np.array([t.eta for t in self.types])

    @property
    def thetas(self) -> np.ndarray:
        return np.stack([t.theta for t in self.types])

