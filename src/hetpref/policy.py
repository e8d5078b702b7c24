"""Reward-free tabular policies over a finite catalog.

A :class:`ScoreTable` stores one real score per (prompt, response), as one
flat vector in :attr:`Catalog.offsets` order; the score plays the role of
the implicit reward ``kappa * log(pi / pi_ref)``. Preference probabilities
are softmaxes of scores restricted to a comparison set, and the
corresponding policy is recovered exactly as
``pi \\propto pi_ref * exp(score / kappa)``.

Scores carry a per-prompt additive gauge freedom: shifting all responses
of a prompt by a constant changes neither preference probabilities nor
policies. The canonical representative used for serialization and
comparisons has per-prompt mean zero (:meth:`Catalog.centered`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import InputError
from .rewards import SIMPLEX_ATOL, Catalog, softmax

__all__ = [
    "ReferencePolicy",
    "ScoreTable",
    "ScoreEnsemble",
    "gauge_fix",
    "policy_probs",
    "optimal_table_for_type",
    "uniform_prompt_weights",
    "write_ensemble",
    "read_ensemble",
    "ensemble_to_json_dict",
    "ensemble_from_json_dict",
]

# a read table's prompt means may be off zero by this much, times the prompt's largest
# |score| (at least 1): centering rounds in the scores' own scale
GAUGE_ATOL = 1e-9


@dataclass(frozen=True)
class ReferencePolicy:
    """Baseline per-prompt response distributions (strictly positive), as read-only copies."""

    probs: dict[str, np.ndarray]

    def __post_init__(self):
        probs = {prompt: np.array(p, dtype=float) for prompt, p in self.probs.items()}
        object.__setattr__(self, "probs", probs)
        for prompt, p in self.probs.items():
            if np.any(p <= 0.0):
                raise ValueError(f"reference policy must be strictly positive ({prompt!r})")
            if abs(p.sum() - 1.0) > SIMPLEX_ATOL:
                raise ValueError(f"reference policy for {prompt!r} does not sum to 1")
            p.setflags(write=False)

    @classmethod
    def uniform(cls, catalog: Catalog) -> "ReferencePolicy":
        return cls(
            probs={
                p: np.full(len(catalog.responses(p)), 1.0 / len(catalog.responses(p)))
                for p in catalog.prompts
            }
        )


@dataclass(frozen=True)
class ScoreTable:
    """One score per (prompt, response), as a read-only copy in :attr:`Catalog.offsets` order."""

    kappa: float
    scores: np.ndarray

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        scores = np.array(self.scores, dtype=float)
        if scores.ndim != 1:
            raise ValueError(f"scores must be one flat vector, got shape {scores.shape}")
        if not np.all(np.isfinite(scores)):
            raise ValueError("non-finite score")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)


def gauge_fix(table: ScoreTable, catalog: Catalog) -> ScoreTable:
    """Canonical representative: per-prompt mean score zero."""
    return ScoreTable(kappa=table.kappa, scores=catalog.centered(table.scores))


@dataclass(frozen=True)
class ScoreEnsemble:
    """K score tables sharing one kappa, plus mixture weights on the simplex."""

    tables: tuple[ScoreTable, ...]
    eta: np.ndarray

    def __post_init__(self):
        eta = np.asarray(self.eta, dtype=float)
        eta.setflags(write=False)
        object.__setattr__(self, "eta", eta)
        if len(self.tables) != len(eta):
            raise ValueError("one eta per table required")
        if abs(eta.sum() - 1.0) > SIMPLEX_ATOL or np.any(eta < 0):
            raise ValueError("eta must lie on the simplex")
        kappas = {t.kappa for t in self.tables}
        if len(kappas) != 1:
            raise ValueError("all tables must share the same kappa")

    @property
    def k(self) -> int:
        return len(self.tables)

    @property
    def kappa(self) -> float:
        return self.tables[0].kappa


def policy_probs(table: ScoreTable, ref: ReferencePolicy, catalog: Catalog,
                 prompt: str) -> np.ndarray:
    """pi(y|x) proportional to pi_ref(y|x) * exp(s(x,y)/kappa), normalized."""
    log_ref = np.log(ref.probs[prompt])
    start = catalog.offsets[catalog.prompts.index(prompt)]
    scores = catalog.check_scores(table.scores)[start:start + log_ref.size]
    return softmax(log_ref + scores / table.kappa)


def optimal_table_for_type(catalog: Catalog, theta: np.ndarray, kappa: float) -> ScoreTable:
    """Gauge-fixed scores of the exact KL-regularized optimum for reward theta@psi.

    The optimal policy for reward r with strength kappa is
    pi* = pi_ref * exp(r/kappa) / Z, whose implicit reward equals r up to a
    per-prompt constant; centering gives the canonical table.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (catalog.d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({catalog.d},)")
    return ScoreTable(kappa=kappa, scores=catalog.centered(catalog.flat_features @ theta))


def uniform_prompt_weights(catalog: Catalog) -> np.ndarray:
    return np.full(len(catalog.prompts), 1.0 / len(catalog.prompts))


def _flat_prompt_weights(catalog: Catalog, prompt_weights: np.ndarray) -> np.ndarray:
    """Checked prompt weights, each repeated over its prompt's responses."""
    w = np.asarray(prompt_weights, dtype=float)
    if w.shape != (len(catalog.prompts),):
        raise ValueError("prompt_weights must align with catalog.prompts")
    if np.any(w < 0) or abs(w.sum() - 1.0) > SIMPLEX_ATOL:
        raise ValueError("prompt_weights must be a distribution")
    return np.repeat(w, np.diff(catalog.offsets))


def _check_mixture_weights(ensemble: ScoreEnsemble, weights) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (ensemble.k,):
        raise ValueError(f"weights must have length {ensemble.k}")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > SIMPLEX_ATOL:
        raise ValueError("weights must lie on the simplex")
    return weights


def ensemble_to_json_dict(ensemble: ScoreEnsemble, catalog: Catalog) -> dict:
    """Canonical JSON form; gauge is enforced on write."""
    bounds = catalog.offsets.tolist()
    spans = list(zip(catalog.prompts, bounds, bounds[1:]))
    tables = [{p: dict(zip(catalog.responses(p), s[lo:hi])) for p, lo, hi in spans}
              for s in catalog.centered(np.stack([t.scores for t in ensemble.tables])).tolist()]
    return {"kappa": float(ensemble.kappa), "eta": ensemble.eta.tolist(), "tables": tables}


def ensemble_from_json_dict(doc: Mapping, catalog: Catalog) -> ScoreEnsemble:
    kappa = float(doc["kappa"])
    tables = []
    for i, tdoc in enumerate(doc["tables"]):
        unknown = [repr(p) for p in sorted(set(tdoc).difference(catalog.prompts))]
        values = []
        for p in catalog.prompts:
            per = tdoc[p]
            unknown += [f"{r!r} under {p!r}"
                        for r in sorted(set(per).difference(catalog.responses(p)))]
            values += [per[r] for r in catalog.responses(p)]
        scores = np.array(values, dtype=float)
        if unknown:
            raise ValueError(f"table {i} names ids not in the catalog: {', '.join(unknown)}")
        if not np.isfinite(scores).all():
            j = np.searchsorted(catalog.offsets, np.argmin(np.isfinite(scores)), "right") - 1
            raise ValueError(f"non-finite score under prompt {catalog.prompts[j]!r}")
        starts = catalog.offsets[:-1]
        off = np.maximum.reduceat(np.abs(scores - catalog.centered(scores)), starts)
        scale = np.maximum(np.maximum.reduceat(np.abs(scores), starts), 1.0)
        if np.any(off > GAUGE_ATOL * scale):
            raise ValueError("serialized table violates the canonical gauge")
        tables.append(ScoreTable(kappa=kappa, scores=scores))
    return ScoreEnsemble(tables=tuple(tables), eta=np.asarray(doc["eta"], dtype=float))


def write_ensemble(ensemble: ScoreEnsemble, catalog: Catalog, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(ensemble_to_json_dict(ensemble, catalog), sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )


def read_ensemble(path: str | Path, catalog: Catalog) -> ScoreEnsemble:
    """Read an ensemble; a malformed file raises :class:`InputError` naming it."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return ensemble_from_json_dict(doc, catalog)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from None
