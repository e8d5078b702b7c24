"""Reward-free tabular policies over a finite catalog.

A :class:`ScoreTable` stores one real score per (prompt, response); the
score plays the role of the implicit reward ``kappa * log(pi / pi_ref)``.
Preference probabilities are softmaxes of scores restricted to a
comparison set, and the corresponding policy is recovered exactly as
``pi \\propto pi_ref * exp(score / kappa)``.

Scores carry a per-prompt additive gauge freedom: shifting all responses
of a prompt by a constant changes neither preference probabilities nor
policies. The canonical representative used for serialization and
comparisons has per-prompt mean zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError
from .rewards import SIMPLEX_ATOL, Catalog, check_choice_set, segment_log_softmax, softmax

__all__ = [
    "ReferencePolicy",
    "ScoreTable",
    "ScoreEnsemble",
    "gauge_fix",
    "policy_probs",
    "optimal_table_for_type",
    "multi_item_pref_prob",
    "reward_margin",
    "kl_to_ref",
    "mixture_policy_probs",
    "uniform_prompt_weights",
    "write_ensemble",
    "read_ensemble",
    "ensemble_to_json_dict",
    "ensemble_from_json_dict",
]

GAUGE_ATOL = 1e-9


@dataclass(frozen=True)
class ReferencePolicy:
    """Baseline per-prompt response distributions (strictly positive)."""

    probs: dict[str, np.ndarray]

    def __post_init__(self):
        for prompt, p in self.probs.items():
            p = np.asarray(p, dtype=float)
            if np.any(p <= 0.0):
                raise ValueError(f"reference policy must be strictly positive ({prompt!r})")
            if abs(p.sum() - 1.0) > SIMPLEX_ATOL:
                raise ValueError(f"reference policy for {prompt!r} does not sum to 1")
            p.setflags(write=False)
            self.probs[prompt] = p

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
    """Scores per (prompt, response), aligned with the catalog's response order."""

    kappa: float
    scores: dict[str, np.ndarray]

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        for prompt, s in self.scores.items():
            s = np.asarray(s, dtype=float)
            if not np.all(np.isfinite(s)):
                raise ValueError(f"non-finite score under prompt {prompt!r}")
            s.setflags(write=False)
            self.scores[prompt] = s

    @classmethod
    def zeros(cls, catalog: Catalog, kappa: float) -> "ScoreTable":
        return cls(
            kappa=kappa,
            scores={p: np.zeros(len(catalog.responses(p))) for p in catalog.prompts},
        )


def gauge_fix(table: ScoreTable) -> ScoreTable:
    """Canonical representative: per-prompt mean score zero."""
    return ScoreTable(
        kappa=table.kappa,
        scores={p: s - s.mean() for p, s in table.scores.items()},
    )


def is_gauge_fixed(table: ScoreTable, atol: float = GAUGE_ATOL) -> bool:
    return all(abs(float(s.mean())) <= atol for s in table.scores.values())


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


def policy_probs(table: ScoreTable, ref: ReferencePolicy, prompt: str) -> np.ndarray:
    """pi(y|x) proportional to pi_ref(y|x) * exp(s(x,y)/kappa), normalized."""
    s = table.scores[prompt]
    logits = np.log(ref.probs[prompt]) + s / table.kappa
    return softmax(logits)


def optimal_table_for_type(catalog: Catalog, theta: np.ndarray, kappa: float) -> ScoreTable:
    """Gauge-fixed scores of the exact KL-regularized optimum for reward theta@psi.

    The optimal policy for reward r with strength kappa is
    pi* = pi_ref * exp(r/kappa) / Z, whose implicit reward equals r up to a
    per-prompt constant; centering gives the canonical table.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (catalog.d,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({catalog.d},)")
    scores = {}
    for p in catalog.prompts:
        r = catalog.features(p) @ theta
        scores[p] = r - r.mean()
    return ScoreTable(kappa=kappa, scores=scores)


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
    return float(softmax(table.scores[prompt][idx])[0])


def reward_margin(
    table: ScoreTable, catalog: Catalog, prompt: str, winner: str, loser: str
) -> float:
    """Implicit-reward margin s(x, winner) - s(x, loser)."""
    s = table.scores[prompt]
    return float(
        s[catalog.response_index(prompt, winner)] - s[catalog.response_index(prompt, loser)]
    )


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


def kl_to_ref(
    table: ScoreTable,
    ref: ReferencePolicy,
    catalog: Catalog,
    prompt_weights: np.ndarray,
) -> float:
    """kappa-scaled KL of the table's policy from the reference, exact enumeration."""
    w = _flat_prompt_weights(catalog, prompt_weights)
    log_ref = np.log(catalog.flatten(ref.probs))
    log_pi = segment_log_softmax(
        log_ref + catalog.flatten(table.scores) / table.kappa, catalog.offsets
    )
    return table.kappa * float(np.sum(w * np.exp(log_pi) * (log_pi - log_ref)))


def _check_mixture_weights(ensemble: ScoreEnsemble, weights) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (ensemble.k,):
        raise ValueError(f"weights must have length {ensemble.k}")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > SIMPLEX_ATOL:
        raise ValueError("weights must lie on the simplex")
    return weights


def mixture_policy_probs(
    ensemble: ScoreEnsemble,
    weights: np.ndarray,
    ref: ReferencePolicy,
    prompt: str,
) -> np.ndarray:
    """Convex combination of the member policies' distributions."""
    members = np.stack([policy_probs(t, ref, prompt) for t in ensemble.tables])
    return _check_mixture_weights(ensemble, weights) @ members


def ensemble_to_json_dict(ensemble: ScoreEnsemble, catalog: Catalog) -> dict:
    """Canonical JSON form; gauge is enforced on write."""
    tables = []
    for t in ensemble.tables:
        t = gauge_fix(t)
        tables.append(
            {
                p: {
                    r: float(s)
                    for r, s in zip(catalog.responses(p), t.scores[p])
                }
                for p in catalog.prompts
            }
        )
    return {
        "kappa": float(ensemble.kappa),
        "eta": [float(e) for e in ensemble.eta],
        "tables": tables,
    }


def ensemble_from_json_dict(doc: Mapping, catalog: Catalog) -> ScoreEnsemble:
    kappa = float(doc["kappa"])
    tables = []
    for tdoc in doc["tables"]:
        scores = {}
        for p in catalog.prompts:
            per = tdoc[p]
            scores[p] = np.array([per[r] for r in catalog.responses(p)], dtype=float)
        table = ScoreTable(kappa=kappa, scores=scores)
        if not is_gauge_fixed(table):
            raise ValueError("serialized table violates the canonical gauge")
        tables.append(table)
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
