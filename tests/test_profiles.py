"""The E-step and the k-means start run per annotator profile; both must
equal the per-annotator computations they replaced bit for bit."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetpref import emdpo
from hetpref.emdpo import (
    INIT_STRATEGIES,
    CompiledRecords,
    _e_step_compiled,
    _unbounded_prompt,
    mean_winner_features,
    run_em,
)
from hetpref.policy import ScoreEnsemble, ScoreTable
from hetpref.rewards import Catalog, softmax_lse
from hetpref.simulate import AnnotatorData, Dataset, PreferenceRecord


def reference_logliks(compiled, tables):
    """(n_rows, K) per-annotator sums of record log-probabilities."""
    out = np.empty((compiled.n_rows, len(tables)))
    logp = np.empty(compiled.n_patterns)
    for k, table in enumerate(tables):
        x = compiled.catalog.flatten(table.scores)
        for span, idx in compiled.blocks:
            s = x[idx]
            logp[span] = s[0] - softmax_lse(s, axis=0)[1]
        out[:, k] = np.bincount(compiled.record_rows, logp[compiled.inverse],
                                minlength=compiled.n_rows)
    return out


def reference_e_step(compiled, ensemble):
    """The per-annotator E-step: one log-likelihood sum and softmax per row."""
    logl = reference_logliks(compiled, ensemble.tables)
    with np.errstate(divide="ignore"):
        joint = logl + np.log(ensemble.eta)[None, :]
    gamma, norm = softmax_lse(joint, axis=1)
    if not np.all(np.isfinite(norm)):
        raise ArithmeticError("zero mixture likelihood for some annotator")
    return gamma, float(norm.sum())


def reference_mean_winner_features(dataset, catalog):
    """The per-record loop the vectorized k-means start replaced."""
    out = np.zeros((dataset.n, catalog.d))
    for i, a in enumerate(dataset.annotators):
        acc = np.zeros(catalog.d)
        for r in a.records:
            acc += catalog.feature(r.prompt, r.winner)
        out[i] = acc / len(a.records)
    return out


@st.composite
def em_worlds(draw):
    """A multi-prompt catalog and annotators drawn from a few templates.

    Annotators copy a template's records exactly, or in another order (the
    same multiset, a different profile), so profiles repeat and record
    counts differ. ``records`` interleaves the annotators' records.
    """
    sizes = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    catalog = Catalog.build(
        {f"p{j}": [(f"r{i}", rng.normal(size=2)) for i in range(r)]
         for j, r in enumerate(sizes)}
    )

    def choice(j):
        rids = catalog.responses(f"p{j}")
        return st.tuples(st.just(f"p{j}"), st.permutations(rids),
                         st.integers(2, min(3, len(rids))))

    template = st.lists(st.integers(0, len(sizes) - 1).flatmap(choice), min_size=1, max_size=4)
    templates = draw(st.lists(template, min_size=1, max_size=4))
    # at least three annotators, so k-means can start up to three types
    picks = draw(st.lists(st.tuples(st.integers(0, len(templates) - 1), st.booleans()),
                          min_size=3, max_size=14))
    annotators = []
    for a, (t, shuffle) in enumerate(picks):
        recs = list(templates[t])
        if shuffle:
            random.Random(a).shuffle(recs)
        annotators.append(AnnotatorData(
            annotator=a, true_type=a % 2,
            records=tuple(PreferenceRecord(annotator=a, prompt=p, winner=perm[0],
                                           rejected=tuple(perm[1:size]))
                          for p, perm, size in recs)))
    dataset = Dataset(annotators=tuple(annotators), catalog_hash=catalog.content_hash(),
                      seed=0, m=1, choice_set_size=2)
    records = dataset.records()
    draw(st.randoms(use_true_random=False)).shuffle(records)
    return catalog, dataset, records


@settings(max_examples=60, derandomize=True, deadline=None)
@given(em_worlds(), st.integers(1, 4), st.data())
def test_profile_e_step_equals_per_annotator(world, k, data):
    catalog, _, records = world
    compiled = CompiledRecords.from_records(records, catalog)
    assert compiled.n_profiles <= compiled.n_rows
    size = int(catalog.offsets[-1])
    tables = tuple(
        ScoreTable(kappa=0.1, scores=catalog.split(np.array(data.draw(st.lists(
            st.floats(-8.0, 8.0), min_size=size, max_size=size)))))
        for _ in range(k))
    eta = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    eta = eta / eta.sum() if eta.sum() > 0 else np.full(k, 1.0 / k)
    ensemble = ScoreEnsemble(tables=tables, eta=eta)

    gamma, loglik = _e_step_compiled(compiled, ensemble)
    want_gamma, want_loglik = reference_e_step(compiled, ensemble)
    assert gamma.shape == want_gamma.shape
    assert np.array_equal(gamma, want_gamma)
    assert loglik == want_loglik
    assert np.array_equal(compiled.annotator_logliks(tables), reference_logliks(compiled, tables))


def run_reference_em(dataset, catalog, **kwargs):
    """run_em with the per-annotator E-step and an existence check per fit."""
    fresh = lambda self, weights: _unbounded_prompt(self, weights)  # noqa: E731
    with mock.patch.object(emdpo, "_e_step_compiled", reference_e_step), \
            mock.patch.object(CompiledRecords, "unbounded_prompt", fresh):
        return run_em(dataset, catalog, **kwargs)


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=25, derandomize=True, deadline=None)
@given(em_worlds(), st.integers(1, 3), st.sampled_from(INIT_STRATEGIES), st.integers(0, 5))
def test_run_em_equals_per_annotator_reference(world, k, init, seed):
    catalog, dataset, _ = world
    kwargs = dict(k=k, init=init, seed=seed, max_iters=4, restarts=2, inner_max_iter=25,
                  on_nonconvergence="warn")
    got = run_em(dataset, catalog, **kwargs)
    want = run_reference_em(dataset, catalog, **kwargs)
    assert np.array_equal(got.gamma, want.gamma)
    assert got.loglik == want.loglik
    assert got.trace == want.trace
    assert got.restart_traces == want.restart_traces
    assert np.array_equal(got.ensemble.eta, want.ensemble.eta)
    for table, ref in zip(got.ensemble.tables, want.ensemble.tables):
        for p in catalog.prompts:
            assert np.array_equal(table.scores[p], ref.scores[p])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(em_worlds())
def test_mean_winner_features_equals_record_loop(world):
    catalog, dataset, _ = world
    got = mean_winner_features(dataset, catalog)
    assert got.shape == (dataset.n, catalog.d)
    assert np.array_equal(got, reference_mean_winner_features(dataset, catalog))


def test_profiles_group_ordered_sequences():
    catalog = Catalog.build({"q": [(f"r{i}", [float(i)]) for i in range(3)]})

    def rec(a, w, r):
        return PreferenceRecord(annotator=a, prompt="q", winner=w, rejected=(r,))

    # rows 0 and 2 share a sequence; row 1 has the same multiset in another order
    records = [rec(0, "r0", "r1"), rec(1, "r1", "r2"), rec(2, "r0", "r1"), rec(0, "r1", "r2"),
               rec(1, "r0", "r1"), rec(2, "r1", "r2"), rec(3, "r2", "r0")]
    compiled = CompiledRecords.from_records(records, catalog)
    assert compiled.n_profiles == 3
    assert compiled.profile_of[0] == compiled.profile_of[2]
    assert len({compiled.profile_of[0], compiled.profile_of[1], compiled.profile_of[3]}) == 3
    # the records of one representative row per profile, in record order
    assert compiled.rep_patterns.tolist() == compiled.inverse[[0, 1, 3, 4, 6]].tolist()
    assert compiled.rep_profiles.tolist() == compiled.profile_of[[0, 1, 0, 1, 3]].tolist()
