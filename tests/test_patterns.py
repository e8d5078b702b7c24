"""The pattern-compressed likelihood against per-record reference formulas."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from hetpref.emdpo import CompiledRecords, fit_preference_table
from hetpref.identify import recovery_catalog
from hetpref.policy import ScoreTable
from hetpref.rewards import Catalog
from hetpref.simulate import PreferenceRecord, make_adversarial_pair, simulate_dataset


def reference_terms(catalog, records, x):
    """Per-record log P(winner) and its gradient in the flat score vector x."""
    offsets = np.cumsum([0] + [len(catalog.responses(p)) for p in catalog.prompts])
    offset = dict(zip(catalog.prompts, offsets))
    out = []
    for rec in records:
        idx = offset[rec.prompt] + np.array(
            [catalog.response_index(rec.prompt, y) for y in rec.choice_set]
        )
        ss = x[idx]
        lse = logsumexp(ss)
        grad = np.zeros(x.size)
        grad[idx[0]] += 1.0
        np.add.at(grad, idx, -np.exp(ss - lse))
        out.append((ss[0] - lse, grad))
    return out


def split_scores(catalog, x):
    sizes = [len(catalog.responses(p)) for p in catalog.prompts]
    parts = np.split(x, np.cumsum(sizes)[:-1])
    return ScoreTable(kappa=1.0, scores=dict(zip(catalog.prompts, parts)))


@st.composite
def worlds(draw):
    """Multi-prompt catalog, records with binary and ternary sets, duplicates."""
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    catalog = Catalog.build(
        {f"p{j}": [(f"r{i}", [float(i), float(j)]) for i in range(r)]
         for j, r in enumerate(sizes)}
    )

    def record(j):
        rids = catalog.responses(f"p{j}")
        return st.tuples(
            st.permutations(rids), st.integers(2, min(3, len(rids))), st.integers(0, 3)
        ).map(lambda t: PreferenceRecord(
            annotator=t[2], prompt=f"p{j}", winner=t[0][0], rejected=tuple(t[0][1:t[1]])
        ))

    records = draw(st.lists(
        st.integers(0, len(sizes) - 1).flatmap(record), min_size=1, max_size=25
    ))
    copies = draw(st.lists(st.sampled_from(records), max_size=6))
    records = records + copies
    weights = np.array(draw(st.lists(
        st.floats(0.0, 3.0), min_size=len(records), max_size=len(records)
    )))
    x = np.array(draw(st.lists(
        st.floats(-6.0, 6.0), min_size=sum(sizes), max_size=sum(sizes)
    )))
    return catalog, records, weights, x


@settings(max_examples=60, derandomize=True, deadline=None)
@given(worlds())
def test_compressed_likelihood_matches_per_record_reference(world):
    catalog, records, weights, x = world
    compiled = CompiledRecords.from_records(records, catalog)
    assert compiled.n_patterns <= len(records)
    terms = reference_terms(catalog, records, x)

    counts = np.bincount(compiled.inverse, weights, minlength=compiled.n_patterns)
    val, grad = compiled.loglik_grad(x, counts)
    want_val = sum(w * lp for w, (lp, _) in zip(weights, terms))
    want_grad = sum((w * g for w, (_, g) in zip(weights, terms)), np.zeros(x.size))
    scale = max(1.0, float(weights.sum()))
    assert val == pytest.approx(want_val, rel=1e-9, abs=1e-9 * scale)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-9, atol=1e-9 * scale)

    x2 = x[::-1].copy()
    got = compiled.annotator_logliks([split_scores(catalog, x), split_scores(catalog, x2)])
    want = np.zeros((compiled.n_rows, 2))
    rows = {}
    for rec in records:
        rows.setdefault(rec.annotator, len(rows))
    for k, terms_k in enumerate([terms, reference_terms(catalog, records, x2)]):
        for rec, (lp, _) in zip(records, terms_k):
            want[rows[rec.annotator], k] += lp
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * len(records))


@settings(max_examples=25, derandomize=True, deadline=None)
@given(worlds(), st.data())
def test_duplicated_record_equals_doubled_weight(world, data):
    catalog, records, weights, _x = world
    # Every ordered pair of every prompt once more, so that each prompt's
    # comparison graph is strongly connected and the maximizer is finite.
    for p in catalog.prompts:
        rids = catalog.responses(p)
        records = records + [PreferenceRecord(annotator=0, prompt=p, winner=a, rejected=(b,))
                             for a in rids for b in rids if a != b]
    weights = np.concatenate([weights, np.ones(len(records) - len(weights))])
    i = data.draw(st.integers(0, len(records) - 1))
    doubled = weights.copy()
    doubled[i] *= 2.0
    table_dup, norm_dup = fit_preference_table(
        CompiledRecords.from_records(records + [records[i]], catalog),
        np.append(weights, weights[i]), kappa=1.0,
    )
    table_dbl, norm_dbl = fit_preference_table(
        CompiledRecords.from_records(records, catalog), doubled, kappa=1.0
    )
    assert max(norm_dup, norm_dbl) <= 1e-8
    for p in catalog.prompts:
        np.testing.assert_allclose(table_dup.scores[p], table_dbl.scores[p], atol=1e-7)


@pytest.mark.parametrize("choice_set_size", [3, 2])
def test_adversarial_world_compiles_to_twelve_patterns(choice_set_size):
    # 4 responses: 4 ternary sets x 3 winners (24 ordered records collapse
    # to 12 because the rejected pair is unordered), or 12 ordered pairs.
    theta = np.array([2.0, 0.5])
    catalog = recovery_catalog(theta, n_responses=4, reward_spread=3.0)
    ds = simulate_dataset(catalog, make_adversarial_pair(theta), n=5000, m=1,
                          choice_set_size=choice_set_size, rng_seed=0)
    compiled = CompiledRecords.from_dataset(ds, catalog)
    assert compiled.n_records == 5000
    assert compiled.n_patterns == 12
    [(span, idx)] = compiled.blocks
    assert idx.shape == (choice_set_size, 12) and span == slice(0, 12)
    assert np.all(np.diff(idx[1:], axis=0) > 0)
    np.testing.assert_array_equal(np.bincount(compiled.inverse, minlength=12) > 0, True)
