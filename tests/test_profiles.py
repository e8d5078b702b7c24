"""EM runs on weighted annotator profiles. The E-step and the k-means start
must equal the per-annotator computations they replaced bit for bit; the
profile-weighted EM loop must equal the per-annotator loop it replaced to
within rounding."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetpref.aggregate import minimax_policy_lightweight
from hetpref.emdpo import (
    INIT_STRATEGIES,
    CompiledRecords,
    _e_step_compiled,
    _unbounded_cached,
    _unbounded_support,
    init_responsibilities,
    mean_winner_features,
    run_em,
)
from hetpref.policy import ReferencePolicy, ScoreEnsemble, ScoreTable, gauge_fix
from hetpref.rewards import Catalog, softmax_lse
from hetpref.simulate import Dataset, PreferenceRecord
from reference import (
    fit_record_weights,
    gauge_fix_per_prompt,
    minimax_policy_lightweight_by_records,
    record_counts,
    zero_table,
)


def reference_logliks(compiled, tables):
    """(n_rows, K) per-annotator sums of record log-probabilities."""
    out = np.empty((compiled.n_rows, len(tables)))
    logp = np.empty(compiled.n_patterns)
    for k, table in enumerate(tables):
        x = table.scores
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
def em_worlds(draw, well_posed=False):
    """A multi-prompt catalog and annotators drawn from a few templates.

    Annotators copy a template's records exactly, or in another order (the
    same multiset, a different profile), so profiles repeat and record
    counts differ. ``records`` interleaves the annotators' records. With
    ``well_posed``, every template also holds a cycle of binary wins through
    each prompt, so every weighted fit has a finite maximizer; otherwise
    most fits diverge along a direction their data leaves unbounded.
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
    if well_posed:
        cycles = [(f"p{j}", (rids[i - 1], rids[i]), 2) for j in range(len(sizes))
                  for rids in [catalog.responses(f"p{j}")] for i in range(len(rids))]
        templates = [t + cycles for t in templates]
    # at least three annotators, so k-means can start up to three types
    picks = draw(st.lists(st.tuples(st.integers(0, len(templates) - 1), st.booleans()),
                          min_size=3, max_size=14))
    records = []
    for a, (t, shuffle) in enumerate(picks):
        recs = list(templates[t])
        if shuffle:
            random.Random(a).shuffle(recs)
        records += [PreferenceRecord(annotator=a, prompt=p, winner=perm[0],
                                     rejected=tuple(perm[1:size])) for p, perm, size in recs]
    dataset = Dataset.from_records(records, true_types={a: a % 2 for a in range(len(picks))},
                                   catalog_hash=catalog.content_hash(), seed=0, m=1,
                                   choice_set_size=2)
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
        ScoreTable(kappa=0.1, scores=np.array(data.draw(st.lists(
            st.floats(-8.0, 8.0), min_size=size, max_size=size))))
        for _ in range(k))
    eta = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    eta = eta / eta.sum() if eta.sum() > 0 else np.full(k, 1.0 / k)
    ensemble = ScoreEnsemble(tables=tables, eta=eta)

    gamma, loglik = _e_step_compiled(compiled, ensemble)
    want_gamma, want_loglik = reference_e_step(compiled, ensemble)
    assert gamma.shape == want_gamma.shape
    assert np.array_equal(gamma, want_gamma)
    assert loglik == want_loglik
    x = np.stack([t.scores for t in tables])
    assert np.array_equal(compiled.profile_logliks(x)[compiled.profile_of],
                          reference_logliks(compiled, tables))


def reference_m_step(compiled, gamma, kappa, tables, grad_tol, max_iter):
    """One record-weight fit per type, as the policy M-step ran per annotator."""
    out, norms = [], []
    for k in range(gamma.shape[1]):
        init = tables[k] if tables is not None else None
        weights = gamma[compiled.record_rows, k]
        if weights.sum() <= 0.0:
            out.append(gauge_fix(init if init is not None
                                 else zero_table(compiled.catalog, kappa), compiled.catalog))
            norms.append(0.0)
            continue
        table, norm = fit_record_weights(compiled, weights, kappa, init_table=init,
                                         grad_tol=grad_tol, max_iter=max_iter)
        out.append(table)
        norms.append(norm)
    return out, norms


def reference_run_em(dataset, catalog, k, init, seed, max_iters, restarts, inner_max_iter,
                     kappa=0.1, tol=1e-8, grad_tol=1e-8):
    """The per-annotator EM loop in warn mode: (n, K) posteriors fed to
    record-weight fits, the per-annotator E-step and eta as the posteriors'
    column mean. Returns, per restart, the final (tables, eta, gamma fed,
    loglik) and the (loglik, eta) of each iteration."""
    compiled = CompiledRecords.from_dataset(dataset, catalog)
    out = []
    for r in range(restarts):
        gamma = init_responsibilities(dataset, catalog, k, init, seed + r)
        tables, prev_ll, trace = None, None, []
        for _ in range(max_iters):
            fed = gamma
            eta = gamma.mean(axis=0)
            tables, _ = reference_m_step(compiled, gamma, kappa, tables, grad_tol,
                                         inner_max_iter)
            gamma, ll = reference_e_step(compiled, ScoreEnsemble(tables=tuple(tables), eta=eta))
            trace.append((ll, eta))
            if prev_ll is not None and ll - prev_ll < tol:
                break
            prev_ll = ll
        out.append(((tables, eta, fed, ll), trace))
    return out


def compare_em(world, k, init, seed):
    """run_em and the per-annotator reference; checks what every world pins:
    iteration counts, and per-iteration log-likelihood and eta at rtol 1e-12
    (with an absolute floor of 1e-12 per record for a log-likelihood near 0).
    Returns run_em's state and the reference's final values for the restart
    run_em picked, which must be a best one up to that tolerance (restarts
    that tie on a flat likelihood may be picked either way)."""
    catalog, dataset, _ = world
    kwargs = dict(k=k, init=init, seed=seed, max_iters=4, restarts=2, inner_max_iter=25)
    got = run_em(dataset, catalog, on_nonconvergence="warn", **kwargs)
    restarts = reference_run_em(dataset, catalog, **kwargs)
    ll_atol = 1e-12 * dataset.rows.size
    assert [len(t) for t in got.restart_traces] == [len(t) for _, t in restarts]
    for rows, (_, ref) in zip(got.restart_traces, restarts):
        for row, (ll, eta) in zip(rows, ref):
            np.testing.assert_allclose(row["loglik"], ll, rtol=1e-12, atol=ll_atol)
            np.testing.assert_allclose(row["eta"], eta, rtol=1e-12)
    picked = got.restart_traces.index(got.trace)
    want = restarts[picked][0]
    best = max(final[3] for final, _ in restarts)
    assert want[3] >= best - 1e-12 * abs(best) - ll_atol
    assert got.iteration == len(got.trace)
    np.testing.assert_allclose(got.loglik, want[3], rtol=1e-12, atol=ll_atol)
    np.testing.assert_allclose(got.ensemble.eta, want[1], rtol=1e-12)
    return got, want


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=25, derandomize=True, deadline=None)
@given(em_worlds(well_posed=True), st.integers(1, 3), st.sampled_from(INIT_STRATEGIES),
       st.integers(0, 5))
def test_run_em_equals_per_annotator_reference(world, k, init, seed):
    """Summing counts per profile moves EM's outputs only in the last bits.

    Every fit here has a finite maximizer, so the scores and posteriors are
    pinned too, at rtol 1e-12 (absolute floor 1e-12 for values at zero).
    """
    got, (tables, _eta, gamma, _ll) = compare_em(world, k, init, seed)
    np.testing.assert_allclose(got.gamma, gamma, rtol=1e-12, atol=1e-12)
    for table, ref in zip(got.ensemble.tables, tables, strict=True):
        np.testing.assert_allclose(table.scores, ref.scores, rtol=1e-12, atol=1e-12)


@pytest.mark.filterwarnings("ignore")
@settings(max_examples=25, derandomize=True, deadline=None)
@given(em_worlds(), st.integers(1, 3), st.sampled_from(INIT_STRATEGIES), st.integers(0, 5))
def test_run_em_loglik_equals_reference_on_divergent_fits(world, k, init, seed):
    """Most of these fits have no finite maximizer: their scores run off
    along a flat direction, where rounding in the counts moves them by up
    to 3e-7 relative, so only what EM reports about the data is pinned."""
    compare_em(world, k, init, seed)


def draw_gamma(data, n, k):
    """(n, k) posteriors on the simplex; some entries are exactly zero."""
    raw = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.3, 1.0, 2.5]),
                                      min_size=n * k, max_size=n * k))).reshape(n, k)
    raw[raw.sum(axis=1) == 0, 0] = 1.0
    return raw / raw.sum(axis=1, keepdims=True)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(em_worlds(), st.integers(1, 4), st.data())
def test_profile_pattern_counts_equal_record_weight_counts(world, k, data):
    catalog, dataset, _ = world
    compiled = CompiledRecords.from_dataset(dataset, catalog)
    gamma = draw_gamma(data, compiled.n_rows, k)
    shared = gamma[np.unique(compiled.profile_of, return_index=True)[1]]
    # per-row posteriors (a start) and per-profile ones (after an E-step)
    for rows, mass in [(gamma, compiled.profile_mass(gamma)),
                       (shared[compiled.profile_of], compiled.mult[:, None] * shared)]:
        counts = compiled.pattern_counts(mass)
        assert counts.shape == (k, compiled.n_patterns)
        for j in range(k):
            want = np.bincount(compiled.inverse, rows[compiled.record_rows, j],
                               minlength=compiled.n_patterns)
            np.testing.assert_allclose(counts[j], want, rtol=1e-12, atol=0.0)
            assert np.array_equal(counts[j] > 0, want > 0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(em_worlds(well_posed=True), st.integers(1, 3), st.data())
def test_lightweight_equals_record_weight_reference(world, k, data):
    """Mixing per-type pattern counts, in place of one weight per record,
    and fitting flat scores move the lightweight aggregator's table and
    trace regrets only in the last bits: both agree with the former loop to
    1e-9 (rtol and atol). Every fit here has a finite maximizer."""
    catalog, dataset, _ = world
    size = int(catalog.offsets[-1])
    tables = tuple(ScoreTable(kappa=0.1, scores=np.array(data.draw(st.lists(
        st.floats(-4.0, 4.0), min_size=size, max_size=size)))) for _ in range(k))
    ensemble = ScoreEnsemble(tables=tables, eta=np.full(k, 1.0 / k))
    args = (dataset, catalog, ensemble, draw_gamma(data, dataset.n, k),
            ReferencePolicy.uniform(catalog))
    kwargs = dict(iters=data.draw(st.integers(1, 6)), step=data.draw(st.sampled_from([0.01, 1.0])),
                  inner_steps=data.draw(st.sampled_from([1, 3, 40])))
    table, trace = minimax_policy_lightweight(*args, **kwargs)
    want_table, want_trace = minimax_policy_lightweight_by_records(*args, **kwargs)
    np.testing.assert_allclose(table.scores, want_table.scores, rtol=1e-9, atol=1e-9)
    assert [row["iteration"] for row in trace] == [row["iteration"] for row in want_trace]
    for key in ("regrets", "w", "max_regret"):
        np.testing.assert_allclose([row[key] for row in trace], [row[key] for row in want_trace],
                                   rtol=1e-9, atol=1e-9)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(em_worlds(), st.integers(1, 4), st.data())
def test_grouped_gauge_fix_equals_gauge_fix(world, k, data):
    """Catalog.centered, on (K, size) and on 1-D scores, and gauge_fix equal
    one ``s - s.mean()`` per prompt bit for bit."""
    catalog, _, _ = world
    size = int(catalog.offsets[-1])
    x = np.array(data.draw(st.lists(st.floats(-50.0, 50.0), min_size=k * size,
                                    max_size=k * size))).reshape(k, size)
    assert_centered_per_prompt(catalog, x)


def assert_centered_per_prompt(catalog, x):
    """Every gauge fix of the rows of (K, size) scores ``x`` equals the per-prompt one."""
    got = catalog.centered(x)
    for row, fixed in zip(x, got, strict=True):
        want = gauge_fix_per_prompt(catalog, row)
        assert np.array_equal(fixed, want)
        assert np.array_equal(catalog.centered(row), want)
        assert np.array_equal(gauge_fix(ScoreTable(kappa=0.1, scores=row), catalog).scores, want)


def test_flat_scores_equal_per_table_on_long_prompts():
    # numpy sums a contiguous run of more than 8 entries pairwise, so long
    # prompts and choice sets would expose a changed summation order
    rng = np.random.default_rng(3)
    catalog = Catalog.build({f"p{j}": [(f"r{i}", rng.normal(size=2)) for i in range(r)]
                             for j, r in enumerate([9, 40, 3, 40, 130, 990])})
    rids = catalog.responses("p1")
    records = [PreferenceRecord(annotator=0, prompt="p0", winner="r0", rejected=("r1",)),
               PreferenceRecord(annotator=1, prompt="p1", winner=rids[5], rejected=rids[7:20]),
               PreferenceRecord(annotator=1, prompt="p1", winner=rids[0], rejected=rids[1:12]),
               PreferenceRecord(annotator=2, prompt="p1", winner=rids[3], rejected=rids[20:31])]
    compiled = CompiledRecords.from_records(records, catalog)
    x = rng.normal(scale=30.0, size=(3, compiled.size))
    tables = [ScoreTable(kappa=0.1, scores=row) for row in x]
    assert np.array_equal(compiled.profile_logliks(x)[compiled.profile_of],
                          reference_logliks(compiled, tables))
    assert_centered_per_prompt(catalog, x)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(em_worlds(), st.integers(1, 3), st.data())
def test_support_cached_existence_check_equals_fresh(world, k, data):
    catalog, dataset, _ = world
    compiled = CompiledRecords.from_dataset(dataset, catalog)
    checked = {}
    for _ in range(3):
        gamma = draw_gamma(data, compiled.n_rows, k)
        counts = compiled.pattern_counts(compiled.profile_mass(gamma))
        for j in range(k):
            assert (_unbounded_cached(compiled, counts[j], checked)
                    == _unbounded_support(
                        compiled, record_counts(compiled, gamma[compiled.record_rows, j]) > 0))


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
