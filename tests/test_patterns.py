"""The pattern-compressed likelihood and its set-level Newton terms against
per-record and per-pattern formulas."""

import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.special import logsumexp

from hetpref import emdpo
from hetpref.emdpo import (
    CompiledRecords,
    _strong_components,
    _unbounded_cached,
    _unbounded_support,
)
from hetpref.identify import recovery_catalog
from hetpref.policy import ScoreTable, gauge_fix
from hetpref.rewards import Catalog, Population, softmax_lse
from hetpref.simulate import PreferenceRecord, make_adversarial_pair, simulate_dataset
from reference import fit_record_weights, newton_terms, record_counts


def reference_terms(catalog, records, x):
    """Per-record log P(winner), its gradient and its negated Hessian in x."""
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
        q = np.exp(ss - lse)
        np.add.at(grad, idx, -q)
        hess = np.zeros((x.size, x.size))
        np.add.at(hess, (idx[:, None], idx[None, :]), np.diag(q) - np.outer(q, q))
        out.append((ss[0] - lse, grad, hess))
    return out


def dense_hessian(compiled, buffer):
    """The flat Hessian-block buffer scattered into a dense matrix."""
    out = np.zeros((compiled.size, compiled.size))
    for hslice, cols in compiled.groups:
        g, r = cols.shape
        for block, c in zip(buffer[hslice].reshape(g, r, r), cols):
            out[np.ix_(c, c)] = block
    return out


def set_level_terms(compiled, x, counts):
    """Value per prompt, gradient and negated Hessian buffer from the set totals."""
    totals, wins = compiled.set_totals(counts)
    val, grad, probs = compiled.set_terms(x, totals, wins)
    return val, grad, compiled.neg_hessian(totals, probs)


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
    val, grad, hess = set_level_terms(compiled, x, counts)
    want_val = np.zeros(len(catalog.prompts))
    for w, rec, (lp, _, _) in zip(weights, records, terms):
        want_val[catalog.prompts.index(rec.prompt)] += w * lp
    want_grad = sum((w * g for w, (_, g, _) in zip(weights, terms)), np.zeros(x.size))
    want_hess = sum((w * h for w, (_, _, h) in zip(weights, terms)),
                    np.zeros((x.size, x.size)))
    scale = max(1.0, float(weights.sum()))
    np.testing.assert_allclose(val, want_val, rtol=1e-9, atol=1e-9 * scale)
    np.testing.assert_allclose(grad, want_grad, rtol=1e-9, atol=1e-9 * scale)
    np.testing.assert_allclose(dense_hessian(compiled, hess), want_hess,
                               rtol=1e-9, atol=1e-9 * scale)

    x2 = x[::-1].copy()
    got = compiled.profile_logliks(np.stack([x, x2]))[compiled.profile_of]
    want = np.zeros((compiled.n_rows, 2))
    rows = {}
    for rec in records:
        rows.setdefault(rec.annotator, len(rows))
    for k, terms_k in enumerate([terms, reference_terms(catalog, records, x2)]):
        for rec, (lp, _, _) in zip(records, terms_k):
            want[rows[rec.annotator], k] += lp
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * len(records))


@pytest.mark.parametrize("size", [2, 3, 4, 6])
def test_newton_hessian_equals_identity_product(size):
    # neg_hessian scatters only the upper pairs C p_i p_j of each set, then
    # mirrors them and writes each diagonal entry as its row's off-diagonal
    # sum; that must equal, bit for bit, the off-diagonal entries of
    # C p_i (delta_ij - p_j), the product with an identity matrix, added up
    # set by set in the same order, with the diagonal completed the same
    # way, and the diagonal must equal sum C p_i (1 - p_i) to rounding
    rng = np.random.default_rng(size)
    catalog = Catalog.build({f"p{j}": [(f"r{i}", rng.normal(size=2)) for i in range(7)]
                             for j in range(2)})
    population = Population.from_weights([rng.normal(size=2)], [1.0])
    ds = simulate_dataset(catalog, population, n=40, m=3, choice_set_size=size, rng_seed=size)
    compiled = CompiledRecords.from_dataset(ds, catalog)
    x = 3.0 * rng.normal(size=compiled.size)
    counts = rng.uniform(0.5, 2.0, size=compiled.n_patterns)
    totals, wins = compiled.set_totals(counts)
    probs = compiled.set_terms(x, totals, wins)[2]
    want = np.zeros((compiled.size, compiled.size))
    diag = np.zeros(compiled.size)
    for span, members, _, _ in compiled.set_blocks:
        assert len(members) == size
        p = softmax_lse(x[members], axis=0)[0]
        cp = totals[span] * p
        prod = cp[:, None, :] * (np.eye(size)[:, :, None] - p[None, :, :])
        i, j = np.triu_indices(size, 1)
        block = np.zeros_like(want)
        np.add.at(block, (members[i], members[j]), prod[i, j])
        want += block
        np.add.at(diag, members, cp * (1.0 - p))
    want += want.T
    for _, cols in compiled.groups:
        for c in cols:
            # each row summed as the kernel sums it, with np.add.reduceat
            rows = -want[np.ix_(c, c)]
            want[c, c] = np.add.reduceat(rows.ravel(), np.arange(0, rows.size, len(c)))
    got = dense_hessian(compiled, compiled.neg_hessian(totals, probs))
    assert np.array_equal(got, want)
    np.testing.assert_allclose(np.diag(got), diag, rtol=1e-12)


@st.composite
def set_worlds(draw):
    """Catalogs of 2-6 responses per prompt, sets of 2-4, repeated records
    (so repeated patterns and winners), several winners of one set, zero
    counts, scores up to +-30."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
    catalog = Catalog.build(
        {f"p{j}": [(f"r{i}", [float(i), float(j)]) for i in range(r)]
         for j, r in enumerate(sizes)}
    )

    def record(j):
        rids = catalog.responses(f"p{j}")
        return st.tuples(st.permutations(rids), st.integers(2, min(4, len(rids)))).map(
            lambda t: PreferenceRecord(annotator=0, prompt=f"p{j}", winner=t[0][0],
                                       rejected=tuple(t[0][1:t[1]])))

    records = draw(st.lists(
        st.integers(0, len(sizes) - 1).flatmap(record), min_size=1, max_size=30))
    rotated = [PreferenceRecord(annotator=0, prompt=r.prompt, winner=r.rejected[0],
                                rejected=(r.winner,) + r.rejected[1:])
               for r in draw(st.lists(st.sampled_from(records), max_size=6))]
    records += rotated + draw(st.lists(st.sampled_from(records), max_size=6))
    compiled = CompiledRecords.from_records(records, catalog)
    counts = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.5]),
                                    min_size=compiled.n_patterns,
                                    max_size=compiled.n_patterns)))
    x = np.array(draw(st.lists(st.floats(-30.0, 30.0), min_size=compiled.size,
                               max_size=compiled.size)))
    return compiled, counts, x


@settings(max_examples=150, derandomize=True, deadline=None)
@given(set_worlds())
def test_set_terms_equal_pattern_terms(world):
    """Set totals give the pattern-level value, gradient and negated Hessian
    to a relative 1e-12: of each entry, or of the largest sum that forms it
    (total count, times the largest score for the value)."""
    compiled, counts, x = world
    assert compiled.n_sets <= compiled.n_patterns
    mass = max(1.0, counts.sum())
    val, grad, hess = set_level_terms(compiled, x, counts)
    want_val, want_grad, want_hess = newton_terms(compiled, x, counts)
    np.testing.assert_allclose(val, want_val, rtol=1e-12,
                               atol=1e-12 * mass * (1.0 + np.abs(x).max()))
    np.testing.assert_allclose(grad, want_grad, rtol=1e-12, atol=1e-12 * mass)
    np.testing.assert_allclose(hess, want_hess, rtol=1e-12, atol=1e-12 * mass)


def with_all_pairs(catalog, records, weights):
    """Every ordered pair of every prompt once more, with weight 1, so that
    each prompt's comparison graph is strongly connected and the maximizer
    is finite."""
    pairs = [PreferenceRecord(annotator=0, prompt=p, winner=a, rejected=(b,))
             for p in catalog.prompts for a in catalog.responses(p)
             for b in catalog.responses(p) if a != b]
    return records + pairs, np.concatenate([weights, np.ones(len(pairs))])


@settings(max_examples=25, derandomize=True, deadline=None)
@given(worlds(), st.data())
def test_duplicated_record_equals_doubled_weight(world, data):
    catalog, records, weights, _x = world
    records, weights = with_all_pairs(catalog, records, weights)
    i = data.draw(st.integers(0, len(records) - 1))
    doubled = weights.copy()
    doubled[i] *= 2.0
    table_dup, norm_dup = fit_record_weights(
        CompiledRecords.from_records(records + [records[i]], catalog),
        np.append(weights, weights[i]), kappa=1.0,
    )
    table_dbl, norm_dbl = fit_record_weights(
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


def reference_fit(catalog, records, weights, x, grad_tol=1e-8, max_iter=1000):
    """The former inner solver, kept as the reference: L-BFGS-B, then, if the
    gradient is still above tolerance, a damped Newton polish per prompt
    (2-norm step cap 4, halved until the objective does not fall).
    Returns the flat scores and the final gradient max norm."""
    def totals(x):
        terms = reference_terms(catalog, records, x)
        return [sum((w * t[i] for w, t in zip(weights, terms)), 0.0) for i in range(3)]

    def neg(x):
        val, grad, _ = totals(x)
        return -val, -grad

    x = minimize(neg, x, jac=True, method="L-BFGS-B",
                 options={"maxiter": max_iter, "gtol": grad_tol * 0.5, "ftol": 1e-16,
                          "maxls": 100}).x
    val, grad, hess = totals(x)
    if np.abs(grad).max() <= grad_tol:
        return x, np.abs(grad).max()
    offsets = np.cumsum([0] + [len(catalog.responses(p)) for p in catalog.prompts])
    for sl in (slice(a, b) for a, b in zip(offsets[:-1], offsets[1:])):
        for _ in range(max(10, min(max_iter, 50))):
            if np.abs(grad[sl]).max() <= grad_tol * 0.5:
                break
            h = hess[sl, sl]
            r = h.shape[0]
            step = np.linalg.solve(h + max(1e-12, 1e-10 * np.trace(h) / r) * np.eye(r),
                                   grad[sl])
            step *= min(1.0, 4.0 / np.linalg.norm(step))
            for _bt in range(30):
                cand = x.copy()
                cand[sl] += step
                # Only this prompt moved, so the total changes by its change.
                new = totals(cand)
                if new[0] >= val - 1e-13 * max(1.0, abs(val)):
                    x, (val, grad, hess) = cand, new
                    break
                step *= 0.5
            else:
                break
    return x, np.abs(grad).max()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(worlds())
def test_newton_matches_former_solver(world):
    catalog, records, weights, x = world
    records, weights = with_all_pairs(catalog, records, weights)
    compiled = CompiledRecords.from_records(records, catalog)
    counts = np.bincount(compiled.inverse, weights, minlength=compiled.n_patterns)
    totals, wins = compiled.set_totals(counts)
    start = compiled.set_terms(x, totals, wins)[0]
    for max_iter in (1, 2, 1000):
        table, norm = fit_record_weights(compiled, weights, kappa=1.0,
                                         init_table=split_scores(catalog, x),
                                         max_iter=max_iter)
        val = compiled.set_terms(catalog.flatten(table.scores), totals, wins)[0]
        assert np.all(val >= start - 1e-12 * np.maximum(1.0, np.abs(start)))
    want_x, want_norm = reference_fit(catalog, records, weights, x)
    assert max(norm, want_norm) <= 1e-8
    want = gauge_fix(split_scores(catalog, want_x))
    for p in catalog.prompts:
        np.testing.assert_allclose(table.scores[p], want.scores[p], atol=1e-6)


def ford_violations(catalog, records, weights):
    """Prompts failing Ford's condition, by brute force: some split of a
    weakly connected component of the positive-weight comparisons (winner
    beats each rejected response) has wins in one direction only."""
    bad = []
    for p in catalog.prompts:
        beats = {(rec.winner, y) for rec, w in zip(records, weights)
                 if rec.prompt == p and w > 0 for y in rec.rejected}
        comps = []
        for u, v in beats:
            joined = [c for c in comps if u in c or v in c]
            comps = [c for c in comps if c not in joined] + [set().union({u, v}, *joined)]
        for comp in map(sorted, comps):
            for mask in range(1, 2 ** len(comp) - 1):
                side = {y for i, y in enumerate(comp) if mask >> i & 1}
                out = any(u in side and v not in side for u, v in beats if u in comp)
                back = any(u not in side and v in side for u, v in beats if u in comp)
                if not (out and back):
                    bad.append(p)
                    break
            if p in bad:
                break
    return bad


@settings(max_examples=100, derandomize=True, deadline=None)
@given(worlds(), st.data())
def test_existence_check_matches_ford_oracle(world, data):
    catalog, records, _w, _x = world
    weights = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]),
                                          min_size=len(records), max_size=len(records))))
    bad = ford_violations(catalog, records, weights)
    compiled = CompiledRecords.from_records(records, catalog)
    msg = _unbounded_support(compiled, record_counts(compiled, weights) > 0)
    assert (msg is None) == (not bad), (msg, bad)
    if msg is None:
        return
    prompt, names = re.match(r"no finite maximizer: in prompt '(\w+)', (.*) never lose",
                             msg).groups()
    assert prompt == bad[0]
    top = set(re.findall(r"'(\w+)'", names))
    live = [(rec.winner, set(rec.rejected)) for rec, w in zip(records, weights)
            if rec.prompt == prompt and w > 0]
    assert top and not any(win not in top and rej & top for win, rej in live)
    assert any(win in top and rej - top for win, rej in live)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(worlds(), st.data())
def test_memoized_existence_check_equals_fresh(world, data):
    catalog, records, _w, _x = world
    compiled = CompiledRecords.from_records(records, catalog)
    checked = {}
    for _ in range(4):
        weights = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                                              min_size=len(records), max_size=len(records))))
        counts = np.bincount(compiled.inverse, weights, minlength=compiled.n_patterns)
        assert (_unbounded_cached(compiled, counts, checked)
                == _unbounded_support(compiled, record_counts(compiled, weights) > 0))


def same_partition(a, b):
    """Whether two label arrays group the nodes alike, whatever the label values."""
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


@st.composite
def digraphs(draw):
    """A node count and edge arrays with duplicate edges, self-loops and, when
    edges are few, isolated nodes."""
    n = draw(st.integers(1, 25))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    edges += draw(st.lists(st.sampled_from(edges), max_size=n)) if edges else []
    edges += [(v, v) for v in draw(st.lists(node, max_size=3))]
    src, dst = np.array(edges, dtype=np.intp).reshape(-1, 2).T
    return n, src, dst


@settings(max_examples=300, derandomize=True, deadline=None)
@given(digraphs())
def test_strong_components_match_scipy(graph):
    n, src, dst = graph
    adjacency = coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    _, want = connected_components(adjacency, connection="strong")
    label = _strong_components(n, src, dst)
    assert label.shape == (n,)
    assert same_partition(label, want)


@pytest.mark.parametrize("cycle", [False, True])
def test_strong_components_have_no_recursion_limit(cycle):
    """A search from node 0 goes 20 000 nodes deep on a path i -> i + 1 (one
    component per node) and on the cycle that closes it (one component)."""
    n = 20_000
    assert sys.getrecursionlimit() < n
    src = np.arange(n if cycle else n - 1)
    label = _strong_components(n, src, (src + 1) % n)
    assert np.unique(label).size == (1 if cycle else n)


def test_existence_check_reruns_when_support_changes():
    catalog = Catalog.build({"q": [(f"r{i}", [float(i)]) for i in range(3)]})
    records = [PreferenceRecord(annotator=0, prompt="q", winner=w, rejected=(y,))
               for w, y in [("r0", "r1"), ("r1", "r2"), ("r2", "r0")]]
    compiled = CompiledRecords.from_records(records, catalog)
    positive, cut = np.array([1.0, 2.0, 0.5]), np.array([1.0, 2.0, 0.0])
    checked = {}
    with mock.patch.object(emdpo, "_unbounded_support", wraps=_unbounded_support) as check:
        answers = [_unbounded_cached(compiled, np.bincount(compiled.inverse, w), checked)
                   for w in (positive, 3 * positive, cut, positive)]
    assert answers[:2] == [None, None] and answers[3] is None
    assert answers[2] == _unbounded_support(compiled, record_counts(compiled, cut) > 0)
    assert answers[2].startswith("no finite maximizer: in prompt 'q', 'r0' never lose")
    assert check.call_count == 2  # one check per distinct support
