"""The columnar Dataset against the record-by-record code it replaced.

Each reference below walks ``PreferenceRecord`` objects the way the
library did before records became integer columns; the columnar code must
give equal results (``==``), not merely close ones.
"""

import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetpref.emdpo import CompiledRecords, mean_winner_features
from hetpref.errors import InputError
from hetpref.evaluate import accuracy, binarize_records, mean_margin, split_by_true_type
from hetpref.identify import expected_record_loglik
from hetpref.policy import ScoreEnsemble, ScoreTable
from hetpref.rewards import Catalog, Population, softmax
from hetpref.simulate import (
    AnnotatorData,
    Dataset,
    PreferenceRecord,
    make_mpi_population,
    read_dataset,
    simulate_dataset,
    write_dataset,
)
from reference import exact_choice_weights, reward_margin


def reference_compile(catalog, records):
    """The record-by-record compile: a ``seen`` loop over records, then patterns."""
    row_of = {}
    for rec in records:
        row_of.setdefault(rec.annotator, len(row_of))
    out = SimpleNamespace(n_rows=len(row_of), n_records=len(records))
    start = dict(zip(catalog.prompts, catalog.offsets.tolist()))
    out.record_rows = np.array([row_of[r.annotator] for r in records], np.intp)
    seen, patterns = {}, {}
    inverse = np.empty(len(records), dtype=np.intp)
    for g, rec in enumerate(records):
        raw = (rec.prompt, rec.winner, rec.rejected)
        pid = seen.get(raw)
        if pid is None:
            win = catalog.response_index(rec.prompt, rec.winner)
            rej = sorted(catalog.response_index(rec.prompt, y) for y in rec.rejected)
            off = start[rec.prompt]
            key = (off + win, *[off + j for j in rej])
            pid = seen[raw] = patterns.setdefault(key, len(patterns))
        inverse[g] = pid
    keys = list(patterns)
    lengths = np.array([len(k) for k in keys], dtype=np.intp)
    order = np.argsort(lengths, kind="stable")
    renumber = np.empty_like(order)
    renumber[order] = np.arange(len(order))
    out.inverse = renumber[inverse]
    out.n_patterns = len(keys)
    by_row = np.argsort(out.record_rows, kind="stable")
    per_row = np.bincount(out.record_rows, minlength=out.n_rows)
    pos = np.arange(out.n_records) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    seqs = np.full((out.n_rows, per_row.max(initial=0)), -1, dtype=np.intp)
    seqs[out.record_rows[by_row], pos] = out.inverse[by_row]
    by_seq = np.lexsort(seqs.T[::-1]) if seqs.size else np.arange(out.n_rows)
    new = np.ones(out.n_rows, dtype=bool)
    new[1:] = (seqs[by_seq[1:]] != seqs[by_seq[:-1]]).any(axis=1)
    out.profile_of = np.empty(out.n_rows, dtype=np.intp)
    out.profile_of[by_seq] = np.cumsum(new) - 1
    representative = np.zeros(out.n_rows, dtype=bool)
    representative[by_seq[new]] = True
    rep = representative[out.record_rows]
    out.rep_patterns = out.inverse[rep]
    out.rep_profiles = out.profile_of[out.record_rows[rep]]
    out.blocks = []
    for L in np.unique(lengths):
        idx = np.array([keys[i] for i in order[lengths[order] == L]], dtype=np.intp).T.copy()
        begin = out.blocks[-1][0].stop if out.blocks else 0
        out.blocks.append((slice(begin, begin + idx.shape[1]), idx))
    starts, sizes = catalog.offsets[:-1], np.diff(catalog.offsets)
    prompt_of = np.repeat(np.arange(len(sizes)), sizes)
    by_size = np.argsort(sizes, kind="stable")
    hstart = np.empty_like(sizes)
    hstart[by_size] = np.cumsum(sizes[by_size] ** 2) - sizes[by_size] ** 2
    # distinct choice sets, numbered by first occurrence within each set size
    out.winner, out.set_of, out.set_blocks = [], [], []
    for _, idx in out.blocks:
        begin = out.set_blocks[-1][0].stop if out.set_blocks else 0
        sets = {}
        for pattern in idx.T.tolist():
            out.winner.append(pattern[0])
            out.set_of.append(begin + sets.setdefault(tuple(sorted(pattern)), len(sets)))
        members = np.array(list(sets), dtype=np.intp).reshape(-1, len(idx)).T
        own = prompt_of[members[0]]
        upper = [[hstart[p] + (a - starts[p]) * sizes[p] + (b - starts[p])
                  for p, (a, b) in zip(own, pairs)]
                 for pairs in zip(*(combinations(m, 2) for m in members.T.tolist()))]
        out.set_blocks.append((slice(begin, begin + len(sets)), members, own,
                               np.array(upper, dtype=np.intp).reshape(-1, len(sets))))
    out.winner, out.set_of = np.array(out.winner, np.intp), np.array(out.set_of, np.intp)
    out.n_sets = out.set_blocks[-1][0].stop if out.set_blocks else 0
    return out


def reference_binarize(dataset):
    return tuple(
        AnnotatorData(a.annotator, tuple(PreferenceRecord(a.annotator, r.prompt, r.winner, (y,))
                                         for r in a.records for y in r.rejected), a.true_type)
        for a in dataset.annotators
    )


def reference_margins(table, catalog, dataset):
    return [reward_margin(table, catalog, r.prompt, r.winner, r.rejected[0])
            for r in dataset.records()]


def reference_mean_winner_features(dataset, catalog):
    start = dict(zip(catalog.prompts, catalog.offsets.tolist()))
    win = [catalog.response_index(r.prompt, r.winner) + start[r.prompt]
           for a in dataset.annotators for r in a.records]
    sizes = np.array([len(a.records) for a in dataset.annotators])
    rows = np.repeat(np.arange(dataset.n), sizes)
    feats = np.concatenate([catalog.features(p) for p in catalog.prompts])[win]
    sums = [np.bincount(rows, feats[:, j], minlength=dataset.n) for j in range(catalog.d)]
    return np.column_stack(sums) / sizes[:, None]


def reference_mixture_model(catalog, mixture):
    """The callable model the library took before it scored sets in batches."""
    if isinstance(mixture, Population):
        scores = {p: catalog.features(p) @ mixture.thetas.T for p in catalog.prompts}
        eta = mixture.etas
    else:
        scores = {p: np.stack([t.scores[p] for t in mixture.tables], axis=1)
                  for p in catalog.prompts}
        eta = mixture.eta

    def model(prompt, cset):
        idx = [catalog.response_index(prompt, y) for y in cset]
        return softmax(scores[prompt][idx], axis=0) @ eta  # (set, K) @ (K,)

    return model


def reference_expected_record_loglik(dataset, catalog, truth, model):
    total, count, cache = 0.0, 0, {}
    for rec in dataset.records():
        key = (rec.prompt, tuple(sorted(rec.choice_set)))
        if key not in cache:
            p_true = exact_choice_weights(catalog, truth, rec.prompt, key[1])
            cache[key] = float(p_true @ np.log(np.asarray(model(rec.prompt, key[1]))))
        total += cache[key]
        count += 1
    return total / count


NAMES = st.text(alphabet=st.sampled_from('ab"\\é\u2603 \n'), min_size=1, max_size=4)


@st.composite
def worlds(draw):
    """A catalog with awkward names, interleaved annotators, mixed set sizes."""
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=3))
    prompts = draw(st.lists(NAMES, min_size=len(sizes), max_size=len(sizes), unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    catalog = Catalog.build({
        p: [(y, rng.normal(size=2)) for y in draw(st.lists(NAMES, min_size=r, max_size=r,
                                                             unique=True))]
        for p, r in zip(prompts, sizes)
    })

    def record(p):
        rids = catalog.responses(p)
        return st.tuples(st.permutations(rids), st.integers(2, min(4, len(rids))),
                         st.integers(-3, 3)).map(
            lambda t: PreferenceRecord(t[2], p, t[0][0], tuple(t[0][1:t[1]])))

    records = draw(st.lists(st.sampled_from(prompts).flatmap(record), min_size=1, max_size=30))
    records += draw(st.lists(st.sampled_from(records), max_size=8))
    ids = sorted({r.annotator for r in records})
    types = {a: draw(st.integers(0, 2)) for a in ids}
    dataset = Dataset.from_records(records, true_types=types, catalog_hash="h", seed=3, m=1,
                                   choice_set_size=2)
    return catalog, records, dataset


@settings(max_examples=80, derandomize=True, deadline=None)
@given(worlds())
def test_compile_equals_record_by_record_compile(world):
    catalog, records, dataset = world
    compiled = CompiledRecords.from_records(records, catalog)
    want = reference_compile(catalog, records)
    for name in ("n_rows", "n_records", "n_patterns"):
        assert getattr(compiled, name) == getattr(want, name)
    for name in ("record_rows", "inverse", "profile_of", "rep_patterns", "rep_profiles"):
        assert np.array_equal(getattr(compiled, name), getattr(want, name)), name
    assert [s for s, _ in compiled.blocks] == [s for s, _ in want.blocks]
    for (_, idx), (_, ref) in zip(compiled.blocks, want.blocks, strict=True):
        assert idx.flags.c_contiguous and np.array_equal(idx, ref)
    assert compiled.n_sets == want.n_sets
    for name in ("winner", "set_of"):
        assert np.array_equal(getattr(compiled, name), getattr(want, name)), name
    for got, ref in zip(compiled.set_blocks, want.set_blocks, strict=True):
        assert got[0] == ref[0]
        for a, b in zip(got[1:], ref[1:], strict=True):
            assert a.flags.c_contiguous and np.array_equal(a, b)
    again = CompiledRecords.from_dataset(dataset, catalog)
    assert np.array_equal(again.inverse, compiled.inverse)


def test_compile_allocates_nothing_hessian_sized():
    """The fit's Hessian buffer holds r * r entries per prompt; a compile
    must not allocate on that scale, since a world whose check fails before
    any fit (the default config's 990 responses) would pay for it."""
    population, catalog = make_mpi_population(n_phrases=990)
    dataset = simulate_dataset(catalog, population, n=1500, m=1, choice_set_size=2, rng_seed=0)
    tracemalloc.start()
    try:
        compiled = CompiledRecords(catalog, dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < compiled.hess_size * 8 / 2


@settings(max_examples=60, derandomize=True, deadline=None)
@given(worlds())
def test_views_round_trip(world):
    _, records, dataset = world
    assert dataset.records() == records
    by_id = {}
    for r in records:
        by_id.setdefault(r.annotator, []).append(r)
    assert [(a.annotator, list(a.records)) for a in dataset.annotators] == list(by_id.items())


@settings(max_examples=40, derandomize=True, deadline=None)
@given(worlds())
def test_write_read_write_bytes(tmp_path_factory, world):
    _, _, dataset = world
    tmp = tmp_path_factory.mktemp("io")
    write_dataset(dataset, tmp / "a.jsonl")
    back = read_dataset(tmp / "a.jsonl")
    assert back.annotators == dataset.annotators
    write_dataset(back, tmp / "b.jsonl")
    assert (tmp / "a.jsonl").read_bytes() == (tmp / "b.jsonl").read_bytes()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(worlds(), st.integers(0, 2**16))
def test_gathers_equal_record_loops(world, seed):
    catalog, _, dataset = world
    assert binarize_records(dataset).annotators == reference_binarize(dataset)
    groups = split_by_true_type(dataset)
    assert sorted(groups) == sorted({a.true_type for a in dataset.annotators})
    for t, g in groups.items():
        assert g.annotators == tuple(a for a in dataset.annotators if a.true_type == t)
    assert np.array_equal(mean_winner_features(dataset, catalog),
                          reference_mean_winner_features(dataset, catalog))
    rng = np.random.default_rng(seed)
    size = int(catalog.offsets[-1])
    tables = [ScoreTable(kappa=0.1, scores=catalog.split(rng.normal(size=size) * 3))
              for _ in range(2)]
    pairs = binarize_records(dataset)
    margins = reference_margins(tables[0], catalog, pairs)
    assert mean_margin(tables[0], catalog, pairs) == float(np.mean(margins))
    margins = np.array(margins)
    assert accuracy(tables[0], catalog, pairs) == float(
        ((margins > 0).sum() + 0.5 * (margins == 0).sum()) / len(margins))
    truth = Population.from_weights(rng.normal(size=(2, 2)), [0.3, 0.7])
    for mixture in (truth, ScoreEnsemble(tables=tuple(tables), eta=np.array([0.4, 0.6]))):
        model = reference_mixture_model(catalog, mixture)
        assert expected_record_loglik(dataset, catalog, truth, mixture) == \
            reference_expected_record_loglik(dataset, catalog, truth, model)


def test_in_memory_checks_name_the_annotator():
    ok = PreferenceRecord(7, "q", "a", ("b",))
    with pytest.raises(InputError, match="annotator 8: winner cannot also be rejected"):
        Dataset.from_records([ok, PreferenceRecord(8, "q", "a", ("b", "a"))])
    with pytest.raises(InputError, match="annotator 7: rejected ids must be distinct"):
        Dataset.from_records([PreferenceRecord(7, "q", "a", ("b", "b")), ok])
    with pytest.raises(InputError, match="true_type must be null or a non-negative integer"):
        Dataset.from_records([ok], true_types={7: -2})
