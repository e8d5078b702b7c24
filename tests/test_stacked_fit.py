"""The M-step's one fit of all types on the stacked compile against the
former loop of one fit per type (``reference.fit_types_one_by_one``)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetpref import emdpo
from hetpref.emdpo import CompiledRecords, fit_preference_table, m_step_policy
from hetpref.errors import ConvergenceError
from hetpref.rewards import Catalog
from hetpref.simulate import Dataset, PreferenceRecord
from reference import fit_types_one_by_one


@st.composite
def fits(draw):
    """A catalog of prompts with 2 to 5 responses, binary and ternary records
    on some of them, and K = 1..4 types' pattern counts and warm starts.
    Types may have no mass; large counts and wide warm starts make some
    prompts get stuck, and a small ``max_iter`` caps some runs."""
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    catalog = Catalog.build({f"p{j}": [(f"r{i}", [float(i), float(j)]) for i in range(r)]
                             for j, r in enumerate(sizes)})

    def record(j):
        rids = catalog.responses(f"p{j}")
        return st.tuples(
            st.permutations(rids), st.integers(2, min(3, len(rids))), st.integers(0, 3)
        ).map(lambda t: PreferenceRecord(
            annotator=t[2], prompt=f"p{j}", winner=t[0][0], rejected=tuple(t[0][1:t[1]])
        ))

    records = draw(st.lists(st.integers(0, len(sizes) - 1).flatmap(record),
                            min_size=1, max_size=20))
    compiled = CompiledRecords.from_records(records, catalog)
    k = draw(st.sampled_from([1, 2, 3, 4]))
    counts = np.zeros((k, compiled.n_patterns))
    for row in counts:
        scale = draw(st.sampled_from([1.0, 1e6, 1e3, 0.0]))
        weights = st.sampled_from([1.0, 0.0, 2.5]) | st.floats(0.0, 3.0)
        row[:] = scale * np.array(draw(st.lists(weights, min_size=row.size, max_size=row.size)))
    x = np.array(draw(st.lists(st.floats(-20.0, 20.0), min_size=k * compiled.size,
                               max_size=k * compiled.size))).reshape(k, compiled.size)
    max_iter = draw(st.sampled_from([1000, 3, 1]))
    return compiled, counts, x, max_iter


def both_fits(compiled, counts, x, max_iter, grad_tol=1e-8):
    """(scores, norms, warnings) of the stacked fit and of the per-type loop,
    in warn mode; warnings as sorted (category, message) pairs."""
    out = []
    for fit_types in (emdpo._fit_types, fit_types_one_by_one):
        got = x.copy()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            norms = fit_types(compiled, counts, got, grad_tol, max_iter, "warn", {}, set())
        out.append((got, np.array(norms), sorted((w.category.__name__, str(w.message))
                                                 for w in caught)))
    return out


def assert_identical(stacked, one_by_one):
    (x, norms, caught), (want_x, want_norms, want_caught) = stacked, one_by_one
    assert x.tobytes() == want_x.tobytes()
    assert norms.tobytes() == want_norms.tobytes()
    # the same warnings, though existence warnings now come before gradient ones
    assert caught == want_caught
    # no warning from numpy: every RuntimeWarning is the M-step's own
    assert all(msg.startswith("policy M-step") for cat, msg in caught if cat == "RuntimeWarning")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(fits())
def test_stacked_fit_equals_one_fit_per_type(fit):
    compiled, counts, x, max_iter = fit
    assert_identical(*both_fits(compiled, counts, x, max_iter))


def two_prompt_world():
    """Annotator 0's three-response prompt with a cycle of wins (a finite
    maximizer) and annotator 1's binary prompt where r0 always wins (none)."""
    catalog = Catalog.build({"p": [(f"r{i}", [float(i)]) for i in range(3)],
                             "q": [(f"r{i}", [float(i)]) for i in range(2)]})
    records = [PreferenceRecord(0, "p", "r0", ("r1",)),
               PreferenceRecord(0, "p", "r1", ("r2",)),
               PreferenceRecord(0, "p", "r2", ("r0", "r1")),
               PreferenceRecord(1, "q", "r0", ("r1",))]
    return catalog, records


@pytest.mark.parametrize("max_iter", [3, 1000])
def test_stuck_prompt_stops_in_its_own_type(max_iter):
    # With a million-fold count, q's step fails 30 halvings after 172
    # iterations and the prompt stops there, short of the gradient tolerance.
    catalog, records = two_prompt_world()
    compiled = CompiledRecords.from_records(records, catalog)
    base = np.array([1.0, 2.0, 3.0, 1.0])
    x0 = np.array([0.0, 0.0, 0.0, 0.0, 0.0])
    stuck, norm, _ = fit_preference_table(compiled, base * 1e6, x0, max_iter=1000)
    assert norm > 1e-8
    assert np.array_equal(fit_preference_table(compiled, base * 1e6, x0, max_iter=2000)[0], stuck)
    counts = np.stack([base * 1e6, base, np.zeros(4), base * 1e3])
    x = np.stack([x0, x0 + 10.0, x0 - 3.0, np.array([20.0, -20.0, 10.0, 20.0, -20.0])])
    stacked, one_by_one = both_fits(compiled, counts, x, max_iter)
    assert_identical(stacked, one_by_one)


def test_stacked_compile_is_cached():
    catalog, records = two_prompt_world()
    compiled = CompiledRecords.from_records(records, catalog)
    assert compiled.stacked(1) is compiled
    stack = compiled.stacked(3)
    assert compiled.stacked(3) is stack
    assert (stack.copies, stack.size, stack.n_patterns) == (3, 15, 12)
    with pytest.raises(ValueError, match="pattern counts"):
        fit_preference_table(stack, np.ones((3, 4)), np.zeros(15))


def test_unbounded_type_raises_before_any_fit(monkeypatch):
    """In raise mode an unbounded type raises before the kernel runs, even
    when a bounded type comes before it."""
    catalog, records = two_prompt_world()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fit_preference_table(*args, **kwargs)

    monkeypatch.setattr(emdpo, "fit_preference_table", counting)
    with pytest.raises(ConvergenceError, match="type 1: no finite maximizer: in prompt 'q'"):
        m_step_policy(Dataset.from_records(records), catalog, np.eye(2), kappa=0.1)
    assert calls == []
