"""The CLI's text readers against the line-by-line readers they replaced.

``read_dataset`` parses each line with one scan and works out each distinct
record once; ``cli._read_gamma`` parses each distinct row once. On every
file, valid or not, each must give what the former reader in
``reference.py`` gives: an equal result, or an :class:`InputError` with the
same message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from hetpref.cli import _read_gamma, _write_gamma
from hetpref.errors import InputError
from hetpref.simulate import Dataset, PreferenceRecord, read_dataset, write_dataset

NAMES = st.text(alphabet=st.sampled_from('ab"\\é\u2603 \n'), min_size=1, max_size=4)


@st.composite
def datasets(draw):
    """Random catalog names, m = 1..3 records per annotator, sets of 2..4, null and int types."""
    prompts = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    responses = {p: draw(st.lists(NAMES, min_size=2, max_size=5, unique=True)) for p in prompts}
    m = draw(st.integers(1, 3))
    ids = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=6, unique=True))
    records = []
    for a in ids:
        for _ in range(m):
            p = draw(st.sampled_from(prompts))
            chosen = draw(st.permutations(responses[p]))
            size = draw(st.integers(2, min(4, len(chosen))))
            records.append(PreferenceRecord(a, p, chosen[0], tuple(chosen[1:size])))
    types = {a: draw(st.one_of(st.none(), st.integers(0, 2**63 - 1))) for a in ids}
    return Dataset.from_records(records, true_types=types, catalog_hash="h", seed=draw(
        st.integers(0, 2**32)), m=m, choice_set_size=draw(st.integers(2, 4)))


def outcome(read, *args):
    """What a reader returns, or the message of the InputError it raises."""
    try:
        return read(*args)
    except InputError as exc:
        return str(exc)


def assert_same_dataset(got, want):
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    assert got == want and got.vocab == want.vocab
    for name in ("ids", "true_type", "rows", "offsets", "items"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def split_records(line):
    return line.replace('"records": [', '"records": [\n', 1)


# Each edit turns annotator line i of a written file (lines without their
# newlines, the header first) into a file's text.
def joined(lines):
    return "\n".join(lines) + "\n"


def with_line(lines, i, line):
    return joined(lines[:i] + [line] + lines[i + 1:])


def with_field(lines, i, old, new):
    return with_line(lines, i, lines[i].replace(old, new, 1))


def with_id(lines, i, value):
    head, rest = lines[i].split(", ", 1)
    return with_line(lines, i, f'{{"annotator": {value}, ' + rest)


def with_type(lines, i, value):
    return with_line(lines, i, lines[i].rsplit('"true_type": ', 1)[0] + f'"true_type": {value}}}')


EDITS = {
    "valid": lambda lines, i: joined(lines),
    "blank-line": lambda lines, i: joined(lines[:i] + [""] + lines[i:]),
    "trailing-spaces": lambda lines, i: with_line(lines, i, lines[i] + "   "),
    "crlf": lambda lines, i: "\r\n".join(lines) + "\r\n",
    "no-final-newline": lambda lines, i: "\n".join(lines),
    "truncated-last-line": lambda lines, i: joined(lines[:-1] + [lines[-1][:len(lines[-1]) // 2]]),
    "two-objects": lambda lines, i: joined(lines[:i] + [lines[i] + " " + lines[i]]
                                           + lines[i + 1:]),
    "split-records": lambda lines, i: with_line(lines, i, split_records(lines[i])),
    "rejected-string": lambda lines, i: with_line(
        lines, i, lines[i].replace('"rejected": [', '"rejected": "ab", "x": [', 1)),
    "rejected-int": lambda lines, i: with_line(
        lines, i, lines[i].replace('"rejected": [', '"rejected": 7, "x": [', 1)),
    "unhashable-prompt": lambda lines, i: with_field(lines, i, '"prompt": ',
                                                     '"prompt": ["q"], "x": '),
    "bool-id": lambda lines, i: with_id(lines, i, "true"),
    "float-id": lambda lines, i: with_id(lines, i, "3.0"),
    "out-of-range-id": lambda lines, i: with_id(lines, i, str(2**63)),
    "duplicate-id": lambda lines, i: with_line(lines, i, lines[1 if i > 1 else -1]),
    "negative-type": lambda lines, i: with_type(lines, i, "-1"),
    "bool-type": lambda lines, i: with_type(lines, i, "false"),
    "header-n": lambda lines, i: with_field(lines, 0, '"n": ', '"n": 1'),
}


@settings(max_examples=40, derandomize=True, deadline=None)
@given(datasets(), st.sampled_from(sorted(EDITS)), st.data())
def test_read_dataset_matches_the_line_reader(tmp_path_factory, dataset, edit, data):
    path = tmp_path_factory.mktemp("io") / "dataset.jsonl"
    write_dataset(dataset, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    i = data.draw(st.integers(1, len(lines) - 1))
    path.write_bytes(EDITS[edit](lines, i).encode("utf-8"))
    got, want = outcome(read_dataset, path), outcome(reference.read_dataset, path)
    assert_same_dataset(got, want)
    if edit in ("valid", "crlf", "no-final-newline", "trailing-spaces"):
        assert got == dataset
    elif edit in ("truncated-last-line", "two-objects", "split-records", "blank-line",
                  "rejected-int", "unhashable-prompt", "bool-id", "float-id", "header-n"):
        assert isinstance(got, str) and ", line " in got


def test_every_edit_breaks_or_keeps_a_known_file(tmp_path):
    # the edits above on one small file: each named fault is the reference's message
    records = [PreferenceRecord(a, "q", "a", ("b", "c")) for a in (5, 6, 7)]
    dataset = Dataset.from_records(records, true_types={5: 0, 6: None, 7: 1},
                                   catalog_hash="h", seed=0, m=1, choice_set_size=3)
    path = tmp_path / "dataset.jsonl"
    write_dataset(dataset, path)
    lines = path.read_text().splitlines()
    for edit, make in EDITS.items():
        path.write_text(make(lines, 2))
        got = outcome(read_dataset, path)
        assert_same_dataset(got, outcome(reference.read_dataset, path))
        if isinstance(got, str):
            assert got.startswith(f"{path}, line "), (edit, got)


@st.composite
def gammas(draw):
    """Posterior rows, few of them distinct, and the annotator ids they belong to."""
    k = draw(st.integers(1, 3))
    distinct = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k),
                             min_size=1, max_size=3))
    distinct = [np.asarray(r) / (sum(r) or 1.0) if sum(r) else np.eye(k)[0] for r in distinct]
    which = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=12))
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=len(which), max_size=len(which),
                        unique=True))
    return ids, np.array([distinct[j] for j in which]).reshape(len(which), k)


def gamma_with(lines, i, line):
    return "\n".join(lines[:i] + [line] + lines[i + 1:]) + "\n"


def swapped_with_last(lines, i):
    out = list(lines)
    out[i], out[-1] = out[-1], out[i]
    return "\n".join(out) + "\n"


GAMMA_EDITS = {
    "valid": lambda lines, i: "\n".join(lines) + "\n",
    "crlf": lambda lines, i: "\r\n".join(lines) + "\r\n",
    "ragged": lambda lines, i: gamma_with(lines, i, lines[i] + ",0.0"),
    "non-numeric": lambda lines, i: gamma_with(lines, i, lines[i].rsplit(",", 1)[0] + ",abc"),
    "off-simplex": lambda lines, i: gamma_with(
        lines, i, lines[i].split(",")[0] + ",0.9" * lines[0].count(",")),
    "out-of-order": lambda lines, i: swapped_with_last(lines, i),
    "missing-row": lambda lines, i: "\n".join(lines[:i] + lines[i + 1:]) + "\n",
    "padded-id": lambda lines, i: gamma_with(lines, i, " " + lines[i]),
}


@settings(max_examples=60, derandomize=True, deadline=None)
@given(gammas(), st.sampled_from(sorted(GAMMA_EDITS)), st.data())
def test_read_gamma_matches_the_row_reader(tmp_path_factory, world, edit, data):
    ids, gamma = world
    path = tmp_path_factory.mktemp("gamma") / "gamma.csv"
    _write_gamma(path, ids, gamma)
    lines = path.read_text().splitlines()
    assert lines[1:] == [",".join(map(str, [a] + row)) for a, row in zip(ids, gamma.tolist())]
    i = data.draw(st.integers(1, len(lines) - 1))
    path.write_bytes(GAMMA_EDITS[edit](lines, i).encode())
    k = gamma.shape[1]
    got, want = outcome(_read_gamma, path, ids, k), outcome(reference._read_gamma, path, ids, k)
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        assert "gamma.csv" in got
    else:
        assert got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                           want.view(np.int64))
        if edit in ("valid", "crlf"):
            assert np.array_equal(got, gamma)


def test_gamma_rows_equal_by_value_but_not_by_bits_are_written_apart(tmp_path):
    path = tmp_path / "gamma.csv"
    _write_gamma(path, [1, 2, 3], np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]))
    assert path.read_text() == "annotator,g_0,g_1\n1,0.0,1.0\n2,-0.0,1.0\n3,0.0,1.0\n"


@pytest.mark.parametrize("text, needle", [
    ("annotator,g_0\n1,1.0\n", None),
    ("annotator,g_0\n1\n", "line 2: 0 columns"),
    ("annotator,g_0\n 1,1.0\n", None),  # the row check strips the id
    ("annotator,g_0\n2,1.0\n", "line 2: annotator '2'"),
])
def test_read_gamma_one_row(tmp_path, text, needle):
    path = tmp_path / "gamma.csv"
    path.write_text(text)
    got = outcome(_read_gamma, path, [1], 1)
    assert type(got) is type(outcome(reference._read_gamma, path, [1], 1))
    if needle is None:
        assert np.array_equal(got, [[1.0]])
    else:
        assert needle in got
