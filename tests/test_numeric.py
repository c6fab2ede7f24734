"""``core.numeric.run_starts``: the one run-boundary kernel, and the guard
that keeps hand-written sorted-run masks out of the library; and
``run_pairs``, the one within-run pair expansion over its mask."""

from __future__ import annotations

import ast
import functools
import itertools
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ddsketch_ruby_ray
from ddsketch_ruby_ray.core.numeric import run_pairs, run_starts


def _hand_mask(*cols):
    """The hand-written form of the mask, the reference ``run_starts`` must
    equal: ``m[0] = True; m[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1]) | ...``."""
    m = np.empty(len(cols[0]), dtype=bool)
    if len(cols[0]):
        m[0] = True
        m[1:] = functools.reduce(operator.or_, [c[1:] != c[:-1] for c in cols])
    return m


_COLUMNS = {
    "int64": np.array([1, 1, 2, 2, 2, 7], dtype=np.int64),
    "int8": np.array([-3, -3, -3, 0, 5, 5], dtype=np.int8),
    "float": np.array([0.5, 0.5, 1.0, np.nan, np.nan, 2.0]),
    "object": np.array(["a", "a", "b", "b", "c", "c"], dtype=object),
}


@pytest.mark.parametrize("dtype", sorted(_COLUMNS))
def test_empty_input_gives_empty_mask(dtype):
    col = _COLUMNS[dtype][:0]
    for k in (1, 2, 3):
        out = run_starts(*[col] * k)
        assert out.dtype == bool and out.shape == (0,)


@pytest.mark.parametrize("dtype", sorted(_COLUMNS))
def test_one_row_starts_a_run(dtype):
    col = _COLUMNS[dtype][:1]
    for k in (1, 2, 3):
        assert run_starts(*[col] * k).tolist() == [True]


def test_single_columns():
    assert run_starts(_COLUMNS["int64"]).tolist() == [1, 0, 1, 0, 0, 1]
    assert run_starts(_COLUMNS["int8"]).tolist() == [1, 0, 0, 1, 1, 0]
    assert run_starts(_COLUMNS["object"]).tolist() == [1, 0, 1, 0, 1, 0]
    # ``!=`` semantics: every NaN starts its own run
    assert run_starts(_COLUMNS["float"]).tolist() == [1, 0, 1, 1, 1, 1]


def test_any_column_change_starts_a_run():
    a, b, c = _COLUMNS["int64"], _COLUMNS["int8"], _COLUMNS["object"]
    assert run_starts(a, b).tolist() == [1, 0, 1, 1, 1, 1]
    assert run_starts(b, c).tolist() == [1, 0, 1, 1, 1, 0]
    assert run_starts(a, b, c).tolist() == [1, 0, 1, 1, 1, 1]
    assert run_starts(a, _COLUMNS["float"]).tolist() == [1, 0, 1, 1, 1, 1]
    # the column order does not matter
    assert run_starts(c, a).tolist() == run_starts(a, c).tolist()


_ROWS = st.lists(
    st.tuples(
        st.integers(-3, 3),
        st.integers(-2, 2),
        st.sampled_from([0.0, 1.5, float("nan")]),
        st.sampled_from(["", "a", "b"]),
    ),
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(rows=_ROWS, ncols=st.integers(1, 3), which=st.permutations(range(4)))
def test_equals_hand_written_mask_on_sorted_input(rows, ncols, which):
    rows = sorted(rows, key=lambda r: (r[0], r[1], str(r[2]), r[3]))
    cols = [
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.int8),
        np.array([r[2] for r in rows], dtype=np.float64),
        np.array([r[3] for r in rows], dtype=object),
    ]
    picked = [cols[i] for i in which[:ncols]]
    out = run_starts(*picked)
    assert out.dtype == bool
    np.testing.assert_array_equal(out, _hand_mask(*picked))


# -- run_pairs ---------------------------------------------------------------


def _combination_pairs(keys, max_len):
    """Reference: ``itertools.combinations`` over each run's row indices,
    runs in row order; a run longer than ``max_len`` gives no pairs."""
    first, second = [], []
    for _, run in itertools.groupby(range(len(keys)), key=lambda i: keys[i]):
        rows = list(run)
        if max_len is None or len(rows) <= max_len:
            for i, j in itertools.combinations(rows, 2):
                first.append(i)
                second.append(j)
    return first, second


def _assert_pairs(keys, max_len):
    first, second = run_pairs(run_starts(np.asarray(keys, dtype=np.int64)), max_len)
    assert first.dtype == np.int64 and second.dtype == np.int64
    assert (first.tolist(), second.tolist()) == _combination_pairs(keys, max_len)


@pytest.mark.parametrize("max_len", [None, 1, 2, 3])
def test_run_pairs_fixed_shapes(max_len):
    _assert_pairs([], max_len)  # empty input: no pairs
    _assert_pairs([7] * 5, max_len)  # one run
    _assert_pairs([1, 2, 3, 4], max_len)  # all-singleton runs: no pairs
    _assert_pairs([1, 1, 2, 3, 3, 3, 4, 4, 4, 4], max_len)


def test_run_pairs_one_run_and_cap():
    first, second = run_pairs(run_starts(np.zeros(4, np.int64)))
    assert list(zip(first.tolist(), second.tolist())) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    ]
    # a run of exactly max_len keeps its pairs; one row longer drops them
    assert run_pairs(run_starts(np.zeros(4, np.int64)), 4)[0].size == 6
    assert run_pairs(run_starts(np.zeros(4, np.int64)), 3)[0].size == 0


@settings(max_examples=80, deadline=None)
@given(
    keys=st.lists(st.integers(0, 6), max_size=40).map(sorted),
    max_len=st.sampled_from([None, 1, 2, 3]),
)
def test_run_pairs_equals_combinations_per_run(keys, max_len):
    _assert_pairs(keys, max_len)


# -- guard -------------------------------------------------------------------


def _sliced(node, slice_src: str) -> str | None:
    """Name of ``node`` if it is ``<name>[<slice_src>]``."""
    if isinstance(node, ast.Subscript) and ast.unparse(node.slice) == slice_src:
        return ast.unparse(node.value)
    return None


def _has_shift_compare(node) -> bool:
    """Does ``node`` contain ``…[1:] != …[:-1]`` (either side first)?"""
    for n in ast.walk(node):
        if isinstance(n, ast.Compare) and [type(o) for o in n.ops] == [ast.NotEq]:
            l, r = n.left, n.comparators[0]
            if (_sliced(l, "1:") and _sliced(r, ":-1")) or (_sliced(l, ":-1") and _sliced(r, "1:")):
                return True
    return False


def _hand_written_run_masks(source: str) -> list[int]:
    """Line numbers of hand-written run masks in ``source``: ``X[0] = True``
    and ``X[1:] = …[1:] != …[:-1]`` (or ``|=``) in one module, or
    ``np.r_[True, …[1:] != …[:-1]]``."""
    heads, tails, found = set(), [], []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, (ast.Assign, ast.AugAssign)):
            for t in n.targets if isinstance(n, ast.Assign) else [n.target]:
                if _sliced(t, "0") and isinstance(n.value, ast.Constant) and n.value.value is True:
                    heads.add(_sliced(t, "0"))
                if _sliced(t, "1:") and _has_shift_compare(n.value):
                    tails.append((_sliced(t, "1:"), n.lineno))
        if (
            isinstance(n, ast.Subscript)
            and isinstance(n.value, ast.Attribute)
            and n.value.attr == "r_"
            and isinstance(n.slice, ast.Tuple)
            and ast.unparse(n.slice.elts[0]) == "True"
            and any(_has_shift_compare(e) for e in n.slice.elts[1:])
        ):
            found.append(n.lineno)
    found += [line for name, line in tails if name in heads]
    return sorted(found)


def test_guard_finds_hand_written_masks():
    sources = [
        "m = np.empty(n, bool)\nm[0] = True\nm[1:] = a[1:] != a[:-1]\n",
        "m = np.empty(n, bool)\nif n:\n    m[0] = True\n"
        "    m[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])\n",
        "seg = np.flatnonzero(np.r_[True, kp[1:] != kp[:-1]])\n",
        "m = np.zeros(n, bool)\nm[0] = True\nfor c in cols:\n    m[1:] |= c[1:] != c[:-1]\n",
    ]
    for src in sources:
        assert _hand_written_run_masks(src), src
    # a gap mask is not a run mask; neither is a shifted compare alone
    assert not _hand_written_run_masks("m = run_starts(k)\nm[1:] |= u[1:] - u[:-1] > g\n")
    assert not _hand_written_run_masks("d = a[1:] != a[:-1]\n")


def test_every_library_run_mask_is_run_starts():
    """``core/numeric.py`` holds the library's only run-boundary mask."""
    root = Path(ddsketch_ruby_ray.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "core/numeric.py":
            continue
        found += [f"{rel}:{line}" for line in _hand_written_run_masks(path.read_text())]
    assert not found, found
