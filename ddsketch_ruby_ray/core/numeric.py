"""Small exact helpers shared by the oracle-mirrored pipelines.

Two jobs live here.

The repo's standing convention is that every float an oracle-backed query
emits is derived from exact integer arithmetic in a fixed operation order,
so the DuckDB mirror reproduces it bit-for-bit.  The one place a float has
to become an integer is the currency/value quantization step (value *
10^k -> int64); ``round_half_away`` pins that step's rounding convention to
the one DuckDB's ``round()`` uses.

Nearly every exact or mergeable operator ends the same way: sort by key,
mark where each run of equal keys starts, reduce each run.  ``run_starts``
is the one run-boundary kernel every such site calls.  The candidate-pair
steps (LSH buckets, shingle postings, basket items, triangle wedges,
co-occurring tokens) expand every pair of rows in one run instead;
``run_pairs`` is that expansion, over a ``run_starts`` mask.
"""

from __future__ import annotations

import numpy as np

__all__ = ["round_half_away", "run_starts", "run_pairs"]


def round_half_away(v: np.ndarray) -> np.ndarray:
    """Round float64 half-AWAY-from-zero, exactly like DuckDB ``round(x)``.

    ``np.round`` is banker's rounding (half-to-even), so a value landing
    exactly on .5 diverges from the SQL mirror (ADVICE r2).  The naive
    ``floor(x + 0.5)`` fix has its own fp bug: for the largest double below
    0.5 the addition rounds UP to 1.0.  Instead compare the exact fractional
    part (``a - floor(a)`` is exact for ``a < 2**53`` by Sterbenz) against
    0.5 and bump — bit-identical to C's ``std::round`` on every finite
    double.
    """
    v = np.asarray(v, dtype=np.float64)
    a = np.abs(v)
    fl = np.floor(a)
    r = np.where(a - fl >= 0.5, fl + 1.0, fl)
    return np.copysign(r, v)


def run_starts(*sorted_cols) -> np.ndarray:
    """Bool mask: True at row 0 and wherever any column differs from the row
    before, over columns sorted together so equal keys form runs.

    Empty input gives an empty mask.  Rows compare with ``!=``, so each NaN
    starts its own run and object/string columns work.
    """
    first = sorted_cols[0]
    new = np.empty(len(first), dtype=bool)
    if new.size:
        new[0] = True
        new[1:] = first[1:] != first[:-1]
        for c in sorted_cols[1:]:
            new[1:] |= c[1:] != c[:-1]
    return new


def run_pairs(new: np.ndarray, max_len: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(first, second)`` int64 row indices of every pair ``i < j`` in the
    same run of a :func:`run_starts` mask ``new``, ordered by ``i`` and then
    ``j``.  A run longer than ``max_len`` gives no pairs.

    Row ``i`` at position ``p`` of a run of length ``L`` is the first row of
    ``L - 1 - p`` pairs, whose second rows are ``i + 1 .. i + L - 1 - p``.
    """
    n = new.size
    starts = np.flatnonzero(new)
    lens = np.diff(np.append(starts, n))
    cnt = np.repeat(starts + lens, lens) - np.arange(n, dtype=np.int64) - 1
    if max_len is not None:
        cnt[np.repeat(lens > max_len, lens)] = 0
    first = np.repeat(np.arange(n, dtype=np.int64), cnt)
    # second = first + 1 + (rank of the pair among first's pairs)
    second = np.arange(first.size, dtype=np.int64) + np.repeat(
        np.arange(1, n + 1, dtype=np.int64) - (np.cumsum(cnt) - cnt), cnt
    )
    return first, second
