"""Derived metric columns over text/content.

These are the metric-derivation stages of the flagship pipeline
(`BASELINE.json.north_star`): byte length and line counts of source-file
content, plus the per-row sha256 content invariant.  The line count and the
hashes walk the content column's Arrow buffers in place
(:mod:`ddsketch_ruby_ray.core.bytecol`); nothing copies the column.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core import bytecol
from ..core.hashing import hash256_str

__all__ = ["derive_content_metrics", "add_sha256", "add_sha64"]

_HEX = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def _line_counts(col) -> pa.Array:
    """``count_substring(col, "\\n") + 1`` per row as int64 (NULL stays NULL).

    Each :func:`~ddsketch_ruby_ray.core.bytecol.scan_windows` window is one
    numpy scan for ``0x0A``; ``searchsorted`` of the window's newline
    positions at its row-part bounds counts each row's share.
    """
    counts, masks = [], []
    for data, off, valid in bytecol.byte_chunks(col):
        c = np.ones(len(off) - 1, dtype=np.int64)
        for lo, hi, r0, s, e in bytecol.scan_windows(off):
            nl = np.flatnonzero(data[lo:hi] == 0x0A)
            c[r0 : r0 + len(s)] += np.searchsorted(nl, e) - np.searchsorted(nl, s)
        counts.append(c)
        masks.append(np.ones(len(c), dtype=bool) if valid is None else valid)
    if not counts:
        return pa.array([], pa.int64())
    valid = np.concatenate(masks)
    return pa.array(np.concatenate(counts), pa.int64(), mask=None if valid.all() else ~valid)


def derive_content_metrics(
    table: pa.Table,
    content_col: str = "content",
    bytes_col: str = "content_bytes",
    lines_col: str = "n_lines",
) -> pa.Table:
    """Append ``content_bytes`` (utf-8 byte length) and ``n_lines`` columns.

    ``binary_length`` counts bytes (a zero-copy Arrow kernel); lines are
    newlines + 1, counted by :func:`_line_counts`.  A NULL content row gets
    NULL in both.
    """
    col = table.column(content_col)
    nbytes = pc.cast(pc.binary_length(col), pa.int64())
    table = table.append_column(bytes_col, nbytes)
    return table.append_column(lines_col, _line_counts(col))


def add_sha256(table: pa.Table, content_col: str = "content", out_col: str = "sha256") -> pa.Table:
    """Append hex sha256 of each row's content (the per-row invariant column).

    The four lanes of :func:`~ddsketch_ruby_ray.core.hashing.hash256_str`
    (NULL content hashes as ``''``) are the digest bytes; the hex text is
    built as one Arrow buffer by a nibble lookup, with no per-row string.
    """
    lanes = hash256_str(table.column(content_col), lanes=4)
    d = np.stack(lanes, axis=1).astype(">u8").view(np.uint8)
    n = len(d)
    hexed = np.empty((n, 64), dtype=np.uint8)
    hexed[:, 0::2] = _HEX[d >> 4]
    hexed[:, 1::2] = _HEX[d & 0x0F]
    offsets = np.arange(0, 64 * n + 1, 64, dtype=np.int32)
    sha = pa.Array.from_buffers(pa.string(), n, [None, pa.py_buffer(offsets), pa.py_buffer(hexed)])
    return table.append_column(out_col, sha)


def add_sha64(table: pa.Table, content_col: str = "content", out_col: str = "sha64") -> pa.Table:
    """Append the first 60 bits of sha256(content) as a non-negative int64.

    The per-row content invariant in aggregable form: XOR-folding this column
    per group is order/partition-independent, so a distributed run can prove
    "every row's content hash matches the reference" against a DuckDB oracle
    (``bit_xor(('0x' || substr(sha256(coalesce(col, '')), 1, 15))::BIGINT)``)
    no matter how blocks were split or merged.  60 bits (15 hex chars, lane 0
    of :func:`~ddsketch_ruby_ray.core.hashing.hash256_str` shifted right by
    4) keeps the value positive in both int64 domains.  NULL content hashes
    as ``''``, as in every hash pipeline.
    """
    sig = hash256_str(table.column(content_col), lanes=1)[0] >> np.uint64(4)
    return table.append_column(out_col, pa.array(sig.astype(np.int64), pa.int64()))
