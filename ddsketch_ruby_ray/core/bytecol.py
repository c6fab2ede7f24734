"""Copy-free walks over Arrow string/binary columns.

Every per-row byte kernel (sha256 lanes, the polynomial routing hash, line
counts) reads its column through :func:`byte_chunks`, which views each
chunk's offsets and data buffers in place: no ``combine_chunks()`` (it copies
the whole column, even a single chunk) and no per-row ``as_py()``.  The
kernels then work in fixed windows, so their temporaries stay bounded
whatever the column size:

* :func:`row_windows` - ``HASH_WINDOW_ROWS`` rows at a time, for per-row
  loops (one ``hashlib`` call per row, digests joined per window);
* :func:`scan_windows` - ``SCAN_WINDOW_BYTES`` data bytes at a time, for
  numpy scans; a row may span several windows, so each window reports the
  part of every overlapping row it holds and the kernel carries partial
  results across windows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

__all__ = ["HASH_WINDOW_ROWS", "SCAN_WINDOW_BYTES", "byte_chunks", "row_windows", "scan_windows"]

HASH_WINDOW_ROWS = 4096
SCAN_WINDOW_BYTES = 1 << 20


def byte_chunks(col):
    """Yield ``(data, offsets, valid)`` for each non-empty chunk of ``col``.

    ``col`` is a string/binary ``Array`` or ``ChunkedArray``, large or not.
    ``data`` is a uint8 view of the chunk's data buffer, ``offsets`` the
    int64 byte offsets of its ``len + 1`` row boundaries into ``data`` (a
    slice's offset already applied), ``valid`` a bool mask, or None when the
    chunk has no NULLs.
    Row ``i`` is ``data[offsets[i]:offsets[i + 1]]``; a NULL row's range is
    whatever the buffer holds, so kernels must mask it themselves.
    """
    for arr in col.chunks if isinstance(col, pa.ChunkedArray) else (col,):
        n = len(arr)
        if not n:
            continue
        t = arr.type
        if pa.types.is_string(t) or pa.types.is_binary(t):
            off_dt = np.int32
        elif pa.types.is_large_string(t) or pa.types.is_large_binary(t):
            off_dt = np.int64
        else:
            raise TypeError(f"byte_chunks: expected a string or binary column, got {t}")
        bufs = arr.buffers()
        off = np.frombuffer(
            bufs[1], dtype=off_dt, count=n + 1, offset=arr.offset * np.dtype(off_dt).itemsize
        ).astype(np.int64)
        data = np.frombuffer(bufs[2], dtype=np.uint8)
        valid = arr.is_valid().to_numpy(zero_copy_only=False) if arr.null_count else None
        yield data, off, valid


def row_windows(off: np.ndarray, valid: np.ndarray | None = None):
    """Yield ``(r0, starts, ends)`` per window of ``HASH_WINDOW_ROWS`` rows:
    the byte ranges of rows ``r0, r0 + 1, ...`` as Python int lists, with a
    NULL row's range made empty."""
    n = len(off) - 1
    for r0 in range(0, n, HASH_WINDOW_ROWS):
        r1 = min(r0 + HASH_WINDOW_ROWS, n)
        starts, ends = off[r0:r1], off[r0 + 1 : r1 + 1]
        if valid is not None:
            ends = np.where(valid[r0:r1], ends, starts)
        yield r0, starts.tolist(), ends.tolist()


def scan_windows(off: np.ndarray):
    """Yield ``(lo, hi, r0, seg_start, seg_end)`` per window ``[lo, hi)`` of
    at most ``SCAN_WINDOW_BYTES`` data bytes.

    Rows ``r0 .. r0 + len(seg_start) - 1`` are the rows overlapping the
    window (empty rows between them included); ``seg_start``/``seg_end``
    (int64, relative to ``lo``) bound the part of each that lies in it.  The
    segments tile ``[0, hi - lo)`` in order, because a column's rows tile
    ``data[offsets[0]:offsets[-1]]``.
    """
    end = int(off[-1])
    for lo in range(int(off[0]), end, SCAN_WINDOW_BYTES):
        hi = min(lo + SCAN_WINDOW_BYTES, end)
        # the row holding byte lo (the last boundary <= lo), through the last
        # row starting before hi
        r0 = int(np.searchsorted(off, lo, "right")) - 1
        r1 = int(np.searchsorted(off, hi, "left"))
        seg_start = np.maximum(off[r0:r1], lo) - lo
        seg_end = np.minimum(off[r0 + 1 : r1 + 1], hi) - lo
        yield lo, hi, r0, seg_start, seg_end
