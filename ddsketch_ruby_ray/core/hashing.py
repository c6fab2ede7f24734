"""Deterministic 64-bit hashing, bit-exactly mirrorable in DuckDB SQL.

Two families, chosen so every hash-based sketch (HLL, Bloom, count-min,
MinHash, SimHash) is a deterministic function of its input that an ANSI-SQL
oracle can reproduce exactly:

* ``hash64_int`` - splitmix64 (public constants, Steele et al. / Vigna) over
  int64/uint64 columns.  Fully vectorized in numpy (wrap-around uint64
  arithmetic); mirrored in SQL via HUGEINT limb arithmetic
  (:func:`splitmix64_sql`).
* ``hash256_str`` - sha256 over utf-8 bytes, sliced into four independent
  uint64 lanes.  Per-row hashlib loop (sha256 has no vectorized form) over
  the column's Arrow buffers in place (:mod:`.bytecol`); embarrassingly
  parallel across Ray tasks; mirrored in SQL via DuckDB's ``sha256`` + hex
  substring casts.  Measured with ``tools/kernelbench.py`` (one core of a
  4-CPU x86 box, ~1 KB source-file rows): ~470-500 MB/s, against ~1.2 GB/s for
  one sha256 over the same bytes as a single buffer; the gap is the
  per-row call.

Seeds: integer hashes take a seed mixed in pre-hash; string hashes expose 4
independent lanes per value (the 256-bit digest), extendable by suffixing the
input with a seed byte if ever more are needed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from . import bytecol

__all__ = [
    "splitmix64",
    "hash64_int",
    "hash256_str",
    "hash64_str_fast",
    "fold_windows",
    "splitmix64_sql",
    "sha_lane_sql",
]

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_C1 = 0x9E3779B97F4A7C15
_C2 = 0xBF58476D1CE4E5B9
_C3 = 0x94D049BB133111EB


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 (wrap-around arithmetic)."""
    old = np.seterr(over="ignore")
    try:
        x = (x + np.uint64(_C1)) & _M64
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(_C2)) & _M64
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(_C3)) & _M64
        return x ^ (x >> np.uint64(31))
    finally:
        np.seterr(**old)


def hash64_int(values, seed: int = 0) -> np.ndarray:
    """uint64 hash of an int64/uint64 array; distinct seeds give independent fns."""
    v = np.asarray(values).astype(np.uint64)
    if seed:
        old = np.seterr(over="ignore")
        try:
            v = (v + np.uint64((seed * _C1) & 0xFFFFFFFFFFFFFFFF)) & _M64
        finally:
            np.seterr(**old)
    return splitmix64(v)


_POLY_R = np.uint64(0x100000001B3)  # FNV-64 prime as the polynomial base
# R is odd, so it has an inverse mod 2^64: R^a * R^-b == R^(a-b) exactly
_POLY_R_INV = np.uint64(pow(int(_POLY_R), -1, 1 << 64))


def _arrow_bytes(col):
    """``col`` as an Arrow string/binary column; any other sequence (numpy
    object array, list) becomes one: bytes as-is, None as NULL, anything
    else as the utf-8 of its ``str``."""
    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        return col
    return pa.array(
        [v if v is None or isinstance(v, bytes) else str(v).encode("utf-8") for v in col],
        pa.large_binary(),
    )


def _powers(base: np.uint64, n: int) -> np.ndarray:
    """``base^0 .. base^(n-1)`` mod 2^64."""
    p = np.ones(n, dtype=np.uint64)
    if n > 1:
        np.multiply.accumulate(np.full(n - 1, base, dtype=np.uint64), out=p[1:])
    return p


def hash64_str_fast(col) -> np.ndarray:
    """Vectorized non-cryptographic 64-bit hash of an Arrow string column.

    PARTITIONING ONLY — it has NO SQL mirror and must never reach an
    oracle-compared output column (use :func:`hash256_str` there).  Polynomial
    fold over the raw utf-8 bytes, h = sum(byte * R^(len-1-pos)) mod 2^64,
    finalized with splitmix64(h ^ len); equal strings always collide and
    null strings hash like "".

    The fold walks :func:`~ddsketch_ruby_ray.core.bytecol.scan_windows` of
    each chunk's data buffer in place, with no per-row Python and no column
    copy.  Within a window, byte ``j`` (window-relative) contributes
    ``byte * R^-j`` to one modular cumsum; a row part ending at ``e`` is
    ``R^(e-1) * (csum[e] - csum[s])`` (exact under uint64 wrap, safe for
    empty parts, which np.add.reduceat is not).  A row continuing from the
    previous window carries its partial sum as ``h * R^part_len + part``, so
    the temporaries stay a few times the window whatever the row sizes.
    """
    col = _arrow_bytes(col)
    out = []
    old = np.seterr(over="ignore")
    try:
        for data, off, valid in bytecol.byte_chunks(col):
            lens = np.diff(off)
            h = np.zeros(len(lens), dtype=np.uint64)
            width = min(int(off[-1] - off[0]), bytecol.SCAN_WINDOW_BYTES)
            pw, inv = _powers(_POLY_R, width + 1), _powers(_POLY_R_INV, width)
            csum = np.zeros(width + 1, dtype=np.uint64)  # csum[0] stays 0
            for lo, hi, r0, s, e in bytecol.scan_windows(off):
                terms = csum[1 : hi - lo + 1]
                np.multiply(data[lo:hi], inv[: hi - lo], out=terms)
                np.cumsum(terms, out=terms)
                # an empty part reads pw[-1] times a zero difference
                part = pw[e - 1] * (csum[e] - csum[s])
                rows = slice(r0, r0 + len(s))
                h[rows] = h[rows] * pw[e - s] + part
            if valid is not None:
                h[~valid] = 0
                lens[~valid] = 0
            out.append(splitmix64(h ^ lens.astype(np.uint64)))
    finally:
        np.seterr(**old)
    return np.concatenate(out) if out else np.zeros(0, dtype=np.uint64)


def hash256_str(col, lanes: int = 1) -> list[np.ndarray]:
    """sha256 each string/binary; return ``lanes`` (<=4) uint64 arrays.

    Lane ``i`` is bytes ``8*i : 8*i+8`` of the digest, big-endian - exactly
    ``('0x' || substr(sha256(col), 1 + 16*i, 16))::UBIGINT`` in DuckDB.

    Null policy: a null value hashes as the EMPTY STRING (the SQL mirror is
    ``sha256(coalesce(col, ''))``, which :func:`sha_lane_sql` applies), so a
    corpus with null text rows flows through every hash pipeline with a
    defined, oracle-consistent result instead of an opaque TypeError.

    One ``hashlib.sha256`` call per row over a memoryview slice of the
    chunk's data buffer (no per-row copy or ``as_py()``); the digests of
    each :func:`~ddsketch_ruby_ray.core.bytecol.row_windows` window are
    joined into one buffer, which the lanes view as ``>u8``.
    """
    assert 1 <= lanes <= 4
    col = _arrow_bytes(col)
    digests = np.empty((len(col), 32), dtype=np.uint8)
    sha = hashlib.sha256
    r = 0
    for data, off, valid in bytecol.byte_chunks(col):
        mv = memoryview(data)
        for r0, starts, ends in bytecol.row_windows(off, valid):
            joined = b"".join([sha(mv[a:b]).digest() for a, b in zip(starts, ends)])
            rows = slice(r + r0, r + r0 + len(starts))
            digests[rows] = np.frombuffer(joined, dtype=np.uint8).reshape(-1, 32)
        r += len(off) - 1
    big = digests.view(">u8")
    return [big[:, i].astype(np.uint64) for i in range(lanes)]


def fold_windows(
    tokh: np.ndarray,
    starts: np.ndarray,
    n: int,
    widths: np.ndarray | None = None,
) -> np.ndarray:
    """uint64 fingerprint per n-element window of a uint64 token-hash array.

    Window w covers ``tokh[starts[w] : starts[w] + width_w]`` (``width_w = n``
    when ``widths`` is None); its fingerprint is the splitmix64 fold
    ``acc_j = splitmix64(acc_{j-1} + tokh[starts[w]+j])`` with ``acc_{-1}=0``
    — the same chain the LSH band buckets use, so the SQL mirror is the same
    CTE-per-step expansion (functions/dedup_oracle.py::_window_fold_ctes).

    Fully vectorized: n gather+splitmix passes over all windows at once — no
    per-window Python, no window-string materialization.  This replaces the
    round-2 ``" ".join(toks[i:i+n])`` + per-string sha256 map stage, whose
    O(total_tokens x n) char copies dominated the spans/shingle pipelines.
    """
    starts = np.asarray(starts, dtype=np.int64)
    acc = np.zeros(starts.size, dtype=np.uint64)
    if not starts.size:
        return acc
    old = np.seterr(over="ignore")
    try:
        for j in range(n):
            if widths is None:
                acc = splitmix64(acc + tokh[starts + j])
            else:
                live = widths > j
                if live.all():
                    acc = splitmix64(acc + tokh[starts + j])
                else:
                    idx = np.flatnonzero(live)
                    if not idx.size:
                        break
                    acc[idx] = splitmix64(acc[idx] + tokh[starts[idx] + j])
    finally:
        np.seterr(**old)
    return acc


# -- SQL mirrors -------------------------------------------------------------

_TWO64 = "18446744073709551616"  # 2^64
_TWO32 = "4294967296"  # 2^32


def _mulmod64_sql(a: str, b_const: int) -> str:
    """(a * b) mod 2^64 with a < 2^64 (HUGEINT limb arithmetic).

    int128 cannot hold a full 64x64 product, so split b into 32-bit limbs:
    (a*bl + ((a*bh mod 2^32) << 32)) mod 2^64 -- every intermediate < 2^127.
    """
    bh, bl = b_const >> 32, b_const & 0xFFFFFFFF
    return (
        f"((({a}) * {bl}::HUGEINT + ((({a}) * {bh}::HUGEINT % {_TWO32}) * {_TWO32}))"
        f" % {_TWO64})"
    )


def splitmix64_sql(x: str, seed: int = 0, normalize: bool = True) -> str:
    """SQL expression (HUGEINT in [0, 2^64)) = ``hash64_int(x, seed)``.

    ``x`` must be a SQL expression of integer type (interpreted mod 2^64,
    matching numpy's uint64 cast of int64 input).  Pass ``normalize=False``
    when ``x`` is already a HUGEINT expression in [0, 2^64) (e.g. a
    pre-seeded hash) to skip the int64 -> uint64 domain shift.
    """
    if normalize:
        e = f"((({x})::HUGEINT % {_TWO64} + {_TWO64}) % {_TWO64})"
    else:
        e = f"({x})"
    if seed:
        e = f"(({e} + {(seed * _C1) & 0xFFFFFFFFFFFFFFFF}::HUGEINT) % {_TWO64})"
    e = f"(({e} + {_C1}::HUGEINT) % {_TWO64})"
    e = f"xor({e}::UBIGINT, ({e} // 1073741824)::UBIGINT)::HUGEINT"  # >> 30
    e = _mulmod64_sql(e, _C2)
    e = f"xor({e}::UBIGINT, ({e} // 134217728)::UBIGINT)::HUGEINT"  # >> 27
    e = _mulmod64_sql(e, _C3)
    e = f"xor({e}::UBIGINT, ({e} // 2147483648)::UBIGINT)::HUGEINT"  # >> 31
    return e


def sha_lane_sql(col: str, lane: int = 0) -> str:
    """SQL expression (UBIGINT) = lane ``lane`` of ``hash256_str(col)``.

    ``coalesce(col, '')`` mirrors the Python side's null-as-empty-string
    policy (see :func:`hash256_str`).
    """
    assert 0 <= lane <= 3
    return f"('0x' || substr(sha256(coalesce({col}, '')), {1 + 16 * lane}, 16))::UBIGINT"
