"""The copy-free byte-column kernels (core/bytecol.py) against per-row references.

``hash256_str``, ``add_sha64``, ``add_sha256``,
``derive_content_metrics`` and ``hash64_str_fast`` walk Arrow offsets and
data buffers in windows; each must equal a plain per-row computation on every
column layout (chunked with an empty chunk, sliced, large, binary, NULLs,
empty strings, non-ASCII UTF-8, CRLF) and with windows so small that rows
span window boundaries.
"""

import hashlib
import os
import subprocess
import sys
import textwrap

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from ddsketch_ruby_ray.core import bytecol
from ddsketch_ruby_ray.core.hashing import hash256_str, hash64_str_fast, splitmix64
from ddsketch_ruby_ray.stages.derive import add_sha256, add_sha64, derive_content_metrics

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_M64 = (1 << 64) - 1
_R = 0x100000001B3

VALUES = [
    "",
    "a",
    None,
    "line one\nline two\n",
    "crlf\r\nends\r\n",
    "\n\n\n",
    "héllo wörld — ünïcödé ✓ 日本語\nzweite Zeile",
    None,
    "x" * 37,
    "",
    "no newline at all " * 5,
    "\r\n",
    "emoji 🎉\n🎉",
]


def _layouts():
    """Every column layout the kernels must read in place, with its rows as
    Python values (None for NULL)."""
    base = pa.array(VALUES, pa.string())
    pad = pa.array(["pad-left", "pad\nleft"] + VALUES + ["pad-right\n"], pa.string())
    third = len(VALUES) // 3
    return {
        "array": (base, VALUES),
        "large_string": (base.cast(pa.large_string()), VALUES),
        "binary": (base.cast(pa.binary()), VALUES),
        "sliced": (pad.slice(2, len(VALUES)), VALUES),
        "chunked_with_empty_chunk": (
            pa.chunked_array(
                [base.slice(0, third), pa.array([], pa.string()), base.slice(third)]
            ),
            VALUES,
        ),
        "chunked_sliced_large": (
            pa.chunked_array(
                [
                    pad.cast(pa.large_string()).slice(2, third),
                    pad.cast(pa.large_string()).slice(2 + third, len(VALUES) - third),
                ]
            ),
            VALUES,
        ),
        "no_chunks": (pa.chunked_array([], pa.string()), []),
        # Arrow lets a NULL slot span bytes; they must not leak into it
        "null_slot_over_bytes": (
            pa.Array.from_buffers(
                pa.string(),
                3,
                [
                    pa.py_buffer(bytes([0b101])),
                    pa.py_buffer(np.array([0, 2, 8, 11], dtype=np.int32)),
                    pa.py_buffer(b"abjunk\n\nc\nd"),
                ],
            ),
            ["ab", None, "c\nd"],
        ),
    }


LAYOUTS = _layouts()


@pytest.fixture(params=["default_windows", "tiny_windows"])
def windows(request, monkeypatch):
    """Run each test with the module's windows and with windows so small
    that most rows span several of them."""
    if request.param == "tiny_windows":
        monkeypatch.setattr(bytecol, "HASH_WINDOW_ROWS", 3)
        monkeypatch.setattr(bytecol, "SCAN_WINDOW_BYTES", 5)
    return request.param


def _raw(v) -> bytes:
    return b"" if v is None else v.encode("utf-8")


def _poly_reference(v) -> int:
    """hash64_str_fast's definition, row by row: Horner's fold of the bytes
    with base R mod 2^64, then splitmix64(h ^ len); NULL hashes like ''."""
    h = 0
    for b in _raw(v):
        h = (h * _R + b) & _M64
    return int(splitmix64(np.array([h ^ len(_raw(v))], dtype=np.uint64))[0])


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
class TestKernelsMatchPerRowReferences:
    def test_sha256_lanes(self, layout, windows):
        col, vals = LAYOUTS[layout]
        lanes = hash256_str(col, lanes=4)
        digests = [hashlib.sha256(_raw(v)).digest() for v in vals]
        for i in range(4):
            assert lanes[i].dtype == np.uint64
            want = [int.from_bytes(d[8 * i : 8 * i + 8], "big") for d in digests]
            assert lanes[i].tolist() == want

    def test_add_sha64_and_add_sha256(self, layout, windows):
        col, vals = LAYOUTS[layout]
        t = pa.table({"content": col})
        sha64 = add_sha64(t).column("sha64")
        assert sha64.type == pa.int64()
        hexes = [hashlib.sha256(_raw(v)).hexdigest() for v in vals]
        assert sha64.to_pylist() == [int(h[:15], 16) for h in hexes]
        sha = add_sha256(t).column("sha256")
        assert sha.type == pa.string()
        assert sha.to_pylist() == hexes

    def test_derive_content_metrics(self, layout, windows):
        col, vals = LAYOUTS[layout]
        out = derive_content_metrics(pa.table({"content": col}))
        want_lines = pc.add(pc.count_substring(col, "\n"), 1).to_pylist()
        want_bytes = pc.binary_length(col).to_pylist()
        assert out.column("n_lines").type == pa.int64()
        assert out.column("n_lines").to_pylist() == want_lines
        assert out.column("content_bytes").to_pylist() == want_bytes
        assert want_lines == [None if v is None else v.count("\n") + 1 for v in vals]

    def test_hash64_str_fast(self, layout, windows):
        col, vals = LAYOUTS[layout]
        assert hash64_str_fast(col).tolist() == [_poly_reference(v) for v in vals]


class TestHash64StrFastPinned:
    def test_values_pinned(self, windows):
        """Values of the unwindowed implementation this one replaced; the
        routing of every string-keyed exchange depends on them."""
        col = pa.array(["", "a", "python", "héllo\r\nwörld", None, "x" * 300])
        assert hash64_str_fast(col).tolist() == [
            16294208416658607535,
            7075883509774426401,
            16435590518412843297,
            3463961141012515784,
            16294208416658607535,
            14240912771443729290,
        ]

    def test_row_longer_than_window(self, monkeypatch):
        monkeypatch.setattr(bytecol, "SCAN_WINDOW_BYTES", 64)
        vals = ["y" * 1000, "", "z" * 65, "short", "w" * 64]
        assert hash64_str_fast(pa.array(vals)).tolist() == [_poly_reference(v) for v in vals]

    def test_python_sequences(self):
        vals = ["alpha", None, "", "ünï"]
        want = hash64_str_fast(pa.array(vals))
        assert (hash64_str_fast(vals) == want).all()
        assert (hash64_str_fast(np.array(vals, dtype=object)) == want).all()


class TestNullContent:
    def test_add_sha64_null_row_hashes_as_empty(self):
        """A NULL content row used to raise TypeError (hashlib.sha256(None));
        it now follows the hash pipelines' NULL-as-'' policy, which the
        sha256_invariant_by_lang oracle mirrors with coalesce(text, '')."""
        t = pa.table({"content": pa.array(["abc", None], pa.string())})
        got = add_sha64(t).column("sha64").to_pylist()
        assert got == [int(hashlib.sha256(v).hexdigest()[:15], 16) for v in (b"abc", b"")]

    def test_invariant_oracle_mirrors_null_policy(self):
        duckdb = pytest.importorskip("duckdb")
        from ddsketch_ruby_ray.queries import ORACLE_SQL

        documents = pa.table(
            {
                "lang": ["en", "en", "de", "de", "fr"],
                "text": pa.array(["one\ntwo", None, "drei", "", None], pa.string()),
            }
        )
        con = duckdb.connect()
        con.register("documents", documents)
        got = {
            r[0]: r[2]
            for r in con.execute(ORACLE_SQL["sha256_invariant_by_lang"]).fetchall()
        }
        sig = add_sha64(documents, content_col="text").column("sha64").to_numpy()
        want = {}
        for lang, s in zip(documents.column("lang").to_pylist(), sig):
            want[lang] = want.get(lang, 0) ^ int(s)
        assert got == want


class TestNoColumnCopy:
    def test_kernels_read_buffers_in_place(self):
        """Run every kernel over a ~16 MB two-chunk column with a counting
        Arrow memory pool as the default; ``combine_chunks()`` (which copies
        the column) must register in it, and no kernel may come near that.

        Runs in a child process: swapping the default pool is process-wide,
        and the child exits without tearing the pool down under live buffers.
        """
        script = textwrap.dedent(
            """
            import os
            import pyarrow as pa
            from ddsketch_ruby_ray.core.hashing import hash256_str, hash64_str_fast
            from ddsketch_ruby_ray.stages.derive import (
                add_sha256, add_sha64, derive_content_metrics,
            )

            row = ("x" * 79 + "\\n") * 10
            col = pa.chunked_array([pa.array([row] * 10_000), pa.array([row] * 10_000)])
            t = pa.table({"content": col})
            pool = pa.proxy_memory_pool(pa.default_memory_pool())
            pa.set_memory_pool(pool)
            hash256_str(col, lanes=4)
            add_sha64(t)
            add_sha256(t)
            derive_content_metrics(t)
            hash64_str_fast(col)
            kernels = pool.max_memory()
            col.combine_chunks()
            print(col.nbytes, kernels, pool.max_memory(), flush=True)
            os._exit(0)
            """
        )
        env = dict(os.environ, PYTHONPATH=_REPO + os.pathsep + os.environ.get("PYTHONPATH", ""))
        res = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert res.returncode == 0, res.stderr
        nbytes, kernels, with_copy = map(int, res.stdout.split())
        assert with_copy >= nbytes  # the probe sees a column copy
        assert kernels < nbytes // 8, (kernels, nbytes)

    def test_no_combine_chunks_or_as_py_in_kernels(self):
        """No kernel module calls ``combine_chunks()`` or per-row ``as_py()``."""
        import ast
        import inspect

        from ddsketch_ruby_ray.core import hashing
        from ddsketch_ruby_ray.stages import derive

        for mod in (bytecol, hashing, derive):
            tree = ast.parse(inspect.getsource(mod))
            calls = {
                n.func.attr
                for n in ast.walk(tree)
                if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            }
            assert not calls & {"combine_chunks", "as_py", "to_pylist"}, mod.__name__
