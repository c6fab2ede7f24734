"""Seeded source-code corpus generator (numpy + pyarrow only).

Writes the ``repo, path, commit, lang, content`` schema (plus ``doc_id``) to
Parquet.  The shape is what the sketch and dedup pipelines are sensitive to:

- ``lang`` is Zipf-skewed over 20 values, the top one near 40% of rows;
- line counts are lognormal and line widths normal, with the parameters of
  the library's own corpus (``ddsketch_ruby_ray/sources/corpus.py``):
  ``floor(max(1, exp(2.7 + z)))`` lines of ``clip(round(40 + 12 z'), 2, 120)``
  characters each, so byte lengths are long-tailed (median ~0.56 KB, mean
  ~1 KB, p99 ~6.6 KB; BASELINE.md's 16M-row corpus holds ~16 GB of content);
- about 1% of files are empty (the sketches' zero band);
- repos are Zipf-distributed over ``n_repos``;
- ``dup_share`` of rows are exact copies of another row's content and lang.

The same ``(spec, seed)`` gives byte-identical files.  Nothing here imports
the library under test.

    python3 perfbench/gen.py OUT_DIR --seed 1 --rows 100000 --files 8 [--warm-rows 4000]

writes ``OUT_DIR/in/part-*.parquet`` (and ``OUT_DIR/warm/``).
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

LANGS = (
    "python", "javascript", "java", "c", "cpp", "go", "rust", "typescript",
    "ruby", "php", "csharp", "kotlin", "scala", "swift", "shell", "lua",
    "haskell", "perl", "r", "julia",
)

TOP_LANG_SHARE = 0.40
LOG_LINES_MEAN, LOG_LINES_SIGMA = 2.7, 1.0  # as sources/corpus.py
WIDTH_MEAN, WIDTH_SIGMA, WIDTH_MIN, WIDTH_MAX = 40, 12, 2, 120
EMPTY_SHARE = 0.01
_POOL_BYTES = 4_194_301  # prime


def zipf_weights(n: int, top_share: float | None = None, s: float = 1.1) -> np.ndarray:
    """Zipf weights over ``n`` ranks; with ``top_share`` the exponent is solved
    so that rank 1 gets that share."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    if top_share is not None:
        lo, hi = 0.0, 8.0
        for _ in range(60):
            s = (lo + hi) / 2
            w = ranks**-s
            if w[0] / w.sum() < top_share:
                lo = s
            else:
                hi = s
    w = ranks**-s
    return w / w.sum()


def _contents(rng: np.random.Generator, n_lines: np.ndarray, width: np.ndarray) -> pa.StringArray:
    """One distinct printable-ASCII file per entry, ``n_lines[i]`` lines of
    ``width[i]`` characters joined by ``\\n`` (no trailing newline), built as
    one contiguous Arrow buffer."""
    n = len(n_lines)
    total_lines = int(n_lines.sum())
    line_len = np.repeat(width, n_lines)
    # bytes per file: its lines plus the separators between them
    file_lines_end = np.cumsum(n_lines)
    line_csum = np.concatenate([[0], np.cumsum(line_len)])
    chars = line_csum[file_lines_end] - line_csum[file_lines_end - n_lines]
    nbytes = chars + np.maximum(n_lines - 1, 0)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nbytes, out=offsets[1:])
    # printable ASCII from a prime-sized random pool: files start at varying
    # phases of it, so equal content needs equal length, phase and line breaks
    pool = np.frombuffer(rng.bytes(_POOL_BYTES), dtype=np.uint8) % np.uint8(95) + np.uint8(32)
    data = np.resize(pool, int(offsets[-1]))
    # newline after every line that is not its file's last line
    file_of_line = np.repeat(np.arange(n), n_lines)
    first_line = (file_lines_end - n_lines)[file_of_line]
    idx_in_file = np.arange(total_lines) - first_line
    not_last = idx_in_file < (n_lines[file_of_line] - 1)
    # position of the byte after line j = file offset + chars so far + separators so far
    end_in_file = (line_csum[1:] - line_csum[first_line]) + idx_in_file
    pos = offsets[:-1][file_of_line] + end_in_file
    data[pos[not_last]] = ord("\n")
    return pa.Array.from_buffers(
        pa.large_string(), n, [None, pa.py_buffer(offsets), pa.py_buffer(data)]
    ).cast(pa.string())


def generate(seed: int, rows: int, *, n_repos: int = 500, dup_share: float = 0.05) -> pa.Table:
    """-> table ``repo, path, commit, lang, content, doc_id`` (``rows`` rows)."""
    rng = np.random.default_rng(seed)
    lang = rng.choice(len(LANGS), size=rows, p=zipf_weights(len(LANGS), top_share=TOP_LANG_SHARE))
    repo = rng.choice(n_repos, size=rows, p=zipf_weights(n_repos))
    n_lines = np.maximum(1.0, rng.lognormal(LOG_LINES_MEAN, LOG_LINES_SIGMA, size=rows)).astype(np.int64)
    n_lines[rng.random(rows) < EMPTY_SHARE] = 0
    width = np.clip(np.round(rng.normal(WIDTH_MEAN, WIDTH_SIGMA, size=rows)), WIDTH_MIN, WIDTH_MAX)
    content = _contents(rng, n_lines, width.astype(np.int64))

    # exact duplicates: copy content and lang of an earlier row, following
    # copies of copies back to the original
    src = np.arange(rows)
    dup = np.flatnonzero(rng.random(rows) < dup_share)
    dup = dup[dup > 0]
    src[dup] = (rng.random(len(dup)) * dup).astype(np.int64)
    while (src[src] != src).any():
        src = src[src]
    content = content.take(pa.array(src))
    lang = lang[src]

    repo_names = pa.array([f"org{r % 97}/repo{r}" for r in range(n_repos)])
    commits = pa.array([rng.bytes(20).hex() for _ in range(n_repos)])
    paths = pa.array([f"src/f{i}" for i in range(rows)])
    doc_id = rng.permutation(rows).astype(np.int64) * 7 + 3
    return pa.table(
        {
            "repo": repo_names.take(pa.array(repo)),
            "path": paths,
            "commit": commits.take(pa.array(repo)),
            "lang": pa.array(LANGS).take(pa.array(lang)),
            "content": content,
            "doc_id": pa.array(doc_id),
        }
    )


def write(table: pa.Table, out_dir: str, files: int) -> list[str]:
    """Split ``table`` into ``files`` contiguous Parquet files; -> sorted paths."""
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, files + 1).astype(np.int64)
    paths = []
    for i in range(files):
        p = os.path.join(out_dir, f"part-{i:03d}.parquet")
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]), p, compression="snappy")
        paths.append(p)
    return paths


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rows", type=int, required=True)
    ap.add_argument("--files", type=int, required=True)
    ap.add_argument("--repos", type=int, default=500)
    ap.add_argument("--dup-share", type=float, default=0.05)
    ap.add_argument("--warm-rows", type=int, default=0, help="also write a small warm-up set")
    args = ap.parse_args(argv)
    out = {}
    for name, seed, rows in (("in", args.seed, args.rows), ("warm", args.seed + 1, args.warm_rows)):
        if rows:
            t = generate(seed, rows, n_repos=args.repos, dup_share=args.dup_share)
            out[name] = write(t, os.path.join(args.out_dir, name), args.files)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
