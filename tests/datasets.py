"""Conformance fixture datasets.

Python re-creations of the reference's dataset shapes
(`/root/reference/spec/support/test_dataset.rb:61-177` deterministic shapes;
`:179-1028` frozen numpy draws, regenerated here with pinned seeds per
FIXTURES.md section 2) plus the floor-rank quantile oracle
(`test_dataset.rb:37-41`).
"""

from __future__ import annotations

import math

import numpy as np

TEST_QUANTILES = [0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1]
TEST_SIZES = [3, 5, 10, 100, 1000]


def true_quantile(data, q: float) -> float:
    """Floor-rank lower quantile: sorted[int(q*(n-1))] (test_dataset.rb:37-41)."""
    s = np.sort(np.asarray(data, dtype=np.float64))
    return float(s[int(q * (len(s) - 1))])


def accuracy_ok(est: float, true: float, alpha: float, slack: float = 1e-15) -> bool:
    """|est - true| - alpha*|true| <= slack (custom_sketch_matchers.rb:7)."""
    return abs(est - true) - alpha * abs(true) <= slack


# -- deterministic shapes (test_dataset.rb:61-177) --------------------------

def uniform_forward(n):
    return np.arange(n, dtype=np.float64)


def uniform_backward(n):
    return np.asarray([n - i for i in range(n)], dtype=np.float64)


def negative_uniform_forward(n):
    return np.asarray([i - n for i in range(n)], dtype=np.float64)


def negative_uniform_backward(n):
    return np.asarray([-i for i in range(n)], dtype=np.float64)


def number_line_forward(n):
    return np.arange((-n) // 2 + 1, n // 2 + 1, dtype=np.float64)


def number_line_backward(n):
    return number_line_forward(n)[::-1].copy()


def uniform_zoom_in(n):
    arr = []
    for item in range(n // 2):
        arr.append(item)
        arr.append(n - item - 1)
    if n % 2:
        arr.append(n // 2)
    return np.asarray(arr, dtype=np.float64)


def uniform_zoom_out(n):
    arr = []
    if n % 2:
        half = n // 2
        arr.append(half)
        for item in range(1, half + 1):
            arr.append(half + item)
            arr.append(half - item)
    else:
        half = math.ceil(n / 2)
        for item in range(half):
            arr.append(half + item)
            arr.append(half - item - 1)
    return np.asarray(arr, dtype=np.float64)


def uniform_sqrt(n):
    arr = []
    t = math.sqrt(2 * n)
    initial_item = 0
    initial_skip = 1
    emitted = 0
    i = 0
    while emitted < n:
        item = initial_item
        skip = initial_skip
        steps = math.ceil(t - i) if (t - i) > 0 else 0
        for _ in range(steps):
            if item < n:
                arr.append(item)
                emitted += 1
            item += skip
            skip += 1
        if t - i > 1:
            initial_skip += 1
            initial_item += initial_skip
            i += 1
        else:
            initial_item += 1
    return np.asarray(arr, dtype=np.float64)


def constant(n):
    return np.full(n, 42.0)


DETERMINISTIC_SHAPES = {
    "UniformForward": uniform_forward,
    "UniformBackward": uniform_backward,
    "UniformZoomIn": uniform_zoom_in,
    "UniformZoomOut": uniform_zoom_out,
    "UniformSqrt": uniform_sqrt,
    "Constant": constant,
    "NegativeUniformBackward": negative_uniform_backward,
    "NegativeUniformForward": negative_uniform_forward,
    "NumberLineBackward": number_line_backward,
    "NumberLineForward": number_line_forward,
}


# -- seeded random distributions (test_dataset.rb:179-1028 analogues) --------

def _rng(tag: str):
    import zlib

    return np.random.default_rng(zlib.crc32(f"ddsketch-fixtures/{tag}".encode()))


def exponential(n=1000):
    return _rng("exponential").exponential(scale=0.01, size=n)


def lognormal(n=1000):
    return _rng("lognormal").lognormal(size=n) / 100.0


def normal(n, loc=37.4, scale=1.0, tag="normal"):
    return _rng(f"{tag}-{n}-{loc}-{scale}").normal(loc, scale, size=n)


def laplace(n=1000, loc=11000.0):
    return _rng("laplace").laplace(loc=loc, size=n)


def bimodal(n=1000):
    r = _rng("bimodal")
    return np.concatenate([r.laplace(loc=17.3, size=n // 2),
                           r.normal(-2.0, 3.0, size=n - n // 2)])


def mixed(n=1000):
    r = _rng("mixed")
    return np.concatenate([r.lognormal(size=n // 2) / 100.0,
                           r.normal(37.4, 1.0, size=n - n // 2)])


def trimodal(n=1000):
    r = _rng("trimodal")
    third = n // 3
    return np.concatenate([
        r.laplace(loc=17.3, size=third),
        r.normal(-2.0, 3.0, size=third),
        r.exponential(scale=0.01, size=n - 2 * third),
    ])


def integers(n=1000):
    return np.round(_rng("integers").normal(4.3, 5.0, size=n))


RANDOM_DISTRIBUTIONS = {
    "Exponential": exponential,
    "Lognormal": lognormal,
    "Bimodal": bimodal,
    "Mixed": mixed,
    "Trimodal": trimodal,
}


def core_grouped_reference(table, key: str, spec, blocks: int = 1) -> dict:
    """``{key value: result row}`` of a DDSketchSpec, folded per group with
    the core sketch alone: the group's rows are dealt round-robin into
    ``blocks`` sketches by scalar ``add`` (null values skipped), those merge
    with ``merged_with``, and quantiles come from ``get_quantile_value``."""
    from ddsketch_ruby_ray.functions.specs import quantile_name

    keys = table.column(key).to_pylist()
    values = table.column(spec.on).to_pylist()
    weights = table.column(spec.weight).to_pylist() if spec.weight else [1.0] * len(keys)
    parts: dict = {}
    for i, (k, v, w) in enumerate(zip(keys, values, weights)):
        sketches = parts.setdefault(k, [spec.zero() for _ in range(blocks)])
        if v is not None:
            sketches[i % blocks].add(v, w)
    out = {}
    for k, sketches in parts.items():
        sk = sketches[0]
        for other in sketches[1:]:
            sk = sk.merged_with(other)
        empty = sk.count == 0
        row = {"count": float(sk.count)}
        if spec.include_sum_avg:
            row["sum"] = 0.0 if empty else sk.sum
            row["avg"] = math.nan if empty else sk.sum / sk.count
        row["min"] = math.nan if empty else sk.min
        row["max"] = math.nan if empty else sk.max
        for q in spec.quantiles:
            est = sk.get_quantile_value(q)
            row[quantile_name(q)] = math.nan if est is None else est
        out[k] = row
    return out


def assert_matches_core_reference(rows: list, key: str, ref: dict, exact_sum: bool = True):
    """Result rows (``Dataset.take_all()``) equal ``core_grouped_reference``:
    one row per group, columns in ``spec.finalize`` order, every value
    bit-identical - ``sum``/``avg`` to 1e-12 unless ``exact_sum``, since a
    fractional sum's rounding depends on the order it was added in."""
    assert sorted(map(repr, (r[key] for r in rows))) == sorted(map(repr, ref))
    for r in rows:
        want = ref[r[key]]
        assert list(r) == [key, *want], (list(r), list(want))
        for c, w in want.items():
            got = r[c]
            if c in ("sum", "avg") and not exact_sum:
                assert math.isclose(got, w, rel_tol=1e-12, abs_tol=1e-12), (r[key], c, got, w)
            else:
                assert got == w or (got != got and w != w), (r[key], c, got, w)
