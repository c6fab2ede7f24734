"""Actor-pool accumulate stage: raw rows -> per-(batch, group) sketch states.

This is stage 1 of the two-level merge (`SURVEY.md §4.2`): each map task turns
its Arrow batch into at most ``num_groups`` KB-sized state rows, so the
downstream keyed exchange moves sketch STATES, never raw rows.  A
hot key (Zipf ``lang``) therefore costs O(num_batches) small states instead of
O(rows) - the skew answer mandated by the north_rule.

Usage::

    specs = [DDSketchSpec(on="content_bytes", name="bytes"), ...]
    acc = SketchStateAccumulator(specs, group_keys=("lang",), derive=fn)
    states = ds.map_batches(acc, batch_format="pyarrow", zero_copy_batch=True,
                            batch_size=..., concurrency=...)
    merged = merge_sketch_states(states, specs, group_keys)   # one keyed exchange

The accumulator is a callable CLASS so ``map_batches(..., concurrency=N)``
runs it as an actor pool: spec construction (mapping constants etc.) happens
once per actor in ``__init__``, per input_hint ("actor pools for stateful
stages").
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pyarrow as pa

from ..functions.specs import SketchSpec

__all__ = ["SketchStateAccumulator", "StateBlockMerger", "group_codes"]


def group_codes(batch: pa.Table, group_keys: Sequence[str]):
    """Encode the group key column(s) into dense int codes per row.

    Returns ``(codes: int64[n_rows], first_row_index: int64[n_groups])`` where
    ``first_row_index[g]`` points at a representative row of group ``g``.
    Dictionary-encoding each key column keeps this vectorized (no Python rows).
    """
    import pyarrow.compute as pc

    combined = None
    for k in group_keys:
        col = batch.column(k)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        dict_arr = col.dictionary_encode()
        # null keys form their own group (matching Dataset.groupby semantics):
        # give them the code past the dictionary end
        indices = pc.fill_null(dict_arr.indices, len(dict_arr.dictionary))
        codes = indices.to_numpy(zero_copy_only=False).astype(np.int64)
        card = len(dict_arr.dictionary) + 2
        combined = codes if combined is None else combined * card + codes
    uniq, first, inverse = np.unique(combined, return_index=True, return_inverse=True)
    return inverse, first


def group_slices(batch: pa.Table, group_keys: Sequence[str]):
    """-> ``(first_row_index, [row indices of each group])`` for one table.

    Without group keys a non-empty table is one group."""
    n = batch.num_rows
    if not (group_keys and n):
        return np.zeros(1 if n else 0, dtype=np.int64), ([np.arange(n)] if n else [])
    inverse, first = group_codes(batch, group_keys)
    order = np.argsort(inverse, kind="stable")
    # boundaries[i]:boundaries[i+1] slices group i's rows in `order`
    boundaries = np.searchsorted(inverse[order], np.arange(len(first) + 1))
    return first, [order[boundaries[g] : boundaries[g + 1]] for g in range(len(first))]


class SketchStateAccumulator:
    """map_batches callable: one Arrow batch -> one state row per group.

    Args:
        specs: sketches to maintain (one output struct column per spec).
        group_keys: group-by columns carried through to the output.
        derive: optional ``pa.Table -> pa.Table`` run first (fuses metric
            derivation into the same pass over the batch).
    """

    def __init__(
        self,
        specs: Sequence[SketchSpec],
        group_keys: Sequence[str] = (),
        derive: Callable[[pa.Table], pa.Table] | None = None,
    ):
        self.specs = list(specs)
        self.group_keys = tuple(group_keys)
        self.derive = derive
        self._value_cols = sorted({c for s in self.specs for c in s.columns})

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.derive is not None:
            batch = self.derive(batch)
        # Native dtypes preserved: int64 columns (e.g. 60-bit content hashes)
        # must NOT round-trip through float64.  Specs cast as they need.
        # String/binary columns stay Arrow, so hashing walks their buffers
        # (core/bytecol.py) instead of one Python str per row.
        arrays = {c: _values(batch.column(c)) for c in self._value_cols}
        first, group_rows = group_slices(batch, self.group_keys)

        out_cols: dict[str, object] = {}
        for k in self.group_keys:
            out_cols[k] = batch.column(k).take(pa.array(first))

        for spec in self.specs:
            states = []
            for rows in group_rows:
                sk = spec.zero()
                spec.accumulate(sk, {c: _take(arrays[c], rows) for c in spec.columns})
                states.append(spec.to_state(sk))
            out_cols[spec.name] = pa.array(states, type=spec.state_type())

        names = list(self.group_keys) + [s.name for s in self.specs]
        return pa.Table.from_arrays([out_cols[c] for c in names], names=names)


_BYTE_TYPES = (pa.types.is_string, pa.types.is_large_string, pa.types.is_binary,
               pa.types.is_large_binary)


def _values(col):
    """A spec value column: Arrow for string/binary, numpy otherwise."""
    if any(is_bytes(col.type) for is_bytes in _BYTE_TYPES):
        return col
    return col.to_numpy(zero_copy_only=False)


def _take(values, rows: np.ndarray):
    if isinstance(values, np.ndarray):
        return values[rows]
    return values.take(pa.array(rows))


def _state_rows(col) -> list:
    """State struct column -> one dict (or None) per row, like ``to_pylist``
    but with each list-of-numbers field as a numpy slice of one writable
    copy of its values: no Python float per bin (``to_pylist`` of DDSketch
    bins was most of the merge's CPU)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    fields = {}
    for i, field in enumerate(col.type):
        child, ty = col.field(i), field.type
        if (
            pa.types.is_list(ty)
            and (pa.types.is_integer(ty.value_type) or pa.types.is_floating(ty.value_type))
            and child.values.null_count == 0
        ):
            offs = child.offsets.to_numpy()
            vals = child.values.to_numpy(zero_copy_only=False).copy()
            ok = child.is_valid().to_numpy(zero_copy_only=False)
            fields[field.name] = [
                vals[a:b] if v else None for a, b, v in zip(offs[:-1], offs[1:], ok)
            ]
        else:
            fields[field.name] = child.to_pylist()
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    return [
        dict(zip(fields, row)) if ok else None
        for ok, row in zip(valid, zip(*fields.values()))
    ]


class StateBlockMerger:
    """map_batches callable: merge state rows per group WITHIN one table.

    Emits one state row per group (same schema as its input, minus any
    extra columns).  :meth:`finalize_groups` is the same per-group merge
    ending in ``spec.finalize``: the per-partition fold of
    :func:`ddsketch_ruby_ray.pipelines.merge_sketch_states`.  Merge
    associativity (base_sketch.rb:146-171 semantics) makes the result
    independent of how state rows were split into tables.
    """

    def __init__(self, specs: Sequence[SketchSpec], group_keys: Sequence[str] = ()):
        self.specs = list(specs)
        self.group_keys = tuple(group_keys)

    def merged(self, t: pa.Table):
        """-> (key columns, {spec name: merged sketch or None per group})."""
        first, group_rows = group_slices(t, self.group_keys)
        keys = [t.column(k).take(pa.array(first)) for k in self.group_keys]
        sketches = {}
        for spec in self.specs:
            col = _state_rows(t.column(spec.name))
            merged = []
            for rows in group_rows:
                acc = None
                for i in rows:
                    st = col[i]
                    if st is None:
                        continue
                    sk = spec.from_state(st)
                    acc = sk if acc is None else spec.merge(acc, sk)
                merged.append(acc)
            sketches[spec.name] = merged
        return keys, sketches

    def _table(self, keys, results) -> pa.Table:
        names = list(self.group_keys) + [s.name for s in self.specs]
        return pa.Table.from_arrays(keys + results, names=names)

    def __call__(self, t: pa.Table) -> pa.Table:
        keys, sketches = self.merged(t)
        return self._table(keys, [
            pa.array(
                [None if sk is None else spec.to_state(sk) for sk in sketches[spec.name]],
                type=spec.state_type(),
            )
            for spec in self.specs
        ])

    def finalize_groups(self, t: pa.Table) -> pa.Table:
        """Merge per group, then one ``spec.finalize`` struct per spec.

        The merged sketch is finalized directly (no state round trip).  Each
        struct's type is built from ``spec.finalize(None)``, fields in its key
        order (type inference would sort them), so every output table, an
        empty one included, has the same schema, and it is the schema every
        plan emits."""
        keys, sketches = self.merged(t)
        return self._table(keys, [
            pa.array(
                [spec.finalize(sk) for sk in sketches[spec.name]],
                type=pa.struct(
                    [(k, pa.scalar(v).type) for k, v in spec.finalize(None).items()]
                ),
            )
            for spec in self.specs
        ])
