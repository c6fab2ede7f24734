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
                            batch_size=None, concurrency=...)
    merged = merge_sketch_states(states, specs, group_keys)   # one keyed exchange

The accumulator is a callable CLASS so ``map_batches(..., concurrency=N)``
runs it as an actor pool: spec construction (mapping constants etc.) happens
once per actor in ``__init__``, per input_hint ("actor pools for stateful
stages").

Both callables encode a table's group keys once (:func:`group_codes`) and
hand each spec the whole table: ``spec.accumulate_groups``,
``merge_groups`` and ``finalize_groups`` see every group at once, so a
spec with a columnar merge (DDSketch, XorSig) builds no object per group.
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
    Without group keys a non-empty table is one group.
    """
    import pyarrow.compute as pc

    n = batch.num_rows
    if not group_keys:
        return np.zeros(n, dtype=np.int64), np.zeros(1 if n else 0, dtype=np.int64)
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
    if len(group_keys) == 1 and not pa.types.is_dictionary(col.type):
        # every entry of a fresh dictionary occurs: the codes are dense but
        # for the null code, which is the largest one
        inverse, n_groups = combined, len(dict_arr.dictionary) + (col.null_count > 0)
    else:
        uniq, inverse = np.unique(combined, return_inverse=True)
        n_groups = len(uniq)
    first = np.full(n_groups, n, dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(n))
    return inverse.astype(np.int64, copy=False), first


class SketchStateAccumulator:
    """map_batches callable: one Arrow batch -> one state row per group.

    Each spec turns the batch into its state column in one table-level step
    (``spec.accumulate_groups``).

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
        codes, first = group_codes(batch, self.group_keys)
        cols = [batch.column(k).take(pa.array(first)) for k in self.group_keys]
        cols += [
            spec.accumulate_groups({c: arrays[c] for c in spec.columns}, codes, len(first))
            for spec in self.specs
        ]
        names = list(self.group_keys) + [s.name for s in self.specs]
        return pa.Table.from_arrays(cols, names=names)


_BYTE_TYPES = (pa.types.is_string, pa.types.is_large_string, pa.types.is_binary,
               pa.types.is_large_binary)


def _values(col):
    """A spec value column: Arrow for string/binary, numpy otherwise."""
    if any(is_bytes(col.type) for is_bytes in _BYTE_TYPES):
        return col
    return col.to_numpy(zero_copy_only=False)


class StateBlockMerger:
    """map_batches callable: merge state rows per group WITHIN one table.

    Emits one state row per group (same schema as its input, minus any
    extra columns) through ``spec.merge_groups``.  :meth:`finalize_groups`
    is the same per-group merge ending in ``spec.finalize_groups``: the
    per-partition fold of
    :func:`ddsketch_ruby_ray.pipelines.merge_sketch_states`.  Merge
    associativity (base_sketch.rb:146-171 semantics) makes the result
    independent of how state rows were split into tables.
    """

    def __init__(self, specs: Sequence[SketchSpec], group_keys: Sequence[str] = ()):
        self.specs = list(specs)
        self.group_keys = tuple(group_keys)

    def _fold(self, t: pa.Table, step: str) -> pa.Table:
        codes, first = group_codes(t, self.group_keys)
        cols = [t.column(k).take(pa.array(first)) for k in self.group_keys]
        cols += [getattr(spec, step)(t.column(spec.name), codes, len(first)) for spec in self.specs]
        return pa.Table.from_arrays(cols, names=list(self.group_keys) + [s.name for s in self.specs])

    def __call__(self, t: pa.Table) -> pa.Table:
        return self._fold(t, "merge_groups")

    def finalize_groups(self, t: pa.Table) -> pa.Table:
        """Merge per group, then one ``spec.finalize`` struct per spec, typed
        ``spec.result_type()`` (fields in ``finalize``'s key order), so every
        output table, an empty one included, has the same schema."""
        return self._fold(t, "finalize_groups")
