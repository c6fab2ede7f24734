"""End-to-end pipelines (flagship sketch pipeline, checkpointed runs)."""

def _configure_ray_data() -> None:
    """Engine-wide Ray Data tuning (no ray.init here - the driver owns that).

    Push-based sort shuffle pipelines the map and reduce sides of Ray's
    sort / repartition exchanges instead of materializing all map outputs
    first.  Measured on the 16M-row as-of join at 32 cpus, when the keyed
    exchange still ran on Ray's sort: 20-29 s -> 14-17 s wall with identical
    results; Ray 2.49's HASH_SHUFFLE strategy measured 39-45 s on the same
    job (aggregator-actor overhead) and is not used.  The keyed exchange
    (:func:`.fold.keyed_exchange`) now runs no Ray shuffle at all.  Lives here, not in the
    package __init__, so importing the package for the pure-numpy sketches
    alone never imports ray.data.

    Per-operator resource reservation is disabled.  The streaming
    executor's reservation splits the CPU/memory budget evenly across ALL
    operators in the plan; our plans put >95% of the work in the first
    (fused read->accumulate/derive) operator and KB-sized states through
    the rest, so at low CPU counts the reservation starves the only
    operator that matters.  Measured on the 16M-row flagship at 8 cpus:
    137 s -> 29.9 s wall (read tasks went from effectively serial to
    8-wide); 32 cpus: 17 s -> 12 s.  Intermediates here are orders of
    magnitude smaller than inputs, so the pipeline-balancing the
    reservation protects against cannot bind.
    """
    try:
        from ray.data import DataContext
        from ray.data.context import ShuffleStrategy
    except ImportError:  # pragma: no cover - ray always present in this env
        return
    ctx = DataContext.get_current()
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    ctx.op_resource_reservation_enabled = False


_configure_ray_data()

from .corpus import (  # noqa: E402
    corpus_sketch_pipeline,
    documents_sketch_pipeline,
    group_sketches,
    grouped_sketch_pipeline,
    merge_sketch_states,
    merge_states,
    read_corpus,
    sketch_states,
)

__all__ = [
    "corpus_sketch_pipeline",
    "documents_sketch_pipeline",
    "group_sketches",
    "grouped_sketch_pipeline",
    "merge_sketch_states",
    "merge_states",
    "read_corpus",
    "sketch_states",
]
