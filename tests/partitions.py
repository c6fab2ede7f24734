"""Run pipelines under a chosen partition count."""

from __future__ import annotations

import contextlib

import pytest

from ddsketch_ruby_ray.pipelines import fold


@contextlib.contextmanager
def partitions(p: int):
    """``fold._PARTITIONS = p`` inside the block.  Every fold is associative,
    so no result may depend on ``p``; tests run reducers under tiny and odd
    counts.  Consume the result inside the block: a pipeline reads the count
    when it is built, on the driver."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fold, "_PARTITIONS", p)
        yield
