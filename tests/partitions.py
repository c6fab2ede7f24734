"""Run pipelines under a chosen partition count or broadcast cap."""

from __future__ import annotations

import contextlib

import pytest

from ddsketch_ruby_ray.pipelines import fold


@contextlib.contextmanager
def setting(module, name: str, value):
    """``module.name = value`` inside the block: the library reads its plan
    constants (partition count, broadcast caps) when a pipeline is built, on
    the driver, so consume the result inside the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, value)
        yield


def partitions(p: int):
    """``fold._PARTITIONS = p`` inside the block.  Every fold is associative,
    so no result may depend on ``p``; tests run reducers under tiny and odd
    counts."""
    return setting(fold, "_PARTITIONS", p)
