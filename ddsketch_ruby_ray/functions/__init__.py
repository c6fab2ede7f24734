"""Aggregate functions (mergeable sketch UDAFs) and their SQL oracles."""

from .aggregates import DDSketchAgg, SketchAgg
from .oracle import ddsketch_group_sql, ddsketch_quantile_sql
from .specs import quantile_name

__all__ = [
    "SketchAgg",
    "DDSketchAgg",
    "quantile_name",
    "ddsketch_quantile_sql",
    "ddsketch_group_sql",
]
