"""Small statistics helpers shared by the benchmark modules."""
from __future__ import annotations

import statistics

import numpy as np


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0 for no values."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def safe_div(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0
