"""Mix-weighted statistics, and percentiles with ten samples beyond each.

A percentile estimated with fewer than ten samples beyond it is mostly one
or two unlucky operations, so it does not repeat from run to run.  The
benchmark refuses to report one: a run without enough samples fails.

Latencies of one query class mix query types whose costs differ a
hundredfold, and a run draws each type a random number of times.  Weighting
every sample by ``share of its type in the spec mix / samples of its type``
removes that draw from the result: the statistics describe the spec mix,
not the mix one seed happened to produce.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Fewer than ``MIN_BEYOND`` samples would lie beyond the percentile."""


def mix_weights(names: Sequence[str], shares: Mapping[str, float]) -> np.ndarray:
    """Per-sample weights: each type's spec share split over its samples.

    Shares are renormalized over the types present, so the weights sum to 1.
    """
    counts: dict[str, int] = {}
    for name in names:
        counts[name] = counts.get(name, 0) + 1
    present = sum(shares[name] for name in counts)
    return np.asarray(
        [shares[name] / present / counts[name] for name in names], dtype=np.float64
    )


def weighted_mean(values: Sequence[float], weights: np.ndarray) -> float:
    return float(np.dot(np.asarray(values, dtype=np.float64), weights) / weights.sum())


def weighted_percentile(
    values: Sequence[float],
    weights: np.ndarray,
    pct: float,
    min_beyond: int = MIN_BEYOND,
) -> float:
    """The smallest value at which the cumulative weight reaches ``pct`` %.

    Raises :class:`InsufficientSamples` unless at least ``min_beyond``
    samples lie above the result.
    """
    array = np.asarray(values, dtype=np.float64)
    order = np.argsort(array, kind="stable")
    cumulative = np.cumsum(weights[order]) / weights.sum()
    index = min(int(np.searchsorted(cumulative, pct / 100.0)), len(array) - 1)
    result = float(array[order][index])
    beyond = int(np.count_nonzero(array > result))
    if beyond < min_beyond:
        raise InsufficientSamples(
            f"p{pct:g} has {beyond} of {len(array)} samples beyond it, "
            f"needs {min_beyond}"
        )
    return result
