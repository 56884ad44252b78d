"""Empirical-copula rank reordering for spatial aggregates.

Independently drawn posterior predictive samples carry the right margins but
no spatial dependence. Reordering each block of draws so that every site's
rank vector matches the observed record restores the historical dependence
structure (an empirical copula) while leaving each site's sample values
untouched as a multiset. Aggregates such as weighted sums over nearby sites
then reflect observed co-occurrence of large maxima instead of assuming
independence.

Ties in the historical record are broken by year order (the earlier year
gets the lower rank); the tie count is kept on the block so downstream
reports can flag it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "HistoricalBlock",
    "AggregateCurve",
    "historical_block",
    "rank_reorder",
    "grow_samples",
    "aggregate_return_levels",
]


@dataclass
class HistoricalBlock:
    """Complete rectangular slice of the record: L sites by M years."""

    values: np.ndarray  # (L, M)
    ranks: np.ndarray  # (L, M) ints, 0-based within each row
    years: np.ndarray  # (M,)
    station_indices: np.ndarray  # (L,) indices into the source dataset
    n_ties: int
    tie_rule: str = "year-order"

    @property
    def n_sites(self) -> int:
        return self.values.shape[0]

    @property
    def n_years(self) -> int:
        return self.values.shape[1]


def _stable_ranks(values: np.ndarray) -> np.ndarray:
    # double argsort; stable sort sends the earlier column (year) of a tie
    # to the lower rank
    order = np.argsort(values, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(values.shape[1])[None, :], axis=1)
    return ranks


def _count_ties(values: np.ndarray) -> int:
    total = 0
    for row in values:
        _, counts = np.unique(row, return_counts=True)
        total += int(np.sum(counts[counts > 1] - 1))
    return total


def historical_block(dataset, station_indices=None, year_range=None) -> HistoricalBlock:
    """Assemble the complete L x M matrix used as the rank template.

    Sites that do not cover every selected year are dropped rather than
    imputed. Without an explicit range the intersection of all chosen
    stations' years is used.
    """
    if station_indices is None:
        station_indices = np.arange(dataset.n_sites)
    station_indices = np.asarray(station_indices, dtype=int)
    if station_indices.size == 0:
        raise ConfigError("no stations selected for the historical block")

    if year_range is not None:
        lo, hi = float(year_range[0]), float(year_range[1])
        years = None
        kept = []
        for i in station_indices:
            yr = np.asarray(dataset.records[i][0], dtype=float)
            span = yr[(yr >= lo) & (yr <= hi)]
            if years is None:
                years = np.arange(lo, hi + 1.0)
            if np.isin(years, span).all():
                kept.append(i)
        station_indices = np.asarray(kept, dtype=int)
    else:
        years = None
        for i in station_indices:
            yr = np.asarray(dataset.records[i][0], dtype=float)
            years = yr if years is None else np.intersect1d(years, yr)

    if years is None or years.size < 2:
        raise DataError("historical block needs at least two common years")
    if station_indices.size == 0:
        raise DataError("no station covers the requested year range")

    rows = []
    for i in station_indices:
        yr, y = dataset.records[i]
        yr = np.asarray(yr, dtype=float)
        pos = np.searchsorted(yr, years)
        rows.append(np.asarray(y, dtype=float)[pos])
    values = np.vstack(rows)
    return HistoricalBlock(values=values, ranks=_stable_ranks(values),
                           years=np.asarray(years, dtype=float),
                           station_indices=station_indices,
                           n_ties=_count_ties(values))


def _template_ranks(hist) -> np.ndarray:
    if isinstance(hist, HistoricalBlock):
        return hist.ranks
    values = np.atleast_2d(np.asarray(hist, dtype=float))
    return _stable_ranks(values)


def rank_reorder(hist, samples: np.ndarray) -> np.ndarray:
    """Permute each site's samples so its ranks match the historical ranks.

    Values are untouched; only their placement across the M block-years
    changes, so every per-site multiset is preserved exactly.
    """
    ranks = _template_ranks(hist)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape != ranks.shape:
        raise DataError(
            f"sample block shape {samples.shape} does not match "
            f"historical block shape {ranks.shape}")
    return np.take_along_axis(np.sort(samples, axis=1), ranks, axis=1)


def grow_samples(hist, sampler, n_blocks: int, seed: int = 0) -> np.ndarray:
    """Stack n_blocks independently drawn and reordered blocks.

    sampler(rng) must return an (L, M) array of independent predictive
    draws; each block consumes fresh randomness from the seeded generator,
    so the stack is reproducible.
    """
    if n_blocks < 1:
        raise ConfigError("n_blocks must be at least 1")
    rng = np.random.default_rng(seed)
    ranks = _template_ranks(hist)
    blocks = np.empty((n_blocks,) + ranks.shape)
    for b in range(n_blocks):
        blocks[b] = rank_reorder(hist, sampler(rng))
    return blocks


@dataclass
class AggregateCurve:
    periods: np.ndarray
    level: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def aggregate_return_levels(samples: np.ndarray, weights: np.ndarray,
                            periods, n_bootstrap: int = 500,
                            seed: int = 0) -> AggregateCurve:
    """Return-level curve for the weighted across-site sum.

    Each block-year contributes one aggregate value; the curve reads
    empirical quantiles at 1 - 1/T (below 1 in float64) off the pooled
    aggregates.  The central 95% intervals come from a block bootstrap
    (blocks are the exchangeable unit).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 2:
        samples = samples[None, :, :]
    if samples.ndim != 3:
        raise DataError("samples must be (n_blocks, L, M) or (L, M)")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (samples.shape[1],):
        raise DataError("one weight per site is required")
    if np.any(weights < 0.0):
        raise ConfigError("weights must be nonnegative")
    periods = np.atleast_1d(np.asarray(periods, dtype=float))
    if not (np.all(periods > 1.0) and np.all(1.0 - 1.0 / periods < 1.0)):
        raise ConfigError("return periods must exceed 1, with 1 - 1/T below 1")

    probs = 1.0 - 1.0 / periods
    aggregates = np.einsum("blm,l->bm", samples, weights)  # (n_blocks, M)
    point = np.quantile(aggregates.ravel(), probs)

    rng = np.random.default_rng(seed)
    n_blocks = aggregates.shape[0]
    boot = np.empty((n_bootstrap, probs.size))
    for k in range(n_bootstrap):
        pick = rng.integers(0, n_blocks, size=n_blocks)
        boot[k] = np.quantile(aggregates[pick].ravel(), probs)
    return AggregateCurve(periods=periods, level=point,
                          lower=np.quantile(boot, 0.025, axis=0),
                          upper=np.quantile(boot, 0.975, axis=0))
