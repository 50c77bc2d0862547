"""Binned conditional-moment estimators over path ensembles.

Each estimator conditions on the position at a reference step, bins it,
and averages an increment statistic per bin.  Bins with fewer samples
than the occupancy threshold are flagged unusable, never silently
reported (default 50 for exploration; assertions in the verification
suite require 500).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from .ensemble import BLOCK_PATHS, Ensemble

MIN_COUNT_DEFAULT = 50
MIN_COUNT_ASSERT = 500


@dataclass
class ConditionalMomentTable:
    """Per-bin conditional estimate with its standard error."""

    bin_edges: np.ndarray
    counts: np.ndarray
    estimate: np.ndarray
    std_error: np.ndarray
    usable: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def default_bins(e: Ensemble, n_bins: int = 40) -> np.ndarray:
    """Uniform bin edges spanning the generating grid's box."""
    return np.linspace(e.x_min, e.x_max, n_bins + 1)


def _as_edges(e: Ensemble, bins) -> np.ndarray:
    if bins is None:
        return default_bins(e)
    if np.isscalar(bins):
        if isinstance(bins, (bool, np.bool_)) or not isinstance(
                bins, (int, np.integer)) or bins < 1:
            raise InputError(f"a bin count must be an integer >= 1, got {bins!r}")
        return default_bins(e, int(bins))
    edges = np.asarray(bins, dtype=float)
    if (edges.ndim != 1 or edges.size < 2 or not np.isfinite(edges).all()
            or np.any(np.diff(edges) <= 0)):
        raise InputError("bins must be finite increasing edges or a bin count")
    return edges


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Slot of each sample: ``np.digitize(x, edges)`` on slots 1 ... nb.

    Samples outside the edges, NaN included, land in slot 0 or nb + 1.
    Each block of ``BLOCK_PATHS`` samples guesses its slots from uniform
    spacing, then moves every sample one slot towards its bracket, tested
    against the real edges, until none moves: one round for uniform edges,
    more for irregular ones, and exact for any finite increasing edges.
    Slot k holds ``left[k] <= x < right[k]``.  The top slot's right end is
    NaN, not +inf, so that +inf stays in slot nb + 1 rather than moving up
    past it; NaN compares false with every edge and stays in slot 0.
    """
    nb = edges.size - 1
    ext = np.concatenate(([-np.inf], edges, [np.nan]))
    left, right = ext[:-1], ext[1:]
    out = np.empty(x.shape, dtype=np.intp)
    # a guess may overflow or be NaN; it is clamped before it is used
    with np.errstate(over="ignore", invalid="ignore"):
        scale = nb / (edges[-1] - edges[0])
        for a in range(0, x.size, BLOCK_PATHS):
            xs = x[a:a + BLOCK_PATHS]
            g = np.subtract(xs, edges[0])
            g *= scale
            g += 1.0
            np.fmax(g, 0.0, out=g)             # NaN -> slot 0
            np.fmin(g, nb + 1.0, out=g)
            k = out[a:a + BLOCK_PATHS]
            k[...] = g
            while True:
                down = xs < left[k]
                up = xs >= right[k]
                if not (down.any() or up.any()):
                    break
                k -= down
                k += up
    return out


def _bin_reduce(cond: np.ndarray, values: np.ndarray, edges: np.ndarray,
                min_count: int) -> ConditionalMomentTable:
    # _bin_index gives np.digitize's slots 1 ... nb and puts every other
    # sample (outside the edges or NaN) in slot 0 or nb + 1; slicing those
    # off after bincount leaves each bin's sum over the same samples in the
    # same order
    nb = edges.size - 1
    idx = _bin_index(cond, edges)
    inside = slice(1, nb + 1)
    counts = np.bincount(idx, minlength=nb + 2)[inside]
    sums = np.bincount(idx, weights=values, minlength=nb + 2)[inside]
    sq = np.bincount(idx, weights=values * values, minlength=nb + 2)[inside]
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = sums / counts
        var = np.maximum(sq / counts - mean * mean, 0.0)
        sem = np.sqrt(var / np.maximum(counts - 1, 1))
    usable = counts >= max(min_count, 2)
    mean[~usable] = np.nan
    sem[~usable] = np.nan
    return ConditionalMomentTable(bin_edges=edges, counts=counts,
                                  estimate=mean, std_error=sem,
                                  usable=usable)


def estimate_forward_drift(e: Ensemble, t_j: int, bins=None,
                           min_count: int = MIN_COUNT_DEFAULT
                           ) -> ConditionalMomentTable:
    """Per-bin mean of (x(t_{j+1}) - x(t_j))/dt conditioned on x(t_j)."""
    if not 0 <= t_j < e.n_steps:
        raise InputError(f"forward drift needs a non-final step, got {t_j}")
    edges = _as_edges(e, bins)
    inc = (e.paths[:, t_j + 1] - e.paths[:, t_j]) / e.dt
    return _bin_reduce(e.paths[:, t_j], inc, edges, min_count)


def estimate_backward_drift(e: Ensemble, t_j: int, bins=None,
                            min_count: int = MIN_COUNT_DEFAULT
                            ) -> ConditionalMomentTable:
    """Per-bin mean of (x(t_j) - x(t_{j-1}))/dt conditioned on x(t_j)."""
    if not 0 < t_j <= e.n_steps:
        raise InputError(f"backward drift needs a non-initial step, got {t_j}")
    edges = _as_edges(e, bins)
    inc = (e.paths[:, t_j] - e.paths[:, t_j - 1]) / e.dt
    return _bin_reduce(e.paths[:, t_j], inc, edges, min_count)


def estimate_quadratic_variation(e: Ensemble, t_j: int, bins=None,
                                 min_count: int = MIN_COUNT_DEFAULT
                                 ) -> ConditionalMomentTable:
    """Per-bin mean of (x(t_{j+1}) - x(t_j))^2 / dt; tends to 2 nu as dt -> 0.

    In one dimension this is the whole quadratic-variation structure: the
    cross-coordinate matrix of the multi-dimensional theory is diagonal
    (independent noise components), so only the diagonal entry exists here.
    """
    if not 0 <= t_j < e.n_steps:
        raise InputError(f"quadratic variation needs a non-final step, got {t_j}")
    edges = _as_edges(e, bins)
    inc = e.paths[:, t_j + 1] - e.paths[:, t_j]
    return _bin_reduce(e.paths[:, t_j], inc * inc / e.dt, edges, min_count)


def estimate_mean_acceleration(e: Ensemble, t_j: int, bins=None,
                               min_count: int = MIN_COUNT_DEFAULT
                               ) -> ConditionalMomentTable:
    """Per-bin mean of the symmetric second difference over dt^2.

    This is the naive estimator ``(x(t_{j+1}) - 2 x(t_j) + x(t_{j-1}))/dt^2``
    conditioned at the middle step.  Caution: its conditional expectation
    contains the term ``(b - b*)/dt``, which diverges as dt -> 0 wherever
    the density has a gradient, and its per-sample variance grows like
    ``4 nu / dt^3``.  Only the unconditional (single-bin) average, where
    the osmotic term integrates to zero, tracks the ensemble-mean
    acceleration; see the verification suite for the quantitative story.
    """
    if not 0 < t_j < e.n_steps:
        raise InputError(f"mean acceleration needs an interior step, got {t_j}")
    edges = _as_edges(e, bins)
    sec = (e.paths[:, t_j + 1] - 2.0 * e.paths[:, t_j] + e.paths[:, t_j - 1]) / e.dt ** 2
    return _bin_reduce(e.paths[:, t_j], sec, edges, min_count)


def density_histogram(e: Ensemble, t_j: int, bins=None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized position histogram with per-bin standard errors.

    Returns (edges, density, std_error); the density integrates to 1 over
    the binned range.
    """
    if not 0 <= t_j <= e.n_steps:
        raise InputError(f"step index out of range: {t_j}")
    edges = _as_edges(e, bins)
    x = e.paths[:, t_j]
    counts, _ = np.histogram(x, bins=edges)
    n = counts.sum()
    widths = np.diff(edges)
    if n == 0:
        z = np.zeros(edges.size - 1)
        return edges, z, z
    p = counts / n
    dens = p / widths
    se = np.sqrt(p * (1.0 - p) / n) / widths
    return edges, dens, se


def histogram_l1_distance(edges: np.ndarray, density: np.ndarray,
                          ref) -> float:
    """L1 distance between a histogram and a reference density ``ref``,
    a function evaluated at the bin centers (midpoint rule)."""
    centers = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum(np.abs(density - ref(centers)) * np.diff(edges)))
