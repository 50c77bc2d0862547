"""Binned conditional-moment estimators over path ensembles.

Each estimator conditions on the position at a reference step, bins it,
and averages an increment statistic per bin; tables and histograms share
one pass over blocks of paths.  Bins with fewer samples than the
occupancy threshold are flagged unusable, never silently reported
(default 50 for exploration; assertions in the verification suite
require 500).
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


def _check_step(e: Ensemble, t_j, back: int, ahead: int) -> None:
    hi = e.n_steps - ahead     # the steps read are t_j - back ... t_j + ahead
    if (isinstance(t_j, bool) or not isinstance(t_j, (int, np.integer))
            or not back <= t_j <= hi):
        raise InputError(f"t_j must be an integer in [{back}, {hi}]: {t_j!r}")


def _bin_index(xs: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``np.digitize(xs, edges)`` on slots 1 ... nb; 0 or nb + 1 elsewhere.

    Slots are guessed from uniform spacing, then moved one at a time
    towards their bracket ``left[k] <= x < right[k]`` until none moves,
    which is exact for any finite increasing edges.  The top slot's right
    end is NaN, not +inf, so +inf stays in slot nb + 1; NaN stays in 0.
    """
    nb = edges.size - 1
    ext = np.concatenate(([-np.inf], edges, [np.nan]))
    left, right = ext[:-1], ext[1:]
    # a guess may overflow or be NaN; it is clamped before it is used
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.subtract(xs, edges[0])
        g *= nb / (edges[-1] - edges[0])
        g += 1.0
    np.fmax(g, 0.0, out=g)                 # NaN -> slot 0
    k = np.fmin(g, nb + 1.0, out=g).astype(np.intp)
    del g
    while True:
        down = xs < left[k]
        up = xs >= right[k]
        if not (down.any() or up.any()):
            return k
        k -= down
        k += up


def _binned_pass(x: np.ndarray, edges: np.ndarray, value=None):
    """Per-bin counts of ``x``, and sums and squares of ``value(rows)``,
    added block by block with ``np.add.at`` in sample order, as a one-shot
    ``np.bincount`` sums each bin, so the sums are bit-identical to it."""
    counts = np.zeros(edges.size + 1, dtype=np.intp)
    sums, sq = np.zeros((2, edges.size + 1))
    for a in range(0, x.size, BLOCK_PATHS):
        rows = slice(a, a + BLOCK_PATHS)
        k = _bin_index(x[rows], edges)
        np.add.at(counts, k, 1)
        if value is not None:
            v = value(rows)
            with np.errstate(over="ignore", invalid="ignore"):  # as bincount
                np.add.at(sums, k, v)
                np.add.at(sq, k, v * v)
            del v
        del k               # freed before the next block's are made
    return counts[1:-1], sums[1:-1], sq[1:-1]


def _conditional_table(e: Ensemble, t_j, back: int, ahead: int, bins,
                       min_count: int, value) -> ConditionalMomentTable:
    _check_step(e, t_j, back, ahead)
    edges = _as_edges(e, bins)
    counts, sums, sq = _binned_pass(e.paths[:, t_j], edges, value)
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
    return _conditional_table(e, t_j, 0, 1, bins, min_count, lambda r: (
        e.paths[r, t_j + 1] - e.paths[r, t_j]) / e.dt)


def estimate_backward_drift(e: Ensemble, t_j: int, bins=None,
                            min_count: int = MIN_COUNT_DEFAULT
                            ) -> ConditionalMomentTable:
    """Per-bin mean of (x(t_j) - x(t_{j-1}))/dt conditioned on x(t_j)."""
    return _conditional_table(e, t_j, 1, 0, bins, min_count, lambda r: (
        e.paths[r, t_j] - e.paths[r, t_j - 1]) / e.dt)


def estimate_quadratic_variation(e: Ensemble, t_j: int, bins=None,
                                 min_count: int = MIN_COUNT_DEFAULT
                                 ) -> ConditionalMomentTable:
    """Per-bin mean of (x(t_{j+1}) - x(t_j))^2 / dt; tends to 2 nu as dt -> 0.

    In one dimension this is the whole quadratic-variation structure: the
    cross-coordinate matrix of the multi-dimensional theory is diagonal
    (independent noise components), so only the diagonal entry exists here.
    """
    return _conditional_table(e, t_j, 0, 1, bins, min_count, lambda r: (
        np.square(e.paths[r, t_j + 1] - e.paths[r, t_j]) / e.dt))


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
    return _conditional_table(e, t_j, 1, 1, bins, min_count, lambda r: (
        e.paths[r, t_j + 1] - 2.0 * e.paths[r, t_j] + e.paths[r, t_j - 1]
    ) / e.dt ** 2)


def density_histogram(e: Ensemble, t_j: int, bins=None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized position histogram with per-bin standard errors.

    Returns (edges, density, std_error); the density integrates to 1 over
    the binned range.  As in ``np.histogram``, a position equal to the top
    edge counts in the last bin.
    """
    _check_step(e, t_j, 0, 0)
    edges = _as_edges(e, bins)
    # a top edge one ulp higher closes the last bin
    closed = np.append(edges[:-1], np.nextafter(edges[-1], np.inf))
    counts = _binned_pass(e.paths[:, t_j], closed)[0]
    n = max(counts.sum(), 1)           # an empty histogram is all zeros
    widths = np.diff(edges)
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
