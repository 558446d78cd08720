"""Statistical checks of the counter-based streams over 1.6 million uniforms.

The sample is every site of 2,048 experiment trial keys at 32 positions.
Each bound is fixed here, in advance: a proportion or a correlation may
stray 5 standard errors from its ideal value, and a chi-square statistic
may not exceed its one-sided 1e-6 quantile (Wilson-Hilferty).  A failure
is a defect in the generator, not a reason to move a bound.
"""

import math

import numpy as np
import pytest

from sqpc.attacks import SITES, Streams, splitmix64

TRIALS, WIDTH = 2048, 32
SIGMAS = 5.0
Z_1E6 = 4.753  # the standard normal's one-sided 1e-6 quantile


def chi_square_bound(df: int) -> float:
    """The one-sided 1e-6 quantile of chi-square with ``df`` degrees of
    freedom, by the Wilson-Hilferty approximation."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + Z_1E6 * math.sqrt(c)) ** 3


@pytest.fixture(scope="module")
def uniforms() -> np.ndarray:
    """(sites, trials, positions) uniforms of experiment trial keys."""
    streams = Streams([splitmix64(2024, t) for t in range(TRIALS)], WIDTH)
    return np.stack([streams.random(site, WIDTH) for site in SITES])


def correlation(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Pearson correlation of two equal-size samples and its bound."""
    x, y = x.ravel() - x.mean(), y.ravel() - y.mean()
    return float(x @ y / math.sqrt((x @ x) * (y @ y))), SIGMAS / math.sqrt(len(x))


def test_sample_size(uniforms):
    assert uniforms.size >= 10**6


def test_every_bit_is_balanced(uniforms):
    # Each of the 52 bits of a uniform, the top one being an integers(2)
    # draw, is 1 half the time.
    mantissas = (uniforms * 2.0**52).astype(np.uint64).ravel()
    bound = SIGMAS * 0.5 / math.sqrt(len(mantissas))
    ones = [np.count_nonzero(mantissas >> np.uint64(bit) & np.uint64(1)) / len(mantissas) for bit in range(52)]
    assert max(abs(f - 0.5) for f in ones) < bound, ones


def test_uniforms_fill_equal_bins_equally(uniforms):
    bins = 100
    counts = np.bincount((uniforms * bins).astype(np.intp).ravel(), minlength=bins)
    expected = uniforms.size / bins
    assert ((counts - expected) ** 2 / expected).sum() < chi_square_bound(bins - 1)


def test_adjacent_positions_fill_a_square_equally(uniforms):
    # Pairs (position p, position p + 1) of one site and trial over a
    # 10 x 10 grid: serial dependence shows as uneven cells.
    cells = 10
    a, b = ((u * cells).astype(np.intp) for u in (uniforms[..., :-1], uniforms[..., 1:]))
    counts = np.bincount((a * cells + b).ravel(), minlength=cells * cells)
    expected = a.size / cells**2
    assert ((counts - expected) ** 2 / expected).sum() < chi_square_bound(cells * cells - 1)


def test_sites_of_one_trial_are_uncorrelated(uniforms):
    pairs = [(s, s + 1) for s in range(len(SITES) - 1)] + [(0, len(SITES) - 1)]
    for s, t in pairs:
        r, bound = correlation(uniforms[s], uniforms[t])
        assert abs(r) < bound, (list(SITES)[s], list(SITES)[t], r)


def test_adjacent_positions_are_uncorrelated(uniforms):
    r, bound = correlation(uniforms[..., :-1], uniforms[..., 1:])
    assert abs(r) < bound, r


def test_one_site_of_adjacent_trials_is_uncorrelated(uniforms):
    r, bound = correlation(uniforms[:, :-1], uniforms[:, 1:])
    assert abs(r) < bound, r
