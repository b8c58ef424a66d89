import math

import numpy as np
import pytest

TWO_PI = 2.0 * math.pi


def _mirror_values(grid):
    """All n points of ``grid`` in ascending order: its kappa > 0 points negated and reversed, then themselves."""
    pos = np.concatenate([kappa for _, kappa in grid.pieces()])
    return np.concatenate([-pos[::-1], pos])


def _mirror_pair_sums(samples, grid):
    """Per row of ``samples`` at the ``_mirror_values(grid)`` points: (value, abs_scale) of the mirror-pair rule.

    Each kappa > 0 sample is added to its mirror image's, and the four pairs
    next to the cutoff are end-corrected.  ``value`` is ``math.fsum`` over
    those pairs and ``abs_scale`` the in-order sum of ``np.sum`` over their
    magnitudes on each piece of the kappa > 0 half, each times h/(2 pi): the
    bits the quadrature must give an integrand that is bitwise even on the
    grid.
    """
    half = grid.n_points // 2
    w = np.ones(half)
    w[-4:] += (-23.0 / 576.0, 93.0 / 576.0, -141.0 / 576.0, 71.0 / 576.0)
    terms = np.atleast_2d(w * (samples[..., half:] + samples[..., :half][..., ::-1]))
    h = grid.spacing
    sums = []
    for t in terms:
        abs_sum = 0.0
        for lo, kappa in grid.pieces():
            abs_sum += float(np.sum(np.abs(t[lo : lo + kappa.size])))
        sums.append((math.fsum(t.tolist()) * h / TWO_PI, abs_sum * h / TWO_PI))
    return sums


@pytest.fixture
def mirror_values():
    """``mirror_values(grid)``, the whole symmetric grid, which the program never builds."""
    return _mirror_values


@pytest.fixture
def mirror_pair_sums():
    """``mirror_pair_sums(samples, grid)``, the reference sums of samples taken on ``mirror_values(grid)``."""
    return _mirror_pair_sums
