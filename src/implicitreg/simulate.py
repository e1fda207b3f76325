"""Seeded generator for the inverse-law simulation.

Draws a latent t ~ Uniform(1, 10), forms the exact inverse pair
x = 200/t, y = 20 t (so x*y = 4000 identically), and perturbs both
coordinates with independent Gaussian noise of a common standard
deviation.

Reproducibility contract: the generator is numpy's default PCG64, and
the draw order is frozen as three contiguous blocks - t first, then the
x noise, then the y noise - so a given config yields the same dataset
bit for bit on any platform.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np

from .dataio import Dataset
from .errors import DegenerateDataError
from .records import Record


class SimulationConfig(Record):
    __slots__ = _fields = ("n", "sigma", "seed")

    def __init__(self, n: int = 50, sigma: float = 1.0, seed: int = 0):
        # numpy's integers are Integral; a bool is an int but no count
        for name, value in (("n", n), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if n < 1:
            raise ValueError("n must be at least 1")
        if isinstance(sigma, bool) or not isinstance(sigma, Real):
            raise ValueError(f"sigma must be a real number, not {sigma!r}")
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise ValueError("sigma must be finite and non-negative")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self._set(n, sigma, seed)


def generate(config: SimulationConfig) -> Dataset:
    """Generate one sample; deterministic for a fixed config.

    Negative coordinates can occur at large sigma and are kept: the noise
    model is unbounded Gaussian with no truncation.  A sigma so large that
    the noise overflows raises :class:`DegenerateDataError`.
    """
    rng = np.random.default_rng(config.seed)
    t = rng.uniform(1.0, 10.0, config.n)
    x_noise = rng.normal(0.0, config.sigma, config.n)
    y_noise = rng.normal(0.0, config.sigma, config.n)
    x, y = 200.0 / t + x_noise, 20.0 * t + y_noise
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DegenerateDataError(f"sigma = {config.sigma:g} overflows the sample")
    return Dataset(x_label="x", y_label="y", x=x, y=y)
