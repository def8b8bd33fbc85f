"""Holographic noise strategies: ``gauss`` and ``rand`` (Table I).

The paper's two whole-image strategies behave very differently against
an HDC model with a *random* value memory (Sec. V-B):

* ``gauss`` blankets every pixel with small Gaussian noise.  Because any
  grey-level change — however small — swaps a pixel onto an unrelated
  value hypervector, one gauss step already re-randomises hundreds of
  pixel HVs, so adversarials appear within ~1.5 iterations but carry the
  largest L1/L2 footprint of the noise strategies (Table II: L1 2.91,
  5× rand's).
* ``rand`` perturbs only a few randomly-chosen pixels per step.  Each
  step drifts the query HV slightly, so many more iterations are needed
  (Table II: 12.18 on average) but the accumulated perturbation stays
  tiny (L1 0.58, L2 0.09 — the least visible adversarials).

Amplitudes below are expressed in grey levels (0–255 scale).  A call
draws whole arrays: ``gauss`` one normal block, ``rand`` one ``(n, k)``
block of pixel indices (distinct per child) and one of noise.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MutationError
from repro.fuzz.mutations.base import (
    MutationStrategy,
    _mutate_image_common,
    register_strategy,
)
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import check_positive_float, check_positive_int

__all__ = ["GaussianNoise", "RandomNoise"]


@register_strategy
class GaussianNoise(MutationStrategy):
    """``gauss``: i.i.d. Gaussian noise over the entire image.

    Parameters
    ----------
    sigma:
        Noise standard deviation in grey levels.  The default (2.5) is
        calibrated so a single step flips a few hundred pixels by one
        quantisation level, reproducing Table II's "fewest iterations,
        moderate distance" profile.
    """

    name = "gauss"
    domain = "image"

    def __init__(self, sigma: float = 2.5) -> None:
        self.sigma = check_positive_float(sigma, "sigma")

    def mutate(self, item, n: int, *, rng: RngLike = None) -> np.ndarray:
        n = check_positive_int(n, "n")
        image = _mutate_image_common(item)
        generator = ensure_rng(rng)
        noise = generator.normal(0.0, self.sigma, size=(n, *image.shape))
        return np.clip(image[None] + noise, 0.0, 255.0)


@register_strategy
class RandomNoise(MutationStrategy):
    """``rand``: uniform noise on a sparse random subset of pixels.

    Parameters
    ----------
    amplitude:
        Per-pixel noise is drawn uniformly from ``[-amplitude,
        +amplitude]`` grey levels.
    pixels_per_step:
        How many (distinct) pixels each child mutates.  Small values are
        what give ``rand`` its "minimal perturbation, many iterations"
        Table II signature.
    """

    name = "rand"
    domain = "image"

    def __init__(self, amplitude: float = 10.0, pixels_per_step: int = 8) -> None:
        self.amplitude = check_positive_float(amplitude, "amplitude")
        self.pixels_per_step = check_positive_int(pixels_per_step, "pixels_per_step")

    def mutate(self, item, n: int, *, rng: RngLike = None) -> np.ndarray:
        n, k = check_positive_int(n, "n"), self.pixels_per_step
        image = _mutate_image_common(item)
        if k > image.size:
            raise MutationError(f"pixels_per_step={k} exceeds image size {image.size}")
        generator = ensure_rng(rng)
        # Children repeating a pixel are redrawn whole once (an accepted draw is
        # a uniform k-subset); any still repeating take the k smallest of keys.
        pixels = generator.integers(0, image.size, size=(n, k))
        for redraw in (True, False):
            ordered = np.sort(pixels, axis=1)
            repeats = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
            if not repeats.size:
                break
            pixels[repeats] = (
                generator.integers(0, image.size, size=(repeats.size, k)) if redraw
                else np.argpartition(generator.random((repeats.size, image.size)), k - 1)[:, :k]
            )
        out = np.repeat(image.reshape(1, -1), n, axis=0)
        noise = generator.uniform(-self.amplitude, self.amplitude, size=(n, k))
        out[np.arange(n)[:, None], pixels] += noise
        return np.clip(out.reshape(n, *image.shape), 0.0, 255.0)
