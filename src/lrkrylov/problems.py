"""Desk-scale test problem generators, noise injection, and PGM images.

Three families mirror the experiment setups: a rank-2 "binary star"
deblurring problem, a rank-4 smooth phantom with limited-angle
parallel-beam tomography, and blur-then-undersample inpainting with
rank-capped synthetic textures (or a user-supplied image file).
All generators are deterministic given their seed.
"""

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .linops import (
    LinearOperator,
    gaussian_blur_operator,
    inpainting_operator,
    shaking_blur_operator,
    tomography_operator,
    vec,
)
from .lowrank import truncate
from .nnr import is_count

# entries of the largest arrays a problem builds, the n x n image and a
# phantom's crossings of every ray, rays x (2 n + 4): 512 MiB of doubles
_MAX_ENTRIES = 2**26

__all__ = [
    "TestProblem",
    "star_problem",
    "phantom_problem",
    "inpainting_problem",
    "write_pgm",
    "read_pgm",
]


@dataclass(frozen=True)
class TestProblem:
    op: LinearOperator
    b: np.ndarray
    b_exact: np.ndarray
    x_exact: np.ndarray

    @property
    def noise_norm(self):
        """||eta||_2, the natural epsilon for the discrepancy principle."""
        return float(np.linalg.norm(self.b - self.b_exact))


def _add_noise(op, x_exact, noise_level, rng):
    _check("noise_level", noise_level, 0 <= noise_level < np.inf,
           "finite and nonnegative")
    b_exact = op.matvec(x_exact)
    if noise_level > 0:
        eta = rng.standard_normal(b_exact.size)
        eta *= noise_level * np.linalg.norm(b_exact) / np.linalg.norm(eta)
        b = b_exact + eta
    else:
        b = b_exact.copy()
    return TestProblem(op, b, b_exact, x_exact)


def _check(key, value, ok, want):
    if isinstance(value, bool) or not ok:  # JSON true is no number
        raise ValueError(f"{key} must be {want}, got {value!r}")


def _gaussian_profile(n, center, width):
    t = np.arange(n)
    return np.exp(-((t - center) ** 2) / (2.0 * width**2))


def star_problem(n, noise_level=1e-3, sigma_blur=2.0, seed=0, bandwidth=None):
    """Deblurring of an exactly rank-2 two-spot image."""
    _check("n", n, is_count(n, low=16), "an integer >= 16")
    _check("n", n, int(n) ** 2 <= _MAX_ENTRIES,
           f"at most {math.isqrt(_MAX_ENTRIES)} (an n x n image)")
    if bandwidth is not None:
        _check("bandwidth", bandwidth, is_count(bandwidth, n, low=0),
               f"an integer in [0, {n}]")
    _check("sigma_blur", sigma_blur, 0 <= sigma_blur < np.inf,
           "finite and nonnegative")
    _check("seed", seed, is_count(seed, low=0), "an integer >= 0")
    rng = np.random.default_rng(seed)
    g1r = _gaussian_profile(n, 0.38 * n, 0.03 * n)
    g1c = _gaussian_profile(n, 0.44 * n, 0.03 * n)
    g2r = _gaussian_profile(n, 0.58 * n, 0.025 * n)
    g2c = _gaussian_profile(n, 0.56 * n, 0.025 * n)
    X = np.outer(g1r, g1c) + 0.8 * np.outer(g2r, g2c)
    if bandwidth is None:  # sigma 0 blurs nothing: the identity, band 0
        bandwidth = min(int(4 * sigma_blur) + 1, n) if sigma_blur else 0
    op = gaussian_blur_operator(n, sigma_blur, bandwidth)
    return _add_noise(op, vec(X), noise_level, rng)


def _bump_profile(n, center, width):
    """Smooth concave bump: raised cosine, zero outside its support."""
    t = np.arange(n)
    u = (t - center) / width
    prof = np.cos(np.clip(u, -1.0, 1.0) * np.pi / 2.0) ** 2
    prof[np.abs(u) >= 1.0] = 0.0
    return prof


def phantom_problem(n, noise_level=1e-2, angle_span_degrees=90.0,
                    n_angles=60, detector_count=None, seed=0):
    """Limited-angle tomography of an exactly rank-4 smooth phantom."""
    _check("angle_span_degrees", angle_span_degrees,
           0 < angle_span_degrees < 180, "in (0, 180) degrees")
    _check("seed", seed, is_count(seed, low=0), "an integer >= 0")
    rng = np.random.default_rng(seed)
    if detector_count is None:
        detector_count = n
    for key, value in (("n", n), ("n_angles", n_angles),
                       ("detector_count", detector_count)):
        _check(key, value, is_count(value), "an integer >= 1")
    _check("n", n, int(n) ** 2 <= _MAX_ENTRIES,
           f"at most {math.isqrt(_MAX_ENTRIES)} (an n x n image)")
    crossings = int(n_angles) * int(detector_count) * (2 * int(n) + 4)
    _check("n_angles x detector_count x (2 n + 4)", crossings,
           crossings <= _MAX_ENTRIES, f"at most {_MAX_ENTRIES}")
    centers = [(0.50, 0.50), (0.45, 0.55), (0.58, 0.42), (0.40, 0.40)]
    widths = [0.75, 0.60, 0.50, 0.42]
    amps = [1.0, 0.3, 0.15, 0.08]
    X = np.zeros((n, n))
    for (cr, cc), w, a in zip(centers, widths, amps):
        X += a * np.outer(_bump_profile(n, cr * n, w * n),
                          _bump_profile(n, cc * n, w * n))
    angles = np.deg2rad(np.linspace(0.0, angle_span_degrees, n_angles,
                                    endpoint=False))
    op = tomography_operator(n, angles, detector_count)
    return _add_noise(op, vec(X), noise_level, rng)


def _house_texture(n):
    """Piecewise-smooth blocky texture (stand-in for a natural image)."""
    i = np.arange(n)[:, None] / n
    j = np.arange(n)[None, :] / n
    X = 0.4 + 0.3 * np.cos(2 * np.pi * i) * np.cos(2 * np.pi * j)
    X += 0.5 * ((i > 0.35) & (i < 0.8) & (j > 0.25) & (j < 0.75))
    X += 0.3 * ((i > 0.15) & (i < 0.35) & (np.abs(j - 0.5) < 0.35 * (i / 0.35)))
    X += 0.15 * np.sin(9 * np.pi * j) * (i > 0.5)
    return X


def _peppers_texture(n):
    """Smooth blobby texture with gentle spectral decay."""
    i = np.arange(n)[:, None] / n
    j = np.arange(n)[None, :] / n
    X = 0.5 + 0.25 * np.sin(3 * np.pi * i) * np.cos(2 * np.pi * j)
    for cr, cc, w, a in [(0.3, 0.35, 0.18, 0.5), (0.65, 0.6, 0.22, 0.45),
                         (0.5, 0.2, 0.12, 0.35), (0.75, 0.3, 0.1, 0.3)]:
        X += a * np.exp(-(((i - cr) ** 2 + (j - cc) ** 2) / (2 * w**2)))
    return X


def _structured_mask(n, missing_fraction, rng):
    """Remove seeded random rectangles and disks until the target
    fraction of pixels is gone (n >= 3).  Rectangles end by row and column
    n - 2 and disks keep sqrt(2) rad from (n - 1, n - 1), so that pixel is
    always kept."""
    keep = np.ones((n, n), dtype=bool)
    target_missing = int(round(missing_fraction * n * n))
    guard = 0
    while (n * n - keep.sum()) < target_missing and guard < 10_000:
        guard += 1
        if rng.random() < 0.5:
            h = int(rng.integers(2, max(n // 6, 3)))
            w = int(rng.integers(2, max(n // 6, 3)))
            r = int(rng.integers(0, n - h))
            c = int(rng.integers(0, n - w))
            keep[r:r + h, c:c + w] = False
        else:
            rad = int(rng.integers(1, max(n // 10, 2)))
            cr = int(rng.integers(rad, n - rad))
            cc = int(rng.integers(rad, n - rad))
            ii, jj = np.ogrid[:n, :n]
            keep[(ii - cr) ** 2 + (jj - cc) ** 2 <= rad * rad] = False
    return keep.reshape(-1, order="F")


def inpainting_problem(image="peppers-like", n=64, rank_cap=50,
                       missing_fraction=0.4, pattern="random",
                       noise_level=1e-2, seed=0, blur_steps=6):
    """Blur-then-undersample inpainting with a rank-capped exact image.

    ``image`` selects a built-in texture ("house-like" / "peppers-like")
    or a path to a PGM file; ``pattern`` is "random" (i.i.d. Bernoulli
    missing pixels) or "structured" (seeded rectangles and disks).
    """
    _check("n", n, is_count(n), "an integer >= 1")
    _check("n", n, int(n) ** 2 <= _MAX_ENTRIES,
           f"at most {math.isqrt(_MAX_ENTRIES)} (an n x n image)")
    _check("rank_cap", rank_cap, is_count(rank_cap, n),
           f"an integer in [1, {n}]")
    _check("blur_steps", blur_steps, is_count(blur_steps), "an integer >= 1")
    _check("missing_fraction", missing_fraction, 0 <= missing_fraction < 1,
           "in [0, 1)")
    _check("seed", seed, is_count(seed, low=0), "an integer >= 0")
    rng = np.random.default_rng(seed)
    if image == "house-like":
        X = _house_texture(n)
    elif image == "peppers-like":
        X = _peppers_texture(n)
    else:
        _check("image", image, isinstance(image, (str, os.PathLike)),
               "a built-in texture name or a PGM file path")
        X = read_pgm(image)
        if X.shape != (n, n):
            raise ValueError(
                f"image file has shape {X.shape}, expected ({n}, {n})")
    x_exact = truncate(vec(X), rank_cap)
    if pattern == "random":
        mask = rng.random(n * n) >= missing_fraction
        if not mask.any():
            mask[0] = True
    elif pattern == "structured":
        _check("n", n, n >= 3, 'at least 3 for pattern "structured"')
        mask = _structured_mask(n, missing_fraction, rng)
    else:
        raise ValueError(f"unknown mask pattern {pattern!r}")
    blur = shaking_blur_operator(n, n_steps=blur_steps, seed=seed)
    op = inpainting_operator(n, mask, blur)
    return _add_noise(op, x_exact, noise_level, rng)


def write_pgm(path, X):
    """Write a 16-bit binary PGM, linearly rescaled to [0, 65535]."""
    X = np.asarray(X, dtype=float)
    lo, hi = X.min(), X.max()
    scale = 65535.0 / (hi - lo) if hi > lo else 0.0
    data = np.clip((X - lo) * scale, 0, 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{X.shape[1]} {X.shape[0]}\n65535\n".encode())
        fh.write(data.tobytes())


def read_pgm(path):
    """Read a binary (P5) PGM into floats in [0, 1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] != b"P5":
        raise ValueError(f"unsupported PGM magic {raw[:2]!r} in {path}")
    # width, height and maxval, each after whitespace and "#" comments that
    # run to the end of a line; then one whitespace byte before the raster
    field = rb"(?:\s|#[^\r\n]*[\r\n])+(\d+)"
    head = re.match(rb"P5" + field * 3 + rb"\s", raw)
    if head is None:
        raise ValueError(f"malformed PGM header in {path}")
    w, h, maxval = (int(f) for f in head.groups())
    if not 0 < maxval < 65536:
        raise ValueError(f"PGM maxval {maxval} outside [1, 65535] in {path}")
    dtype = ">u2" if maxval > 255 else np.uint8
    data = np.frombuffer(raw, dtype=dtype, count=w * h, offset=head.end())
    return data.reshape(h, w).astype(float) / maxval
