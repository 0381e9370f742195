import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrkrylov import problems
from lrkrylov.linops import unvec
from lrkrylov.lowrank import svd
from lrkrylov.problems import (
    inpainting_problem,
    phantom_problem,
    read_pgm,
    star_problem,
    write_pgm,
)


def numeric_rank(x, n):
    s = svd(unvec(x, n)).sigma
    return int(np.sum(s > 1e-10 * s[0]))


class TestStar:
    def test_zero_bandwidth_is_no_blur(self):
        x = np.arange(256.0)
        assert np.array_equal(star_problem(16, bandwidth=0).op.matvec(x), x)

    def test_zero_sigma_is_the_identity(self):
        # the default bandwidth int(4 sigma) + 1 would be 1, a band that
        # sigma 0 cannot fill: sigma 0 takes band 0, no blur at all
        op = star_problem(16, sigma_blur=0).op
        x = np.random.default_rng(0).standard_normal(256)
        assert np.array_equal(op.matvec(x), x)
        assert np.array_equal(op.rmatvec(x), x)

    def test_exact_rank_two(self):
        prob = star_problem(32, seed=0)
        assert numeric_rank(prob.x_exact, 32) == 2

    def test_noise_level_exact(self):
        prob = star_problem(32, noise_level=1e-3, seed=1)
        got = np.linalg.norm(prob.b - prob.b_exact)
        want = 1e-3 * np.linalg.norm(prob.b_exact)
        assert abs(got - want) <= 1e-12 * want

    def test_consistent_data(self):
        prob = star_problem(32, seed=2)
        assert np.allclose(prob.op.matvec(prob.x_exact), prob.b_exact,
                           atol=1e-12)

    def test_zero_noise(self):
        prob = star_problem(32, noise_level=0.0, seed=3)
        assert np.array_equal(prob.b, prob.b_exact)

    def test_deterministic(self):
        a = star_problem(32, seed=4)
        b = star_problem(32, seed=4)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.x_exact, b.x_exact)

    def test_different_seeds_differ(self):
        a = star_problem(32, seed=5)
        b = star_problem(32, seed=6)
        assert not np.array_equal(a.b, b.b)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            star_problem(8)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0, True])
    def test_bad_sigma_blur_rejected(self, sigma):
        # an infinite width used to end in an OverflowError, NaN in an
        # error that did not name the key, and true to run as sigma 1
        with pytest.raises(ValueError, match="sigma_blur must be"):
            star_problem(16, sigma_blur=sigma)

    def test_noise_is_white(self):
        # adjacent noise samples should be uncorrelated
        prob = star_problem(100, noise_level=1e-2, seed=7)
        eta = prob.b - prob.b_exact
        eta = eta / np.linalg.norm(eta)
        assert abs(float(eta[:-1] @ eta[1:])) <= 0.05


@pytest.mark.parametrize("make", [
    lambda level: star_problem(16, noise_level=level),
    lambda level: phantom_problem(16, noise_level=level, n_angles=4),
    lambda level: inpainting_problem(n=16, rank_cap=8, noise_level=level),
], ids=["star", "phantom", "inpainting"])
@pytest.mark.parametrize("level", [np.nan, np.inf, -1e-3, True])
def test_bad_noise_level_rejected(make, level):
    # NaN and negative levels used to give silently noiseless data, an
    # infinite one non-finite data, and JSON true 100% noise
    with pytest.raises(ValueError, match="noise_level"):
        make(level)


@pytest.mark.parametrize("make", [
    lambda seed: star_problem(16, seed=seed),
    lambda seed: phantom_problem(16, n_angles=4, seed=seed),
    lambda seed: inpainting_problem(n=16, rank_cap=8, seed=seed),
], ids=["star", "phantom", "inpainting"])
@pytest.mark.parametrize("seed", [True, -1, 1.5])
def test_bad_seed_rejected(make, seed):
    # true used to build the data of seed 1, and -1 failed inside numpy
    # without naming the key
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        make(seed)


@pytest.mark.parametrize("make, first_array", [
    (star_problem, "_gaussian_profile"),
    (lambda n: inpainting_problem(n=n), "_peppers_texture"),
], ids=["star", "inpainting"])
def test_image_beyond_memory_rejected_before_building(monkeypatch, make,
                                                      first_array):
    # an 8193 x 8193 image is 537 MB; n = 8192 passes the check and reaches
    # the builder of the first array, which stands in for the allocation
    def build(*args):
        raise AssertionError("built")

    monkeypatch.setattr(problems, first_array, build)
    with pytest.raises(ValueError,
                       match=r"^n must be at most 8192 \(an n x n image\), "
                             r"got 8193$"):
        make(8193)
    with pytest.raises(AssertionError, match="built"):
        make(8192)


class TestPhantom:
    def test_exact_rank_four(self):
        prob = phantom_problem(64, seed=0)
        assert numeric_rank(prob.x_exact, 64) == 4

    def test_limited_angle_underdetermined(self):
        prob = phantom_problem(32, n_angles=20, seed=1)
        assert prob.op.rows == 20 * 32
        assert prob.op.rows < prob.op.cols

    def test_angle_span_validated(self):
        with pytest.raises(ValueError):
            phantom_problem(32, angle_span_degrees=0.0)
        with pytest.raises(ValueError):
            phantom_problem(32, angle_span_degrees=180.0)

    @pytest.mark.parametrize("span", [True, np.nan, np.inf])
    def test_angle_span_must_be_a_number_in_range(self, span):
        with pytest.raises(ValueError, match="angle_span_degrees must be"):
            phantom_problem(16, angle_span_degrees=span, n_angles=4)

    def test_detector_count_override(self):
        prob = phantom_problem(32, n_angles=10, detector_count=48, seed=2)
        assert prob.op.rows == 480

    @pytest.mark.parametrize("size, named", [
        ({"n": 16, "detector_count": 10**9}, "detector_count"),
        ({"n": 16, "n_angles": 10**9}, "n_angles"),
        ({"n": 10**8}, "n must be at most"),
    ], ids=["detector_count", "n_angles", "n"])
    def test_size_beyond_memory_rejected_before_building(self, monkeypatch,
                                                         size, named):
        # terabytes: no operator and no image may be built, not even by a
        # version without the bound (an n x n image of n = 1e8 is beyond
        # any address space, so allocating it fails at once)
        def build(*args):
            raise AssertionError("built")

        monkeypatch.setattr(problems, "tomography_operator", build)
        monkeypatch.setattr(problems, "_bump_profile", build)
        with pytest.raises(ValueError, match="must be at most") as err:
            phantom_problem(**size)
        assert named in str(err.value)


class TestInpainting:
    def test_rank_cap_enforced(self):
        prob = inpainting_problem("peppers-like", n=48, rank_cap=10, seed=0)
        assert numeric_rank(prob.x_exact, 48) <= 10

    def test_missing_fraction_random(self):
        prob = inpainting_problem("house-like", n=64,
                                  missing_fraction=0.4, seed=1)
        frac = 1.0 - prob.op.rows / prob.op.cols
        assert abs(frac - 0.4) <= 0.05

    def test_structured_pattern(self):
        prob = inpainting_problem("house-like", n=64,
                                  missing_fraction=0.3,
                                  pattern="structured", seed=2)
        assert prob.op.rows < prob.op.cols

    def test_random_mask_keeps_one_pixel(self):
        # every pixel's draw at seed 0 falls below 0.999: the mask would
        # keep none, and one pixel is kept instead
        prob = inpainting_problem(n=4, rank_cap=4, missing_fraction=0.999,
                                  seed=0)
        assert prob.op.rows == 1

    @settings(deadline=None)
    @given(st.integers(3, 48), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_structured_mask_keeps_one_pixel(self, n, fraction, seed):
        # rectangles end by row and column n - 2, and a disk of radius r
        # stays sqrt(2) r from (n - 1, n - 1): that pixel is never removed,
        # whatever fraction is asked for, so the mask is never empty
        mask = problems._structured_mask(n, fraction,
                                         np.random.default_rng(seed))
        assert mask.shape == (n * n,)
        assert mask[-1]

    @pytest.mark.parametrize("n", [1, 2])
    def test_structured_pattern_below_three_pixels_rejected(self, n):
        with pytest.raises(ValueError, match='n must be at least 3 for '
                           'pattern "structured", got'):
            inpainting_problem(n=n, rank_cap=1, missing_fraction=0.5,
                               pattern="structured")

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValueError, match="unknown mask pattern 'swirl'"):
            inpainting_problem("house-like", n=32, rank_cap=8,
                               pattern="swirl")

    def test_rank_cap_above_n_rejected(self):
        with pytest.raises(ValueError):
            inpainting_problem("house-like", n=32, rank_cap=64)

    def test_edges_of_the_valid_ranges_build(self):
        prob = inpainting_problem(n=16, rank_cap=16, missing_fraction=0.0,
                                  blur_steps=1)
        assert prob.op.rows == prob.op.cols == 256

    def test_image_from_pgm_file(self, tmp_path):
        X = np.random.default_rng(3).random((32, 32))
        path = tmp_path / "img.pgm"
        write_pgm(path, X)
        prob = inpainting_problem(str(path), n=32, rank_cap=20, seed=4)
        assert prob.op.cols == 1024

    def test_file_descriptor_is_no_image(self, tmp_path):
        # open() would read from an integer descriptor and close it
        path = tmp_path / "img.pgm"
        write_pgm(path, np.zeros((16, 16)))
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(ValueError, match="image must be"):
                inpainting_problem(fd, n=16, rank_cap=8)
            os.fstat(fd)  # still open
        finally:
            os.close(fd)

    @pytest.mark.parametrize("image", [b"img.pgm", 2.5, None])
    def test_image_must_be_a_name_or_path(self, image):
        with pytest.raises(ValueError, match="image must be"):
            inpainting_problem(image, n=16, rank_cap=8)

    def test_image_from_path_object(self, tmp_path):
        X = np.random.default_rng(5).random((16, 16))
        path = tmp_path / "img.pgm"
        write_pgm(path, X)
        prob = inpainting_problem(path, n=16, rank_cap=8, seed=4)
        assert np.array_equal(prob.x_exact,
                              inpainting_problem(str(path), n=16, rank_cap=8,
                                                 seed=4).x_exact)

    def test_wrong_image_size_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, np.zeros((16, 16)))
        with pytest.raises(ValueError, match=r"image file has shape "
                                             r"\(16, 16\), expected \(32, 32\)"):
            inpainting_problem(str(path), n=32, rank_cap=8)


class TestPgm:
    def test_round_trip(self, tmp_path):
        X = np.random.default_rng(0).random((12, 17))
        path = tmp_path / "x.pgm"
        write_pgm(path, X)
        Y = read_pgm(path)
        assert Y.shape == X.shape
        # 16-bit quantization of the [min, max] range
        want = (X - X.min()) / (X.max() - X.min())
        assert np.abs(Y - want).max() <= 1.0 / 65535

    def test_constant_image(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm(path, np.full((4, 4), 3.7))
        assert np.all(read_pgm(path) == 0.0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(ValueError):
            read_pgm(path)

    # netpbm headers: any whitespace between fields, "#" comments to the
    # end of a line, then one whitespace byte before the raster; the raster
    # here starts with bytes 32 and 10, which are whitespace themselves
    RASTER = bytes([32, 10] + list(range(2, 8)))

    @pytest.mark.parametrize("header", [
        b"P5 4 2 255\n",
        b"P5\n4 2 # size\n255\n",
        b"P5\t4\t2\t255\t",
        b"P5# made by hand\n#\n 4\n\n2\r\n255 ",
    ], ids=["one-line", "inline-comment", "tabs", "comment-lines"])
    def test_header_layouts(self, tmp_path, header):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + self.RASTER)
        want = np.frombuffer(self.RASTER, np.uint8).reshape(2, 4) / 255.0
        assert np.array_equal(read_pgm(path), want)

    @pytest.mark.parametrize("data", [b"P5\n4 2\n", b"P5 4 2 x255\n"],
                             ids=["truncated", "non-numeric"])
    def test_malformed_header_rejected(self, tmp_path, data):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data + self.RASTER)
        with pytest.raises(ValueError, match="malformed PGM header"):
            read_pgm(path)

    @pytest.mark.parametrize("maxval", [b"0", b"65536"])
    def test_bad_maxval_rejected(self, tmp_path, maxval):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5 4 2 " + maxval + b"\n" + self.RASTER * 2)
        with pytest.raises(ValueError, match="maxval"):
            read_pgm(path)
