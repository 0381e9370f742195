"""The vectorized Siddon tracer against the scalar oracle loop.

Row and column indices must match entry for entry, in the same order, and
chord lengths must agree to 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siddon_oracle
from lrkrylov import _tomo_kernels
from lrkrylov._tomo_kernels import trace_rays

VAL_TOL = 1e-12


def detector_offsets(n, detector_count):
    spacing = n / detector_count
    return (np.arange(detector_count) - (detector_count - 1) / 2.0) * spacing


def row_of_entry(indptr):
    """The row of each entry of a CSR matrix with row pointer indptr."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def assert_matches_oracle(n, angles, offsets):
    indptr, cols, vals = trace_rays(n, angles, offsets)
    o_rows, o_cols, o_vals = siddon_oracle.trace_rays(n, angles, offsets)
    assert indptr.size == angles.size * offsets.size + 1
    assert cols.size == vals.size == indptr[-1]
    np.testing.assert_array_equal(row_of_entry(indptr), o_rows)
    np.testing.assert_array_equal(cols, o_cols)
    np.testing.assert_allclose(vals, o_vals, rtol=0, atol=VAL_TOL)
    assert cols.dtype == np.int32
    assert vals.dtype == np.float64


GEOMETRIES = {
    # n=128, 60 angles over 90 degrees, 128 detectors
    "tomo-irn": (128, np.deg2rad(np.linspace(0.0, 90.0, 60, endpoint=False)),
                 detector_offsets(128, 128)),
    "180-angles": (64, np.deg2rad(np.linspace(0.0, 179.0, 180)),
                   detector_offsets(64, 64)),
    # dx or dy is 0 up to the rounding of cos/sin, so only one family of
    # grid planes is crossed; 17 detectors put one ray through the centre
    "axis-aligned": (16, np.array([0.0, np.pi / 2, np.pi]),
                     detector_offsets(16, 16)),
    "axis-aligned-odd-detectors": (16, np.array([0.0, np.pi / 2, np.pi]),
                                   detector_offsets(16, 17)),
    # diagonal rays and half-integer offsets pass through lattice points
    "grid-corners": (16, np.array([np.pi / 4, 3 * np.pi / 4,
                                   np.arctan(0.5), np.arctan(2.0)]),
                     np.arange(-9.0, 9.5, 0.5)),
    # nearly vertical or horizontal rays lying within _EPS of a grid line
    # for their whole length: the walk steps over that line
    "grazing": (4, np.array([2.1969638919728707e-12, -3e-12,
                             np.pi / 2 + 1e-12]),
                np.array([-1.0, 0.0, 1.0])),
    # off the diagonal and off the lattice, rays cross 2n - 1 cells, the
    # most any ray can: the capacity of 2n + 3 chords per ray holds them
    "most-cells": (16, np.array([np.pi / 4 + 0.01, 3 * np.pi / 4 - 0.01]),
                   np.arange(-9.0, 9.5, 0.5) + 0.1),
    "more-detectors-odd-n": (17, np.deg2rad(np.linspace(0.0, 120.0, 25)),
                             detector_offsets(17, 23)),
    "fewer-detectors-odd-n": (15, np.deg2rad(np.linspace(0.0, 120.0, 25)),
                              detector_offsets(15, 9)),
}


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_matches_oracle(name):
    assert_matches_oracle(*GEOMETRIES[name])


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_walking_every_ray_changes_no_bit(monkeypatch, name):
    # the differences of sorted candidates are the walk's chords, to the
    # bit, on rays with no close candidates; an infinite safe gap walks
    # them all (a huge finite one overflows on the axis-aligned rays)
    want = trace_rays(*GEOMETRIES[name])
    monkeypatch.setattr(_tomo_kernels, "_GAP", np.inf)
    got = trace_rays(*GEOMETRIES[name])
    for w, g in zip(want, got):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_most_cells_geometry_fills_the_longest_rows():
    # the geometry's premise: some ray has the most chords any ray can
    n, angles, offsets = GEOMETRIES["most-cells"]
    indptr, _, _ = trace_rays(n, angles, offsets)
    assert np.diff(indptr).max() == 2 * n - 1


def test_axis_aligned_rays_have_unit_chords():
    indptr, cols, vals = trace_rays(8, np.array([0.0]),
                                    detector_offsets(8, 8))
    np.testing.assert_allclose(vals, 1.0)
    assert np.array_equal(np.diff(indptr), np.full(8, 8))


def test_rays_missing_the_grid_are_empty():
    indptr, cols, vals = trace_rays(8, np.array([0.3, 1.2]),
                                    np.array([-20.0, 20.0]))
    assert np.array_equal(indptr, np.zeros(5))
    assert cols.size == vals.size == 0


@pytest.mark.parametrize("angles, offsets", [([], [0.0, 1.0]), ([0.3], [])])
def test_no_rays_give_an_empty_matrix(angles, offsets):
    indptr, cols, vals = trace_rays(8, np.array(angles), np.array(offsets))
    assert np.array_equal(indptr, [0])
    assert cols.size == vals.size == 0
    assert cols.dtype == np.int32 and vals.dtype == np.float64


# rays near the axes and detectors on the half-integer lattice meet grid
# planes and corners within rounding, where the walk's _EPS rules matter
_TINY = st.sampled_from([0.0, 5e-13, -1e-12, 2e-12, -3e-12, 1e-11, 1e-10])
ANGLES = st.one_of(
    st.floats(min_value=-7.0, max_value=7.0),
    st.builds(lambda k, e: k * np.pi / 4 + e, st.integers(0, 8), _TINY))
OFFSETS = st.one_of(
    st.floats(min_value=-30.0, max_value=30.0),
    st.builds(lambda k, e: k / 2 + e, st.integers(-60, 60), _TINY))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=1, max_value=20),
       angles=st.lists(ANGLES, min_size=1, max_size=4),
       offsets=st.lists(OFFSETS, min_size=1, max_size=8))
def test_random_geometries_match_oracle(n, angles, offsets):
    assert_matches_oracle(n, np.array(angles), np.array(offsets))
