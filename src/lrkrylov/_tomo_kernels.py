"""Siddon ray tracing for the parallel-beam projector (Siddon, Med. Phys.
1985; Jacobs et al. 1998), vectorized over the detectors of one angle.

Each ray's crossings with the x and y grid planes, clipped to its window
inside the grid and sorted, are candidate cell boundaries.  From each, the
walk goes on to the nearest plane ahead by more than ``_EPS``; candidates
it steps over (planes grazed within ``_EPS``) are dropped.  The chords
between the remaining boundaries go to the cell of their midpoint.

Most rays need no walk.  The walk's next plane and a candidate are the
same expression of the same plane, so when no two distinct candidates of
a ray lie close together the walk from each candidate lands exactly on
the next one, and the chords are the differences of consecutive sorted
candidates, ``t[:, 1:] - t[:, :-1]``.  Equal candidates (a ray through a
lattice point, the clipped copies of the window ends) give zero-length
chords, which are dropped, and the chord after them starts from the value
the walk starts from.  The walk can step over a plane only when two
distinct candidates lie within ``_EPS`` of each other in position along
an axis.  So a ray takes the plane-by-plane walk, on its row alone, when
two of its distinct candidates lie within ``_GAP / min(|dx|, |dy|)`` of
each other in t; every other pair is at least the safe gap ``_GAP``
apart in position along both axes.  At the benchmark geometry (n=128,
60 angles over 90 degrees) that is 126 of 7,680 rays, at 30 and 60
degrees, where rays meet lattice points within rounding.
"""

import numpy as np

_EPS = 1e-12
# The walk steps over a plane only within _EPS of its position, and the
# positions it compares are rounded by a few units in the last place of n
# (about 1e-13 at n=128, 3e-12 at n=4096): candidates 1e-9 apart in
# position are far beyond both, so the walk never steps over them.
_GAP = 1e-9


def _next_plane(p, d, t):
    """Parameter of the first plane ahead of p + t*d by more than _EPS."""
    pos = p[:, None] + t * d
    if d > 0.0:
        nxt = np.floor(pos + _EPS) + 1.0
    else:
        nxt = np.ceil(pos - _EPS) - 1.0
    return (nxt - p[:, None]) / d


def _walk(t, tmax, axes):
    """Each sorted candidate's next boundary on the walk from tmin.

    The walk visits a candidate when its t is at or past ``reach``, the
    largest next plane of the candidates visited before it, and a visited
    candidate raises ``reach`` to its own next plane.  A candidate the walk
    steps over gets itself as next boundary: a zero chord."""
    tnext = np.broadcast_to(tmax, t.shape)
    for p, d in axes:
        tnext = np.minimum(tnext, _next_plane(p, d, t))
    reach = np.full(t.shape[0], -np.inf)
    for tk, nk in zip(t.T, tnext.T):  # candidate k of every ray, in order
        np.copyto(nk, tk, where=tk < reach)
        np.maximum(reach, nk, out=reach)
    return tnext


def _trace_angle(n, theta, offsets):
    """Chords of every ray of one angle; return (count per ray, col,
    length), the entries in ray-major, increasing-t order."""
    ct = np.cos(theta)
    st = np.sin(theta)
    px = 0.5 * n + offsets * ct
    py = 0.5 * n + offsets * st
    # parametric window [tmin, tmax] where each ray is inside [0, n]^2
    tmin = np.full(offsets.shape, -1e30)
    tmax = np.full(offsets.shape, 1e30)
    axes = []
    for p, d in ((px, -st), (py, ct)):
        if abs(d) <= _EPS:  # parallel to these planes: inside or missed
            tmax = np.where((p > 0.0) & (p < n), tmax, -1e30)
            continue
        t0 = (0.0 - p) / d
        t1 = (n - p) / d
        tmin = np.maximum(tmin, np.minimum(t0, t1))
        tmax = np.minimum(tmax, np.maximum(t0, t1))
        axes.append((p, d))
    counts = np.zeros(offsets.shape, dtype=np.int64)
    rays = np.flatnonzero(~(tmax - tmin < _EPS))
    tmin = tmin[rays, None]
    tmax = tmax[rays, None]
    axes = [(p[rays], d) for p, d in axes]
    planes = np.arange(n + 1, dtype=np.float64)
    t = np.concatenate(
        [(planes - p[:, None]) / d for p, d in axes] + [tmin, tmax], axis=1)
    np.clip(t, tmin, tmax, out=t)
    t.sort(axis=1)
    # chord k runs from t[:, k] to tnext[:, k]; none starts at the last
    # candidate, tmax.  Rays with distinct candidates closer than the safe
    # gap take the walk (module docstring).
    start = t[:, :-1]
    tnext = t[:, 1:].copy()
    seg = tnext - start
    close = (seg > 0.0) & (seg <= _GAP / min(abs(d) for _, d in axes))
    near = np.flatnonzero(close.any(axis=1))
    if near.size:
        tnext[near] = _walk(t[near], tmax[near],
                            [(p[near], d) for p, d in axes])[:, :-1]
        seg[near] = tnext[near] - start[near]
    chord = (start < tmax - _EPS) & (seg > _EPS)
    # the cell holding the midpoint of each chord
    tm = 0.5 * (start + tnext)
    j = np.floor(px[rays, None] + tm * -st)
    i = np.floor(py[rays, None] + tm * ct)
    chord &= (i >= 0) & (i < n) & (j >= 0) & (j < n)
    counts[rays] = chord.sum(axis=1)
    # a column index is below n*n, which fits int32 for any grid whose
    # n*n image fits in memory
    cols = (i[chord] + j[chord] * n).astype(np.int32)
    return counts, cols, seg[chord]


def trace_rays(n, angles, offsets):
    """Trace every (angle, detector) ray; return the CSR arrays
    (indptr, cols, vals) of the projector.

    Grid is [0, n] x [0, n]; pixel (i, j) occupies x in [j, j+1],
    y in [i, i+1] and has flat (column-major) index i + j*n.  The ray for
    angle theta and detector offset s is p(t) = c + s*e + t*d with
    c = (n/2, n/2), e = (cos theta, sin theta), d = (-sin theta, cos theta);
    weights are exact chord lengths.  Row ``a * len(offsets) + k`` is the
    ray of angle ``a`` and detector ``k``; its entries are
    ``cols[indptr[r]:indptr[r + 1]]`` and follow the ray in increasing t,
    so column indices within a row are not sorted.

    ``cols`` and ``vals`` are views of the filled prefix of arrays
    allocated once at the bound of 2n + 3 chords per ray; each angle
    writes its chords at a running offset.  The unwritten tail is never
    touched, so it takes address space but little resident memory.
    """
    angles = np.ascontiguousarray(angles, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.float64)
    indptr = np.zeros(angles.shape[0] * offsets.shape[0] + 1, dtype=np.int64)
    counts = indptr[1:].reshape(angles.shape[0], offsets.shape[0])
    # a ray has at most 2n + 4 candidates, so at most 2n + 3 chords
    cols = np.empty(counts.size * (2 * n + 3), dtype=np.int32)
    vals = np.empty(cols.size)
    end = 0
    for a in range(angles.shape[0]):
        counts[a], col, seg = _trace_angle(n, angles[a], offsets)
        cols[end:end + col.size] = col
        vals[end:end + col.size] = seg
        end += col.size
    np.cumsum(indptr, out=indptr)
    return indptr, cols[:end], vals[:end]
