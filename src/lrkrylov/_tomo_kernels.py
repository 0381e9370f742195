"""Siddon ray tracing for the parallel-beam projector (Siddon, Med. Phys.
1985; Jacobs et al. 1998), vectorized over the detectors of one angle.

Each ray's crossings with the x and y grid planes, clipped to its window
inside the grid and sorted, are candidate cell boundaries.  From each the
walk goes on to the nearest plane ahead by more than ``_EPS``; candidates
it steps over (planes grazed within ``_EPS``) are dropped.  The chords
between the remaining boundaries go to the cell of their midpoint.
"""

import numpy as np

_EPS = 1e-12


def _next_plane(p, d, t):
    """Parameter of the first plane ahead of p + t*d by more than _EPS."""
    pos = p[:, None] + t * d
    if d > 0.0:
        nxt = np.floor(pos + _EPS) + 1.0
    else:
        nxt = np.ceil(pos - _EPS) - 1.0
    return (nxt - p[:, None]) / d


def _trace_angle(n, theta, offsets):
    """Chords of every ray of one angle; return (ray, col, length) arrays
    in ray-major, increasing-t order."""
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
    rays = np.flatnonzero(~(tmax - tmin < _EPS))
    tmin = tmin[rays, None]
    tmax = tmax[rays, None]
    axes = [(p[rays], d) for p, d in axes]
    planes = np.arange(n + 1, dtype=np.float64)
    t = np.concatenate(
        [(planes - p[:, None]) / d for p, d in axes] + [tmin, tmax], axis=1)
    np.clip(t, tmin, tmax, out=t)
    t.sort(axis=1)
    tnext = np.broadcast_to(tmax, t.shape)
    for p, d in axes:
        tnext = np.minimum(tnext, _next_plane(p, d, t))
    # The walk from tmin visits a candidate when no candidate it visited
    # before has its next plane beyond it.  That depends only on earlier
    # candidates, so rounds started from "all visited" settle on the walk.
    # A round is final when no candidate that joined or left the visited
    # set lifts the reach; more than one round takes a ray grazing two
    # planes at once.
    visited = np.ones(t.shape, dtype=bool)
    lift = tnext
    while True:
        reach = np.maximum.accumulate(lift, axis=1)[:, :-1]
        visited[:, 1:] = t[:, 1:] >= reach
        walk = np.where(visited, tnext, -np.inf)
        if not ((walk[:, 1:] != lift[:, 1:]) & (tnext[:, 1:] > reach)).any():
            break
        lift = walk
    seg = tnext - t
    walked = visited & (t < tmax - _EPS) & (seg > _EPS)
    ray, _ = np.nonzero(walked)
    ray = rays[ray]
    seg = seg[walked]
    # the cell holding the midpoint of each chord
    tm = 0.5 * (t[walked] + tnext[walked])
    j = np.floor(px[ray] + tm * -st)
    i = np.floor(py[ray] + tm * ct)
    keep = (i >= 0) & (i < n) & (j >= 0) & (j < n)
    cols = (i[keep] + j[keep] * n).astype(np.int64)
    return ray[keep], cols, seg[keep]


def trace_rays(n, angles, offsets):
    """Trace every (angle, detector) ray; return COO triplets
    (rows, cols, vals).

    Grid is [0, n] x [0, n]; pixel (i, j) occupies x in [j, j+1],
    y in [i, i+1] and has flat (column-major) index i + j*n.  The ray for
    angle theta and detector offset s is p(t) = c + s*e + t*d with
    c = (n/2, n/2), e = (cos theta, sin theta), d = (-sin theta, cos theta);
    weights are exact chord lengths.  Row ``a * len(offsets) + k`` is the
    ray of angle ``a`` and detector ``k``; within a row, entries follow
    the ray in increasing t.
    """
    angles = np.ascontiguousarray(angles, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.float64)
    n_det = offsets.shape[0]
    # a ray yields at most one chord per candidate boundary, and there are
    # at most 2n+3 of those; pages past the last entry are never touched
    cap = angles.shape[0] * n_det * (2 * n + 3)
    rows = np.empty(cap, dtype=np.int64)
    cols = np.empty(cap, dtype=np.int64)
    vals = np.empty(cap, dtype=np.float64)
    pos = 0
    for a in range(angles.shape[0]):
        ray, col, seg = _trace_angle(n, angles[a], offsets)
        end = pos + seg.size
        np.add(ray, a * n_det, out=rows[pos:end])
        cols[pos:end] = col
        vals[pos:end] = seg
        pos = end
    return rows[:pos], cols[:pos], vals[:pos]
