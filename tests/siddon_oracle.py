"""Reference Siddon tracer: the scalar per-ray, per-cell loop.

This is the traversal ``lrkrylov._tomo_kernels`` used before it was
vectorized per projection angle.  It is kept here, unchanged, as the
oracle that the vectorized tracer must reproduce entry for entry.
"""

import numpy as np

# each ray crosses at most 2n+1 cells
_EPS = 1e-12


def _trace_all_rays(n, angles, offsets, rows, cols, vals):
    """Fill COO triplets for every (angle, detector) ray; return entry count.

    Grid is [0, n] x [0, n]; pixel (i, j) occupies x in [j, j+1],
    y in [i, i+1] and has flat (column-major) index i + j*n.  The ray for
    angle theta and detector offset s is p(t) = c + s*e + t*d with
    c = (n/2, n/2), e = (cos t, sin t), d = (-sin t, cos t); weights are
    exact chord lengths.
    """
    n_det = offsets.shape[0]
    pos = 0
    for a in range(angles.shape[0]):
        ct = np.cos(angles[a])
        st = np.sin(angles[a])
        dx = -st
        dy = ct
        for k in range(n_det):
            px = 0.5 * n + offsets[k] * ct
            py = 0.5 * n + offsets[k] * st
            # parametric window where the ray is inside [0,n]^2
            tmin = -1e30
            tmax = 1e30
            if abs(dx) > _EPS:
                t0 = (0.0 - px) / dx
                t1 = (n - px) / dx
                lo = min(t0, t1)
                hi = max(t0, t1)
                if lo > tmin:
                    tmin = lo
                if hi < tmax:
                    tmax = hi
            elif px <= 0.0 or px >= n:
                continue
            if abs(dy) > _EPS:
                t0 = (0.0 - py) / dy
                t1 = (n - py) / dy
                lo = min(t0, t1)
                hi = max(t0, t1)
                if lo > tmin:
                    tmin = lo
                if hi < tmax:
                    tmax = hi
            elif py <= 0.0 or py >= n:
                continue
            if tmax - tmin < _EPS:
                continue
            row = a * n_det + k
            t = tmin
            while t < tmax - _EPS:
                # cell containing the midpoint of the next segment
                tx = 1e30
                if abs(dx) > _EPS:
                    x = px + t * dx
                    if dx > 0.0:
                        nxt = np.floor(x + _EPS) + 1.0
                    else:
                        nxt = np.ceil(x - _EPS) - 1.0
                    tx = (nxt - px) / dx
                ty = 1e30
                if abs(dy) > _EPS:
                    y = py + t * dy
                    if dy > 0.0:
                        nxt = np.floor(y + _EPS) + 1.0
                    else:
                        nxt = np.ceil(y - _EPS) - 1.0
                    ty = (nxt - py) / dy
                tnext = min(tx, ty)
                if tnext > tmax:
                    tnext = tmax
                seg = tnext - t
                if seg > _EPS:
                    tm = 0.5 * (t + tnext)
                    j = int(np.floor(px + tm * dx))
                    i = int(np.floor(py + tm * dy))
                    if 0 <= i < n and 0 <= j < n:
                        rows[pos] = row
                        cols[pos] = i + j * n
                        vals[pos] = seg
                        pos += 1
                t = tnext
    return pos


def trace_rays(n, angles, offsets):
    """Trace every ray with the scalar loop; return (rows, cols, vals)."""
    angles = np.ascontiguousarray(angles, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.float64)
    cap = angles.shape[0] * offsets.shape[0] * (2 * n + 2)
    rows = np.empty(cap, dtype=np.int64)
    cols = np.empty(cap, dtype=np.int64)
    vals = np.empty(cap, dtype=np.float64)
    count = _trace_all_rays(n, angles, offsets, rows, cols, vals)
    return rows[:count], cols[:count], vals[:count]
