"""Exact-chord oracle for the forward sweep.

The program integrates each line through the phantom with a midpoint rule
along the chord.  This oracle computes the same line integrals exactly:
every primitive's cross-section at a height is clipped against the line in
closed form (slab clipping for rotated boxes, a quadratic for discs,
half-open edge crossings for polygons), and "last listed wins" becomes an
overwrite on the elementary segments between all clip points.  The rows
are then reduced with the same sliding window sums over the run's ECTW
weights, so the only difference to the program is the chord quadrature
(and the readout quantizer, when the run used it).

The phantom text is parsed here from the documented text format, not
through the program's primitive classes, so the oracle stays independent
of how the program represents primitives.
"""

import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from capradon.forward import load_sinogram
from capradon.weights import load_weight


def parse_scene(text):
    """Primitives as (kind, params, eps) tuples, in file order."""
    prims = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        kind, nums = line[0].lower(), [float(v) for v in line[1:]]
        if kind == "box":
            prims.append(("box", tuple(nums[:7]), nums[7]))
        elif kind == "cylinder":
            prims.append(("cylinder", tuple(nums[:5]), nums[5]))
        elif kind == "sphere":
            prims.append(("sphere", tuple(nums[:4]), nums[4]))
        elif kind == "polygon":
            verts = tuple(zip(nums[3::2], nums[4::2]))
            prims.append(("polygon", (nums[0], nums[1], verts), nums[2]))
        else:
            raise ValueError(f"unknown primitive {kind!r}")
    return prims


def cross_section(prim, z):
    """The primitive's 2D shape at height z; None where the plane misses."""
    kind, p, _ = prim
    if kind == "box":
        cx, cy, cz, hx, hy, hz, angle_deg = p
        if abs(z - cz) <= hz:
            return ("rect", cx, cy, hx, hy, math.radians(angle_deg))
    elif kind == "cylinder":
        cx, cy, z_lo, z_hi, r = p
        if z_lo <= z <= z_hi:
            return ("disc", cx, cy, r)
    elif kind == "sphere":
        cx, cy, cz, r = p
        if abs(z - cz) <= r:
            return ("disc", cx, cy, math.sqrt(max(r * r - (z - cz) ** 2, 0.0)))
    else:
        z_lo, z_hi, verts = p
        if z_lo <= z <= z_hi:
            return ("poly", verts)
    return None


def _clip(shape, theta, s):
    """Clip points (L, m) along each line and a membership test for them.

    The line at offset s and angle theta is (s*cos - t*sin, s*sin + t*cos);
    clip points are values of t, NaN where a line misses the shape.
    """
    c, sn = math.cos(theta), math.sin(theta)
    if shape[0] == "rect":
        _, cx, cy, hx, hy, a = shape
        lo = np.full(s.shape, -np.inf)
        hi = np.full(s.shape, np.inf)
        px, py = s * c - cx, s * sn - cy
        for (ex, ey), h in (((math.cos(a), math.sin(a)), hx),
                            ((-math.sin(a), math.cos(a)), hy)):
            base = px * ex + py * ey
            slope = -sn * ex + c * ey
            if abs(slope) < 1e-12:
                inside = np.abs(base) <= h
                lo = np.where(inside, lo, np.inf)
                hi = np.where(inside, hi, -np.inf)
            else:
                t1, t2 = (-h - base) / slope, (h - base) / slope
                lo = np.maximum(lo, np.minimum(t1, t2))
                hi = np.minimum(hi, np.maximum(t1, t2))
        hit = lo <= hi
        pts = np.stack([np.where(hit, lo, np.nan), np.where(hit, hi, np.nan)],
                       axis=1)
    elif shape[0] == "disc":
        _, cx, cy, r = shape
        d = s - (cx * c + cy * sn)
        half_sq = r * r - d * d
        half = np.sqrt(np.where(half_sq >= 0, half_sq, np.nan))
        tc = -cx * sn + cy * c
        pts = np.stack([tc - half, tc + half], axis=1)
    else:
        verts = shape[1]
        cols = []
        for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
            d1 = x1 * c + y1 * sn - s
            d2 = x2 * c + y2 * sn - s
            t1, t2 = -x1 * sn + y1 * c, -x2 * sn + y2 * c
            crosses = (d1 > 0) != (d2 > 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                t = t1 + (t2 - t1) * d1 / (d1 - d2)
            cols.append(np.where(crosses, t, np.nan))
        pts = np.stack(cols, axis=1)
        return pts, lambda m: (np.sum(pts[:, None, :] < m[:, :, None],
                                      axis=2) % 2) == 1
    return pts, lambda m: (pts[:, :1] <= m) & (m <= pts[:, 1:])


def line_segments(shapes, theta, s):
    """Elementary segments of each line: (lengths, eps values), both (L, M).

    shapes is a list of (cross_section, eps) in file order; a later shape
    overwrites an earlier one.  Lengths are 0 past the last clip point.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    clipped = [(_clip(shape, theta, s), eps) for shape, eps in shapes]
    if not clipped:
        return np.zeros((s.size, 0)), np.ones((s.size, 0))
    pts = np.sort(np.concatenate([p for (p, _), _ in clipped], axis=1), axis=1)
    lengths = np.nan_to_num(np.diff(pts, axis=1))
    mids = 0.5 * (pts[:, 1:] + pts[:, :-1])
    values = np.ones(mids.shape)
    for (_, inside), eps in clipped:
        values = np.where(inside(mids), eps, values)
    return lengths, values


def line_integrals(shapes, theta, s):
    """Exact integral of (eps - 1) along each line."""
    lengths, values = line_segments(shapes, theta, s)
    return np.sum((values - 1.0) * lengths, axis=1)


def exact_sweep(scene_text, sino, grids):
    """Unquantized sweep of the scene, per gap, on the run's own sampling.

    sino supplies the sensor geometry; grids maps gap -> WeightGrid as
    loaded from the run.  The lattice, heights and window sums follow the
    forward model's definition.
    """
    geom = sino.geometry
    ref = grids[geom.gaps[0]]
    spp = int(round(1.0 / ref.dx))
    n_lattice = max((geom.detector_count(k) - 1) * spp + grids[k].nx
                    for k in geom.gaps)
    x_mm = ((-geom.n + ref.x_origin + np.arange(n_lattice) * ref.dx)
            * geom.pitch)
    z_heights = (geom.standoff
                 + (ref.z_origin + np.arange(ref.nz) * ref.dz) * geom.pitch)
    cell = (ref.dx * geom.pitch) * (ref.dz * geom.pitch)
    prims = parse_scene(scene_text)

    # heights with the same cross-sections share one row per angle, so their
    # weight rows are summed once up front
    groups = {}
    for iz, zh in enumerate(z_heights):
        shapes = tuple((cs, eps) for cs, eps in
                       ((cross_section(p, zh), p[2]) for p in prims)
                       if cs is not None)
        if shapes:
            groups.setdefault(shapes, []).append(iz)
    summed = {shapes: {k: grids[k].values[rows].sum(axis=0)
                       for k in geom.gaps}
              for shapes, rows in groups.items()}

    out = {k: np.zeros((geom.n_angles, geom.detector_count(k)))
           for k in geom.gaps}
    for j, theta in enumerate(sino.angles):
        for shapes, wsum in summed.items():
            row = line_integrals(list(shapes), theta, x_mm)
            for k in geom.gaps:
                win = sliding_window_view(row, grids[k].nx)[::spp]
                out[k][j] += win[:geom.detector_count(k)] @ wsum[k]
    return {k: v * cell for k, v in out.items()}


def sweep_error(outdir, scene_text):
    """max |sweep - exact| / max |exact| over gaps, angles and detectors."""
    outdir = Path(outdir)
    sino = load_sinogram(outdir / "sweep.ects")
    grids = {k: load_weight(outdir / f"weights_k{k}.ectw")
             for k in sino.geometry.gaps}
    exact = exact_sweep(scene_text, sino, grids)
    peak = max(float(np.max(np.abs(v))) for v in exact.values())
    diff = max(float(np.max(np.abs(sino.data[k] - exact[k]))) for k in exact)
    return diff / peak
