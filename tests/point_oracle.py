"""Closed point-inside tests of the four primitive kinds, as a test oracle.

The program decides membership by one rule, the parity of a primitive's
line crossings (`Primitive.contains`, `line_integrals`).  This module keeps
an independent point test per kind, closed on every face: the program's
rule is half-open on lateral faces, so the two agree everywhere except at
points exactly on a lateral face.  Unlike the program's
`eval_permittivity`, which evaluates whole planes, these functions take
arbitrary broadcast points (x, y, z).
"""

import itertools

import numpy as np

from capradon.phantom import Box, Cylinder, ExtrudedPolygon, Sphere


def _box(prim, x, y, z):
    a = np.deg2rad(prim.angle_deg)
    dx = np.asarray(x) - prim.center[0]
    dy = np.asarray(y) - prim.center[1]
    u = dx * np.cos(a) + dy * np.sin(a)
    v = -dx * np.sin(a) + dy * np.cos(a)
    hx, hy, hz = prim.half_extents
    return ((np.abs(u) <= hx) & (np.abs(v) <= hy)
            & (np.abs(np.asarray(z) - prim.center[2]) <= hz))


def _cylinder(prim, x, y, z):
    r2 = (np.asarray(x) - prim.cx) ** 2 + (np.asarray(y) - prim.cy) ** 2
    zz = np.asarray(z)
    return (r2 <= prim.radius**2) & (zz >= prim.z_lo) & (zz <= prim.z_hi)


def _sphere(prim, x, y, z):
    cx, cy, cz = prim.center
    r2 = ((np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2
          + (np.asarray(z) - cz) ** 2)
    return r2 <= prim.radius**2


def _polygon(prim, x, y, z):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    inside = np.zeros(np.broadcast(x, y).shape, dtype=bool)
    verts = prim.vertices
    # even-odd ray casting, edge by edge
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < xi)
    zz = np.asarray(z)
    return inside & (zz >= prim.z_lo) & (zz <= prim.z_hi)


_CONTAINS = {Box: _box, Cylinder: _cylinder, Sphere: _sphere,
             ExtrudedPolygon: _polygon}


def contains(prim, x, y, z):
    """Whether each point (x, y, z) mm lies in the closed primitive."""
    return _CONTAINS[type(prim)](prim, x, y, z)


def permittivity(spec, x, y, z):
    """Relative permittivity at broadcast points; last containing one wins."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    out = np.ones(np.broadcast(x, y, z).shape)
    for prim in spec.primitives:
        out = np.where(contains(prim, x, y, z), prim.contrast, out)
    return out.item() if out.ndim == 0 else out


def raster(spec, shape, spacing, origin, supersample=False):
    """Voxel values as `rasterize` defines them, from the closed tests."""
    nx, ny, nz = shape
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (3,))
    origin = np.asarray(origin, dtype=float)
    axes = [origin[i] + spacing[i] * (np.arange(n) + 0.5)
            for i, n in enumerate(shape)]
    offsets = (-0.25, 0.25) if supersample else (0.0,)
    values = np.zeros((nz, ny, nx))
    for ox, oy, oz in itertools.product(offsets, repeat=3):
        values += permittivity(spec, axes[0][None, None, :] + ox * spacing[0],
                               axes[1][None, :, None] + oy * spacing[1],
                               axes[2][:, None, None] + oz * spacing[2])
    return values / len(offsets) ** 3
