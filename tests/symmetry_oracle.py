"""Rigid motions of a phantom spec, an oracle for symmetry checks.

Each function returns a new PhantomSpec with every primitive moved, kind
by kind: a rotation about the z axis, a translation, and the reflection
through x = 0.  The program has no use for them; tests compare a moved
scene's sweep or line integrals with the original's.
"""

from dataclasses import replace

import numpy as np

from capradon.phantom import (
    Box,
    Cylinder,
    ExtrudedPolygon,
    PhantomSpec,
    Sphere,
)


def rotated_z(spec, angle):
    """Spec rotated by `angle` radians about the z axis through the origin."""
    c, s = np.cos(angle), np.sin(angle)

    def rot(px, py):
        return (c * px - s * py, s * px + c * py)

    prims = []
    for p in spec.primitives:
        if isinstance(p, Box):
            nx, ny = rot(p.center[0], p.center[1])
            prims.append(replace(p, center=(nx, ny, p.center[2]),
                                 angle_deg=p.angle_deg + np.rad2deg(angle)))
        elif isinstance(p, Cylinder):
            nx, ny = rot(p.cx, p.cy)
            prims.append(replace(p, cx=nx, cy=ny))
        elif isinstance(p, Sphere):
            nx, ny = rot(p.center[0], p.center[1])
            prims.append(replace(p, center=(nx, ny, p.center[2])))
        elif isinstance(p, ExtrudedPolygon):
            prims.append(replace(p, vertices=tuple(rot(a, b)
                                                   for a, b in p.vertices)))
        else:
            raise TypeError(f"unknown primitive {type(p).__name__}")
    return PhantomSpec(tuple(prims))


def translated(spec, dx, dy, dz=0.0):
    """Spec translated by (dx, dy, dz) mm."""
    prims = []
    for p in spec.primitives:
        if isinstance(p, Box):
            cx, cy, cz = p.center
            prims.append(replace(p, center=(cx + dx, cy + dy, cz + dz)))
        elif isinstance(p, Cylinder):
            prims.append(replace(p, cx=p.cx + dx, cy=p.cy + dy,
                                 z_lo=p.z_lo + dz, z_hi=p.z_hi + dz))
        elif isinstance(p, Sphere):
            cx, cy, cz = p.center
            prims.append(replace(p, center=(cx + dx, cy + dy, cz + dz)))
        elif isinstance(p, ExtrudedPolygon):
            prims.append(replace(p,
                                 vertices=tuple((a + dx, b + dy)
                                                for a, b in p.vertices),
                                 z_lo=p.z_lo + dz, z_hi=p.z_hi + dz))
        else:
            raise TypeError(f"unknown primitive {type(p).__name__}")
    return PhantomSpec(tuple(prims))


def mirrored_x(spec):
    """Spec reflected through the plane x = 0."""
    prims = []
    for p in spec.primitives:
        if isinstance(p, Box):
            cx, cy, cz = p.center
            prims.append(replace(p, center=(-cx, cy, cz),
                                 angle_deg=-p.angle_deg))
        elif isinstance(p, Cylinder):
            prims.append(replace(p, cx=-p.cx))
        elif isinstance(p, Sphere):
            cx, cy, cz = p.center
            prims.append(replace(p, center=(-cx, cy, cz)))
        elif isinstance(p, ExtrudedPolygon):
            prims.append(replace(p, vertices=tuple((-a, b)
                                                   for a, b in p.vertices)))
        else:
            raise TypeError(f"unknown primitive {type(p).__name__}")
    return PhantomSpec(tuple(prims))
