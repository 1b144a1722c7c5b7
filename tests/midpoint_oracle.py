"""Midpoint-rule line integrals through a phantom, as a test reference.

The forward model integrates each line exactly from closed-form chord
crossings.  This oracle samples the closed point tests of point_oracle
instead, so the convergence tests can show the two agree as the step
shrinks.
"""

import numpy as np

from capradon.forward import BoundingBoxError
from point_oracle import permittivity


def project_slice(spec, theta, s, z, step, scan_radius=None):
    """Line integral of (permittivity - 1) at height z.

    The line sits at signed offset s (mm) from the rotation axis at angle
    theta; integration uses composite midpoint quadrature with the given
    step bound over the chord of the phantom's bounding circle.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    bounds = spec.bounds()
    if bounds is None:
        return 0.0
    xmin, xmax, ymin, ymax = bounds[:4]
    if scan_radius is not None:
        reach = max(np.hypot(x, y) for x in (xmin, xmax) for y in (ymin, ymax))
        if reach > scan_radius + 1e-9:
            raise BoundingBoxError(f"phantom reaches {reach:.3f} mm")
    cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
    radius = 0.5 * np.hypot(xmax - xmin, ymax - ymin)
    c, sn = np.cos(theta), np.sin(theta)
    half_sq = radius**2 - (s - (cx * c + cy * sn)) ** 2
    if half_sq <= 0:
        return 0.0
    half = np.sqrt(half_sq)
    tc = -cx * sn + cy * c
    m = max(1, int(np.ceil(2 * half / step)))
    dt = 2 * half / m
    t = (tc - half) + (np.arange(m) + 0.5) * dt
    vals = permittivity(spec, s * c - t * sn, s * sn + t * c, z)
    return float(np.sum(vals - 1.0) * dt)
