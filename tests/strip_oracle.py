"""Closed-form strip-electrode pair weights, an oracle for `weights`.

A strip electrode a <= x <= b held at potential 1 in an otherwise grounded
plane has, in the half space z > 0, the Poisson-kernel potential

    phi(x, z) = (atan((b - x) / z) - atan((a - x) / z)) / pi

(pitch units; the penetration behaviour of such coplanar pairs is discussed
in Mamishev et al., "Interdigital sensors and transducers", Proc. IEEE
92(5), 2004).  The pair weight is formed as in `weights.synthesize_weight`:
the negated dot product of the potential gradient with its copy shifted by
the gap, sampled on the window that `synthesize_weight` gives that gap.
Here the strip gradient is evaluated at x and at x - gap directly; the
program slices both from one gradient evaluation shared by all gaps.
"""

import numpy as np

from capradon.weights import WeightGrid


def strip_gradient(x, z, width=0.5):
    """Gradient (dphi/dx, dphi/dz) of a strip of `width` centred on x = 0."""
    da = -0.5 * width - x
    db = 0.5 * width - x
    ra = z * z + da * da
    rb = z * z + db * db
    return (z / ra - z / rb) / np.pi, (da / ra - db / rb) / np.pi


def strip_weight(gap, width=0.5, x_pad=4.0, z_max=8.0, dx=0.05, dz=0.05):
    """Raw strip-pair weight for `gap` on its `synthesize_weight` window."""
    nx = int(round((gap + 2 * x_pad) / dx)) + 1
    nz = int(round(z_max / dz))
    x = (-x_pad + dx * np.arange(nx))[None, :]
    z = (dz * (1.0 + np.arange(nz)))[:, None]
    g1a, g2a = strip_gradient(x, z, width)
    g1b, g2b = strip_gradient(x - gap, z, width)
    return WeightGrid(gap=gap, dx=dx, dz=dz, x_origin=-x_pad, z_origin=dz,
                      values=-(g1a * g1b + g2a * g2b))
