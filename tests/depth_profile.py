"""Per-row absolute mass of a weight grid and its barycentric height.

A diagnostic of the depth tests; the pipeline does not use it.
"""

from typing import NamedTuple

import numpy as np

from capradon.weights import DegenerateWeightError


class DepthProfile(NamedTuple):
    z: np.ndarray          # row heights, pitch units
    mass: np.ndarray       # sum_x |w| * dx per row
    barycenter: float      # mass-weighted mean height


def depth_profile(grid):
    """Per-row absolute mass and its barycentric height.

    mass(z) = sum_x |w(x, z)| * dx.  The barycenter is that of the absolute
    mass, so it mixes the positive sensing lobe with the inverted (negative)
    tail and is not ordered in the gap: with the default synthesis and
    z_cut = 1 it reads 1.9389, 1.7637, 1.6577 for gaps 1-3, because the cut
    removes all of gap 1's lobe.  The depth that does grow with the gap is
    the lobe bottom, the deepest height at which the weight is positive on
    the pair axis x = gap/2.
    """
    z = grid.z_coords()
    mass = np.sum(np.abs(grid.values), axis=1) * grid.dx
    total = float(np.sum(mass))
    if total <= 0.0:
        raise DegenerateWeightError("grid has zero total mass")
    return DepthProfile(z=z, mass=mass, barycenter=float(np.sum(z * mass) / total))
