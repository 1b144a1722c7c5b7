"""Sensitivity weights for electrode pairs of a coplanar array.

The weight for gap k is the negated dot product of the electrode potential
gradient with a copy of itself shifted k pitches along the array; it scores
how much a permittivity perturbation at (x, z) changes the k-gap
measurement.  Only the gradient is evaluated (greenfn.eval_potential),
never the potential itself.  Grids are sampled in pitch units on a window
around the pair, truncated below a cut height and rescaled to unit maximum
before use.
"""

import struct
from dataclasses import dataclass, replace

import numpy as np

from .framing import atomic_write, pack_samples, read_header, read_samples
from .greenfn import eval_potential

__all__ = [
    "WeightGrid",
    "WeightFileError",
    "DegenerateWeightError",
    "samples_per_pitch",
    "synthesize_weight",
    "condition_weight",
    "pack_weight",
    "save_weight",
    "load_weight",
]

_MAGIC = b"ECTW"
_VERSION = 1
_HEADER = struct.Struct("<4sH3I6d")


class WeightFileError(ValueError):
    """Weight file is not a well-formed ECTW payload."""


class DegenerateWeightError(ValueError):
    """Weight grid has no positive samples left to normalize."""


@dataclass(frozen=True)
class WeightGrid:
    """Sampled sensitivity weight for one electrode gap.

    values[iz, ix] sits at x = x_origin + ix*dx, z = z_origin + iz*dz,
    all in pitch units.  scale records the normalization constant divided
    out by conditioning (1.0 for a raw grid); z_cut the truncation height.
    """

    gap: int
    dx: float
    dz: float
    x_origin: float
    z_origin: float
    values: np.ndarray
    scale: float = 1.0
    z_cut: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-d (nz, nx) array")
        if self.gap < 1:
            raise ValueError(f"gap must be >= 1, got {self.gap}")
        if not (np.isfinite(self.dx) and np.isfinite(self.dz)
                and self.dx > 0 and self.dz > 0):
            raise ValueError("dx and dz must be positive and finite")
        if not np.all(np.isfinite([self.x_origin, self.z_origin,
                                   self.scale, self.z_cut])):
            raise ValueError("x_origin, z_origin, scale and z_cut must be "
                             "finite")

    @property
    def nx(self):
        return self.values.shape[1]

    @property
    def nz(self):
        return self.values.shape[0]

    def x_coords(self):
        return self.x_origin + self.dx * np.arange(self.nx)

    def z_coords(self):
        return self.z_origin + self.dz * np.arange(self.nz)


def samples_per_pitch(dx):
    """Lattice steps per pitch, 1/dx; raises ValueError unless an integer."""
    if not np.isfinite(1.0 / dx):
        raise ValueError("1/dx overflows a float")
    spp = int(round(1.0 / dx))
    if spp < 1 or abs(spp * dx - 1.0) > 1e-9:
        raise ValueError("1/dx must be an integer number of lattice steps")
    return spp


def synthesize_weight(coeffs, gaps, x_pad=4.0, z_max=8.0, dx=0.05, dz=0.05):
    """Sample the raw pair weight of every gap in `gaps`; returns {gap: grid}.

    Gap k's window spans x in [-x_pad, k + x_pad] and z in (0, z_max], so it
    is symmetric about the pair midpoint x = k/2.  Transmitting electrode
    sits at x = 0, receiving one at x = k.  The potential gradient alone is
    evaluated once, on the tensor grid x in [-x_pad - kmax, kmax + x_pad]
    by z; each gap's weight
    is the product of two column slices of it, k pitches apart, which needs
    1/dx to be an integer.  x is defined by lattice index, so a gap's grid
    does not depend on which other gaps are requested.
    """
    gaps = tuple(gaps)
    if not gaps:
        raise ValueError("at least one gap required")
    if min(gaps) < 1:
        raise ValueError(f"gap must be >= 1, got {min(gaps)}")
    if x_pad <= 0 or z_max <= dz or dx <= 0 or dz <= 0:
        raise ValueError("window parameters must be positive")
    spp = samples_per_pitch(dx)
    kmax = max(gaps)
    x = -x_pad + dx * np.arange(-kmax * spp,
                                int(round((kmax + 2 * x_pad) / dx)) + 1)
    z = dz * (1.0 + np.arange(int(round(z_max / dz))))
    g1, g2 = eval_potential(coeffs, x[None, :], z[:, None])
    grids = {}
    for k in gaps:
        nx = int(round((k + 2 * x_pad) / dx)) + 1
        a = slice(kmax * spp, kmax * spp + nx)
        b = slice((kmax - k) * spp, (kmax - k) * spp + nx)
        grids[k] = WeightGrid(
            gap=k, dx=dx, dz=dz, x_origin=-x_pad, z_origin=dz,
            values=-(g1[:, a] * g1[:, b] + g2[:, a] * g2[:, b]))
    return grids


def condition_weight(grid, z_cut=1.0):
    """Zero rows below z_cut and rescale so the peak magnitude is 1.

    The recording constant c_k is the divided-out peak |value| (kept
    positive; signs are preserved, since for the closest gap the surviving
    sensitivity above the cut is entirely negative).  c_k accumulates into
    `scale`, so conditioning an already conditioned grid is a no-op.
    Raises DegenerateWeightError when truncation leaves an all-zero grid.
    """
    values = grid.values.copy()
    values[grid.z_coords() < z_cut, :] = 0.0
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        raise DegenerateWeightError("grid is all zero above the cut height")
    return replace(grid, values=values / peak, scale=grid.scale * peak,
                   z_cut=z_cut)


def pack_weight(grid):
    """Serialize a conditioned grid to ECTW bytes (little-endian, f32 payload)."""
    if float(np.max(np.abs(grid.values))) != 1.0:
        raise ValueError("only conditioned grids (peak magnitude 1) are saved")
    header = _HEADER.pack(_MAGIC, _VERSION, grid.gap, grid.nx, grid.nz,
                          grid.dx, grid.dz, grid.x_origin, grid.z_origin,
                          grid.scale, grid.z_cut)
    return header + pack_samples(grid.values)


def save_weight(grid, path):
    """Write the grid to `path` in ECTW format."""
    with atomic_write(path) as fh:
        fh.write(pack_weight(grid))


def load_weight(path):
    """Read an ECTW file back into a WeightGrid (values promoted to f64)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    gap, nx, nz, dx, dz, x0, z0, scale, z_cut = read_header(
        blob, _HEADER, _MAGIC, _VERSION, WeightFileError)
    values, _ = read_samples(blob, _HEADER.size, (nz, nx), WeightFileError)
    try:
        return WeightGrid(gap=gap, dx=dx, dz=dz, x_origin=x0, z_origin=z0,
                          values=values, scale=scale, z_cut=z_cut)
    except ValueError as exc:
        raise WeightFileError(f"bad header: {exc}") from None
