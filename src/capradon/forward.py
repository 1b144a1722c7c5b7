"""Rotating-sweep measurement simulation.

A linear sensor head of 2n+1 electrode sites rotates above the sample.
At each rotation angle, every electrode pair at a given gap integrates
the permittivity contrast along lines through the sample, weighted by
the pair's depth-sensitivity map.  The result per gap is a sinogram of
shape (n_angles, 2n+1-gap).

The line integrals are exact: each primitive's cross-section at a
weight row's height is cut by the lines in closed form (slab clipping,
a quadratic, polygon edge crossings; see phantom.line_integrals), in
the manner of Siddon's exact path (Med. Phys. 12(2), 1985).  The
transform is linear, so the phantom is split into overlap clusters
(phantom.overlap_clusters) whose cross-sections never meet, and the
sweep is the sum of the clusters' sweeps.  Within a cluster, heights
that cut it in the same cross-sections form one group, whose weight
rows are summed once.  Groups with the same members present share one
band of lattice lines per angle, around those members' footprint
discs; the lines outside it miss them and contribute exactly 0.  Such
a set is swept in blocks of groups.  A block's (group, angle) rows form
one stream, every row at its own angle and height, integrated in chunks
of at most _CHUNK_LINES lines, one line_integrals call each, so the
calls follow the lines integrated, not the number of groups.  A block
shares one buffer of a row of lattice lines per (angle, group), at most
_BLOCK_VALUES values or one group's rows, and takes one polyphase
window product for all gaps (Vaidyanathan, Multirate Systems and Filter
Banks, 1993): the line integrals are cut into cells of one pitch, and
the detector windows of every gap and group become one BLAS matrix
product per cell offset within a window.

Sensor-frame convention: the line with signed offset s at angle theta
passes through the points (s*cos(theta) - t*sin(theta),
s*sin(theta) + t*cos(theta)) as t sweeps the chord, so the backprojector
can use s = x*cos(theta) + y*sin(theta).
"""

import hashlib
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .framing import atomic_write, pack_samples, read_header, read_samples
from .phantom import (
    PhantomSpec,
    format_phantom,
    height_groups,
    line_integrals,
    overlap_clusters,
)
from .weights import pack_weight, samples_per_pitch

__all__ = [
    "SensorGeometry",
    "SinogramSet",
    "BoundingBoxError",
    "SinogramFileError",
    "simulate_sweep",
    "quantize",
    "pack_sinogram",
    "save_sinogram",
    "load_sinogram",
]

_ECTS_MAGIC = b"ECTS"
_ECTS_VERSION = 1
_ECTS_HEADER = struct.Struct("<4sH2I3dH")
_GAP_TAG = struct.Struct("<H")
# Lines per line_integrals call: a run of a block's stream of (group,
# angle) rows, each row one band.  A call holds a few arrays of one value
# per line (4096 doubles are 32 KiB) and a few of one value per crossing,
# which stay under glibc's initial 128 KiB mmap threshold up to three
# crossings per line.  So the calls reuse heap memory instead of mapping
# fresh pages.
_CHUNK_LINES = 4096
# Values of the lattice-wide line integrals of one block of height groups
# (512 KiB).  Every group fills a row of lattice lines per angle, far
# more than its band, so the groups of a block are also limited by this.
# A block holds at least one group, so its buffer is at most the larger
# of this and one group's n_angles x lattice lines, the sweep size that
# the configuration checks.
_BLOCK_VALUES = 1 << 16


class BoundingBoxError(ValueError):
    """Phantom extends beyond the scan circle."""


class SinogramFileError(ValueError):
    """Sinogram file is not a well-formed ECTS payload."""


@dataclass(frozen=True)
class SensorGeometry:
    """Rotating head with 2n+1 electrode sites at pitch d millimetres."""

    n: int = 27
    pitch: float = 2.5
    n_angles: int = 180
    standoff: float = 2.0
    gaps: tuple = (1, 2, 3, 4)
    quant_delta: float = 0.0

    def __post_init__(self):
        gaps = tuple(sorted({int(k) for k in self.gaps}))
        object.__setattr__(self, "gaps", gaps)
        if self.n < 4:
            raise ValueError("n must be at least 4")
        if self.n_angles < 1:
            raise ValueError("n_angles must be at least 1")
        if not (np.isfinite(self.pitch) and self.pitch > 0):
            raise ValueError("pitch must be positive and finite")
        if not (np.isfinite(self.standoff) and self.standoff >= 0):
            raise ValueError("standoff must be nonnegative and finite")
        if not gaps or gaps[0] < 1 or gaps[-1] > 4:
            raise ValueError("gaps must be a nonempty subset of {1, 2, 3, 4}")
        if not (np.isfinite(self.quant_delta) and self.quant_delta >= 0):
            raise ValueError("quant_delta must be nonnegative and finite")

    @property
    def electrode_count(self):
        return 2 * self.n + 1

    @property
    def scan_radius(self):
        return self.n * self.pitch

    def detector_count(self, gap):
        return 2 * self.n + 1 - gap

    def detector_offsets(self, gap):
        """Left-electrode positions a_i (mm) for pairs at the given gap."""
        return (np.arange(self.detector_count(gap)) - self.n) * self.pitch

    def angles(self):
        return np.arange(self.n_angles) * (np.pi / self.n_angles)


@dataclass
class SinogramSet:
    """Per-gap sinograms plus the geometry and provenance that made them."""

    geometry: SensorGeometry
    data: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = {int(k): np.asarray(v, dtype=float)
                     for k, v in self.data.items()}
        if set(self.data) != set(self.geometry.gaps):
            raise ValueError("data keys must match geometry.gaps")
        for k, arr in self.data.items():
            want = (self.geometry.n_angles, self.geometry.detector_count(k))
            if arr.shape != want:
                raise ValueError(f"gap {k} data must have shape {want}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"gap {k} data contains non-finite values")
        meta = {}
        for k, v in self.metadata.items():
            k, v = str(k), str(v)
            if "=" in k or "\n" in k or "\n" in v:
                raise ValueError("metadata keys/values must be single-line, "
                                 "'=' not allowed in keys")
            meta[k] = v
        self.metadata = meta

    @property
    def angles(self):
        return self.geometry.angles()


def _xy_corners(bounds):
    xmin, xmax, ymin, ymax = bounds[:4]
    return ((xmin, ymin), (xmin, ymax), (xmax, ymin), (xmax, ymax))


def _check_scan_circle(bounds, radius):
    # each primitive's corners are finite distances from the z axis, but a
    # corner of their union can lie past the float range: it is refused
    with np.errstate(over="ignore"):
        reach = max(np.hypot(x, y) for x, y in _xy_corners(bounds))
    if reach > radius + 1e-9:
        raise BoundingBoxError(
            f"phantom reaches {reach:.3f} mm, beyond the scan radius "
            f"{radius:.3f} mm")


def _normalize_weights(weights, geometry):
    grids = {int(k): g for k, g in weights.items()}
    if set(grids) != set(geometry.gaps):
        raise ValueError("weight gaps must match geometry.gaps")
    for k, g in grids.items():
        if g.gap != k:
            raise ValueError(f"weight grid keyed {k} reports gap {g.gap}")
        if np.max(np.abs(g.values)) != 1.0:
            raise ValueError(f"gap {k} weight grid is not conditioned")
    ref = next(iter(grids.values()))
    for g in grids.values():
        same = (g.dx == ref.dx and g.dz == ref.dz and g.nz == ref.nz
                and g.x_origin == ref.x_origin and g.z_origin == ref.z_origin)
        if not same:
            raise ValueError("weight grids must share dx, dz, nz and origins")
    return grids


def _line_bands(cluster, angles, x_mm):
    """First lattice line of each angle's band, and the common band width.

    The band covers every line within the members' footprint discs, with
    one line of margin on each side against rounding; it has the same
    width at every angle and is moved inside the lattice where it would
    run past either end.
    """
    discs = np.array([p.footprint_disc() for p in cluster.primitives])
    centre = (np.cos(angles)[:, None] * discs[:, 0]
              + np.sin(angles)[:, None] * discs[:, 1])
    step = x_mm[1] - x_mm[0]
    lo = np.floor((np.min(centre - discs[:, 2], axis=1) - x_mm[0]) / step)
    hi = np.ceil((np.max(centre + discs[:, 2], axis=1) - x_mm[0]) / step)
    width = min(int(np.max(hi - lo)) + 1, x_mm.size)
    return np.clip(lo.astype(int), 0, x_mm.size - width), width


def simulate_sweep(spec, weights, geometry):
    """Simulate a full rotation sweep over every gap in the geometry.

    weights maps gap -> conditioned WeightGrid.  All grids must share
    their sampling so detector windows land on a common lattice; the
    lattice step must divide the pitch exactly.
    """
    grids = _normalize_weights(weights, geometry)
    ref = next(iter(grids.values()))
    spp = samples_per_pitch(ref.dx)
    bounds = spec.bounds()
    if bounds is not None:
        _check_scan_circle(bounds, geometry.scan_radius)

    meta = {"phantom_sha256":
            hashlib.sha256(format_phantom(spec).encode("utf-8")).hexdigest()}
    for k in geometry.gaps:
        meta[f"weight_sha256_k{k}"] = hashlib.sha256(
            pack_weight(grids[k])).hexdigest()

    p = geometry.n_angles
    angles = geometry.angles()
    n_lattice = max((geometry.detector_count(k) - 1) * spp + grids[k].nx
                    for k in geometry.gaps)
    x_mm = ((-geometry.n + ref.x_origin + np.arange(n_lattice) * ref.dx)
            * geometry.pitch)
    # heights whose weight row is zero in every gap (below z_cut) add 0
    live = np.flatnonzero(np.any([g.values.any(axis=1)
                                  for g in grids.values()], axis=0))
    z_live = (geometry.standoff
              + (ref.z_origin + live * ref.dz) * geometry.pitch)
    # Polyphase window product: line j = c*spp + r of a window sits in
    # cell c (spp lines, one pitch) at phase r.  Each (angle, group) row of
    # line integrals is padded to row_cells cells, and detector d's window
    # sum over all gaps is sum_c cells[d + c] @ wm[c], where wm[c] holds
    # phase r of every group's summed weight row of every gap at window
    # line c*spp + r.  With the angles' rows stacked and the groups side
    # by side, each c is one BLAS product; d + c stays below row_cells, so
    # no sum reaches the next angle's row.
    win_cells = -(-max(g.nx for g in grids.values()) // spp)
    row_cells = geometry.detector_count(geometry.gaps[0]) + win_cells
    acc = np.zeros((p * row_cells, len(geometry.gaps)))
    for cluster in overlap_clusters(spec):
        # Heights whose footprint tokens agree cut the cluster in the same
        # cross-sections, so they share one row of line integrals per
        # angle and their weight rows are summed once.  Groups with the
        # same members present share one band of lattice lines.
        parts = {}
        for tokens, rows in height_groups(cluster.primitives,
                                          z_live).items():
            present = tuple(tok is not None for tok in tokens)
            parts.setdefault(present, []).append(rows)
        for present, groups in parts.items():
            members = PhantomSpec(prim for prim, on
                                  in zip(cluster.primitives, present) if on)
            first, width = _line_bands(members, angles, x_mm)
            per_chunk = max(1, _CHUNK_LINES // width)
            n_grp = max(1, min(per_chunk // p, len(groups),
                               _BLOCK_VALUES // (p * row_cells * spp)))
            # proj[angle, line, group], zero outside the band; every block
            # of n_grp groups rewrites all of the band's entries
            proj = np.zeros((p, row_cells * spp, n_grp))
            for g0 in range(0, len(groups), n_grp):
                block = groups[g0:g0 + n_grp]
                z = z_live[[rows[0] for rows in block]]
                if len(block) < n_grp:
                    proj = np.zeros((p, row_cells * spp, len(block)))
                # the block's (group, angle) rows, per_chunk to a call
                g, a = np.divmod(np.arange(len(block) * p)[:, None], p)
                for r0 in range(0, len(g), per_chunk):
                    gr, ar = g[r0:r0 + per_chunk], a[r0:r0 + per_chunk]
                    lines = first[ar] + np.arange(width)
                    proj[ar, lines, gr] = line_integrals(
                        members, angles[ar], x_mm[lines], z[gr])
                wm = _window_weights([grids[k] for k in geometry.gaps],
                                     [live[rows] for rows in block],
                                     win_cells, spp)
                cells = proj.reshape(p * row_cells, spp * len(block))
                for c in range(win_cells):
                    acc[:len(acc) - c] += cells[c:] @ wm[c]
    area = (ref.dx * geometry.pitch) * (ref.dz * geometry.pitch)
    acc = acc.reshape(p, row_cells, -1) * area
    data = {k: acc[:, :geometry.detector_count(k), i]
            for i, k in enumerate(geometry.gaps)}
    return SinogramSet(geometry=geometry, data=data, metadata=meta)


def _window_weights(grids, block, win_cells, spp):
    """Summed weight rows of a block of groups, by window cell.

    grids are the weight grids in gap order and block holds each group's
    weight rows.  Entry [c, r*len(block) + g, i] is group g's summed row
    of gap i at window line c*spp + r, zero past the gap's window.
    """
    rows = np.concatenate(block)
    starts = np.cumsum([0] + [len(r) for r in block[:-1]])
    wm = np.zeros((len(block), win_cells * spp, len(grids)))
    for i, g in enumerate(grids):
        wm[:, :g.nx, i] = np.add.reduceat(g.values[rows], starts, axis=0)
    wm = wm.reshape(len(block), win_cells, spp, len(grids))
    return wm.transpose(1, 2, 0, 3).reshape(win_cells, -1, len(grids))


def quantize(sino, delta=None):
    """Snap every sample to the nearest multiple of delta (ties away from 0).

    delta=None picks the default step: the global peak magnitude over all
    gaps divided by 140.  delta=0 leaves the data untouched.  The applied
    step is recorded on the returned geometry.
    """
    if delta is None:
        peak = max(np.max(np.abs(a)) for a in sino.data.values())
        delta = peak / 140.0
    delta = float(delta)
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if delta == 0.0:
        data = {k: a.copy() for k, a in sino.data.items()}
    else:
        data = {k: np.copysign(np.floor(np.abs(a) / delta + 0.5), a) * delta
                for k, a in sino.data.items()}
    geometry = replace(sino.geometry, quant_delta=delta)
    return SinogramSet(geometry=geometry, data=data,
                       metadata=dict(sino.metadata))


def pack_sinogram(sino):
    geom = sino.geometry
    parts = [_ECTS_HEADER.pack(_ECTS_MAGIC, _ECTS_VERSION, geom.n,
                               geom.n_angles, geom.pitch, geom.standoff,
                               geom.quant_delta, len(geom.gaps))]
    for k in geom.gaps:
        parts.append(_GAP_TAG.pack(k))
        parts.append(pack_samples(sino.data[k], f"gap {k} samples"))
    tail = "".join(f"{k}={v}\n" for k, v in sorted(sino.metadata.items()))
    parts.append(tail.encode("utf-8"))
    return b"".join(parts)


def save_sinogram(sino, path):
    with atomic_write(path) as fh:
        fh.write(pack_sinogram(sino))


def load_sinogram(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    n, p, pitch, standoff, quant_delta, n_gaps = read_header(
        blob, _ECTS_HEADER, _ECTS_MAGIC, _ECTS_VERSION, SinogramFileError)
    offset = _ECTS_HEADER.size
    data = {}
    for _ in range(n_gaps):
        if offset + _GAP_TAG.size > len(blob):
            raise SinogramFileError("truncated gap table")
        (k,) = _GAP_TAG.unpack_from(blob, offset)
        offset += _GAP_TAG.size
        if k in data:
            raise SinogramFileError(f"duplicate gap {k}")
        if not 1 <= k <= 2 * n:
            raise SinogramFileError(f"gap {k} outside 1..{2 * n}")
        data[k], offset = read_samples(blob, offset, (p, 2 * n + 1 - k),
                                       SinogramFileError,
                                       what=f"gap {k} payload", tail=True)
    metadata = {}
    try:
        tail = blob[offset:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SinogramFileError(f"bad metadata block: {exc}") from None
    for line in tail.splitlines():
        if not line:
            continue
        if "=" not in line:
            raise SinogramFileError(f"metadata line without '=': {line!r}")
        key, value = line.split("=", 1)
        metadata[key] = value
    try:
        geometry = SensorGeometry(n=n, pitch=pitch, n_angles=p,
                                  standoff=standoff,
                                  gaps=tuple(sorted(data)),
                                  quant_delta=quant_delta)
    except ValueError as exc:
        raise SinogramFileError(f"bad geometry in header: {exc}") from None
    try:
        return SinogramSet(geometry=geometry, data=data, metadata=metadata)
    except ValueError as exc:
        raise SinogramFileError(f"bad payload: {exc}") from None
