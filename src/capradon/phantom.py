"""Analytic 3D relative-permittivity phantoms and voxel rasterization.

A phantom is an ordered list of primitives (boxes, z-axis cylinders,
spheres, extruded polygons) over a background of 1; where primitives
overlap, the last one listed wins.  All coordinates are millimetres.
Analytic evaluation is exact at arbitrary points and along lines; voxel
grids exist for file interchange.

Lines follow the sensor-frame convention of the forward model: the line
with signed offset s at angle theta is (s*cos(theta) - t*sin(theta),
s*sin(theta) + t*cos(theta)).  Each primitive's `crossings` gives, in
closed form, the values of t where such lines cross its cross-section at
a height, NaN where there is none; a point of a line is inside the
primitive when an odd number of the primitive's crossings lie below it.
This parity rule is the one inside rule: `contains` applies it to the
lines at theta 0, whose points are (s, t) = (x, y), so it is half-open on
the lateral faces that a line crosses; each kind's `covers` is its z
test, closed on the z faces.  A line that lies exactly on a box face
(within 1e-12 of parallel to it) counts as inside the box over its whole
chord, so the rule is closed on the faces that a line runs along.  A box
at a multiple of 90 degrees takes exact cosines and sines, so its faces
are exactly parallel to the lines at theta 0 and pi/2.
`crossings` and `line_integrals` broadcast theta, s and z against each
other, so one call can take a block of rows (theta[:, None] and
z[:, None]) with a row of offsets each, every row at its own angle and
height.

Each primitive's `footprint_token` takes a height or an array of
heights; heights with equal tokens cut it in the same cross-section, so
`height_groups` takes one call per primitive.  Its `footprint_disc` is
a disc that holds its xy cross-section at every height.  Primitives
whose z ranges overlap and whose discs meet are linked;
`overlap_clusters` returns the connected components, between which
"last listed wins" never applies.
"""

import itertools
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .framing import read_header, read_samples

__all__ = [
    "Primitive",
    "Box",
    "Cylinder",
    "Sphere",
    "ExtrudedPolygon",
    "PhantomSpec",
    "VoxelGrid",
    "PhantomParseError",
    "GridCoverageError",
    "VoxelFileError",
    "parse_phantom",
    "format_phantom",
    "height_groups",
    "eval_permittivity",
    "line_integrals",
    "overlap_clusters",
    "rasterize",
    "save_voxels",
    "load_voxels",
]

_ECTV_MAGIC = b"ECTV"
_ECTV_HEADER = struct.Struct("<4s3I6d")


class PhantomParseError(ValueError):
    """Malformed phantom text; message carries the offending line number."""


class GridCoverageError(ValueError):
    """Raster grid does not cover the phantom bounding box."""


class VoxelFileError(ValueError):
    """Voxel file is not a well-formed ECTV payload."""


def _check_contrast(contrast):
    if not contrast > 0:
        raise ValueError(f"contrast must be positive, got {contrast}")


def _check_radius(radius):
    if radius <= 0:
        raise ValueError("radius must be positive")
    # the sections square the radius
    if not math.isfinite(radius * radius):
        raise ValueError(f"radius {radius} is too large to square")


def _line_shape(theta, s, z):
    return np.broadcast(np.asarray(theta), np.atleast_1d(s),
                        np.asarray(z)).shape


def _disc_crossings(cx, cy, radius, theta, s):
    """Entry and exit t of each line through a disc: a quadratic in t."""
    c, sn = np.cos(theta), np.sin(theta)
    d = np.atleast_1d(s) - (cx * c + cy * sn)
    half_sq = radius * radius - d * d
    half = np.sqrt(np.where(half_sq >= 0, half_sq, np.nan))
    tc = -cx * sn + cy * c
    return np.stack([tc - half, tc + half], axis=-1)


def _inside(cuts, t):
    """Crossing parity: whether an odd number of cuts lie below each t.

    cuts holds the crossings along its last axis; NaN cuts count as none.
    """
    inside = cuts[..., 0] < t
    for i in range(1, cuts.shape[-1]):
        inside = inside != (cuts[..., i] < t)
    return inside


def _cos_sin(angle_deg):
    """cos and sin of an angle in degrees, exact at multiples of 90."""
    quarter, rest = divmod(angle_deg, 90.0)
    if rest == 0:
        return ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0),
                (0.0, -1.0))[int(quarter) % 4]
    a = np.deg2rad(angle_deg)
    return np.cos(a), np.sin(a)


def _slab(base, slope, h):
    """Entry and exit t of each line base + t*slope through [-h, h]."""
    along = np.abs(slope) < 1e-12
    any_along = along.any()
    if any_along:
        slope = np.where(along, 1.0, slope)
    t1, t2 = (-h - base) / slope, (h - base) / slope
    near, far = np.minimum(t1, t2), np.maximum(t1, t2)
    if any_along:
        # a line along the slab lies in all of it or in none of it
        near = np.where(along, np.where(np.abs(base) <= h, -np.inf, np.inf),
                        near)
        far = np.where(along, np.inf, far)
    return near, far


class Primitive:
    """Base of the four kinds, which differ only in two methods.

    `covers(z)` is a kind's z test, closed on its z faces, for a height or
    an array of them, and `_section(theta, s, z)` gives the t where lines
    cross its lateral boundary at heights it covers; `crossings`,
    `contains` and `footprint_token` follow from the two.
    """

    # whether `crossings` gives each line one (entry, exit) pair with
    # entry <= exit, or two NaN: true of the convex kinds
    sorted_pair = False

    def crossings(self, theta, s, z):
        """The t where each line crosses the boundary, (*lines, cuts).

        theta, s and z broadcast to the lines; NaN marks a cut that a line
        does not make, and all of a line's cuts are NaN at a height the
        primitive does not cover.  Where every line is covered, the
        result may be a read-only broadcast view.
        """
        s = np.atleast_1d(s)
        z = np.asarray(z, dtype=float)
        covered = np.asarray(self.covers(z))[..., None]
        section = self._section(theta, s, z)
        if not covered.all():
            return np.where(covered, section, np.nan)
        shape = np.broadcast_shapes(covered.shape, section.shape)
        if shape == section.shape:
            return section
        return np.broadcast_to(section, shape)

    def contains(self, x, y, z):
        """Whether each point (x, y) of a plane at height z lies inside.

        The points over x are the line at theta 0 and offset x, with t = y,
        so this is the parity rule of `line_integrals`.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        inside = _inside(self.crossings(0.0, x, z), y)
        return inside.reshape(np.broadcast(x, y).shape)

    def footprint_token(self, z):
        # the xy cross-section is the same at every covered height
        return np.where(self.covers(z), True, None)[()]


@dataclass(frozen=True)
class Box(Primitive):
    """Axis-extruded box, rotated about the z axis through its center."""

    sorted_pair = True

    center: tuple
    half_extents: tuple
    angle_deg: float
    contrast: float

    def __post_init__(self):
        _check_contrast(self.contrast)
        if min(self.half_extents) <= 0:
            raise ValueError("half extents must be positive")

    def covers(self, z):
        return abs(z - self.center[2]) <= self.half_extents[2]

    def _section(self, theta, s, z):
        """Entry and exit t per line, (*lines, 2), by slab clipping."""
        hx, hy = self.half_extents[:2]
        ca, sa = _cos_sin(self.angle_deg)
        c, sn = np.cos(theta), np.sin(theta)
        px = s * c - self.center[0]
        py = s * sn - self.center[1]
        (lo_x, hi_x), (lo_y, hi_y) = (
            _slab(px * ex + py * ey, -sn * ex + c * ey, h)
            for (ex, ey), h in (((ca, sa), hx), ((-sa, ca), hy)))
        lo, hi = np.maximum(lo_x, lo_y), np.minimum(hi_x, hi_y)
        hit = lo <= hi
        return np.stack([np.where(hit, lo, np.nan),
                         np.where(hit, hi, np.nan)], axis=-1)

    def footprint_disc(self):
        return (self.center[0], self.center[1],
                math.hypot(self.half_extents[0], self.half_extents[1]))

    def bounds(self):
        hx, hy, hz = self.half_extents
        ca, sa = _cos_sin(self.angle_deg)
        # rotated footprint corner reach
        rx = abs(hx * ca) + abs(hy * sa)
        ry = abs(hx * sa) + abs(hy * ca)
        cx, cy, cz = self.center
        return (cx - rx, cx + rx, cy - ry, cy + ry, cz - hz, cz + hz)


@dataclass(frozen=True)
class Cylinder(Primitive):
    """Circular cylinder with axis parallel to z."""

    sorted_pair = True

    cx: float
    cy: float
    z_lo: float
    z_hi: float
    radius: float
    contrast: float

    def __post_init__(self):
        _check_contrast(self.contrast)
        _check_radius(self.radius)
        if self.z_hi <= self.z_lo:
            raise ValueError("z_hi must exceed z_lo")

    def covers(self, z):
        return (self.z_lo <= z) & (z <= self.z_hi)

    def _section(self, theta, s, z):
        """Entry and exit t per line, (*lines, 2)."""
        return _disc_crossings(self.cx, self.cy, self.radius, theta, s)

    def footprint_disc(self):
        return (self.cx, self.cy, self.radius)

    def bounds(self):
        r = self.radius
        return (self.cx - r, self.cx + r, self.cy - r, self.cy + r,
                self.z_lo, self.z_hi)


@dataclass(frozen=True)
class Sphere(Primitive):
    sorted_pair = True

    center: tuple
    radius: float
    contrast: float

    def __post_init__(self):
        _check_contrast(self.contrast)
        _check_radius(self.radius)

    def covers(self, z):
        return abs(z - self.center[2]) <= self.radius

    def _section(self, theta, s, z):
        """Entry and exit t per line through the slice at z, (*lines, 2)."""
        cx, cy, cz = self.center
        # an uncovered height gets radius 0, which crossings masks
        d = np.minimum(np.abs(z - cz), self.radius)
        r2 = np.maximum(self.radius**2 - d * d, 0.0)
        return _disc_crossings(cx, cy, np.sqrt(r2), theta, s)

    def footprint_token(self, z):
        # the xy cross-section changes with height, so the token carries z
        return np.where(self.covers(z), z, None)[()]

    def footprint_disc(self):
        return (self.center[0], self.center[1], self.radius)

    def bounds(self):
        cx, cy, cz = self.center
        r = self.radius
        return (cx - r, cx + r, cy - r, cy + r, cz - r, cz + r)


@dataclass(frozen=True)
class ExtrudedPolygon(Primitive):
    """Simple polygon in xy, extruded between two heights."""

    vertices: tuple  # ((x, y), ...) at least 3
    z_lo: float
    z_hi: float
    contrast: float

    def __post_init__(self):
        _check_contrast(self.contrast)
        if len(self.vertices) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if self.z_hi <= self.z_lo:
            raise ValueError("z_hi must exceed z_lo")
        object.__setattr__(self, "vertices",
                           tuple((float(a), float(b)) for a, b in self.vertices))

    def covers(self, z):
        return (self.z_lo <= z) & (z <= self.z_hi)

    def _section(self, theta, s, z):
        """One t per edge and line, (*lines, edges); NaN where none.

        An edge counts as crossed when its ends lie on opposite sides of
        the line; a vertex on the line counts as lying on its negative
        side, so a line through a vertex crosses the polygon boundary
        there once or not at all.
        """
        verts = self.vertices
        c, sn = np.cos(theta), np.sin(theta)
        cols = []
        for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
            d1 = x1 * c + y1 * sn - s
            d2 = x2 * c + y2 * sn - s
            t1, t2 = -x1 * sn + y1 * c, -x2 * sn + y2 * c
            crosses = (d1 > 0) != (d2 > 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                tx = t1 + (t2 - t1) * d1 / (d1 - d2)
            cols.append(np.where(crosses, tx, np.nan))
        return np.stack(cols, axis=-1)

    def footprint_disc(self):
        # centred on the bounding box, out to the farthest vertex
        xmin, xmax, ymin, ymax = self.bounds()[:4]
        cx, cy = 0.5 * (xmin + xmax), 0.5 * (ymin + ymax)
        return (cx, cy, max(math.hypot(x - cx, y - cy)
                            for x, y in self.vertices))

    def bounds(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), max(xs), min(ys), max(ys), self.z_lo, self.z_hi)


@dataclass(frozen=True)
class PhantomSpec:
    primitives: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))

    def bounds(self):
        """Union bounding box (xmin, xmax, ymin, ymax, zmin, zmax) or None."""
        if not self.primitives:
            return None
        boxes = np.array([p.bounds() for p in self.primitives])
        return (boxes[:, 0].min(), boxes[:, 1].max(), boxes[:, 2].min(),
                boxes[:, 3].max(), boxes[:, 4].min(), boxes[:, 5].max())


def height_groups(prims, heights):
    """Indices of heights grouped by their tuple of footprint tokens.

    Heights in one group cut every primitive in the same cross-section.
    Heights where no primitive is present are left out; groups come in
    the order of their first height.
    """
    groups = {}
    columns = [prim.footprint_token(heights) for prim in prims]
    for i, tokens in enumerate(zip(*columns)):
        if any(tok is not None for tok in tokens):
            groups.setdefault(tokens, []).append(i)
    return groups


def eval_permittivity(spec, x, y, z):
    """Relative permittivity on one xy plane at each height in z (mm).

    x and y broadcast to the plane; the result has shape z.shape + plane.
    The last containing primitive wins.  Heights where a primitive's
    footprint token agrees share one `contains` call.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    plane = np.broadcast(x, y).shape
    out = np.ones(z.shape + plane)
    rows = out.reshape((-1,) + plane)
    for prim in spec.primitives:
        for members in height_groups((prim,), z.ravel()).values():
            inside = prim.contains(x, y, z.flat[members[0]])
            rows[members] = np.where(inside, prim.contrast, rows[members])
    return out.item() if out.ndim == 0 else out


def _line_ends(prims, cuts):
    """Each line's crossings in ascending order, NaN last, (*lines, ends).

    A convex member gives one sorted pair per line, so a lone one's pair
    is already in order, and two members' pairs are merged by the three
    compare-exchanges (0, 2), (1, 3), (1, 2): np.fmin keeps the end that
    is not NaN and np.maximum the NaN, so NaN acts as +inf and sorts
    last, as in np.sort.  Three or more members, or any polygon, go
    through np.sort.
    """
    if len(cuts) > 2 or not all(p.sorted_pair for p in prims):
        return np.sort(np.concatenate(cuts, axis=-1), axis=-1)
    if len(cuts) == 1:
        return cuts[0]
    a, b = cuts
    lo, b0 = np.fmin(a[..., 0], b[..., 0]), np.maximum(a[..., 0], b[..., 0])
    a1, hi = np.fmin(a[..., 1], b[..., 1]), np.maximum(a[..., 1], b[..., 1])
    return np.stack([lo, np.fmin(a1, b0), np.maximum(a1, b0), hi], axis=-1)


def line_integrals(spec, theta, s, z):
    """Exact integral of (permittivity - 1) along each line at its height.

    The lines sit at offsets s (mm), angles theta and heights z (mm),
    broadcast against each other, so each row of a block of lines can
    have its own angle and height.  All crossings split each line into
    elementary segments (in ascending order: a lone convex member's pair
    as it is, two convex members' pairs merged, anything else sorted);
    every primitive whose inside rule holds on a segment overwrites its
    value in list order, so the last one listed wins, as in
    eval_permittivity.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    cuts = [p.crossings(theta, s, z) for p in spec.primitives]
    if not cuts:
        return np.zeros(_line_shape(theta, s, z))
    ends = _line_ends(spec.primitives, cuts)
    # NaN ends sort last, so segments past a line's last crossing vanish
    lengths = np.diff(ends, axis=-1)
    lengths = np.where(np.isnan(lengths), 0.0, lengths)
    mids = 0.5 * (ends[..., 1:] + ends[..., :-1])
    excess = np.zeros(mids.shape)
    for prim, pts in zip(spec.primitives, cuts):
        excess = np.where(_inside(pts[..., None, :], mids),
                          prim.contrast - 1.0, excess)
    return np.sum(excess * lengths, axis=-1)


def _meet(a, b):
    """True when a's and b's z ranges overlap and their discs meet."""
    za, zb = a.bounds()[4:], b.bounds()[4:]
    if za[0] > zb[1] or zb[0] > za[1]:
        return False
    (ax, ay, ar), (bx, by, br) = a.footprint_disc(), b.footprint_disc()
    return math.hypot(ax - bx, ay - by) <= ar + br


def overlap_clusters(spec):
    """Connected components of the overlap graph, as PhantomSpecs.

    Two primitives are linked when their z ranges overlap and their
    footprint discs meet (touching counts).  Members keep their list
    order, and clusters are ordered by their first member.  Primitives of
    different clusters never share a point, so the line integral of the
    phantom is the sum of those of its clusters.
    """
    prims = spec.primitives
    label = list(range(len(prims)))
    for i in range(len(prims)):
        for j in range(i + 1, len(prims)):
            if label[i] != label[j] and _meet(prims[i], prims[j]):
                keep, drop = sorted((label[i], label[j]))
                label = [keep if lab == drop else lab for lab in label]
    members = {}
    for lab, prim in zip(label, prims):
        members.setdefault(lab, []).append(prim)
    return [PhantomSpec(m) for m in members.values()]


class _Kind(NamedTuple):
    cls: type
    usage: str              # the fields, in the order of the text format
    takes: Callable         # number count -> whether the kind takes it
    build: Callable         # numbers -> primitive
    numbers: Callable       # primitive -> numbers


# One record per keyword of the text format, for parsing and formatting.
_KINDS = {
    "box": _Kind(
        Box, "cx cy cz hx hy hz theta_deg eps_r", lambda n: n == 8,
        lambda v: Box(center=tuple(v[0:3]), half_extents=tuple(v[3:6]),
                      angle_deg=v[6], contrast=v[7]),
        lambda p: (*p.center, *p.half_extents, p.angle_deg, p.contrast)),
    "cylinder": _Kind(
        Cylinder, "cx cy z0 z1 r eps_r", lambda n: n == 6,
        lambda v: Cylinder(cx=v[0], cy=v[1], z_lo=v[2], z_hi=v[3],
                           radius=v[4], contrast=v[5]),
        lambda p: (p.cx, p.cy, p.z_lo, p.z_hi, p.radius, p.contrast)),
    "sphere": _Kind(
        Sphere, "cx cy cz r eps_r", lambda n: n == 5,
        lambda v: Sphere(center=tuple(v[0:3]), radius=v[3], contrast=v[4]),
        lambda p: (*p.center, p.radius, p.contrast)),
    "polygon": _Kind(
        ExtrudedPolygon, "z0 z1 eps_r x1 y1 x2 y2 x3 y3 ...",
        lambda n: n >= 9 and n % 2 == 1,
        lambda v: ExtrudedPolygon(vertices=tuple(zip(v[3::2], v[4::2])),
                                  z_lo=v[0], z_hi=v[1], contrast=v[2]),
        lambda p: (p.z_lo, p.z_hi, p.contrast,
                   *(c for vertex in p.vertices for c in vertex))),
}
_KEYWORDS = {kind.cls: keyword for keyword, kind in _KINDS.items()}


def _parse_line(lineno, tokens):
    keyword = tokens[0].lower()
    try:
        nums = [float(t) for t in tokens[1:]]
    except ValueError as exc:
        raise PhantomParseError(f"line {lineno}: bad number ({exc})") from None
    bad = [t for t, v in zip(tokens[1:], nums) if not math.isfinite(v)]
    if bad:
        raise PhantomParseError(f"line {lineno}: non-finite number {bad[0]!r}")
    kind = _KINDS.get(keyword)
    if kind is None:
        raise PhantomParseError(f"line {lineno}: unknown primitive {keyword!r}")
    try:
        if not kind.takes(len(nums)):
            raise ValueError(f"{keyword} needs {kind.usage}")
        return kind.build(nums)
    except ValueError as exc:
        raise PhantomParseError(f"line {lineno}: {exc}") from None


def parse_phantom(text):
    """Parse the line-oriented phantom format; '#' starts a comment."""
    prims = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        prims.append(_parse_line(lineno, line.split()))
    return PhantomSpec(tuple(prims))


def format_phantom(spec):
    """Canonical text form; parse(format(spec)) reproduces the spec."""
    lines = []
    for p in spec.primitives:
        keyword = _KEYWORDS.get(type(p))
        if keyword is None:
            raise TypeError(f"unknown primitive {type(p).__name__}")
        numbers = _KINDS[keyword].numbers(p)
        lines.append(" ".join([keyword, *map(repr, numbers)]))
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class VoxelGrid:
    """Relative permittivity sampled at voxel centers.

    values[iz, iy, ix] sits at origin + (index + 0.5) * spacing per axis.
    """

    values: np.ndarray
    spacing: tuple
    origin: tuple

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))
        if vals.ndim != 3:
            raise ValueError("values must be (nz, ny, nx)")
        if not all(np.isfinite(s) and s > 0 for s in self.spacing):
            raise ValueError("spacing must be positive and finite")
        if not np.all(np.isfinite(self.origin)):
            raise ValueError("origin must be finite")
        if not np.all(vals > 0):
            raise ValueError("permittivity values must be positive")


def rasterize(spec, shape, spacing, origin, supersample=False):
    """Sample the phantom onto a voxel grid.

    shape is (nx, ny, nz); spacing a scalar or per-axis triple (mm); origin
    the low corner of the voxel volume (mm).  With supersample=True each
    voxel averages a 2x2x2 stencil instead of its center value.  Membership
    follows the parity rule of `contains`.
    """
    nx, ny, nz = shape
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (3,))
    origin = np.asarray(origin, dtype=float)
    bounds = spec.bounds()
    if bounds is not None:
        lo = origin
        hi = origin + spacing * np.array([nx, ny, nz])
        bmin = np.array([bounds[0], bounds[2], bounds[4]])
        bmax = np.array([bounds[1], bounds[3], bounds[5]])
        if np.any(bmin < lo - 1e-9) or np.any(bmax > hi + 1e-9):
            raise GridCoverageError("grid does not cover the phantom bounds")
    xs = origin[0] + spacing[0] * (np.arange(nx) + 0.5)
    ys = origin[1] + spacing[1] * (np.arange(ny) + 0.5)
    zs = origin[2] + spacing[2] * (np.arange(nz) + 0.5)
    offsets = (-0.25, 0.25) if supersample else (0.0,)
    values = np.zeros((nz, ny, nx))
    for ox, oy, oz in itertools.product(offsets, repeat=3):
        values += eval_permittivity(spec, xs[None, :] + ox * spacing[0],
                                    ys[:, None] + oy * spacing[1],
                                    zs + oz * spacing[2])
    values /= len(offsets) ** 3
    return VoxelGrid(values=values, spacing=tuple(spacing), origin=tuple(origin))


def pack_voxels(grid):
    nz, ny, nx = grid.values.shape
    header = _ECTV_HEADER.pack(_ECTV_MAGIC, nx, ny, nz, *grid.spacing,
                               *grid.origin)
    return header + grid.values.astype("<f4").tobytes()


def save_voxels(grid, path):
    # packed before the file opens, so a refused pack leaves no file
    blob = pack_voxels(grid)
    with open(path, "wb") as fh:
        fh.write(blob)


def load_voxels(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    nx, ny, nz, sx, sy, sz, ox, oy, oz = read_header(
        blob, _ECTV_HEADER, _ECTV_MAGIC, None, VoxelFileError)
    values, _ = read_samples(blob, _ECTV_HEADER.size, (nz, ny, nx),
                             VoxelFileError)
    try:
        return VoxelGrid(values=values, spacing=(sx, sy, sz),
                         origin=(ox, oy, oz))
    except ValueError as exc:
        raise VoxelFileError(f"bad grid: {exc}") from None
