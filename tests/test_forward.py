import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from capradon import forward, phantom
from capradon.forward import (
    BoundingBoxError,
    SensorGeometry,
    SinogramFileError,
    SinogramSet,
    load_sinogram,
    pack_sinogram,
    quantize,
    save_sinogram,
    simulate_sweep,
)
from capradon.greenfn import potential_coefficients
from capradon.phantom import (
    Box,
    Cylinder,
    ExtrudedPolygon,
    PhantomSpec,
    Sphere,
    overlap_clusters,
)
from capradon.weights import condition_weight, synthesize_weight

import point_oracle
from midpoint_oracle import project_slice
from symmetry_oracle import mirrored_x, translated


@pytest.fixture(scope="module")
def coeffs():
    return potential_coefficients(order=8, eps0=0.1)


def make_weights(coeffs, gaps, dx=0.25, dz=0.25, z_max=2.0, x_pad=2.0,
                 z_cut=0.5):
    raw = synthesize_weight(coeffs, gaps, x_pad=x_pad, z_max=z_max, dx=dx,
                            dz=dz)
    return {k: condition_weight(g, z_cut=z_cut) for k, g in raw.items()}


@pytest.fixture(scope="module")
def small_weights(coeffs):
    return make_weights(coeffs, (1, 2))


@pytest.fixture(scope="module")
def geom():
    return SensorGeometry(n=6, pitch=2.5, n_angles=8, standoff=2.0,
                          gaps=(1, 2))


def test_geometry_properties():
    g = SensorGeometry(n=6, pitch=2.5, n_angles=8, standoff=2.0, gaps=(2, 1))
    assert g.electrode_count == 13
    assert g.scan_radius == 15.0
    assert g.gaps == (1, 2)
    assert g.detector_count(1) == 12
    offs = g.detector_offsets(1)
    assert offs.shape == (12,)
    assert offs[0] == -15.0 and offs[-1] == 12.5
    np.testing.assert_allclose(np.diff(offs), 2.5)
    ang = g.angles()
    assert ang.shape == (8,)
    assert ang[0] == 0.0
    assert ang[-1] == pytest.approx(7 * np.pi / 8)


def test_geometry_validation():
    with pytest.raises(ValueError):
        SensorGeometry(n=3)
    with pytest.raises(ValueError):
        SensorGeometry(n_angles=0)
    with pytest.raises(ValueError):
        SensorGeometry(pitch=0.0)
    with pytest.raises(ValueError):
        SensorGeometry(standoff=-1.0)
    with pytest.raises(ValueError):
        SensorGeometry(gaps=())
    with pytest.raises(ValueError):
        SensorGeometry(gaps=(1, 5))
    with pytest.raises(ValueError):
        SensorGeometry(quant_delta=-0.1)
    for field in ("pitch", "standoff", "quant_delta"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                SensorGeometry(**{field: bad})


def test_sinogram_set_validation(geom):
    good = {k: np.zeros((geom.n_angles, geom.detector_count(k)))
            for k in geom.gaps}
    with pytest.raises(ValueError):
        SinogramSet(geometry=geom, data={1: good[1]})
    bad_shape = dict(good)
    bad_shape[2] = np.zeros((geom.n_angles, 3))
    with pytest.raises(ValueError):
        SinogramSet(geometry=geom, data=bad_shape)
    bad_vals = {k: v.copy() for k, v in good.items()}
    bad_vals[1][0, 0] = np.nan
    with pytest.raises(ValueError):
        SinogramSet(geometry=geom, data=bad_vals)
    with pytest.raises(ValueError):
        SinogramSet(geometry=geom, data=good, metadata={"a=b": "c"})


def test_slice_empty_phantom_is_zero():
    assert project_slice(PhantomSpec(()), 0.3, 1.0, 5.0, step=0.1) == 0.0


def test_slice_outside_support_is_zero():
    spec = PhantomSpec((Sphere(center=(0, 0, 5.0), radius=2.0, contrast=2.0),))
    assert project_slice(spec, 0.7, 5.0, 5.0, step=0.1) == 0.0


def test_slice_rejects_bad_step():
    spec = PhantomSpec((Sphere(center=(0, 0, 5.0), radius=2.0, contrast=2.0),))
    with pytest.raises(ValueError):
        project_slice(spec, 0.0, 0.0, 5.0, step=0.0)


def test_slice_scan_radius_check():
    spec = PhantomSpec((Sphere(center=(20.0, 0, 5.0), radius=2.0,
                               contrast=2.0),))
    with pytest.raises(BoundingBoxError):
        project_slice(spec, 0.0, 0.0, 5.0, step=0.1, scan_radius=15.0)


def test_slice_matches_cylinder_chord():
    # midpoint quadrature of an indicator is exact up to the two boundary
    # cells, so the error is bounded by 2*step*(contrast-1)
    spec = PhantomSpec((Cylinder(cx=0, cy=0, z_lo=0, z_hi=30, radius=7.0,
                                 contrast=2.0),))
    for step in (0.625, 0.2):
        for s in (0.0, 1.3, 3.7, 6.0, 6.9):
            for theta in (0.0, 0.4, 1.1, 2.2):
                got = project_slice(spec, theta, s, 5.0, step=step)
                want = 2.0 * np.sqrt(49.0 - s * s)
                assert abs(got - want) < 2 * step


def test_slice_error_shrinks_with_step():
    spec = PhantomSpec((Cylinder(cx=3.0, cy=-2.0, z_lo=0, z_hi=30, radius=4.0,
                                 contrast=1.8),))

    def worst(step):
        errs = []
        for theta in (0.3, 1.0, 2.5):
            sc = 3.0 * np.cos(theta) - 2.0 * np.sin(theta)
            for ds in (0.0, 1.5, 3.0):
                got = project_slice(spec, theta, sc + ds, 5.0, step=step)
                errs.append(abs(got - 1.6 * np.sqrt(16.0 - ds * ds)))
        return max(errs)

    assert worst(0.05) < worst(0.4)


def _line_cuts(prim, theta, s, z):
    """Plain-loop points where one line meets a primitive's slice at z.

    Discs solve |p(t) - c|^2 = r^2 around the t nearest the centre, with
    the half chord from the line's distance to the centre (b^2 - 4q would
    cancel to a few ulps of b^2 at a tangent, a chord of about 1e-7); a box
    is clipped as the polygon of its four corners.  Membership of the pieces between the points is left to
    the closed point tests of point_oracle, so no inside rule is shared with
    the program.
    """
    c, sn = math.cos(theta), math.sin(theta)
    x0, y0 = s * c, s * sn
    if isinstance(prim, (Cylinder, Sphere)):
        if isinstance(prim, Cylinder):
            (cx, cy), r2 = (prim.cx, prim.cy), prim.radius**2
            if not prim.z_lo <= z <= prim.z_hi:
                return []
        else:
            cx, cy, cz = prim.center
            r2 = prim.radius**2 - (z - cz) ** 2
            if r2 < 0:
                return []
        tm = (x0 - cx) * sn - (y0 - cy) * c
        half_sq = r2 - ((x0 - cx) * c + (y0 - cy) * sn) ** 2
        if half_sq < 0:
            return []
        return [tm - math.sqrt(half_sq), tm + math.sqrt(half_sq)]
    if isinstance(prim, Box):
        cx, cy, cz = prim.center
        hx, hy, hz = prim.half_extents
        if abs(z - cz) > hz:
            return []
        a = math.radians(prim.angle_deg)
        verts = [(cx + u * math.cos(a) - v * math.sin(a),
                  cy + u * math.sin(a) + v * math.cos(a))
                 for u, v in ((-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy))]
    else:
        if not prim.z_lo <= z <= prim.z_hi:
            return []
        verts = list(prim.vertices)
    cuts = []
    for (x1, y1), (x2, y2) in zip(verts, verts[1:] + verts[:1]):
        d1 = x1 * c + y1 * sn - s
        d2 = x2 * c + y2 * sn - s
        if d1 == d2 or (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
            continue
        lam = d1 / (d1 - d2)
        cuts.append((1 - lam) * (-x1 * sn + y1 * c)
                    + lam * (-x2 * sn + y2 * c))
    return cuts


def _exact_line(spec, theta, s, z):
    cuts = sorted(t for prim in spec.primitives
                  for t in _line_cuts(prim, theta, s, z))
    total = 0.0
    for t0, t1 in zip(cuts, cuts[1:]):
        tm = 0.5 * (t0 + t1)
        x = s * math.cos(theta) - tm * math.sin(theta)
        y = s * math.sin(theta) + tm * math.cos(theta)
        total += (t1 - t0) * (point_oracle.permittivity(spec, x, y, z) - 1.0)
    return total


def _brute_sweep(spec, grid, geom):
    """Scalar-loop exact reference for a single gap."""
    nd = geom.detector_count(grid.gap)
    rows = np.zeros((geom.n_angles, nd))
    lines = {}   # neighbouring detectors share lattice lines
    for j, th in enumerate(geom.angles()):
        for i in range(nd):
            a = (i - geom.n) * geom.pitch
            acc = 0.0
            for jx in range(grid.nx):
                xmm = a + (grid.x_origin + jx * grid.dx) * geom.pitch
                for iz in range(grid.nz):
                    if grid.values[iz, jx] == 0.0:
                        continue
                    zmm = (geom.standoff
                           + (grid.z_origin + iz * grid.dz) * geom.pitch)
                    if (j, xmm, zmm) not in lines:
                        lines[j, xmm, zmm] = _exact_line(spec, th, xmm, zmm)
                    acc += grid.values[iz, jx] * lines[j, xmm, zmm]
            rows[j, i] = acc * (grid.dx * geom.pitch) * (grid.dz * geom.pitch)
    return rows


# every primitive kind, overlapping so that list order matters, with
# cross-sections that change over the weight rows' heights (3.25-4.5 mm)
_OVERLAPPING = PhantomSpec((
    Box(center=(2.1, -1.3, 6.0), half_extents=(3.1, 2.3, 2.7),
        angle_deg=20.0, contrast=2.0),
    Sphere(center=(-4.2, 3.3, 5.0), radius=2.2, contrast=1.5),
    Cylinder(cx=-2.0, cy=-2.5, z_lo=3.5, z_hi=8.0, radius=1.8,
             contrast=1.8),
    ExtrudedPolygon(vertices=((0.0, 0.0), (5.0, 1.0), (2.0, 4.0), (1.0, 1.5)),
                    z_lo=3.0, z_hi=4.0, contrast=2.5),
))


def _assert_gaps_match_reference(spec, w, geom):
    # all gaps share one polyphase window product, so each gap's window
    # start and width is checked against its own plain-loop reference
    sino = simulate_sweep(spec, w, geom)
    for k in geom.gaps:
        ref = _brute_sweep(spec, w[k], geom)
        np.testing.assert_allclose(sino.data[k], ref, rtol=0,
                                   atol=1e-10 * np.abs(ref).max(),
                                   err_msg=f"gap {k}")


def test_sweep_matches_scalar_reference(coeffs):
    gaps = (1, 2, 3, 4)
    geom = SensorGeometry(n=6, pitch=2.5, n_angles=2, standoff=2.0, gaps=gaps)
    # gap 4's window of 25 lines fills six cells of 4 lines and one line
    # of a seventh
    w = make_weights(coeffs, gaps, z_max=1.0, x_pad=1.0)
    _assert_gaps_match_reference(_OVERLAPPING, w, geom)


# Four overlap clusters at the weight rows' heights (2.6-4.5 mm): a box
# and a cylinder that overlap; a sphere and a cylinder whose bounding
# boxes overlap but whose footprint discs (4.95 mm apart, radii 2.5 and
# 2.4) do not; and a cylinder linked to a polygon near the lattice's right
# end, where at angle 0 the band of the widest angle runs past the
# lattice and must be moved back inside it.
_CLUSTERED = PhantomSpec((
    Box(center=(-7.0, -2.0, 4.0), half_extents=(3.0, 2.0, 1.5),
        angle_deg=25.0, contrast=2.0),
    Cylinder(cx=-5.0, cy=0.0, z_lo=3.0, z_hi=4.0, radius=2.0, contrast=1.8),
    Sphere(center=(3.0, -2.0, 4.0), radius=2.5, contrast=1.5),
    Cylinder(cx=-0.5, cy=1.5, z_lo=2.5, z_hi=5.0, radius=2.4,
             contrast=2.2),
    Cylinder(cx=11.0, cy=-3.5, z_lo=2.5, z_hi=5.0, radius=2.0,
             contrast=1.6),
    ExtrudedPolygon(vertices=((9.0, -1.0), (13.5, 0.5), (10.0, 3.0)),
                    z_lo=3.0, z_hi=4.5, contrast=2.5),
))


def test_clustered_sweep_matches_scalar_reference(coeffs):
    sizes = [len(c.primitives) for c in overlap_clusters(_CLUSTERED)]
    assert sizes == [2, 1, 1, 2]
    gaps = (1, 2, 3, 4)
    geom = SensorGeometry(n=6, pitch=2.5, n_angles=4, standoff=2.0,
                          gaps=gaps)
    # x_pad 0.25 ends the lattice 0.625 mm beyond the scan circle; lines
    # 0.3125 mm apart put several in each disc's rim
    w = make_weights(coeffs, gaps, dx=0.125, z_max=1.0, x_pad=0.25)
    _assert_gaps_match_reference(_CLUSTERED, w, geom)


# Random scenes under an n=4 head (scan radius 10 mm; lattice lines 1.25 mm
# apart out to 11.25 mm).  The live weight rows sit at 3.25, 3.875 and
# 4.5 mm.  z faces are drawn from heights on them and between or beyond
# them, all multiples of 1/8 mm, so the face tests are exact; every z
# range covers at least the row at 3.875 mm.
_RANDOM_GEOM = SensorGeometry(n=4, pitch=2.5, n_angles=3, standoff=2.0,
                              gaps=(1, 2, 3, 4))
# half the side of the square inscribed in the scan circle
_SIDE = _RANDOM_GEOM.scan_radius / math.sqrt(2.0)
_z_faces = st.tuples(st.sampled_from((2.5, 3.0, 3.25, 3.5, 3.875)),
                     st.sampled_from((3.875, 4.25, 4.5, 5.0))).filter(
                         lambda z: z[0] < z[1])
_half = st.floats(0.3, 6.5)
_radius = st.floats(0.3, 4.0)
_eps = st.floats(0.25, 4.0)


def _star_polygon(turns, radii, z, eps):
    # vertices at increasing polar angles around the origin: a simple
    # polygon, concave where the radii dip
    angles = np.cumsum(turns) * (2 * math.pi / sum(turns))
    return ExtrudedPolygon(tuple((r * math.cos(a), r * math.sin(a))
                                 for a, r in zip(angles, radii)), *z, eps)


def _shift(lo, hi):
    # the ends put the primitive against a side of the square
    return st.one_of(st.sampled_from((lo, hi)), st.floats(lo, hi))


def _placed(prim):
    # a shift that keeps the bounds in the inscribed square, so that any
    # scene of such primitives lies in the scan circle
    xmin, xmax, ymin, ymax = prim.bounds()[:4]
    return st.builds(
        lambda dx, dy: translated(PhantomSpec((prim,)), dx, dy).primitives[0],
        _shift(-_SIDE - xmin, _SIDE - xmax),
        _shift(-_SIDE - ymin, _SIDE - ymax))


# Oblong boxes and polygons near the square's sides have footprint discs
# that reach past the lattice ends, so their bands are moved back inside.
_random_primitive = st.one_of(
    st.builds(lambda hx, hy, z, a, eps: Box(
                  (0.0, 0.0, (z[0] + z[1]) / 2), (hx, hy, (z[1] - z[0]) / 2),
                  a, eps),
              _half, _half, _z_faces, st.floats(0.0, 180.0), _eps),
    st.builds(lambda z, r, eps: Cylinder(0.0, 0.0, *z, r, eps),
              _z_faces, _radius, _eps),
    st.builds(lambda cz, r, eps: Sphere((0.0, 0.0, cz), r, eps),
              st.floats(3.0, 4.75), _radius, _eps),
    st.integers(3, 6).flatmap(lambda m: st.builds(
        _star_polygon, st.lists(st.floats(0.2, 1.0), min_size=m, max_size=m),
        st.lists(_half, min_size=m, max_size=m), _z_faces, _eps)),
).filter(lambda p: max(p.bounds()[1] - p.bounds()[0],
                       p.bounds()[3] - p.bounds()[2]) <= 2 * _SIDE
         ).flatmap(_placed)


@pytest.fixture(scope="module")
def random_weights(coeffs):
    return make_weights(coeffs, _RANDOM_GEOM.gaps, dx=0.5, z_max=1.0,
                        x_pad=0.5)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(prims=st.integers(1, 5).flatmap(
    lambda m: st.lists(_random_primitive, min_size=m, max_size=m)))
# discs that touch at one point, linking two cylinders into one cluster
@example(prims=[Cylinder(-2.0, 0.5, 3.0, 4.5, 2.0, 2.0),
                Cylinder(2.0, 0.5, 3.25, 4.25, 2.0, 0.5)])
# a box whose top face and a cylinder whose bottom face share the weight
# row at 3.875 mm, where the cylinder, listed last, wins
@example(prims=[Box((0.5, -1.0, 3.5625), (3.0, 2.0, 0.3125), 30.0, 2.0),
                Cylinder(1.0, 0.0, 3.875, 4.5, 2.5, 0.5)])
# a sphere in one cluster with a box, over all three live rows
@example(prims=[Box((0.0, 1.0, 3.875), (3.0, 1.5, 0.625), 15.0, 1.8),
                Sphere((1.5, 0.0, 3.9), 2.2, 0.6)])
# an oblong box at the square's side, whose disc reaches 13.3 mm at angle
# 0, past the lattice end at 11.25 mm
@example(prims=[Box((6.77, 0.0, 3.875), (0.3, 6.5, 0.625), 0.0, 2.0)])
# a cylinder whose disc touches the line at angle 0 and offset 0
@example(prims=[Cylinder(3.39453125, -3.6765365618654746, 2.5, 3.875,
                         3.39453125, 2.0)])
def test_random_sweep_matches_scalar_reference(random_weights, prims):
    _assert_gaps_match_reference(PhantomSpec(prims), random_weights,
                                 _RANDOM_GEOM)


# A box and a sphere in one cluster, both over all five live weight rows
# (3.25-4.5 mm, 0.3125 mm apart): the sphere gives every row its own
# height group, so the cluster's one set of present members has five.
_FIVE_GROUPS = PhantomSpec((
    Box(center=(0.5, -1.0, 3.875), half_extents=(3.0, 2.0, 1.5),
        angle_deg=25.0, contrast=2.0),
    Sphere(center=(1.5, 0.5, 3.875), radius=2.2, contrast=0.6),
))


def test_sweep_split_into_chunks_matches_scalar_reference(coeffs,
                                                          monkeypatch):
    geom = SensorGeometry(n=6, pitch=2.5, n_angles=3, standoff=2.0,
                          gaps=(1, 2))
    w = make_weights(coeffs, geom.gaps, dz=0.125, z_max=1.0, x_pad=1.0)
    refs = {k: _brute_sweep(_FIVE_GROUPS, w[k], geom) for k in geom.gaps}
    calls = []

    def spy(spec, theta, s, z):
        # (group, angle) rows and lines per row of each chunk
        calls.append(np.shape(s))
        return phantom.line_integrals(spec, theta, s, z)

    monkeypatch.setattr(forward, "line_integrals", spy)
    simulate_sweep(_FIVE_GROUPS, w, geom)
    ((rows, width),) = calls
    assert rows == 15
    # one line a chunk, so each row is its own; two rows, so each group's
    # block of three rows splits 2 + 1; six rows, so blocks of two groups,
    # six rows each, and the last group's three
    for lines, want in ((1, [1] * 15),
                        (2 * width, [2, 1] * 5),
                        (7 * width - 1, [6, 6, 3])):
        monkeypatch.setattr(forward, "_CHUNK_LINES", lines)
        calls.clear()
        sino = simulate_sweep(_FIVE_GROUPS, w, geom)
        assert [shape[0] for shape in calls] == want
        assert all(shape[1] == width for shape in calls)
        for k in geom.gaps:
            np.testing.assert_allclose(
                sino.data[k], refs[k], rtol=0,
                atol=1e-10 * np.abs(refs[k]).max(),
                err_msg=f"gap {k}, {lines} lines a chunk")


# A sphere 1.6 mm across over all five live weight rows: its band is a
# few lines, so the line count alone would put all five groups in one
# block at any of the tests' lattice lengths.
_SMALL_SPHERE = PhantomSpec((
    Sphere(center=(-1.2, 0.9, 3.875), radius=0.8, contrast=3.0),
))


def test_sweep_blocks_stay_within_the_buffer_bound(coeffs, monkeypatch):
    geom = SensorGeometry(n=6, pitch=2.5, n_angles=3, standoff=2.0,
                          gaps=(1, 2))
    w = make_weights(coeffs, geom.gaps, dz=0.125, z_max=1.0, x_pad=1.0)
    refs = {k: _brute_sweep(_SMALL_SPHERE, w[k], geom) for k in geom.gaps}
    # values of one group's lattice-wide rows: every angle's row of
    # lattice lines, padded to whole cells (4 lines, one pitch) past the
    # first gap's last detector by the widest window
    win_cells = -(-max(g.nx for g in w.values()) // 4)
    one_group = geom.n_angles * (geom.detector_count(1) + win_cells) * 4
    blocks = []
    window_weights = forward._window_weights

    def spy(grids, block, win_cells, spp):
        blocks.append(len(block))
        return window_weights(grids, block, win_cells, spp)

    monkeypatch.setattr(forward, "_window_weights", spy)
    for values, want in ((forward._BLOCK_VALUES, [5]),
                         (2 * one_group + 1, [2, 2, 1]),
                         (one_group - 1, [1] * 5)):
        monkeypatch.setattr(forward, "_BLOCK_VALUES", values)
        blocks.clear()
        sino = simulate_sweep(_SMALL_SPHERE, w, geom)
        assert blocks == want
        for k in geom.gaps:
            np.testing.assert_allclose(
                sino.data[k], refs[k], rtol=0,
                atol=1e-10 * np.abs(refs[k]).max(),
                err_msg=f"gap {k}, blocks of {values} values")


def _midpoint_sweep(spec, grid, geom, step):
    """The sweep with every line integral taken by the midpoint rule."""
    spp = int(round(1.0 / grid.dx))
    nd = geom.detector_count(grid.gap)
    x_mm = ((-geom.n + grid.x_origin
             + np.arange((nd - 1) * spp + grid.nx) * grid.dx) * geom.pitch)
    z_mm = (geom.standoff
            + (grid.z_origin + np.arange(grid.nz) * grid.dz) * geom.pitch)
    rows = np.zeros((geom.n_angles, nd))
    for j, th in enumerate(geom.angles()):
        proj = np.array([[project_slice(spec, th, s, z, step) for s in x_mm]
                         for z in z_mm])
        for i in range(nd):
            rows[j, i] = np.sum(grid.values
                                * proj[:, i * spp:i * spp + grid.nx])
    return rows * (grid.dx * geom.pitch) * (grid.dz * geom.pitch)


def test_midpoint_sweep_converges_to_exact(coeffs):
    geom = SensorGeometry(n=6, pitch=2.5, n_angles=2, standoff=2.0, gaps=(1,))
    w = make_weights(coeffs, (1,), z_max=1.0, x_pad=1.0)
    exact = simulate_sweep(_OVERLAPPING, w, geom).data[1]
    peak = np.abs(exact).max()
    errs = [np.abs(_midpoint_sweep(_OVERLAPPING, w[1], geom, geom.pitch / m)
                   - exact).max() / peak for m in (4, 16, 64)]
    print(f"\nmidpoint error at pitch/4, /16, /64: {errs}")
    # each fourfold finer step at least halves the error, so the midpoint
    # rule closes in on the exact sweep rather than on some other limit
    assert errs[1] < errs[0] / 2
    assert errs[2] < errs[1] / 2


def test_sweep_homogeneous_is_zero(small_weights, geom):
    sino = simulate_sweep(PhantomSpec(()), small_weights, geom)
    for k in geom.gaps:
        np.testing.assert_array_equal(sino.data[k], 0.0)
    assert "phantom_sha256" in sino.metadata
    assert "weight_sha256_k1" in sino.metadata


def test_sweep_centered_cylinder_angle_invariant(small_weights, geom):
    spec = PhantomSpec((Cylinder(cx=0, cy=0, z_lo=3.0, z_hi=9.0, radius=6.3,
                                 contrast=2.0),))
    sino = simulate_sweep(spec, small_weights, geom)
    for k in geom.gaps:
        peak = np.abs(sino.data[k]).max()
        assert np.abs(sino.data[k] - sino.data[k][0]).max() < 1e-10 * peak


def test_sweep_linearity_in_contrast(small_weights, geom):
    base = Cylinder(cx=2.0, cy=1.0, z_lo=3.0, z_hi=9.0, radius=4.0,
                    contrast=1.5)
    s_half = simulate_sweep(PhantomSpec((base,)), small_weights, geom)
    s_full = simulate_sweep(
        PhantomSpec((Cylinder(cx=2.0, cy=1.0, z_lo=3.0, z_hi=9.0, radius=4.0,
                              contrast=2.0),)), small_weights, geom)
    for k in geom.gaps:
        np.testing.assert_array_equal(2.0 * s_half.data[k], s_full.data[k])


def test_sweep_translation_shifts_detectors(small_weights):
    geom1 = SensorGeometry(n=6, pitch=2.5, n_angles=1, standoff=2.0,
                           gaps=(1, 2))
    spec = PhantomSpec((Box(center=(0.37, 0.81, 6.0),
                            half_extents=(2.9, 2.3, 2.7), angle_deg=17.0,
                            contrast=2.0),))
    s_a = simulate_sweep(spec, small_weights, geom1)
    s_b = simulate_sweep(translated(spec, geom1.pitch, 0.0), small_weights,
                         geom1)
    for k in geom1.gaps:
        peak = np.abs(s_a.data[k]).max()
        np.testing.assert_allclose(s_b.data[k][0][1:], s_a.data[k][0][:-1],
                                   rtol=0, atol=1e-10 * peak)


def test_sweep_mirror_reverses_detectors(small_weights):
    geom1 = SensorGeometry(n=6, pitch=2.5, n_angles=1, standoff=2.0,
                           gaps=(1, 2))
    spec = PhantomSpec((Box(center=(0.37, 0.81, 6.0),
                            half_extents=(2.9, 2.3, 2.7), angle_deg=17.0,
                            contrast=2.0),))
    s_a = simulate_sweep(spec, small_weights, geom1)
    s_m = simulate_sweep(mirrored_x(spec), small_weights, geom1)
    for k in geom1.gaps:
        peak = np.abs(s_a.data[k]).max()
        np.testing.assert_allclose(s_m.data[k][0], s_a.data[k][0][::-1],
                                   rtol=0, atol=1e-10 * peak)


def test_sweep_sphere_peak_tracks_projection(small_weights):
    geom12 = SensorGeometry(n=6, pitch=2.5, n_angles=12, standoff=2.0,
                            gaps=(1, 2))
    spec = PhantomSpec((Sphere(center=(6.0, 2.0, 6.0), radius=2.5,
                               contrast=3.0),))
    sino = simulate_sweep(spec, small_weights, geom12)
    for k in geom12.gaps:
        # a pair at gap k is centered k*pitch/2 to the right of its left site
        for j, theta in enumerate(sino.angles):
            s_c = 6.0 * np.cos(theta) + 2.0 * np.sin(theta)
            want = (s_c - k * geom12.pitch / 2) / geom12.pitch + geom12.n
            got = np.argmax(np.abs(sino.data[k][j]))
            assert abs(got - want) < 2.0


def test_sweep_mass_conservation(small_weights, geom):
    inv = PhantomSpec((Cylinder(cx=0, cy=0, z_lo=3.0, z_hi=9.0, radius=6.3,
                                contrast=2.0),))
    s_inv = simulate_sweep(inv, small_weights, geom)
    for k in geom.gaps:
        tot = s_inv.data[k].sum(axis=1)
        assert (tot.max() - tot.min()) <= 1e-10 * abs(tot.mean())
    # the line offsets form a fixed lattice, which samples an off-center
    # shape's projection at different points per angle, so conservation
    # holds only as well as that sampling (a spread of 0.026 here)
    gen = PhantomSpec((
        Box(center=(2.1, -1.3, 6.0), half_extents=(3.1, 2.3, 2.7),
            angle_deg=20.0, contrast=2.0),
        Sphere(center=(-4.2, 3.3, 5.0), radius=2.2, contrast=1.5),
    ))
    s_gen = simulate_sweep(gen, small_weights, geom)
    for k in geom.gaps:
        tot = s_gen.data[k].sum(axis=1)
        assert (tot.max() - tot.min()) < 0.1 * abs(tot.mean())


def test_sweep_validation(coeffs, small_weights, geom):
    spec = PhantomSpec((Sphere(center=(0, 0, 5.0), radius=2.0, contrast=2.0),))
    raw = synthesize_weight(coeffs, geom.gaps, x_pad=2.0, z_max=2.0, dx=0.25,
                            dz=0.25)
    with pytest.raises(ValueError, match="conditioned"):
        simulate_sweep(spec, raw, geom)
    with pytest.raises(ValueError, match="gaps"):
        simulate_sweep(spec, {1: small_weights[1]}, geom)
    mixed = dict(small_weights)
    mixed[2] = make_weights(coeffs, (2,), dx=0.125)[2]
    with pytest.raises(ValueError, match="share"):
        simulate_sweep(spec, mixed, geom)
    # synthesize_weight itself rejects dx = 0.3, so relabel valid grids
    coarse = {k: replace(g, dx=0.3) for k, g in small_weights.items()}
    with pytest.raises(ValueError, match="integer"):
        simulate_sweep(spec, coarse, geom)
    far = PhantomSpec((Sphere(center=(20.0, 0, 5.0), radius=2.0,
                              contrast=2.0),))
    with pytest.raises(BoundingBoxError):
        simulate_sweep(far, small_weights, geom)


def _example_sinogram(small_weights, geom):
    spec = PhantomSpec((Sphere(center=(3.0, -1.0, 6.0), radius=2.5,
                               contrast=2.0),))
    return simulate_sweep(spec, small_weights, geom)


def test_quantize_spot_values(geom):
    data = {k: np.zeros((geom.n_angles, geom.detector_count(k)))
            for k in geom.gaps}
    data[1][0, :7] = [0.5, -0.5, 0.09, 0.1, 0.0, 0.31, -0.29]
    sino = SinogramSet(geometry=geom, data=data)
    q = quantize(sino, 0.2)
    np.testing.assert_allclose(q.data[1][0, :7],
                               [0.6, -0.6, 0.0, 0.2, 0.0, 0.4, -0.2],
                               rtol=0, atol=1e-12)
    assert q.geometry.quant_delta == 0.2


def test_quantize_default_step_and_bound(small_weights, geom):
    sino = _example_sinogram(small_weights, geom)
    peak = max(np.abs(a).max() for a in sino.data.values())
    q = quantize(sino)
    assert q.geometry.quant_delta == pytest.approx(peak / 140.0)
    for k in geom.gaps:
        err = np.abs(q.data[k] - sino.data[k])
        assert err.max() <= q.geometry.quant_delta / 2 + 1e-12
        steps = q.data[k] / q.geometry.quant_delta
        np.testing.assert_allclose(steps, np.round(steps), rtol=0, atol=1e-9)


def test_quantize_zero_is_identity(small_weights, geom):
    sino = _example_sinogram(small_weights, geom)
    q = quantize(sino, 0.0)
    for k in geom.gaps:
        np.testing.assert_array_equal(q.data[k], sino.data[k])
    with pytest.raises(ValueError):
        quantize(sino, -1.0)


def test_sinogram_round_trip(tmp_path, small_weights, geom):
    sino = _example_sinogram(small_weights, geom)
    sino.metadata["note"] = "k=v pairs survive"
    path = tmp_path / "sweep.ects"
    save_sinogram(sino, path)
    back = load_sinogram(path)
    assert back.geometry == sino.geometry
    np.testing.assert_array_equal(back.angles, sino.angles)
    for k in geom.gaps:
        np.testing.assert_array_equal(
            back.data[k], sino.data[k].astype("<f4").astype(float))
    assert back.metadata == sino.metadata
    assert pack_sinogram(back) == path.read_bytes()


def test_quantized_sinogram_round_trip(tmp_path, small_weights, geom):
    q = quantize(_example_sinogram(small_weights, geom))
    path = tmp_path / "sweep_q.ects"
    save_sinogram(q, path)
    back = load_sinogram(path)
    assert back.geometry.quant_delta == pytest.approx(q.geometry.quant_delta)


def test_sinogram_load_rejects_garbage(tmp_path, small_weights, geom):
    sino = _example_sinogram(small_weights, geom)
    path = tmp_path / "sweep.ects"
    save_sinogram(sino, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ects"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(SinogramFileError, match="magic"):
        load_sinogram(bad)
    bad.write_bytes(blob[:4] + b"\x63\x00" + blob[6:])
    with pytest.raises(SinogramFileError, match="version"):
        load_sinogram(bad)
    bad.write_bytes(blob[:60])
    with pytest.raises(SinogramFileError):
        load_sinogram(bad)
    bad.write_bytes(blob[:40] + (2 * geom.n + 2).to_bytes(2, "little")
                    + blob[42:])
    with pytest.raises(SinogramFileError, match="outside"):
        load_sinogram(bad)
    nonfinite = bytearray(blob)
    nonfinite[42:46] = np.float32(np.nan).tobytes()
    bad.write_bytes(bytes(nonfinite))
    with pytest.raises(SinogramFileError, match="non-finite"):
        load_sinogram(bad)
    nan_pitch = bytearray(blob)
    nan_pitch[14:22] = np.float64(np.nan).tobytes()
    bad.write_bytes(bytes(nan_pitch))
    with pytest.raises(SinogramFileError, match="finite"):
        load_sinogram(bad)


@pytest.fixture(scope="module")
def sinogram_blob(small_weights, geom):
    return pack_sinogram(_example_sinogram(small_weights, geom))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.integers(min_value=0, max_value=2000),
       edits=st.lists(st.tuples(st.one_of(st.integers(0, 45),
                                          st.integers(0, 2000)),
                                st.integers(0, 255)), max_size=4))
def test_sinogram_load_raises_only_its_own_error(tmp_path, sinogram_blob,
                                                 cut, edits):
    # the first 46 bytes (header, first gap tag, first sample) are drawn
    # as often as the rest of the file
    blob = bytearray(sinogram_blob)
    for pos, value in edits:
        blob[pos % len(blob)] = value
    path = tmp_path / "mutated.ects"
    path.write_bytes(bytes(blob[:len(blob) - cut % len(blob)]))
    try:
        load_sinogram(path)
    except SinogramFileError:
        pass
