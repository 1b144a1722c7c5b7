import itertools
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capradon.phantom import (
    Box,
    Cylinder,
    ExtrudedPolygon,
    GridCoverageError,
    PhantomParseError,
    PhantomSpec,
    Primitive,
    Sphere,
    VoxelFileError,
    VoxelGrid,
    eval_permittivity,
    format_phantom,
    line_integrals,
    load_voxels,
    overlap_clusters,
    pack_voxels,
    parse_phantom,
    rasterize,
    save_voxels,
)

import point_oracle
from symmetry_oracle import mirrored_x, rotated_z, translated


@pytest.fixture(scope="module")
def mixed_spec():
    return PhantomSpec((
        Box(center=(0.5, -0.3, 4.0), half_extents=(2.9, 1.7, 1.3),
            angle_deg=30.0, contrast=2.0),
        Cylinder(cx=1.0, cy=2.0, z_lo=3.0, z_hi=5.0, radius=1.2, contrast=1.5),
        Sphere(center=(-1.0, 0.5, 4.0), radius=1.1, contrast=3.0),
        ExtrudedPolygon(vertices=((-1, -1), (2, -0.5), (0.5, 2)),
                        z_lo=3.5, z_hi=4.5, contrast=2.5),
    ))


def test_parse_round_trip(mixed_spec):
    text = format_phantom(mixed_spec)
    assert parse_phantom(text) == mixed_spec


def test_format_bytes_are_pinned(mixed_spec):
    # the text's digest is stored in every sweep.ects as phantom_sha256
    assert format_phantom(mixed_spec) == (
        "box 0.5 -0.3 4.0 2.9 1.7 1.3 30.0 2.0\n"
        "cylinder 1.0 2.0 3.0 5.0 1.2 1.5\n"
        "sphere -1.0 0.5 4.0 1.1 3.0\n"
        "polygon 3.5 4.5 2.5 -1.0 -1.0 2.0 -0.5 0.5 2.0\n")
    assert format_phantom(PhantomSpec()) == ""


_coord = st.floats(-1e6, 1e6)
_size = st.floats(1e-3, 1e3)
_z_range = st.tuples(_coord, _size).map(lambda zh: (zh[0], zh[0] + zh[1]))
_primitive = st.one_of(
    st.builds(Box, center=st.tuples(_coord, _coord, _coord),
              half_extents=st.tuples(_size, _size, _size), angle_deg=_coord,
              contrast=_size),
    st.builds(lambda c, z, r, eps: Cylinder(*c, *z, r, eps),
              st.tuples(_coord, _coord), _z_range, _size, _size),
    st.builds(Sphere, center=st.tuples(_coord, _coord, _coord), radius=_size,
              contrast=_size),
    st.builds(lambda v, z, eps: ExtrudedPolygon(v, *z, eps),
              st.lists(st.tuples(_coord, _coord), min_size=3, max_size=6)
              .map(tuple), _z_range, _size))


@settings(max_examples=200, deadline=None)
@given(prims=st.lists(_primitive, max_size=5))
def test_format_parse_round_trip_all_kinds(prims):
    spec = PhantomSpec(prims)
    assert parse_phantom(format_phantom(spec)) == spec


_POLYGON_USAGE = "polygon needs z0 z1 eps_r x1 y1 x2 y2 x3 y3 ..."


@pytest.mark.parametrize("line, message", [
    ("box 0 0 0 1 1 1 0", "box needs cx cy cz hx hy hz theta_deg eps_r"),
    ("cylinder 0 0 0 1 1 2 3", "cylinder needs cx cy z0 z1 r eps_r"),
    ("sphere 0 0 1 2", "sphere needs cx cy cz r eps_r"),
    ("polygon 0 1 2 0 0 1 0", _POLYGON_USAGE),
    ("polygon 0 1 2 0 0 1 0 1 1 2", _POLYGON_USAGE),
    ("Torus 0 0 0 1 2", "unknown primitive 'torus'"),
])
def test_parse_error_messages_are_pinned(line, message):
    with pytest.raises(PhantomParseError) as info:
        parse_phantom(f"# c\n{line}\n")
    assert str(info.value) == f"line 2: {message}"


def test_parse_comments_and_blanks():
    text = """
    # leading comment
    box 0 0 0 1 1 1 0 2.0   # trailing comment

    sphere 3 0 0 1 1.5
    """
    spec = parse_phantom(text)
    assert len(spec.primitives) == 2
    assert isinstance(spec.primitives[0], Box)
    assert isinstance(spec.primitives[1], Sphere)


def test_parse_error_reports_line_number():
    text = "box 0 0 0 1 1 1 0 2\ncylinder 0 0 0 1\n"
    with pytest.raises(PhantomParseError, match="line 2"):
        parse_phantom(text)


def test_parse_rejects_bad_number():
    with pytest.raises(PhantomParseError, match="line 1"):
        parse_phantom("box a 0 0 1 1 1 0 2\n")


def test_parse_rejects_unknown_primitive():
    with pytest.raises(PhantomParseError, match="line 3"):
        parse_phantom("# c\n\ntorus 0 0 0 1 2\n")


@pytest.mark.parametrize("line, token", [
    ("polygon 2 9 1.7 10 10 20 nan 15 20", "nan"),
    ("box -15 0 7 6 6 2.5 0 inf", "inf"),
    ("sphere 0 0 -Infinity 1 2", "-Infinity"),
])
def test_parse_rejects_non_finite_numbers(line, token):
    with pytest.raises(PhantomParseError) as info:
        parse_phantom(f"# c\n{line}\n")
    assert str(info.value) == f"line 2: non-finite number {token!r}"


def test_parse_rejects_nonpositive_contrast():
    with pytest.raises(PhantomParseError, match="line 1"):
        parse_phantom("sphere 0 0 0 1 0\n")
    with pytest.raises(PhantomParseError, match="line 1"):
        parse_phantom("sphere 0 0 0 1 -2\n")


def test_primitive_validation():
    with pytest.raises(ValueError):
        Sphere(center=(0, 0, 0), radius=-1.0, contrast=2.0)
    with pytest.raises(ValueError):
        Cylinder(cx=0, cy=0, z_lo=2.0, z_hi=1.0, radius=1.0, contrast=2.0)
    with pytest.raises(ValueError):
        ExtrudedPolygon(vertices=((0, 0), (1, 0)), z_lo=0, z_hi=1, contrast=2.0)
    with pytest.raises(ValueError):
        Box(center=(0, 0, 0), half_extents=(1, 0, 1), angle_deg=0, contrast=2.0)


def test_background_is_one():
    spec = PhantomSpec(())
    assert eval_permittivity(spec, 0.0, 0.0, 0.0) == 1.0
    assert spec.bounds() is None


def test_last_primitive_wins():
    spec = PhantomSpec((
        Sphere(center=(0, 0, 0), radius=2.0, contrast=2.0),
        Sphere(center=(0, 0, 0), radius=1.0, contrast=5.0),
    ))
    assert eval_permittivity(spec, 0.0, 0.0, 0.0) == 5.0
    assert eval_permittivity(spec, 1.5, 0.0, 0.0) == 2.0
    assert eval_permittivity(spec, 3.0, 0.0, 0.0) == 1.0


def test_eval_broadcasts():
    spec = PhantomSpec((Sphere(center=(0, 0, 0), radius=1.0, contrast=2.0),))
    x = np.array([0.0, 5.0, 0.5])
    vals = eval_permittivity(spec, x, 0.0, 0.0)
    np.testing.assert_array_equal(vals, [2.0, 1.0, 2.0])


def test_eval_permittivity_holds_a_plane_per_height(mixed_spec, monkeypatch):
    x = np.linspace(-4.0, 4.0, 9)[None, :]
    y = np.linspace(-4.0, 4.0, 7)[:, None]
    z = np.array([[2.9, 3.6], [4.0, 4.6]])
    vals = eval_permittivity(mixed_spec, x, y, z)
    assert vals.shape == (2, 2, 7, 9)
    for idx in np.ndindex(z.shape):
        np.testing.assert_array_equal(
            vals[idx], eval_permittivity(mixed_spec, x, y, z[idx]))
    # heights with one footprint token share a contains call: the box's
    # section is the same at every height, the sphere's is not
    calls = []
    contains = Primitive.contains

    def counted(prim, *args):
        calls.append(type(prim).__name__)
        return contains(prim, *args)

    monkeypatch.setattr(Primitive, "contains", counted)
    box, _, sphere, _ = mixed_spec.primitives
    eval_permittivity(PhantomSpec((box, sphere)), x, y, [3.5, 3.9, 4.3, 9.0])
    assert calls == ["Box", "Sphere", "Sphere", "Sphere"]


def test_polygon_square_matches_box():
    # a square polygon and an unrotated box describe the same region
    poly = ExtrudedPolygon(vertices=((-1.5, -2.0), (1.5, -2.0), (1.5, 2.0),
                                     (-1.5, 2.0)),
                           z_lo=1.0, z_hi=3.0, contrast=2.0)
    box = Box(center=(0, 0, 2.0), half_extents=(1.5, 2.0, 1.0),
              angle_deg=0.0, contrast=2.0)
    rng = np.random.default_rng(11)
    x = rng.uniform(-3, 3, 2000)
    y = rng.uniform(-3, 3, 2000)
    z = rng.uniform(0, 4, 2000)
    np.testing.assert_array_equal(point_oracle.contains(poly, x, y, z),
                                  point_oracle.contains(box, x, y, z))


def test_rotated_box_contains():
    box = Box(center=(0, 0, 0), half_extents=(2.0, 0.5, 1.0),
              angle_deg=90.0, contrast=2.0)
    # after a 90 degree turn the long axis lies along y
    assert box.contains(0.0, 1.8, 0.0)
    assert not box.contains(1.8, 0.0, 0.0)


def test_rotation_equivariance(mixed_spec):
    rng = np.random.default_rng(7)
    theta = 0.37
    rot = rotated_z(mixed_spec, theta)
    x = rng.uniform(-4, 4, 500)
    y = rng.uniform(-4, 4, 500)
    z = rng.uniform(2.5, 5.5, 500)
    xr = np.cos(theta) * x - np.sin(theta) * y
    yr = np.sin(theta) * x + np.cos(theta) * y
    np.testing.assert_allclose(point_oracle.permittivity(rot, xr, yr, z),
                               point_oracle.permittivity(mixed_spec, x, y, z),
                               rtol=0, atol=1e-12)


def test_mirror_equivariance(mixed_spec):
    rng = np.random.default_rng(8)
    x = rng.uniform(-4, 4, 500)
    y = rng.uniform(-4, 4, 500)
    z = rng.uniform(2.5, 5.5, 500)
    mir = mirrored_x(mixed_spec)
    np.testing.assert_allclose(point_oracle.permittivity(mir, -x, y, z),
                               point_oracle.permittivity(mixed_spec, x, y, z),
                               rtol=0, atol=1e-12)


def test_translate_equivariance(mixed_spec):
    rng = np.random.default_rng(9)
    x = rng.uniform(-4, 4, 500)
    y = rng.uniform(-4, 4, 500)
    z = rng.uniform(2.5, 5.5, 500)
    tra = translated(mixed_spec, 0.7, -0.4, 0.2)
    np.testing.assert_allclose(
        point_oracle.permittivity(tra, x + 0.7, y - 0.4, z + 0.2),
        point_oracle.permittivity(mixed_spec, x, y, z), rtol=0, atol=1e-12)


def test_bounds_cover_union(mixed_spec):
    xmin, xmax, ymin, ymax, zmin, zmax = mixed_spec.bounds()
    rng = np.random.default_rng(10)
    x = rng.uniform(-6, 6, 3000)
    y = rng.uniform(-6, 6, 3000)
    z = rng.uniform(1, 7, 3000)
    inside = point_oracle.permittivity(mixed_spec, x, y, z) != 1.0
    assert np.all(x[inside] >= xmin) and np.all(x[inside] <= xmax)
    assert np.all(y[inside] >= ymin) and np.all(y[inside] <= ymax)
    assert np.all(z[inside] >= zmin) and np.all(z[inside] <= zmax)


def test_footprint_tokens():
    box = Box(center=(0, 0, 4.0), half_extents=(1, 1, 1), angle_deg=0.0,
              contrast=2.0)
    sph = Sphere(center=(0, 0, 4.0), radius=1.0, contrast=2.0)
    assert box.footprint_token(3.5) == box.footprint_token(4.5)
    assert box.footprint_token(5.5) is None
    # sphere cross-sections differ with height, so tokens carry it
    assert sph.footprint_token(3.5) != sph.footprint_token(4.5)
    assert sph.footprint_token(5.5) is None


def test_footprint_tokens_take_an_array_of_heights(mixed_spec):
    # every kind, at heights in, out and on the closed z faces
    z = np.linspace(2.0, 6.0, 33)
    for prim in mixed_spec.primitives:
        tokens = prim.footprint_token(z)
        assert tokens.shape == z.shape
        for tok, h in zip(tokens, z.tolist()):
            one = prim.footprint_token(h)
            assert not isinstance(one, np.ndarray)
            assert (tok is None) == (one is None) and tok == one


def test_sphere_far_from_a_height_is_missed_without_overflow():
    # (z - cz)**2 overflows a float at z = 1e200, a height the sphere
    # does not cover
    sph = Sphere(center=(0.5, -0.5, 4.0), radius=1.0, contrast=2.0)
    spec = PhantomSpec((sph,))
    s = np.linspace(-2.0, 2.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(line_integrals(spec, 0.3, s, 1e200),
                                      0.0)
        assert not sph.contains(0.0, 0.0, 1e200)
        rows = line_integrals(spec, 0.3, s, np.array([[4.5], [1e200]]))
    np.testing.assert_array_equal(rows[0], line_integrals(spec, 0.3, s, 4.5))
    np.testing.assert_array_equal(rows[1], 0.0)
    assert np.any(rows[0] > 0)


def test_footprint_discs_hold_every_inside_point(mixed_spec):
    rng = np.random.default_rng(8)
    # a nonconvex polygon, whose disc is not its circumcircle
    notch = ExtrudedPolygon(vertices=((-2, -1), (3, -1.5), (0.5, 0.2),
                                      (2.5, 2.5), (-1.5, 1.8)),
                            z_lo=3.0, z_hi=5.0, contrast=2.0)
    for prim in mixed_spec.primitives + (notch,):
        xmin, xmax, ymin, ymax, zmin, zmax = prim.bounds()
        x = rng.uniform(xmin - 1, xmax + 1, 20000)
        y = rng.uniform(ymin - 1, ymax + 1, 20000)
        z = rng.uniform(zmin, zmax, 20000)
        inside = point_oracle.contains(prim, x, y, z)
        assert inside.sum() > 1000
        cx, cy, r = prim.footprint_disc()
        assert np.all(np.hypot(x[inside] - cx, y[inside] - cy) <= r)
    box = mixed_spec.primitives[0]
    assert box.footprint_disc() == pytest.approx((0.5, -0.3,
                                                  np.hypot(2.9, 1.7)))


def test_overlap_clusters():
    def cyl(cx, cy, r, z_lo=0.0, z_hi=1.0):
        return Cylinder(cx=cx, cy=cy, z_lo=z_lo, z_hi=z_hi, radius=r,
                        contrast=2.0)

    a = cyl(0.0, 0.0, 1.0)
    b = cyl(2.0, 0.0, 1.0)            # touches a
    c = Sphere(center=(4.5, 0.0, 0.5), radius=1.5, contrast=1.5)  # touches b
    above = cyl(0.0, 0.0, 1.0, z_lo=1.5, z_hi=2.0)   # over a, z apart
    apart = cyl(-3.0, 0.0, 1.99)      # 0.01 short of a
    # a chain joins a and c, which do not meet; members keep list order
    spec = PhantomSpec((c, above, a, apart, b))
    assert overlap_clusters(spec) == [PhantomSpec((c, a, b)),
                                      PhantomSpec((above,)),
                                      PhantomSpec((apart,))]
    # z ranges that only touch count as overlapping
    lid = cyl(0.5, 0.0, 0.5, z_lo=1.0, z_hi=1.5)
    assert overlap_clusters(PhantomSpec((a, lid))) == [PhantomSpec((a, lid))]
    # overlapping bounding boxes link nothing when the discs do not meet
    corner = cyl(1.5, 1.5, 1.0)
    assert len(overlap_clusters(PhantomSpec((a, corner)))) == 2
    assert overlap_clusters(PhantomSpec(())) == []


def test_batched_crossings_match_per_angle(mixed_spec):
    # at theta 0 and pi/2 the lines run along the slabs of an unrotated
    # box; the other angles cut them
    square = Box(center=(0.5, -0.3, 4.0), half_extents=(2.0, 1.0, 1.0),
                 angle_deg=0.0, contrast=2.0)
    theta = np.array([0.0, 0.4, np.pi / 2, 2.9])
    s = np.random.default_rng(4).uniform(-4.0, 4.0, (theta.size, 25))
    s[:, 0] = 1.5        # inside the unrotated box's x slab at theta 0
    for prim in mixed_spec.primitives + (square,):
        for z in (3.2, 4.1, 9.0):
            got = prim.crossings(theta[:, None], s, z)
            assert got.shape[:2] == s.shape
            for j, th in enumerate(theta):
                np.testing.assert_array_equal(got[j],
                                              prim.crossings(th, s[j], z))
    spec = PhantomSpec(mixed_spec.primitives + (square,))
    got = line_integrals(spec, theta[:, None], s, 4.1)
    for j, th in enumerate(theta):
        np.testing.assert_array_equal(got[j],
                                      line_integrals(spec, th, s[j], 4.1))
    # a line along the y slab crosses the x slab nowhere
    np.testing.assert_allclose(square.crossings(0.0, [1.5, 2.6], 4.1),
                               [[-1.3, 0.7], [np.nan, np.nan]], atol=1e-12)


def test_line_integrals_take_a_height_per_row(mixed_spec):
    # the z ranges are box 2.7-5.3, cylinder 3-5, sphere 2.9-5.1 and
    # polygon 3.5-4.5; 9.0 is above all of them and 5.2 only in the box
    theta = np.array([0.0, 0.4, 1.3, 2.9, 0.4, 2.2, 1.0])
    z = np.array([3.2, 4.1, 9.0, 5.2, 3.6, 2.95, 4.9])
    s = np.random.default_rng(8).uniform(-4.0, 4.0, (theta.size, 31))
    specs = [PhantomSpec((p,)) for p in mixed_spec.primitives] + [mixed_spec]
    for spec in specs:
        for prim in spec.primitives:
            cuts = prim.crossings(theta[:, None], s, z[:, None])
            for j in range(theta.size):
                np.testing.assert_array_equal(
                    cuts[j], prim.crossings(theta[j], s[j], z[j]))
                if not prim.covers(z[j]):
                    assert np.isnan(cuts[j]).all()
        got = line_integrals(spec, theta[:, None], s, z[:, None])
        for j in range(theta.size):
            np.testing.assert_array_equal(
                got[j], line_integrals(spec, theta[j], s[j], z[j]))
        # (height, angle, line): every height at every angle, as the sweep
        # takes a block of height groups
        grid = line_integrals(spec, theta[:, None], s, z[:, None, None])
        assert grid.shape == (z.size,) + s.shape
        for g in range(z.size):
            np.testing.assert_array_equal(
                grid[g], line_integrals(spec, theta[:, None], s, z[g]))
    rows = line_integrals(mixed_spec, theta[:, None], s, z[:, None])
    # only the height above every primitive gives no line a contribution
    assert list(np.flatnonzero(~np.any(rows != 0.0, axis=1))) == [2]


def test_line_integrals_of_an_empty_scene_are_zero():
    # no primitive gives no crossings; the result still takes the
    # broadcast shape of the lines, a scalar offset counting as one line
    empty = PhantomSpec()
    for got, shape in (
            (line_integrals(empty, 0.3, 1.5, 4.0), (1,)),
            (line_integrals(empty, np.zeros((3, 1)), np.ones((3, 5)),
                            np.arange(3.0)[:, None]), (3, 5)),
            (line_integrals(empty, np.zeros((3, 1)), np.ones((3, 5)),
                            np.arange(2.0)[:, None, None]), (2, 3, 5))):
        assert got.shape == shape
        assert not got.any()


def _disc_chord(cx, cy, r, theta, s):
    d = s - (cx * np.cos(theta) + cy * np.sin(theta))
    return 2.0 * np.sqrt(np.clip(r * r - d * d, 0.0, None))


def test_line_integrals_disc_chord():
    cyl = Cylinder(cx=1.5, cy=-2.0, z_lo=3.0, z_hi=7.0, radius=3.0,
                   contrast=2.2)
    s = np.linspace(-6.0, 6.0, 97)
    for theta in (0.0, 0.7, 1.9, 3.0):
        np.testing.assert_allclose(
            line_integrals(PhantomSpec((cyl,)), theta, s, 5.0),
            1.2 * _disc_chord(1.5, -2.0, 3.0, theta, s), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(
        line_integrals(PhantomSpec((cyl,)), 0.7, s, 7.5), 0.0)
    # a missed line has no crossings
    assert np.all(np.isnan(cyl.crossings(0.0, np.array([10.0]), 5.0)))


def test_line_integrals_sphere_slice():
    sph = Sphere(center=(-1.0, 2.0, 5.0), radius=2.5, contrast=1.7)
    s = np.linspace(-5.0, 5.0, 81)
    for z in (3.0, 5.0, 6.2):
        r = np.sqrt(2.5**2 - (z - 5.0) ** 2)
        for theta in (0.2, 1.3, 2.8):
            np.testing.assert_allclose(
                line_integrals(PhantomSpec((sph,)), theta, s, z),
                0.7 * _disc_chord(-1.0, 2.0, r, theta, s), rtol=0,
                atol=1e-12)
    np.testing.assert_array_equal(
        line_integrals(PhantomSpec((sph,)), 0.2, s, 7.6), 0.0)


def test_line_integrals_rotated_box():
    # 4 x 2 footprint turned by 30 degrees; lines along a box axis cut the
    # full side length, lines through the center at any other angle cut
    # min(2hx/|cos phi|, 2hy/|sin phi|), phi measured from the long axis
    box = Box(center=(0.5, -0.3, 4.0), half_extents=(2.0, 1.0, 1.0),
              angle_deg=30.0, contrast=2.5)
    spec = PhantomSpec((box,))
    a = np.deg2rad(30.0)

    def center_offset(theta):
        return 0.5 * np.cos(theta) - 0.3 * np.sin(theta)

    for theta, half_width, chord in ((a + np.pi / 2, 1.0, 4.0),
                                     (a, 2.0, 2.0)):
        ds = np.array([-0.99, -0.4, 0.0, 0.7, 0.98]) * half_width
        got = line_integrals(spec, theta, center_offset(theta) + ds, 4.5)
        np.testing.assert_allclose(got, 1.5 * chord, rtol=0, atol=1e-12)
        outside = center_offset(theta) + np.array([-1.01, 1.3]) * half_width
        np.testing.assert_array_equal(
            line_integrals(spec, theta, outside, 4.5), 0.0)
    for theta in (0.1, 0.9, 1.7, 2.6):
        phi = theta + np.pi / 2 - a
        want = min(4.0 / abs(np.cos(phi)), 2.0 / abs(np.sin(phi)))
        got = line_integrals(spec, theta, center_offset(theta), 4.5)
        assert got == pytest.approx(1.5 * want, abs=1e-12)


def test_line_integrals_square_polygon_matches_box():
    poly = ExtrudedPolygon(vertices=((-1.5, -2.0), (1.5, -2.0), (1.5, 2.0),
                                     (-1.5, 2.0)),
                           z_lo=1.0, z_hi=3.0, contrast=2.0)
    box = Box(center=(0, 0, 2.0), half_extents=(1.5, 2.0, 1.0),
              angle_deg=0.0, contrast=2.0)
    rng = np.random.default_rng(12)
    s = rng.uniform(-3.0, 3.0, 400)
    for theta in rng.uniform(0.0, np.pi, 6):
        np.testing.assert_allclose(
            line_integrals(PhantomSpec((poly,)), theta, s, 2.0),
            line_integrals(PhantomSpec((box,)), theta, s, 2.0),
            rtol=0, atol=1e-12)
    # vertical lines cut the square's full height
    np.testing.assert_allclose(
        line_integrals(PhantomSpec((poly,)), 0.0, np.array([-1.4, 0.3]), 2.0),
        4.0, rtol=0, atol=1e-12)


def test_line_integrals_last_listed_wins():
    outer = Cylinder(cx=0.0, cy=0.0, z_lo=0.0, z_hi=2.0, radius=3.0,
                     contrast=2.0)
    inner = Cylinder(cx=0.0, cy=0.0, z_lo=0.0, z_hi=2.0, radius=1.0,
                     contrast=5.0)
    s = np.array([0.0, 0.6, 2.0])
    inner_chord = _disc_chord(0, 0, 1.0, 0.4, s)
    outer_chord = _disc_chord(0, 0, 3.0, 0.4, s)
    # the inner disc overwrites its part of the outer one
    np.testing.assert_allclose(
        line_integrals(PhantomSpec((outer, inner)), 0.4, s, 1.0),
        (outer_chord - inner_chord) * 1.0 + inner_chord * 4.0,
        rtol=0, atol=1e-12)
    # listed first, the inner disc is hidden by the outer one
    np.testing.assert_allclose(
        line_integrals(PhantomSpec((inner, outer)), 0.4, s, 1.0),
        outer_chord * 1.0, rtol=0, atol=1e-12)
    assert line_integrals(PhantomSpec((outer, inner)), 0.4, 0.0, 1.0)[0] \
        == pytest.approx(12.0, abs=1e-12)


def _box_volume_error(h, supersample=False):
    box = Box(center=(0.5, -0.3, 4.0), half_extents=(2.9, 1.7, 1.3),
              angle_deg=30.0, contrast=2.0)
    spec = PhantomSpec((box,))
    shape = (int(round(10 / h)), int(round(9 / h)), int(round(4 / h)))
    grid = rasterize(spec, shape, h, (-4.5, -4.8, 2.0), supersample=supersample)
    measured = (grid.values - 1.0).sum() * h**3 / (box.contrast - 1.0)
    return measured - 8 * 2.9 * 1.7 * 1.3


def test_raster_volume_within_voxel_shell():
    # midpoint rasterization error is bounded by a one-voxel surface shell
    surface = 2 * (5.8 * 3.4 + 5.8 * 2.6 + 3.4 * 2.6)
    for h in (0.4, 0.2):
        assert abs(_box_volume_error(h)) < surface * h


def test_raster_volume_converges_on_halving():
    errs = [abs(_box_volume_error(h)) for h in (0.4, 0.2, 0.1)]
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]


def test_supersample_produces_partial_voxels():
    box = Box(center=(0.5, -0.3, 4.0), half_extents=(2.9, 1.7, 1.3),
              angle_deg=30.0, contrast=2.0)
    spec = PhantomSpec((box,))
    grid = rasterize(spec, (25, 23, 10), 0.4, (-4.5, -4.8, 2.0),
                     supersample=True)
    partial = (grid.values > 1.0) & (grid.values < 2.0)
    assert partial.any()
    assert grid.values.min() >= 1.0
    assert grid.values.max() <= 2.0


_lateral = st.floats(-3.0, 3.0)
_extent = st.floats(0.2, 2.0)
_contrast = st.floats(1.1, 4.0)
_height = st.tuples(st.floats(1.0, 3.0), _extent).map(
    lambda zh: (zh[0], zh[0] + zh[1]))
_scene = st.lists(st.one_of(
    st.builds(Box, center=st.tuples(_lateral, _lateral, st.floats(1.0, 4.0)),
              half_extents=st.tuples(_extent, _extent, _extent),
              angle_deg=st.floats(0.0, 180.0), contrast=_contrast),
    st.builds(lambda c, z, r, eps: Cylinder(*c, *z, r, eps),
              st.tuples(_lateral, _lateral), _height, _extent, _contrast),
    st.builds(Sphere, center=st.tuples(_lateral, _lateral, st.floats(1.0, 4.0)),
              radius=_extent, contrast=_contrast),
    st.builds(lambda v, z, eps: ExtrudedPolygon(v, *z, eps),
              st.lists(st.tuples(_lateral, _lateral), min_size=3, max_size=6)
              .map(tuple), _height, _contrast)),
    min_size=1, max_size=4).map(PhantomSpec)


def _off_faces(spec, x, y, z, eps=1e-7):
    """Where the closed rule keeps its value under lateral shifts by eps.

    A point within eps/sqrt(2) of a lateral face, where the closed and the
    half-open rule may differ, changes value under one of the shifts.
    """
    here = point_oracle.permittivity(spec, x, y, z)
    keep = np.ones(here.shape, dtype=bool)
    for dx, dy in ((eps, 0), (-eps, 0), (0, eps), (0, -eps)):
        keep &= point_oracle.permittivity(spec, x + dx, y + dy, z) == here
    return keep


@settings(max_examples=25, deadline=None)
@given(spec=_scene, seed=st.integers(0, 2**32 - 1),
       supersample=st.booleans())
def test_parity_rule_matches_closed_rule_off_faces(spec, seed, supersample):
    """The program's one inside rule against the closed point tests.

    Random planes at random heights go through eval_permittivity, and a
    voxel grid through rasterize; every value whose sample points all lie
    off the lateral faces must match the oracle exactly.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-6.0, 6.0, 300)
    y = rng.uniform(-6.0, 6.0, 300)
    z = rng.uniform(0.5, 7.0, 8)
    got = eval_permittivity(spec, x, y, z)
    want = point_oracle.permittivity(spec, x, y, z[:, None])
    keep = _off_faces(spec, x, y, z[:, None])
    assert keep.mean() > 0.9
    np.testing.assert_array_equal(got[keep], want[keep])

    h = 0.61
    lo = np.floor(np.array(spec.bounds()[0::2]) / h) - 1
    shape = tuple(int(n) for n in np.ceil(np.array(spec.bounds()[1::2]) / h)
                  + 1 - lo)
    grid = rasterize(spec, shape, h, lo * h, supersample=supersample)
    want = point_oracle.raster(spec, shape, h, lo * h, supersample)
    centres = [h * (lo[i] + np.arange(n) + 0.5) for i, n in enumerate(shape)]
    keep = np.ones(grid.values.shape, dtype=bool)
    offsets = (-0.25, 0.25) if supersample else (0.0,)
    for ox, oy, oz in itertools.product(offsets, repeat=3):
        keep &= _off_faces(spec, centres[0][None, None, :] + ox * h,
                           centres[1][None, :, None] + oy * h,
                           centres[2][:, None, None] + oz * h)
    assert keep.mean() > 0.9
    np.testing.assert_array_equal(grid.values[keep], want[keep])


def test_raster_grid_must_cover_phantom():
    spec = PhantomSpec((Sphere(center=(0, 0, 0), radius=5.0, contrast=2.0),))
    with pytest.raises(GridCoverageError):
        rasterize(spec, (10, 10, 10), 0.5, (-2.5, -2.5, -2.5))


def test_voxel_grid_validation():
    with pytest.raises(ValueError):
        VoxelGrid(values=np.zeros((2, 2, 2)), spacing=(1, 1, 1),
                  origin=(0, 0, 0))
    with pytest.raises(ValueError):
        VoxelGrid(values=np.ones((2, 2)), spacing=(1, 1, 1), origin=(0, 0, 0))
    with pytest.raises(ValueError):
        VoxelGrid(values=np.ones((2, 2, 2)), spacing=(1, 0, 1),
                  origin=(0, 0, 0))


def test_voxel_round_trip(tmp_path, mixed_spec):
    grid = rasterize(mixed_spec, (20, 19, 9), 0.5, (-4.5, -4.8, 2.0))
    path = tmp_path / "phantom.ectv"
    save_voxels(grid, path)
    back = load_voxels(path)
    np.testing.assert_array_equal(back.values,
                                  grid.values.astype("<f4").astype(float))
    assert back.spacing == grid.spacing
    assert back.origin == grid.origin


def test_voxel_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ectv"
    path.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(VoxelFileError):
        load_voxels(path)


def test_voxel_load_rejects_bad_grid(tmp_path, voxel_blob):
    path = tmp_path / "bad.ectv"
    # spacing x (offset 16), spacing z (offset 32), first sample (offset 64)
    for offset, field in ((16, np.float64(0.0).tobytes()),
                          (32, np.float64(np.nan).tobytes()),
                          (64, np.float32(-1.0).tobytes())):
        bad = bytearray(voxel_blob)
        bad[offset:offset + len(field)] = field
        path.write_bytes(bytes(bad))
        with pytest.raises(VoxelFileError, match="bad grid"):
            load_voxels(path)


def test_voxel_load_rejects_non_finite_samples(tmp_path, voxel_blob):
    bad = bytearray(voxel_blob)
    bad[64:68] = np.float32(np.nan).tobytes()
    path = tmp_path / "bad.ectv"
    path.write_bytes(bytes(bad))
    with pytest.raises(VoxelFileError, match="non-finite"):
        load_voxels(path)


def test_voxel_load_rejects_truncation(tmp_path, mixed_spec):
    grid = rasterize(mixed_spec, (8, 8, 4), 1.2, (-4.6, -4.9, 2.0))
    path = tmp_path / "trunc.ectv"
    save_voxels(grid, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(VoxelFileError):
        load_voxels(path)


@pytest.fixture(scope="module")
def voxel_blob(mixed_spec):
    return pack_voxels(rasterize(mixed_spec, (8, 8, 4), 1.2,
                                 (-4.6, -4.9, 2.0)))


# ECTV header: magic, nx, ny, nz, spacing (3), origin (3)
_ECTV_HEADER = struct.Struct("<4s3I6d")


def test_voxel_load_rejects_non_finite_origin(tmp_path, voxel_blob):
    path = tmp_path / "bad.ectv"
    fields = _ECTV_HEADER.unpack_from(voxel_blob)
    for i, value in itertools.product((7, 8, 9), (np.nan, np.inf, -np.inf)):
        bad = bytearray(voxel_blob)
        _ECTV_HEADER.pack_into(bad, 0, *fields[:i], value, *fields[i + 1:])
        path.write_bytes(bytes(bad))
        with pytest.raises(VoxelFileError, match="origin must be finite"):
            load_voxels(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(counts=st.dictionaries(st.integers(1, 3), st.integers(0, 2**32 - 1),
                              max_size=2),
       reals=st.dictionaries(st.integers(4, 9), st.floats(), max_size=2),
       cut=st.one_of(st.just(0), st.integers(1, 1100)),
       edits=st.lists(st.tuples(st.integers(0, 1100), st.integers(0, 255)),
                      max_size=4))
def test_voxel_load_raises_only_its_own_error(tmp_path, voxel_blob, counts,
                                              reals, cut, edits):
    # whole header fields are replaced, so that the grid's own checks are
    # reached; then bytes anywhere are edited and the file may be cut short
    fields = list(_ECTV_HEADER.unpack_from(voxel_blob))
    for i, value in {**counts, **reals}.items():
        fields[i] = value
    blob = bytearray(_ECTV_HEADER.pack(*fields)
                     + voxel_blob[_ECTV_HEADER.size:])
    for pos, value in edits:
        blob[pos % len(blob)] = value
    path = tmp_path / "mutated.ectv"
    path.write_bytes(bytes(blob[:len(blob) - cut % len(blob)]))
    try:
        load_voxels(path)
    except VoxelFileError:
        pass
