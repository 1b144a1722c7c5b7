"""Sensitivity-weight synthesis, conditioning, profiling, and file I/O."""

import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capradon.greenfn import eval_green, potential_coefficients
from capradon.weights import (
    DegenerateWeightError,
    WeightFileError,
    WeightGrid,
    condition_weight,
    load_weight,
    pack_weight,
    save_weight,
    synthesize_weight,
)

from depth_profile import depth_profile
from potential_oracle import potential


@pytest.fixture(scope="module")
def coeffs():
    return potential_coefficients(16, 0.1)


@pytest.fixture(scope="module")
def raw_gap2(coeffs):
    return synthesize_weight(coeffs, (2,))[2]


def test_default_window(coeffs):
    w = synthesize_weight(coeffs, (3,))[3]
    assert w.nx == int(round((3 + 8) / 0.05)) + 1
    assert w.nz == 160
    assert w.x_coords()[0] == pytest.approx(-4.0)
    assert w.x_coords()[-1] == pytest.approx(7.0)
    assert w.z_coords()[0] == pytest.approx(0.05)
    assert w.z_coords()[-1] == pytest.approx(8.0)
    assert w.scale == 1.0 and w.z_cut == 0.0


def test_mirror_symmetry_about_pair_midpoint(coeffs):
    # the x grid is symmetric about k/2, so mirroring is an index reversal
    for k, w in synthesize_weight(coeffs, (1, 2, 3, 4)).items():
        v = w.values
        assert np.max(np.abs(v - v[:, ::-1])) < 1e-12


def test_matches_independent_finite_difference_oracle(coeffs):
    # rebuild a few samples from scratch: kernel sums and FD gradients only
    def f(x, z):
        return sum(a * eval_green(x / (m + 1), z / (m + 1))
                   for m, a in enumerate(coeffs.alpha))

    def grad(x, z, h=1e-6):
        return ((f(x + h, z) - f(x - h, z)) / (2 * h),
                (f(x, z + h) - f(x, z - h)) / (2 * h))

    w = synthesize_weight(coeffs, (2,))[2]
    xs, zs = w.x_coords(), w.z_coords()
    rng = np.random.default_rng(3)
    for _ in range(10):
        ix, iz = rng.integers(0, w.nx), rng.integers(0, w.nz)
        ga, gb = grad(xs[ix], zs[iz]), grad(xs[ix] - 2, zs[iz])
        want = -(ga[0] * gb[0] + ga[1] * gb[1])
        assert w.values[iz, ix] == pytest.approx(want, rel=1e-5, abs=1e-9)


def test_weight_takes_both_signs(coeffs):
    v = synthesize_weight(coeffs, (1,))[1].values
    assert v.max() > 0 and v.min() < 0


def test_boundary_decay(coeffs):
    # sensitivity above 8 pitches is < 1e-6 of the grid peak
    for w in synthesize_weight(coeffs, (1, 4), z_max=10.0).values():
        deep = np.abs(w.values[w.z_coords() > 8.0, :])
        assert deep.max() < 1e-6 * np.abs(w.values).max()


def test_synthesize_validation(coeffs):
    with pytest.raises(ValueError):
        synthesize_weight(coeffs, (0,))
    with pytest.raises(ValueError):
        synthesize_weight(coeffs, (2,), dx=-0.1)
    with pytest.raises(ValueError):
        synthesize_weight(coeffs, (2,), z_max=0.0)


def test_synthesize_rejects_bad_gaps_and_dx(coeffs):
    with pytest.raises(ValueError, match="gap"):
        synthesize_weight(coeffs, ())
    with pytest.raises(ValueError, match="gap"):
        synthesize_weight(coeffs, (2, 0))
    with pytest.raises(ValueError, match="integer"):
        synthesize_weight(coeffs, (1, 2), dx=0.3)


def test_multi_gap_call_equals_single_gap_calls(coeffs):
    # x is defined by lattice index, so a grid does not depend on the others
    multi = synthesize_weight(coeffs, (3, 1, 4, 2))
    assert list(multi) == [3, 1, 4, 2]
    for k, grid in multi.items():
        single = synthesize_weight(coeffs, (k,))[k]
        assert np.array_equal(grid.values, single.values)
        assert (grid.gap, grid.dx, grid.dz, grid.x_origin, grid.z_origin) == (
            single.gap, single.dx, single.dz, single.x_origin, single.z_origin)


def _two_window_weight(coeffs, gap, x_pad=4.0, z_max=8.0, dx=0.05, dz=0.05):
    # oracle: the point-wise gradient evaluated separately at x and at
    # x - gap on the gap's own window, instead of as two slices of one
    # shared tensor-grid evaluation
    nx = int(round((gap + 2 * x_pad) / dx)) + 1
    x = (-x_pad + dx * np.arange(nx))[None, :]
    z = (dz * (1.0 + np.arange(int(round(z_max / dz)))))[:, None]
    _, (g1a, g2a) = potential(coeffs, x, z)
    _, (g1b, g2b) = potential(coeffs, x - gap, z)
    return WeightGrid(gap=gap, dx=dx, dz=dz, x_origin=-x_pad, z_origin=dz,
                      values=-(g1a * g1b + g2a * g2b))


def test_shared_gradient_matches_two_window_oracle(coeffs):
    # the two x axes differ only by rounding, so the raw grids agree to
    # 1e-13 of the peak (elementwise they differ relatively more only where
    # the weight crosses zero), and the saved f32 payloads are equal
    for k, grid in synthesize_weight(coeffs, (1, 2, 3, 4)).items():
        want = _two_window_weight(coeffs, k)
        assert grid.values.shape == want.values.shape
        peak = np.max(np.abs(want.values))
        assert np.max(np.abs(grid.values - want.values)) <= 1e-13 * peak
        got, ref = condition_weight(grid, 1.0), condition_weight(want, 1.0)
        assert np.array_equal(got.values.astype("<f4"),
                              ref.values.astype("<f4"))
        assert got.scale == pytest.approx(ref.scale, rel=1e-13)


def test_condition_truncates_and_normalizes(raw_gap2):
    cw = condition_weight(raw_gap2, 1.0)
    z = cw.z_coords()
    assert not cw.values[z < 1.0, :].any()
    assert np.max(np.abs(cw.values)) == 1.0
    assert cw.values.max() == 1.0  # positive arch dominates for gap 2
    assert cw.scale > 0 and cw.z_cut == 1.0


def test_condition_idempotent(raw_gap2):
    once = condition_weight(raw_gap2, 1.0)
    twice = condition_weight(once, 1.0)
    assert np.array_equal(once.values, twice.values)
    assert twice.scale == once.scale and twice.z_cut == once.z_cut


def test_condition_zero_cut_is_identity_on_conditioned(raw_gap2):
    once = condition_weight(raw_gap2, 0.0)
    again = condition_weight(once, 0.0)
    assert np.array_equal(once.values, again.values)
    assert again.scale == once.scale


def test_condition_scale_doubles_with_input(raw_gap2):
    doubled = replace(raw_gap2, values=2.0 * raw_gap2.values)
    a = condition_weight(raw_gap2, 1.0)
    b = condition_weight(doubled, 1.0)
    assert np.array_equal(a.values, b.values)
    assert b.scale == pytest.approx(2.0 * a.scale, rel=1e-15)


def test_condition_degenerate(raw_gap2):
    with pytest.raises(DegenerateWeightError):
        condition_weight(raw_gap2, 100.0)


def test_depth_profile_formula(raw_gap2):
    cw = condition_weight(raw_gap2, 1.0)
    prof = depth_profile(cw)
    np.testing.assert_allclose(
        prof.mass, np.abs(cw.values).sum(axis=1) * cw.dx, rtol=1e-14)
    want = float((prof.z * prof.mass).sum() / prof.mass.sum())
    assert prof.barycenter == pytest.approx(want, rel=1e-14)
    # truncated rows carry no mass
    assert not prof.mass[prof.z < 1.0].any()


def test_depth_profile_single_sample():
    values = np.zeros((4, 3))
    values[2, 1] = 1.0
    grid = WeightGrid(gap=1, dx=0.1, dz=0.5, x_origin=0.0, z_origin=0.5,
                      values=values)
    prof = depth_profile(grid)
    assert prof.barycenter == pytest.approx(0.5 + 2 * 0.5)


def test_depth_profile_measured_barycenters(coeffs):
    # regression pin of the measured |w| barycenters at defaults (z_cut = 1);
    # they are not ordered in the gap.  Depth ordering is checked on the
    # signed weight's lobe bottom in the acceptance suite ([A3])
    want = {1: 1.9389, 2: 1.7637, 3: 1.6577}
    raw = synthesize_weight(coeffs, tuple(want))
    for k, value in want.items():
        cw = condition_weight(raw[k], 1.0)
        assert depth_profile(cw).barycenter == pytest.approx(value, abs=2e-4)


def test_save_load_round_trip(tmp_path, raw_gap2):
    cw = condition_weight(raw_gap2, 1.0)
    path = tmp_path / "w2.ectw"
    save_weight(cw, path)
    back = load_weight(path)
    assert back.gap == cw.gap
    assert (back.dx, back.dz) == (cw.dx, cw.dz)
    assert (back.x_origin, back.z_origin) == (cw.x_origin, cw.z_origin)
    assert back.scale == cw.scale and back.z_cut == cw.z_cut
    np.testing.assert_array_equal(back.values, cw.values.astype("<f4"))
    # a second trip through bytes is exact
    assert pack_weight(back) == path.read_bytes()


def test_save_requires_conditioned(tmp_path, raw_gap2):
    path = tmp_path / "raw.ectw"
    with pytest.raises(ValueError, match="conditioned"):
        save_weight(raw_gap2, path)
    # the refused pack leaves no file, and an existing one as it was
    assert not path.exists()
    kept = tmp_path / "kept.ectw"
    kept.write_bytes(b"kept")
    with pytest.raises(ValueError, match="conditioned"):
        save_weight(raw_gap2, kept)
    assert kept.read_bytes() == b"kept"


def test_load_rejects_bad_magic(tmp_path, raw_gap2):
    path = tmp_path / "w.ectw"
    save_weight(condition_weight(raw_gap2, 1.0), path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(WeightFileError):
        load_weight(path)


def test_load_rejects_bad_version(tmp_path, raw_gap2):
    path = tmp_path / "w.ectw"
    save_weight(condition_weight(raw_gap2, 1.0), path)
    blob = bytearray(path.read_bytes())
    blob[4:6] = (99).to_bytes(2, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(WeightFileError):
        load_weight(path)


def test_load_rejects_truncated_payload(tmp_path, raw_gap2):
    path = tmp_path / "w.ectw"
    save_weight(condition_weight(raw_gap2, 1.0), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(WeightFileError):
        load_weight(path)


def test_load_rejects_bad_header_fields(tmp_path, raw_gap2):
    path = tmp_path / "w.ectw"
    save_weight(condition_weight(raw_gap2, 1.0), path)
    blob = path.read_bytes()
    # gap (offset 6), dx (offset 18)
    for offset, field in ((6, (0).to_bytes(4, "little")),
                          (18, np.float64(-0.05).tobytes()),
                          (18, np.float64(np.nan).tobytes())):
        bad = bytearray(blob)
        bad[offset:offset + len(field)] = field
        path.write_bytes(bytes(bad))
        with pytest.raises(WeightFileError, match="bad header"):
            load_weight(path)


def test_load_rejects_non_finite_samples(tmp_path, raw_gap2):
    path = tmp_path / "w.ectw"
    save_weight(condition_weight(raw_gap2, 1.0), path)
    blob = bytearray(path.read_bytes())
    for value in (np.nan, np.inf):
        blob[-4:] = np.float32(value).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightFileError, match="non-finite"):
            load_weight(path)


def test_asymmetric_grid_survives_io(tmp_path):
    # externally computed grids may be asymmetric; nothing re-symmetrizes them
    rng = np.random.default_rng(5)
    values = rng.normal(size=(6, 9))
    values /= np.max(np.abs(values))
    grid = WeightGrid(gap=2, dx=0.5, dz=0.25, x_origin=-2.0, z_origin=0.25,
                      values=values, scale=3.0, z_cut=0.0)
    path = tmp_path / "fem.ectw"
    save_weight(grid, path)
    back = load_weight(path)
    np.testing.assert_array_equal(back.values, values.astype("<f4"))
    assert np.max(np.abs(back.values - back.values[:, ::-1])) > 0.1


@pytest.fixture(scope="module")
def weight_blob():
    values = np.linspace(-1.0, 1.0, 4 * 9).reshape(4, 9)
    return pack_weight(WeightGrid(gap=2, dx=0.5, dz=0.25, x_origin=-2.0,
                                  z_origin=0.25, values=values))


# ECTW header: magic, version, gap, nx, nz, dx, dz, x0, z0, scale, z_cut
_ECTW_HEADER = struct.Struct("<4sH3I6d")


def test_load_rejects_non_finite_header_numbers(tmp_path, weight_blob):
    path = tmp_path / "bad.ectw"
    fields = _ECTW_HEADER.unpack_from(weight_blob)
    # x0, z0, scale and z_cut
    for i in (7, 8, 9, 10):
        for value in (np.nan, np.inf, -np.inf):
            bad = bytearray(weight_blob)
            _ECTW_HEADER.pack_into(bad, 0, *fields[:i], value,
                                   *fields[i + 1:])
            path.write_bytes(bytes(bad))
            with pytest.raises(WeightFileError, match="must be finite"):
                load_weight(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(counts=st.dictionaries(st.integers(2, 4), st.integers(0, 2**32 - 1),
                              max_size=2),
       reals=st.dictionaries(st.integers(5, 10), st.floats(), max_size=2),
       cut=st.one_of(st.just(0), st.integers(1, 220)),
       edits=st.lists(st.tuples(st.integers(0, 220), st.integers(0, 255)),
                      max_size=4))
def test_weight_load_raises_only_its_own_error(tmp_path, weight_blob, counts,
                                               reals, cut, edits):
    # whole header fields are replaced, so that the grid's own checks are
    # reached; then bytes anywhere are edited and the file may be cut short
    fields = list(_ECTW_HEADER.unpack_from(weight_blob))
    for i, value in {**counts, **reals}.items():
        fields[i] = value
    blob = bytearray(_ECTW_HEADER.pack(*fields)
                     + weight_blob[_ECTW_HEADER.size:])
    for pos, value in edits:
        blob[pos % len(blob)] = value
    path = tmp_path / "mutated.ectw"
    path.write_bytes(bytes(blob[:len(blob) - cut % len(blob)]))
    try:
        load_weight(path)
    except WeightFileError:
        pass
