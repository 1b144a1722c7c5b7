import csv
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capradon import recon
from capradon.forward import SensorGeometry, SinogramSet
from capradon.recon import (
    FilterSpec,
    LayerFileError,
    backproject,
    export_layer_csv,
    filter_sinogram,
    import_layer_csv,
    load_layer,
    pack_layer,
    ramp_filter,
    reconstruct_layers,
    save_layer,
)


def disc_rows(angles, n_det, radius, center=(0.0, 0.0)):
    """Ideal parallel-beam chords of a unit-contrast disc, sample units."""
    s = np.arange(n_det) - (n_det - 1) / 2.0
    rows = np.zeros((angles.size, n_det))
    for j, theta in enumerate(angles):
        sc = center[0] * np.cos(theta) + center[1] * np.sin(theta)
        h2 = radius**2 - (s - sc) ** 2
        rows[j] = np.where(h2 > 0, 2 * np.sqrt(np.maximum(h2, 0.0)), 0.0)
    return rows


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(window="boxcar")
    with pytest.raises(ValueError):
        FilterSpec(interpolation="cubic")
    with pytest.raises(ValueError):
        FilterSpec(size=1)
    with pytest.raises(ValueError):
        FilterSpec(pixel_pitch=0.0)


@pytest.mark.parametrize("pitch", [np.nan, np.inf])
def test_filter_spec_rejects_non_finite_pitch(pitch):
    with pytest.raises(ValueError, match="finite"):
        FilterSpec(pixel_pitch=pitch)


def test_ramp_filter_bins():
    resp = ramp_filter(55, "ram-lak")
    # next power of two at or above 110 is 128
    assert resp.size == 128 // 2 + 1
    assert resp[0] == 0.0
    assert resp[-1] == 0.5
    freq = np.fft.rfftfreq(128)
    np.testing.assert_allclose(resp[1:], freq[1:], rtol=0, atol=0)

    ham = ramp_filter(55, "hamming")
    assert ham[0] == 0.0
    assert ham[-1] == pytest.approx(0.5 * 0.08)
    han = ramp_filter(55, "hann")
    assert han[-1] == pytest.approx(0.0, abs=1e-15)
    # smoothing only ever attenuates
    assert np.all(ham[1:] < resp[1:])
    assert np.all(han[1:] < ham[1:])


def test_ramp_filter_validation():
    with pytest.raises(ValueError):
        ramp_filter(0)
    with pytest.raises(ValueError):
        ramp_filter(16, "none")
    with pytest.raises(ValueError):
        ramp_filter(16, "boxcar")


def test_filter_zero_rows():
    out = filter_sinogram(np.zeros((3, 21)), "hamming")
    np.testing.assert_array_equal(out, 0.0)
    assert out.shape == (3, 21)


def test_filter_impulse_matches_kernel():
    n_det = 33
    resp = ramp_filter(n_det, "hamming")
    nfft = 2 * (resp.size - 1)
    rows = np.zeros((1, n_det))
    rows[0, 10] = 1.0
    out = filter_sinogram(rows, "hamming")
    kernel = np.fft.irfft(resp, n=nfft)
    want = kernel[(np.arange(n_det) - 10) % nfft]
    np.testing.assert_allclose(out[0], want, rtol=0, atol=1e-15)


def test_filter_constant_rows_nearly_vanish():
    # zero DC gain kills a constant except for pad ripple near the edges
    rows = np.full((2, 64), 5.0)
    out = filter_sinogram(rows, "ram-lak")
    assert np.abs(out[:, 8:-8]).max() < 0.05
    assert abs(out.mean()) < 0.05


def test_filter_none_is_identity():
    rows = np.arange(12.0).reshape(2, 6)
    out = filter_sinogram(rows, "none")
    np.testing.assert_array_equal(out, rows)
    assert out is not rows


def test_filter_rejects_bad_shape():
    with pytest.raises(ValueError):
        filter_sinogram(np.zeros(8), "ram-lak")


def test_backproject_single_angle_constant():
    spec = FilterSpec(window="none", size=32, pixel_pitch=1.0)
    rows = np.full((1, 64), 3.0)
    img = backproject(rows, np.array([0.7]), spec)
    np.testing.assert_allclose(img, np.pi * 3.0, rtol=0, atol=1e-12)


def test_backproject_stripe_orientation():
    # a theta=0 profile varies with x only: image columns stay constant
    rows = np.zeros((1, 64))
    rows[0, 30:40] = 2.0
    spec = FilterSpec(window="none", size=64, pixel_pitch=1.0)
    img = backproject(rows, np.array([0.0]), spec)
    np.testing.assert_allclose(img, np.pi * np.broadcast_to(rows[0], img.shape),
                               rtol=0, atol=1e-12)
    near = backproject(rows, np.array([0.0]),
                       FilterSpec(window="none", interpolation="nearest",
                                  size=64, pixel_pitch=1.0))
    np.testing.assert_allclose(near, img, rtol=0, atol=1e-12)


def test_backproject_outside_detector_range_is_zero():
    spec = FilterSpec(window="none", size=41, pixel_pitch=5.0)
    rows = np.full((1, 16), 1.0)
    img = backproject(rows, np.array([0.0]), spec)
    assert img[0, 0] == 0.0 and img[-1, -1] == 0.0
    assert img[20, 20] == pytest.approx(np.pi)


def test_backproject_validation():
    spec = FilterSpec(size=8, pixel_pitch=1.0)
    with pytest.raises(ValueError):
        backproject(np.zeros((2, 8)), np.zeros(3), spec)
    with pytest.raises(ValueError):
        backproject(np.zeros((2, 8)), np.zeros(2), spec, det_spacing=0.0)
    with pytest.raises(ValueError):
        backproject(np.zeros((2, 3, 8)), np.zeros(2), spec)
    with pytest.raises(ValueError):
        backproject(np.zeros((1, 2, 3, 8)), np.zeros(3), spec)


@pytest.mark.parametrize("det_spacing", [np.nan, np.inf, 1e-320])
def test_backproject_rejects_bad_det_spacing(det_spacing):
    # 1e-320 is positive, but it sends the frame's rays past the float range
    spec = FilterSpec(size=8, pixel_pitch=1.0)
    with pytest.raises(ValueError, match="det_spacing"):
        backproject(np.ones((2, 8)), np.zeros(2), spec,
                    det_spacing=det_spacing)


@pytest.mark.parametrize("where", ["angles", "filtered"])
def test_backproject_rejects_non_finite_input(where):
    spec = FilterSpec(size=8, pixel_pitch=1.0)
    rows, angles = np.ones((2, 3, 8)), np.zeros(3)
    if where == "angles":
        angles[1] = np.nan
    else:
        rows[1, 2, 5] = np.inf
    with pytest.raises(ValueError, match="finite"):
        backproject(rows, angles, spec)


def backproject_oracle(filtered, angles, spec, det_spacing=1.0):
    """Per-angle np.interp / rint backprojection of one (p, n_det) stack."""
    n_det = filtered.shape[1]
    c = (spec.size - 1) / 2.0
    coords = (np.arange(spec.size) - c) * spec.pixel_pitch
    X = coords[None, :]
    Y = coords[:, None]
    det_center = (n_det - 1) / 2.0
    image = np.zeros((spec.size, spec.size))
    idx = np.arange(n_det, dtype=float)
    for theta, row in zip(angles, filtered):
        s = (X * np.cos(theta) + Y * np.sin(theta)) / det_spacing + det_center
        if spec.interpolation == "linear":
            image += np.interp(s.ravel(), idx, row, left=0.0,
                               right=0.0).reshape(image.shape)
        else:
            near = np.rint(s).astype(int)
            valid = (near >= 0) & (near < n_det)
            image += np.where(valid, row[np.clip(near, 0, n_det - 1)], 0.0)
    return image * (np.pi / angles.size)


# (size, pixel_pitch, n_det, det_spacing): at theta = 0 the first frame puts
# every ray on a detector node, n_det - 1 included, with rays outside on
# both sides; the second puts them half way between nodes, s = -0.5 and
# s = n_det - 0.5 included; the third is generic
BITWISE_FRAMES = [(9, 1.0, 5, 1.0), (8, 1.0, 7, 1.0), (23, 0.7, 17, 1.3)]


@pytest.mark.parametrize("interpolation", ["linear", "nearest"])
@pytest.mark.parametrize("frame", BITWISE_FRAMES)
def test_backproject_matches_oracle_bitwise(frame, interpolation):
    size, pixel_pitch, n_det, det_spacing = frame
    spec = FilterSpec(window="none", interpolation=interpolation, size=size,
                      pixel_pitch=pixel_pitch)
    rng = np.random.default_rng(size)
    angles = np.concatenate([[0.0, np.pi / 2, np.pi], rng.uniform(0, 7, 5)])
    rows = rng.normal(size=(angles.size, n_det))
    want = backproject_oracle(rows, angles, spec, det_spacing)
    got = backproject(rows, angles, spec, det_spacing=det_spacing)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("interpolation", ["linear", "nearest"])
@pytest.mark.parametrize("block_rows", [1, 3])
def test_backproject_stack_in_partial_row_blocks(monkeypatch, interpolation,
                                                 block_rows):
    # 23 rows in blocks of 3 leave a last block of 2
    size, n_det = 23, 17
    monkeypatch.setattr(recon, "_BLOCK_PIXELS", block_rows * size + 1)
    spec = FilterSpec(window="none", interpolation=interpolation, size=size,
                      pixel_pitch=0.9)
    rng = np.random.default_rng(21)
    angles = np.arange(12) * np.pi / 12
    stack = rng.normal(size=(3, angles.size, n_det))
    images = backproject(stack, angles, spec, det_spacing=1.1)
    assert images.shape == (3, size, size)
    for k in range(3):
        np.testing.assert_array_equal(
            images[k], backproject(stack[k], angles, spec, det_spacing=1.1))
        np.testing.assert_array_equal(
            images[k], backproject_oracle(stack[k], angles, spec, 1.1))


@pytest.mark.parametrize("n_angles", [90, 180])
def test_disc_round_trip(n_angles):
    n_det, radius = 101, 30.0
    angles = np.arange(n_angles) * np.pi / n_angles
    rows = disc_rows(angles, n_det, radius)
    c = (n_det - 1) / 2.0
    xx = np.arange(n_det) - c
    rr = xx[None, :] ** 2 + xx[:, None] ** 2
    truth = (rr <= radius**2).astype(float)
    interior = rr <= (radius - 2.0) ** 2
    rmse = {}
    for window in ("ram-lak", "hamming"):
        spec = FilterSpec(window=window, size=n_det, pixel_pitch=1.0)
        img = backproject(filter_sinogram(rows, window), angles, spec)
        assert abs(img[interior].mean() - 1.0) < 0.1
        rmse[window] = np.sqrt(np.mean((img - truth) ** 2))
        assert rmse[window] < 0.1
    assert rmse["ram-lak"] <= rmse["hamming"]


def test_reconstruction_is_linear():
    rng = np.random.default_rng(5)
    geom = SensorGeometry(n=5, pitch=2.0, n_angles=6, standoff=1.0,
                          gaps=(1, 3))
    spec = FilterSpec(window="hamming", size=15, pixel_pitch=1.5)

    def rand_set():
        data = {k: rng.normal(size=(geom.n_angles, geom.detector_count(k)))
                for k in geom.gaps}
        return SinogramSet(geometry=geom, data=data)

    s_a, s_b = rand_set(), rand_set()
    s_sum = SinogramSet(geometry=geom,
                        data={k: s_a.data[k] + s_b.data[k]
                              for k in geom.gaps})
    r_a = reconstruct_layers(s_a, spec)
    r_b = reconstruct_layers(s_b, spec)
    r_sum = reconstruct_layers(s_sum, spec)
    for k in geom.gaps:
        want = r_a[k] + r_b[k]
        peak = np.abs(want).max()
        np.testing.assert_allclose(r_sum[k], want, rtol=0,
                                   atol=1e-10 * peak)


def _bilinear_rotate(img, angle):
    n = img.shape[0]
    c = (n - 1) / 2.0
    jj, ii = np.meshgrid(np.arange(n), np.arange(n))
    x = jj - c
    y = ii - c
    fj = np.cos(angle) * x + np.sin(angle) * y + c
    fi = -np.sin(angle) * x + np.cos(angle) * y + c
    ok = (fj >= 0) & (fj <= n - 1) & (fi >= 0) & (fi <= n - 1)
    j0c = np.clip(np.floor(fj).astype(int), 0, n - 2)
    i0c = np.clip(np.floor(fi).astype(int), 0, n - 2)
    aj = fj - j0c
    ai = fi - i0c
    val = ((1 - ai) * (1 - aj) * img[i0c, j0c]
           + (1 - ai) * aj * img[i0c, j0c + 1]
           + ai * (1 - aj) * img[i0c + 1, j0c]
           + ai * aj * img[i0c + 1, j0c + 1])
    return np.where(ok, val, 0.0)


def _symmetric_pair_rows(angles, n_det):
    rows = np.zeros((angles.size, n_det))
    for sign in (+1.0, -1.0):
        rows += disc_rows(angles, n_det, 9.0, center=(sign * 20.0,
                                                      sign * 8.0))
    return rows


def test_angle_shift_rotates_image():
    # advancing every row by m angle slots turns the image by m*pi/p; the
    # phantom is point symmetric so rows wrap cleanly past theta=pi
    p, n_det = 90, 101
    angles = np.arange(p) * np.pi / p
    rows = _symmetric_pair_rows(angles, n_det)
    spec = FilterSpec(window="hann", size=n_det, pixel_pitch=1.0)
    img0 = backproject(filter_sinogram(rows, "hann"), angles, spec)
    peak = np.abs(img0).max()

    # a quarter turn permutes pixels exactly
    img_q = backproject(filter_sinogram(np.roll(rows, p // 2, axis=0),
                                        "hann"), angles, spec)
    np.testing.assert_allclose(img_q, _bilinear_rotate(img0, np.pi / 2),
                               rtol=0, atol=1e-9 * peak)

    # a generic turn matches up to the oracle's own interpolation blur
    m = 10
    img_m = backproject(filter_sinogram(np.roll(rows, m, axis=0), "hann"),
                        angles, spec)
    rot = _bilinear_rotate(img0, m * np.pi / p)
    trim = 12
    diff = np.abs(img_m - rot)[trim:-trim, trim:-trim].max()
    assert diff < 0.06 * peak


def test_layers_share_one_frame():
    # per-gap detector axes start at the left site; after the k*d/2 shift
    # one disc must land on the same pixel in every layer
    geom = SensorGeometry(n=10, pitch=2.5, n_angles=24, standoff=2.0,
                          gaps=(1, 2, 3, 4))
    angles = geom.angles()
    x0, y0, radius = 6.0, -3.0, 7.5
    data = {}
    for k in geom.gaps:
        centers = geom.detector_offsets(k) + k * geom.pitch / 2.0
        rows = np.zeros((angles.size, centers.size))
        for j, theta in enumerate(angles):
            sc = x0 * np.cos(theta) + y0 * np.sin(theta)
            h2 = radius**2 - (centers - sc) ** 2
            rows[j] = np.where(h2 > 0, 2 * np.sqrt(np.maximum(h2, 0.0)), 0.0)
        data[k] = rows
    sino = SinogramSet(geometry=geom, data=data)
    spec = FilterSpec(window="hamming", size=21, pixel_pitch=2.5)
    stack = reconstruct_layers(sino, spec)
    assert list(stack) == [1, 2, 3, 4]
    want = (round(y0 / 2.5) + 10, round(x0 / 2.5) + 10)
    for k, image in stack.items():
        got = np.unravel_index(np.argmax(np.abs(image)), image.shape)
        assert abs(got[0] - want[0]) <= 1 and abs(got[1] - want[1]) <= 1


def test_layer_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    image = rng.normal(size=(9, 9))
    path = tmp_path / "layer_k2.ectl"
    save_layer(image, 2, 2.5, path)
    gap, pitch, back = load_layer(path)
    assert gap == 2 and pitch == 2.5
    np.testing.assert_array_equal(back, image.astype("<f4").astype(float))
    assert pack_layer(back, gap, pitch) == path.read_bytes()


def test_layer_load_rejects_garbage(tmp_path):
    path = tmp_path / "layer.ectl"
    save_layer(np.zeros((4, 4)), 1, 2.5, path)
    blob = path.read_bytes()
    bad = tmp_path / "bad.ectl"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(LayerFileError, match="magic"):
        load_layer(bad)
    bad.write_bytes(blob[:4] + b"\x63\x00" + blob[6:])
    with pytest.raises(LayerFileError, match="version"):
        load_layer(bad)
    bad.write_bytes(blob[:-3])
    with pytest.raises(LayerFileError):
        load_layer(bad)
    with pytest.raises(ValueError):
        pack_layer(np.zeros((3, 4)), 1, 2.5)
    for pitch in (np.nan, -2.5, np.inf):
        bad.write_bytes(pack_layer(np.zeros((4, 4)), 1, pitch))
        with pytest.raises(LayerFileError, match="frame"):
            load_layer(bad)
    bad.write_bytes(blob[:8] + b"\x00\x00\x00\x00" + blob[12:20])
    with pytest.raises(LayerFileError, match="frame"):
        load_layer(bad)
    nonfinite = bytearray(blob)
    nonfinite[20:24] = np.float32(np.nan).tobytes()
    bad.write_bytes(bytes(nonfinite))
    with pytest.raises(LayerFileError, match="non-finite"):
        load_layer(bad)


def test_layer_gap_below_one_is_refused(tmp_path):
    path = tmp_path / "layer.ectl"
    with pytest.raises(ValueError, match="gap"):
        save_layer(np.zeros((4, 4)), 0, 2.5, path)
    # the refused pack leaves no file, and an existing one as it was
    assert not path.exists()
    kept = tmp_path / "kept.ectl"
    kept.write_bytes(b"kept")
    with pytest.raises(ValueError, match="gap"):
        save_layer(np.zeros((4, 4)), 0, 2.5, kept)
    assert kept.read_bytes() == b"kept"
    # the gap is the u16 at offset 6, after the magic and the version
    blob = bytearray(pack_layer(np.zeros((4, 4)), 1, 2.5))
    struct.pack_into("<H", blob, 6, 0)
    path.write_bytes(bytes(blob))
    with pytest.raises(LayerFileError, match="gap 0"):
        load_layer(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.one_of(st.just(0), st.integers(min_value=0, max_value=100)),
       edits=st.lists(st.tuples(st.one_of(st.integers(0, 19),
                                          st.integers(0, 100)),
                                st.integers(0, 255)), max_size=4))
def test_layer_load_raises_only_its_own_error(tmp_path, cut, edits):
    # the 20 header bytes are drawn as often as the rest of the file, and
    # half the files keep their full length, so a mutated header is read
    blob = bytearray(pack_layer(np.arange(16.0).reshape(4, 4), 2, 2.5))
    for pos, value in edits:
        blob[pos % len(blob)] = value
    path = tmp_path / "mutated.ectl"
    path.write_bytes(bytes(blob[:len(blob) - cut % len(blob)]))
    try:
        gap, pitch, image = load_layer(path)
    except LayerFileError:
        return
    assert gap >= 1 and 0 < pitch < np.inf
    assert image.ndim == 2 and image.shape[0] == image.shape[1] >= 1


def test_layer_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    image = rng.normal(size=(7, 7))
    path = tmp_path / "layer.csv"
    export_layer_csv(image, path)
    np.testing.assert_array_equal(import_layer_csv(path), image)


@pytest.mark.parametrize("text", ["1.0,2.0\r\n3.0\r\n",
                                  "1.0,2.0\r\n3.0,x\r\n",
                                  "1.0,2.0\r\n3.0,\r\n",
                                  "",
                                  "\r\n",
                                  "1.0,2.0,3.0\r\n4.0,5.0,6.0\r\n",
                                  "1.0,nan\r\n3.0,4.0\r\n",
                                  "1.0,2.0\r\n-inf,4.0\r\n"])
def test_layer_csv_import_rejects_garbage(tmp_path, text):
    path = tmp_path / "layer.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LayerFileError):
            import_layer_csv(path)


def test_layer_csv_bytes_match_csv_writer(tmp_path):
    # oracle: the stdlib writer on repr'd floats (comma separated, CRLF row
    # ends, shortest round-tripping repr), the layer CSV format
    rng = np.random.default_rng(13)
    image = rng.normal(size=(5, 6)) * 10.0 ** rng.integers(-20, 20, (5, 6))
    image[0, :4] = [0.0, -0.0, 1e-300, -123456789.0]
    image[1, :3] = [np.inf, -np.inf, np.nan]
    path = tmp_path / "layer.csv"
    export_layer_csv(image, path)
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in image:
            writer.writerow([repr(float(v)) for v in row])
    assert path.read_bytes() == oracle.read_bytes()
