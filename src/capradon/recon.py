"""Filtered backprojection of per-gap sinograms into depth layers.

Filtering runs on the detector axis in sample units: the ramp response
is |omega| in cycles per sample (Nyquist 0.5) on a zero-padded FFT grid,
optionally shaped by a smoothing window.  Backprojection accumulates
(pi / n_angles) * sum over angles of the interpolated filtered rows at
s = x*cos(theta) + y*sin(theta).

Each gap's detector axis is centered k*pitch/2 to the right of the left
electrode site, so rows are resampled onto the shared 2n+1 site lattice
before filtering; layers of a stack therefore share one image frame.
"""

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .framing import read_header, read_samples

__all__ = [
    "WINDOWS",
    "INTERPOLATIONS",
    "FilterSpec",
    "LayerFileError",
    "ramp_filter",
    "filter_sinogram",
    "backproject",
    "reconstruct_layers",
    "pack_layer",
    "save_layer",
    "load_layer",
    "export_layer_csv",
    "import_layer_csv",
]

# Smoothing windows a + b*cos(pi*omega/0.5) on the ramp; "none" skips
# filtering altogether.
_WINDOW_SHAPES = {"ram-lak": (1.0, 0.0), "hamming": (0.54, 0.46),
                  "hann": (0.5, 0.5)}
WINDOWS = (*_WINDOW_SHAPES, "none")
INTERPOLATIONS = ("linear", "nearest")

_ECTL_MAGIC = b"ECTL"
_ECTL_VERSION = 1
_ECTL_HEADER = struct.Struct("<4sHHId")
# Backprojection works on image rows in blocks of at most this many pixels
# (one row if a row is longer), reusing four block buffers across angles.
# Whole-image buffers were about as fast, but at image size 255 they
# raised the minor page faults of one recon run from about 0.4k to 1.6k.
_BLOCK_PIXELS = 8192


class LayerFileError(ValueError):
    """Layer file is not a well-formed ECTL payload or layer CSV."""


@dataclass(frozen=True)
class FilterSpec:
    """Reconstruction parameters: smoothing window, sampling, image frame."""

    window: str = "hamming"
    interpolation: str = "linear"
    size: int = 55
    pixel_pitch: float = 2.5

    def __post_init__(self):
        if self.window not in WINDOWS:
            raise ValueError(f"window must be one of {WINDOWS}")
        if self.interpolation not in INTERPOLATIONS:
            raise ValueError(
                f"interpolation must be one of {INTERPOLATIONS}")
        if self.size < 2:
            raise ValueError("size must be at least 2")
        if not 0 < self.pixel_pitch < np.inf:
            raise ValueError("pixel_pitch must be positive and finite")


def ramp_filter(n_det, window="ram-lak"):
    """Frequency response |omega|*W(omega) on the rfft bins for n_det samples.

    The FFT length is the next power of two at or above 2*n_det; omega is
    in cycles per sample.  The DC bin is exactly zero.
    """
    if n_det < 1:
        raise ValueError("n_det must be positive")
    if window not in _WINDOW_SHAPES:
        raise ValueError(f"window must be one of {tuple(_WINDOW_SHAPES)}")
    a, b = _WINDOW_SHAPES[window]
    nfft = 1 << (2 * n_det - 1).bit_length()
    omega = np.fft.rfftfreq(nfft)
    shape = a + b * np.cos(np.pi * omega / 0.5)
    resp = omega * shape
    resp[0] = 0.0
    return resp


def filter_sinogram(rows, window="ram-lak"):
    """Apply the ramp filter along the detector axis of (p, n_det) rows.

    window "none" skips filtering entirely (plain backprojection input).
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be 2D (angles, detectors)")
    if window == "none":
        return rows.copy()
    n_det = rows.shape[1]
    resp = ramp_filter(n_det, window)
    nfft = 2 * (resp.size - 1)
    spectra = np.fft.rfft(rows, n=nfft, axis=1)
    filtered = np.fft.irfft(spectra * resp, n=nfft, axis=1)
    return filtered[:, :n_det]


def _check_frame(spec, det_spacing):
    """Raise ValueError unless each pixel's ray offset |s| is finite: it is
    at most (|x| + |y|) / det_spacing, plus a centre too small to overflow."""
    if not np.isfinite((spec.size - 1) * float(spec.pixel_pitch)
                       / float(det_spacing)):
        raise ValueError("det_spacing is too small for the image frame")


def backproject(filtered, angles, spec, det_spacing=1.0):
    """Accumulate filtered rows over angles into a (size, size) image.

    filtered is (n_angles, n_det), or (n_stacks, n_angles, n_det) for
    stacks that share the angles and detector axis; the result is then
    (n_stacks, size, size).  Image row index follows +y, column index +x;
    pixel (i, j) sits at ((j - c) * pixel_pitch, (i - c) * pixel_pitch)
    with c the center.  Rays falling outside the detector range contribute
    zero.  Linear interpolation reproduces np.interp bit for bit.
    """
    filtered = np.asarray(filtered, dtype=float)
    angles = np.asarray(angles, dtype=float)
    if (filtered.ndim not in (2, 3) or angles.ndim != 1
            or filtered.shape[-2] != angles.size
            or min(filtered.shape[-2:]) < 1):
        raise ValueError("filtered must be (n_angles, n_det) or "
                         "(n_stacks, n_angles, n_det)")
    if not 0 < det_spacing < np.inf:
        raise ValueError("det_spacing must be positive and finite")
    if not (np.isfinite(angles).all() and np.isfinite(filtered).all()):
        raise ValueError("angles and filtered rows must be finite")
    stacks = filtered.reshape((-1,) + filtered.shape[-2:])
    n_stacks, _, n_det = stacks.shape
    _check_frame(spec, det_spacing)
    size = spec.size
    c = (size - 1) / 2.0
    coords = (np.arange(size) - c) * spec.pixel_pitch
    det_center = (n_det - 1) / 2.0
    # one angle's table of values and slopes per stack, with a zero entry
    # at n_det where rays outside the detector are sent; value + slope *
    # frac is np.interp's formula on a lattice of spacing 1.  It is built
    # per angle: tables for all angles (2 x 320 KB at p = 180) added about
    # 200 page faults to each call.
    value, slope = np.zeros((2, n_stacks, n_det + 1))
    linear = spec.interpolation == "linear"
    image = np.empty((n_stacks, size, size))
    rows = min(size, max(1, _BLOCK_PIXELS // size))
    s_buf, base_buf, term_buf = (np.empty(rows * size) for _ in range(3))
    j_buf = np.empty(rows * size, dtype=np.intp)
    for r0 in range(0, size, rows):
        r1 = min(r0 + rows, size)
        n = (r1 - r0) * size
        s, base, term, j = s_buf[:n], base_buf[:n], term_buf[:n], j_buf[:n]
        # zeroed here rather than by np.zeros: calloc's fresh pages would be
        # read first by += and then fault a second time on the write
        image[:, r0:r1] = 0.0
        for a, theta in enumerate(angles):
            value[:, :n_det] = stacks[:, a]
            np.subtract(value[:, 1:n_det], value[:, :n_det - 1],
                        out=slope[:, :n_det - 1])
            np.add(coords * np.cos(theta), coords[r0:r1, None] * np.sin(theta),
                   out=s.reshape(r1 - r0, size))
            s /= det_spacing
            s += det_center
            # the mask is taken on floats and sends rays outside to n_det
            # before the cast to indices, so no offset past intp is cast; for
            # nearest it is taken on rint(s), which keeps s = -0.5 inside
            if linear:
                np.floor(s, out=base)
                outside = ~((s >= 0) & (s <= n_det - 1))
                s -= base
            else:
                np.rint(s, out=base)
                outside = ~((base >= 0) & (base <= n_det - 1))
            base[outside] = n_det
            j[:] = base
            for k in range(n_stacks):
                if linear:
                    slope[k].take(j, out=term, mode="clip")
                    term *= s
                    term += value[k].take(j, out=base, mode="clip")
                else:
                    value[k].take(j, out=term, mode="clip")
                image[k, r0:r1] += term.reshape(r1 - r0, size)
    image *= np.pi / angles.size
    return image if filtered.ndim == 3 else image[0]


def reconstruct_layers(sino, spec):
    """Filtered backprojection of every gap onto a common image frame.

    Returns {gap: image} in gap order.
    """
    geom = sino.geometry
    d = geom.pitch
    master = (np.arange(geom.electrode_count) - geom.n) * d
    filtered = []
    for k in geom.gaps:
        src = geom.detector_offsets(k) + k * d / 2.0
        rows = sino.data[k]
        shifted = np.empty((rows.shape[0], master.size))
        for j in range(rows.shape[0]):
            shifted[j] = np.interp(master, src, rows[j], left=0.0, right=0.0)
        filtered.append(filter_sinogram(shifted, spec.window))
    images = backproject(np.stack(filtered), geom.angles(), spec,
                         det_spacing=d)
    return dict(zip(geom.gaps, images))


def pack_layer(image, gap, pitch):
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise ValueError("layer image must be square")
    if gap < 1:
        raise ValueError(f"gap must be at least 1, got {gap}")
    header = _ECTL_HEADER.pack(_ECTL_MAGIC, _ECTL_VERSION, gap,
                               image.shape[0], pitch)
    return header + image.astype("<f4").tobytes()


def save_layer(image, gap, pitch, path):
    with open(path, "wb") as fh:
        fh.write(pack_layer(image, gap, pitch))


def load_layer(path):
    """Read one layer; returns (gap, pixel_pitch, image)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    gap, size, pitch = read_header(blob, _ECTL_HEADER, _ECTL_MAGIC,
                                   _ECTL_VERSION, LayerFileError)
    if gap < 1 or size < 1 or not 0 < pitch < np.inf:
        raise LayerFileError(
            f"bad frame: gap {gap}, size {size}, pitch {pitch}")
    image, _ = read_samples(blob, _ECTL_HEADER.size, (size, size),
                            LayerFileError)
    return gap, pitch, image


def export_layer_csv(image, path):
    """Write the image as comma-separated rows of shortest-repr floats."""
    image = np.asarray(image, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in image:
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")


def import_layer_csv(path):
    """Read a layer CSV back; the table must be square and finite."""
    try:
        with warnings.catch_warnings():
            # numpy warns on an empty file; it reads as (0, 1), not square
            warnings.simplefilter("ignore", UserWarning)
            image = np.loadtxt(path, delimiter=",", ndmin=2, comments=None,
                               encoding="utf-8")
    except ValueError as exc:
        raise LayerFileError(f"bad layer CSV: {exc}") from None
    if image.shape[0] != image.shape[1]:
        raise LayerFileError(f"layer CSV is not square: {image.shape}")
    if not np.isfinite(image).all():
        raise LayerFileError("layer CSV holds non-finite values")
    return image
