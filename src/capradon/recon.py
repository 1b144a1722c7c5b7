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

import csv
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WINDOWS",
    "INTERPOLATIONS",
    "FilterSpec",
    "LayerStack",
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

WINDOWS = ("ram-lak", "hamming", "hann", "none")
INTERPOLATIONS = ("linear", "nearest")

_ECTL_MAGIC = b"ECTL"
_ECTL_VERSION = 1
_ECTL_HEADER = struct.Struct("<4sHHId")


class LayerFileError(ValueError):
    """Layer file is not a well-formed ECTL payload."""


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
        if self.pixel_pitch <= 0:
            raise ValueError("pixel_pitch must be positive")


def _next_pow2(n):
    m = 1
    while m < n:
        m *= 2
    return m


def ramp_filter(n_det, window="ram-lak"):
    """Frequency response |omega|*W(omega) on the rfft bins for n_det samples.

    The FFT length is the next power of two at or above 2*n_det; omega is
    in cycles per sample.  The DC bin is exactly zero.
    """
    if n_det < 1:
        raise ValueError("n_det must be positive")
    if window not in ("ram-lak", "hamming", "hann"):
        raise ValueError("window must be ram-lak, hamming or hann")
    nfft = _next_pow2(2 * n_det)
    omega = np.fft.rfftfreq(nfft)
    omega_max = 0.5
    if window == "hamming":
        shape = 0.54 + 0.46 * np.cos(np.pi * omega / omega_max)
    elif window == "hann":
        shape = 0.5 + 0.5 * np.cos(np.pi * omega / omega_max)
    else:
        shape = np.ones_like(omega)
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


def backproject(filtered, angles, spec, det_spacing=1.0):
    """Accumulate filtered rows over angles into a (size, size) image.

    Image row index follows +y, column index +x; pixel (i, j) sits at
    ((j - c) * pixel_pitch, (i - c) * pixel_pitch) with c the center.
    Rays falling outside the detector range contribute zero.
    """
    filtered = np.asarray(filtered, dtype=float)
    angles = np.asarray(angles, dtype=float)
    if filtered.ndim != 2 or filtered.shape[0] != angles.size:
        raise ValueError("filtered must be (n_angles, n_det)")
    if det_spacing <= 0:
        raise ValueError("det_spacing must be positive")
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


@dataclass
class LayerStack:
    """Depth-ordered reconstructed images, one per electrode gap."""

    gaps: tuple
    images: dict
    pixel_pitch: float
    alignment_offsets: dict = field(default_factory=dict)

    def __post_init__(self):
        self.gaps = tuple(int(k) for k in self.gaps)
        if tuple(sorted(self.gaps)) != self.gaps:
            raise ValueError("gaps must be sorted ascending")
        self.images = {int(k): np.asarray(v, dtype=float)
                       for k, v in self.images.items()}
        if set(self.images) != set(self.gaps):
            raise ValueError("images keys must match gaps")
        shapes = {v.shape for v in self.images.values()}
        if len(shapes) != 1:
            raise ValueError("all layers must share one shape")
        (shape,) = shapes
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("layers must be square 2D images")


def reconstruct_layers(sino, spec):
    """Filtered backprojection of every gap onto a common image frame."""
    geom = sino.geometry
    d = geom.pitch
    master = (np.arange(geom.electrode_count) - geom.n) * d
    images = {}
    offsets = {}
    for k in geom.gaps:
        offset = k * d / 2.0
        src = geom.detector_offsets(k) + offset
        rows = sino.data[k]
        shifted = np.empty((rows.shape[0], master.size))
        for j in range(rows.shape[0]):
            shifted[j] = np.interp(master, src, rows[j], left=0.0, right=0.0)
        filtered = filter_sinogram(shifted, spec.window)
        images[k] = backproject(filtered, sino.angles, spec, det_spacing=d)
        offsets[k] = offset
    return LayerStack(gaps=geom.gaps, images=images, pixel_pitch=spec.pixel_pitch,
                      alignment_offsets=offsets)


def pack_layer(image, gap, pitch):
    image = np.asarray(image, dtype=float)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise ValueError("layer image must be square")
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
    if len(blob) < _ECTL_HEADER.size:
        raise LayerFileError("file shorter than the ECTL header")
    magic, version, gap, size, pitch = _ECTL_HEADER.unpack_from(blob)
    if magic != _ECTL_MAGIC:
        raise LayerFileError(f"bad magic {magic!r}")
    if version != _ECTL_VERSION:
        raise LayerFileError(f"unsupported version {version}")
    payload = blob[_ECTL_HEADER.size:]
    if len(payload) != 4 * size * size:
        raise LayerFileError("payload length does not match size")
    image = np.frombuffer(payload, dtype="<f4").astype(float).reshape(size,
                                                                      size)
    return gap, pitch, image


def export_layer_csv(image, path):
    image = np.asarray(image, dtype=float)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in image.tolist():
            fh.write(",".join(map(repr, row)) + "\r\n")


def import_layer_csv(path):
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    return np.array(rows)
