"""Output gate: decides whether one pipeline invocation produced a valid run.

An invocation passes when it exited 0, every artifact its manifest names
reloads with the program's public loader, has the shape the config implies
and holds only finite values, its digest matches the manifest, the stage
cache flags are the ones the workload expects, and the reconstructed
layers match the committed reference.

The reference holds block means of each layer (blocks of about 12.5 mm),
not bytes: the comparison must survive a change of forward model, such as
exact chord integrals in place of the midpoint rule, and the sub-pixel
jitter of the seeded scenes.
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from capradon.cli import read_pgm
from capradon.forward import load_sinogram
from capradon.recon import import_layer_csv, load_layer
from capradon.weights import load_weight

REFERENCE = Path(__file__).with_name("reference.json")
BLOCK_MM = 12.5


def block_means(image, pixel_mm):
    """Mean over square blocks of about BLOCK_MM, centred in the image."""
    b = max(1, int(round(BLOCK_MM / pixel_mm)))
    nb = image.shape[0] // b
    lo = (image.shape[0] - nb * b) // 2
    core = image[lo:lo + nb * b, lo:lo + nb * b]
    return core.reshape(nb, b, nb, b).mean(axis=(1, 3))


def weight_shape(cfg, gap):
    """(rows, columns) of the gap's weight grid under the config."""
    return (int(round(cfg["z_max"] / cfg["dz"])),
            int(round((gap + 2 * cfg["x_pad"]) / cfg["dx"])) + 1)


def _finite(name, arr, problems):
    if not np.all(np.isfinite(arr)):
        problems.append(f"{name}: non-finite values")


def _check_artifact(name, path, cfg, problems, layers):
    size = cfg["image_size"]
    if name.endswith(".ectw"):
        grid = load_weight(path)
        want = weight_shape(cfg, grid.gap)
        if grid.values.shape != want:
            problems.append(f"{name}: shape {grid.values.shape} != {want}")
        _finite(name, grid.values, problems)
    elif name.endswith(".ects"):
        sino = load_sinogram(path)
        geom = sino.geometry
        if (geom.n, geom.n_angles, geom.gaps) != (cfg["n"], cfg["n_angles"],
                                                  tuple(cfg["gaps"])):
            problems.append(f"{name}: geometry does not match the config")
        for k, arr in sino.data.items():
            if arr.shape != (cfg["n_angles"], 2 * cfg["n"] + 1 - k):
                problems.append(f"{name}: gap {k} shape {arr.shape}")
            _finite(name, arr, problems)
    elif name.endswith(".ectl"):
        gap, pitch, image = load_layer(path)
        if image.shape != (size, size) or pitch != cfg["pixel_mm"]:
            problems.append(f"{name}: frame {image.shape} at {pitch} mm")
        _finite(name, image, problems)
        layers[gap] = image
    elif name.endswith(".pgm"):
        pixels, _ = read_pgm(path)
        if pixels.shape != (size, size):
            problems.append(f"{name}: shape {pixels.shape}")
    elif name.endswith(".csv"):
        image = import_layer_csv(path)
        if image.shape != (size, size):
            problems.append(f"{name}: shape {image.shape}")
        _finite(name, image, problems)


def check(rc, cfg, expect_cached, reference, rtol):
    """Gate one invocation; returns (problems, manifest or None).

    expect_cached maps stage name -> expected `cached` flag; stages it does
    not name are not checked, so a stage table that gains or loses a stage
    does not break the gate.  reference maps gap (as a string) to the
    layer's block means, or is None to skip the comparison; rtol bounds
    max |block mean - reference| as a share of the reference's peak block.
    """
    if rc != 0:
        return [f"exit code {rc}"], None
    outdir = Path(cfg["outdir"])
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest.json: {exc}"], None
    problems, layers = [], {}
    for stage in manifest["stages"]:
        want = expect_cached.get(stage["name"])
        if want is not None and stage["cached"] != want:
            problems.append(f"stage {stage['name']}: cached={stage['cached']}"
                            f", expected {want}")
        for name, digest in stage["outputs"].items():
            path = outdir / name
            try:
                if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                    problems.append(f"{name}: digest differs from manifest")
                _check_artifact(name, path, cfg, problems, layers)
            except (OSError, ValueError, struct.error) as exc:
                problems.append(f"{name}: {exc}")
    if sorted(layers) != sorted(cfg["gaps"]):
        problems.append(f"layers for gaps {sorted(layers)}, "
                        f"expected {sorted(cfg['gaps'])}")
    elif reference is not None:
        for k, image in sorted(layers.items()):
            got = block_means(image, cfg["pixel_mm"])
            ref = np.asarray(reference[str(k)])
            if got.shape != ref.shape:
                problems.append(f"layer k{k}: {got.shape} blocks, reference "
                                f"has {ref.shape}")
                continue
            err = float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
            if err > rtol:
                problems.append(f"layer k{k}: {err:.3g} of peak away from "
                                f"the reference (limit {rtol})")
    return problems, manifest
