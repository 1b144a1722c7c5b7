"""Command-line pipeline: weights -> phantom -> forward -> recon -> render.

Configuration is a flat key=value file; every key has a default and can
be overridden with repeated --set flags (last one wins).  The pipeline
subcommand chains all stages with content-addressed caching: a stage
reruns only when its parameters or input artifacts changed.  Its one run
record is manifest.json, rewritten after each stage; the cache is read
from the record a previous run left.  Stages communicate through files in
the output directory, each written whole, so running them one at a time
gives byte-identical artifacts.

Exit codes: 0 success, 2 configuration error, 3 stage failure.
"""

import argparse
import hashlib
import json
import math
import re
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .forward import (
    BoundingBoxError,
    SensorGeometry,
    _check_scan_circle,
    load_sinogram,
    quantize,
    save_sinogram,
    simulate_sweep,
)
from .framing import atomic_write
from .greenfn import potential_coefficients
from .phantom import (
    PhantomParseError,
    parse_phantom,
    rasterize,
    save_voxels,
)
from .recon import (
    FilterSpec,
    _check_frame,
    export_layer_csv,
    load_layer,
    reconstruct_layers,
    save_layer,
)
from .weights import (
    condition_weight,
    load_weight,
    samples_per_pitch,
    save_weight,
    synthesize_weight,
)

__all__ = [
    "ConfigError",
    "StageError",
    "DEFAULT_PHANTOM",
    "parse_config_text",
    "resolve_config",
    "render_pgm",
    "read_pgm",
    "run_pipeline",
    "main",
]

DEFAULT_PHANTOM = """\
# paired plates at two depths
box -15 0 7.0 6 6 2.5 0 2.0
box 15 0 14.5 6 6 2.5 0 2.0
"""

_DEFAULTS = {
    "n": "27",
    "pitch": "2.5",
    "n_angles": "180",
    "standoff": "2.0",
    "gaps": "1,2,3,4",
    "green_order": "16",
    "green_eps0": "0.1",
    "x_pad": "4.0",
    "z_max": "8.0",
    "dx": "0.05",
    "dz": "0.05",
    "z_cut": "1.0",
    "phantom": "",
    "voxel_dx": "1.0",
    "supersample": "0",
    "quantize": "1",
    "quant_delta": "0.0",
    "window": "hamming",
    "interpolation": "linear",
    "image_size": "55",
    "pixel_mm": "2.5",
    "csv": "0",
    "render": "symmetric",
    "render_lo": "0.0",
    "render_hi": "1.0",
    "outdir": "out",
}
_INT_KEYS = ("n", "n_angles", "green_order", "image_size")
_FLOAT_KEYS = ("pitch", "standoff", "green_eps0", "x_pad", "z_max", "dx",
               "dz", "z_cut", "voxel_dx", "quant_delta", "pixel_mm",
               "render_lo", "render_hi")
_BOOL_KEYS = ("supersample", "quantize", "csv")
_RENDER_MODES = ("minmax", "symmetric", "fixed")

# Artifact names; a per-gap name takes the gap for {}.
_WEIGHTS = "weights_k{}.ectw"
_VOXELS = "phantom.ectv"
_SWEEP = "sweep.ects"
_LAYER = "layer_k{}.ectl"
_LAYER_CSV = "layer_k{}.csv"
_LAYER_PGM = "layer_k{}.pgm"
# Largest array a stage builds: 2**24 float64 values are 128 MiB, and a
# stage holds a few arrays of that size at once.
_MAX_VALUES = 1 << 24
# The one PGM header layout render_pgm writes
_PGM_HEADER = re.compile(rb"P5\n((?:#[^\n]*\n)*)(\d+) (\d+)\n65535\n")


class ConfigError(ValueError):
    """Bad configuration: unknown key, unparsable value, missing file."""


class StageError(RuntimeError):
    """A pipeline stage failed to produce its artifacts."""


def _setting(item, where):
    """Split one key=value item and check its key; `where` prefixes errors."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected key=value, got {item!r}")
    key, value = (part.strip() for part in item.split("=", 1))
    if key not in _DEFAULTS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    return key, value


def parse_config_text(text, source="<config>"):
    """Parse flat key=value lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _setting(line, f"{source} line {lineno}")
            out[key] = value
    return out


def _coerce(key, value):
    try:
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            number = float(value)
            if not math.isfinite(number):
                raise ValueError("not a finite number")
            return number
        if key in _BOOL_KEYS:
            if value not in ("0", "1"):
                raise ValueError("expected 0 or 1")
            return value == "1"
        if key == "gaps":
            # SensorGeometry sorts, dedups and checks them
            return tuple(int(p) for p in value.split(",") if p.strip())
        return value
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from None


def resolve_config(config_path=None, sets=()):
    """Merge defaults, an optional config file and --set overrides.

    cfg also holds what the stages run on, built here so that bad input
    fails before a stage writes: `phantom_text`, `phantom_sha256`,
    `phantom_spec`, `geometry`, `filter`, `voxel_box` and `coeffs`.
    """
    raw = dict(_DEFAULTS)
    if config_path is not None:
        try:
            text = Path(config_path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from None
        raw.update(parse_config_text(text, source=str(config_path)))
    raw.update(_setting(item, "--set") for item in sets)
    cfg = {key: _coerce(key, value) for key, value in raw.items()}

    try:
        cfg["phantom_text"] = (Path(cfg["phantom"]).read_text(encoding="utf-8")
                               if cfg["phantom"] else DEFAULT_PHANTOM)
    except OSError as exc:
        raise ConfigError(
            f"cannot read phantom {cfg['phantom']}: {exc}") from None
    cfg["phantom_sha256"] = hashlib.sha256(
        cfg["phantom_text"].encode("utf-8")).hexdigest()

    # quant_delta stays 0 here: quantize records the step it applies
    try:
        cfg["geometry"] = SensorGeometry(
            n=cfg["n"], pitch=cfg["pitch"], n_angles=cfg["n_angles"],
            standoff=cfg["standoff"], gaps=cfg["gaps"])
        cfg["filter"] = FilterSpec(
            window=cfg["window"], interpolation=cfg["interpolation"],
            size=cfg["image_size"], pixel_pitch=cfg["pixel_mm"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg["gaps"] = cfg["geometry"].gaps
    try:
        cfg["phantom_spec"] = parse_phantom(cfg["phantom_text"])
        bounds = cfg["phantom_spec"].bounds()
        if bounds is not None:
            _check_scan_circle(bounds, cfg["geometry"].scan_radius)
    except (PhantomParseError, BoundingBoxError) as exc:
        raise ConfigError(f"bad phantom: {exc}") from None
    for key in ("x_pad", "z_max", "dx", "dz", "voxel_dx"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    if cfg["z_cut"] < 0 or cfg["quant_delta"] < 0:
        raise ConfigError("z_cut and quant_delta must be nonnegative")
    try:
        samples_per_pitch(cfg["dx"])
    except ValueError as exc:
        raise ConfigError(f"bad value for dx: {exc}") from None
    if cfg["z_max"] <= cfg["dz"]:
        raise ConfigError("z_max must exceed dz, or no weight row is left")
    if cfg["z_cut"] >= cfg["z_max"]:
        raise ConfigError("z_cut must be below z_max, or every weight row "
                          "is cut")
    cfg["voxel_box"] = shape, origin = _voxel_box(bounds, cfg["voxel_dx"])
    # the sweep's samples are scaled by the area of one weight cell
    cell = (cfg["dx"] * cfg["pitch"]) * (cfg["dz"] * cfg["pitch"])
    if not math.isfinite(cell):
        raise ConfigError(f"pitch={cfg['pitch']!r} is too large: the area "
                          "of a weight cell overflows a float")
    for what, count in _array_sizes(cfg).items():
        if not count <= _MAX_VALUES:
            raise ConfigError(f"the {what} would hold {count:.3g} values, "
                              f"more than {_MAX_VALUES}")
    # rasterize places voxels from the origin to shape * voxel_dx past it
    if not math.isfinite(max(map(abs, origin.tolist()))
                         + max(shape.tolist()) * cfg["voxel_dx"]):
        raise ConfigError(f"voxel_dx={cfg['voxel_dx']!r} is too large: the "
                          "phantom raster's corners overflow a float")
    # the weights stage reuses the solved system
    try:
        cfg["coeffs"] = potential_coefficients(order=cfg["green_order"],
                                               eps0=cfg["green_eps0"])
    except ValueError as exc:
        raise ConfigError("the interpolation system of green_order and "
                          f"green_eps0 cannot be solved: {exc}") from None
    try:
        _check_frame(cfg["filter"], cfg["pitch"])
    except ValueError as exc:
        raise ConfigError("image_size x pixel_mm is too large for "
                          f"pitch={cfg['pitch']!r}: {exc}") from None
    # quantize divides every sample by the step; bound the samples by the
    # largest contrast over a chord of the scan circle, summed with weights
    # of at most 1 over every cell of the largest window
    if cfg["quantize"] and cfg["quant_delta"] > 0:
        contrast = max((abs(p.contrast - 1.0)
                        for p in cfg["phantom_spec"].primitives), default=0.0)
        cells = ((cfg["z_max"] / cfg["dz"] + 1)
                 * ((max(cfg["gaps"]) + 2 * cfg["x_pad"]) / cfg["dx"] + 2))
        peak = contrast * 2 * cfg["geometry"].scan_radius * cell * cells
        if not math.isfinite(peak / cfg["quant_delta"]):
            raise ConfigError(
                f"quant_delta={cfg['quant_delta']!r} is too small: samples "
                f"up to {peak:.3g} divided by it overflow a float")
    if cfg["render"] not in _RENDER_MODES:
        raise ConfigError(f"render must be one of {_RENDER_MODES}")
    if (cfg["render"] == "fixed"
            and not 0 < cfg["render_hi"] - cfg["render_lo"] < math.inf):
        raise ConfigError("render_hi - render_lo must be positive and finite")
    if not cfg["outdir"]:
        raise ConfigError("outdir is empty; use . for the current directory")
    return cfg


def _array_sizes(cfg):
    """Values in the largest array of each stage, and in the solved system.

    Counts are floats, so that a huge setting gives inf instead of raising;
    an integer setting is clipped to [0, just past the limit].
    """
    n, p, size, order = (float(min(max(cfg[key], 0), _MAX_VALUES + 1))
                         for key in ("n", "n_angles", "image_size",
                                     "green_order"))
    dx, pad, kmax = cfg["dx"], cfg["x_pad"], max(cfg["gaps"])
    # every gap's window ends 2n pitches plus 2 x_pad past where the first
    # detector's window starts
    lines = (2 * n + 2 * pad) / dx + 1
    return {
        # NaN when voxel_dx underflows the bounds
        "phantom raster (voxels)": math.prod(cfg["voxel_box"][0].tolist()),
        "interpolation system ((green_order+1)^2)": (order + 1) ** 2,
        "weight grid (z_max/dz x potential lattice)":
            cfg["z_max"] / cfg["dz"] * ((2 * kmax + 2 * pad) / dx + 1),
        "sweep (n_angles x lattice lines)": p * lines,
        "layer stack (gaps x image_size^2)": len(cfg["gaps"]) * size**2,
    }


def render_pgm(image, path, mode="symmetric", lo=None, hi=None):
    """Write a 16-bit big-endian PGM; the header records the value map."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("image must be 2D")
    if mode == "minmax":
        lo_v, hi_v = float(image.min()), float(image.max())
    elif mode == "symmetric":
        mag = float(np.abs(image).max())
        lo_v, hi_v = -mag, mag
    elif mode == "fixed":
        if lo is None or hi is None or hi <= lo:
            raise ValueError("fixed mode needs lo < hi")
        lo_v, hi_v = float(lo), float(hi)
    else:
        raise ValueError(f"mode must be one of {_RENDER_MODES}")
    if not math.isfinite(hi_v - lo_v):
        raise ValueError(f"value range {lo_v!r} to {hi_v!r} overflows a float")
    if hi_v > lo_v:
        # clipped first, so no value over a narrow range overflows
        scaled = (np.clip(image, lo_v, hi_v) - lo_v) / (hi_v - lo_v) * 65535.0
        pixels = np.floor(scaled + 0.5).astype(">u2")
        note = f"map mode={mode} lo={lo_v!r} hi={hi_v!r}"
    else:
        pixels = np.zeros(image.shape, dtype=">u2")
        note = f"map mode={mode} constant value={lo_v!r}"
    h, w = image.shape
    header = f"P5\n# {note}\n{w} {h}\n65535\n".encode("ascii")
    with atomic_write(path) as fh:
        fh.write(header + pixels.tobytes())


def read_pgm(path):
    """Read a PGM in render_pgm's layout; returns (pixels, comments)."""
    blob = Path(path).read_bytes()
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise ValueError("not a 16-bit PGM header as render_pgm writes it")
    w, h = int(header[2]), int(header[3])
    if len(blob) - header.end() != 2 * w * h:
        raise ValueError("payload length does not match dimensions")
    pixels = np.frombuffer(blob, ">u2", count=w * h, offset=header.end())
    comments = [c[1:].decode("ascii").strip() for c in header[1].splitlines()]
    return pixels.reshape(h, w), comments


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _stage_weights(cfg, outdir):
    grids = synthesize_weight(cfg["coeffs"], cfg["gaps"], x_pad=cfg["x_pad"],
                              z_max=cfg["z_max"], dx=cfg["dx"], dz=cfg["dz"])
    for k, grid in grids.items():
        conditioned = condition_weight(grid, z_cut=cfg["z_cut"])
        save_weight(conditioned, outdir / _WEIGHTS.format(k))


def _voxel_box(bounds, h):
    """Shape (nx, ny, nz) and origin of the raster around the bounds.

    Both are float arrays, so a tiny h gives inf or NaN instead of raising.
    An empty scene (bounds None) gets one background voxel at the origin.
    """
    if bounds is None:
        return np.ones(3), np.zeros(3)
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.floor(np.asarray(bounds[0::2]) / h) - 1
        hi = np.ceil(np.asarray(bounds[1::2]) / h) + 1
        return hi - lo, lo * h


def _stage_phantom(cfg, outdir):
    shape, origin = cfg["voxel_box"]
    grid = rasterize(cfg["phantom_spec"], tuple(int(n) for n in shape),
                     cfg["voxel_dx"], origin, supersample=cfg["supersample"])
    save_voxels(grid, outdir / _VOXELS)


def _stage_forward(cfg, outdir):
    grids = {k: load_weight(outdir / _WEIGHTS.format(k)) for k in cfg["gaps"]}
    sino = simulate_sweep(cfg["phantom_spec"], grids, cfg["geometry"])
    if cfg["quantize"]:
        sino = quantize(sino, cfg["quant_delta"] or None)
    save_sinogram(sino, outdir / _SWEEP)


def _stage_recon(cfg, outdir):
    sino = load_sinogram(outdir / _SWEEP)
    if sino.geometry.gaps != cfg["gaps"]:
        raise StageError(f"{_SWEEP} holds gaps {sino.geometry.gaps}, not "
                         f"{cfg['gaps']}; run the forward stage first")
    for k, image in reconstruct_layers(sino, cfg["filter"]).items():
        save_layer(image, k, cfg["pixel_mm"], outdir / _LAYER.format(k))
        if cfg["csv"]:
            export_layer_csv(image, outdir / _LAYER_CSV.format(k))


def _stage_render(cfg, outdir):
    for k in cfg["gaps"]:
        _, _, image = load_layer(outdir / _LAYER.format(k))
        render_pgm(image, outdir / _LAYER_PGM.format(k), mode=cfg["render"],
                   lo=cfg["render_lo"], hi=cfg["render_hi"])


def _per_gap(pattern):
    return lambda cfg: [pattern.format(k) for k in cfg["gaps"]]


def _layer_outputs(cfg):
    patterns = (_LAYER, _LAYER_CSV) if cfg["csv"] else (_LAYER,)
    return [pattern.format(k) for k in cfg["gaps"] for pattern in patterns]


class _Stage(NamedTuple):
    help: str               # subcommand help
    keys: tuple             # config keys in the stage's cache key
    inputs: Callable        # cfg -> files read from earlier stages
    outputs: Callable       # cfg -> files written
    run: Callable           # (cfg, outdir) -> None; writes the outputs


# The stages in pipeline order.  Each run function looks up the library
# calls it makes in this module at call time, so a name rebound here (as
# the benchmark's tracer does) is the one that runs.
_STAGE_TABLE = {
    "weights": _Stage(
        "synthesize and condition sensitivity weights",
        ("green_order", "green_eps0", "x_pad", "z_max", "dx", "dz", "z_cut",
         "gaps"),
        lambda cfg: [], _per_gap(_WEIGHTS), _stage_weights),
    "phantom": _Stage(
        "rasterize the phantom to a voxel file",
        ("voxel_dx", "supersample", "phantom_sha256"),
        lambda cfg: [], lambda cfg: [_VOXELS], _stage_phantom),
    "forward": _Stage(
        "simulate the rotating sweep",
        ("n", "pitch", "n_angles", "standoff", "gaps", "quantize",
         "quant_delta", "phantom_sha256"),
        _per_gap(_WEIGHTS), lambda cfg: [_SWEEP], _stage_forward),
    "recon": _Stage(
        "reconstruct depth layers",
        ("window", "interpolation", "image_size", "pixel_mm", "csv"),
        lambda cfg: [_SWEEP], _layer_outputs, _stage_recon),
    "render": _Stage(
        "render layers to 16-bit PGM images",
        ("render", "render_lo", "render_hi"),
        _per_gap(_LAYER), _per_gap(_LAYER_PGM), _stage_render),
}


def _stage_key(cfg, name, artifacts):
    stage = _STAGE_TABLE[name]
    params = {"stage": name, **{key: cfg[key] for key in stage.keys}}
    if stage.inputs(cfg):
        params["inputs"] = {n: artifacts[n] for n in stage.inputs(cfg)}
    blob = json.dumps(params, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _run_stage(cfg, name, outdir):
    """Run one stage; returns its outputs, or removes them and raises."""
    stage = _STAGE_TABLE[name]
    for needed in stage.inputs(cfg):
        if not (outdir / needed).exists():
            producer = next(other for other, record in _STAGE_TABLE.items()
                            if needed in record.outputs(cfg))
            raise StageError(f"missing {needed}; run the {producer} stage "
                             "first")
    try:
        stage.run(cfg, outdir)
    except Exception as exc:
        for output in stage.outputs(cfg):
            (outdir / output).unlink(missing_ok=True)
        raise StageError(f"{name} stage failed: {exc}") from exc
    return stage.outputs(cfg)


def run_pipeline(cfg, echo=print):
    """Run every stage with caching; returns the manifest dictionary, which
    is rewritten after each stage and read back as the next run's cache."""
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "manifest.json"
    try:
        entries = {entry["name"]: entry for entry in
                   json.loads(path.read_text(encoding="utf-8"))["stages"]
                   if isinstance(entry, dict)
                   and isinstance(entry.get("name"), str)}
    except (OSError, ValueError, TypeError, KeyError):
        # an unreadable manifest is a miss for every stage
        entries = {}
    artifacts = {}
    manifest = {"config": {key: cfg[key] for key in _DEFAULTS}, "stages": []}
    for name, stage in _STAGE_TABLE.items():
        key = _stage_key(cfg, name, artifacts)
        entry = entries.get(name)
        # a malformed entry is a miss; one that lists other files than the
        # stage's outputs is too, so no other file is hashed
        cached = (isinstance(entry, dict) and entry.get("key") == key
                  and isinstance(entry.get("outputs"), dict)
                  and set(entry["outputs"]) == set(stage.outputs(cfg))
                  and all((outdir / output).exists()
                          and _sha256(outdir / output) == digest
                          for output, digest in entry["outputs"].items()))
        start = time.perf_counter()
        if cached:
            outputs = dict(entry["outputs"])
        else:
            try:
                written = _run_stage(cfg, name, outdir)
            except StageError:
                _write_json(path, manifest)
                raise
            outputs = {output: _sha256(outdir / output) for output in written}
        seconds = time.perf_counter() - start
        artifacts.update(outputs)
        manifest["stages"].append({"name": name, "key": key, "cached": cached,
                                   "seconds": round(seconds, 6),
                                   "outputs": outputs})
        _write_json(path, manifest)
        if echo:
            state = "cached" if cached else f"{seconds:.2f}s"
            echo(f"{name}: {state}")
    return manifest


def _write_json(path, record):
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="capradon",
        description="synthetic capacitive-sweep imaging pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [(name, stage.help) for name, stage in _STAGE_TABLE.items()]
    for name, blurb in commands + [("pipeline",
                                    "run all stages with caching")]:
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", default=None,
                       help="path to a key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="K=V",
                       help="override one config key (repeatable)")
    args = parser.parse_args(argv)

    try:
        cfg = resolve_config(args.config, args.set)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    outdir = Path(cfg["outdir"])
    try:
        if args.command == "pipeline":
            run_pipeline(cfg)
        else:
            outdir.mkdir(parents=True, exist_ok=True)
            for name in _run_stage(cfg, args.command, outdir):
                print(outdir / name)
    except (StageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
