"""Command-line pipeline: weights -> phantom -> forward -> recon -> render.

Configuration is a flat key=value file; every key has a default and can
be overridden with repeated --set flags (last one wins).  The pipeline
subcommand chains all stages with content-addressed caching: a stage
reruns only when its parameters or input artifacts changed.  Stages
communicate through files in the output directory, so running them one
at a time gives byte-identical artifacts.

Exit codes: 0 success, 2 configuration error, 3 stage failure.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .forward import (
    SensorGeometry,
    load_sinogram,
    quantize,
    save_sinogram,
    simulate_sweep,
)
from .greenfn import potential_coefficients
from .phantom import (
    PhantomParseError,
    VoxelGrid,
    parse_phantom,
    rasterize,
    save_voxels,
)
from .recon import (
    FilterSpec,
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

# Artifact names; a per-gap name takes the gap for {}.
_WEIGHTS = "weights_k{}.ectw"
_VOXELS = "phantom.ectv"
_SWEEP = "sweep.ects"
_LAYER = "layer_k{}.ectl"
_LAYER_CSV = "layer_k{}.csv"
_LAYER_PGM = "layer_k{}.pgm"
# Largest phantom raster: 2**24 float64 voxels are 128 MiB, and
# rasterizing holds a few arrays of that size at once.
_MAX_VOXELS = 1 << 24


class ConfigError(ValueError):
    """Bad configuration: unknown key, unparsable value, missing file."""


class StageError(RuntimeError):
    """A pipeline stage failed to produce its artifacts."""


def parse_config_text(text, source="<config>"):
    """Parse flat key=value lines; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source} line {lineno}: expected key=value, "
                              f"got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"{source} line {lineno}: unknown key {key!r}")
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
            gaps = tuple(sorted({int(p) for p in value.split(",") if p.strip()}))
            if not gaps:
                raise ValueError("at least one gap required")
            return gaps
        return value
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from None


def resolve_config(config_path=None, sets=()):
    """Merge defaults, an optional config file and --set overrides."""
    raw = dict(_DEFAULTS)
    if config_path is not None:
        path = Path(config_path)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from None
        raw.update(parse_config_text(text, source=str(config_path)))
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _DEFAULTS:
            raise ConfigError(f"--set: unknown key {key!r}")
        raw[key] = value
    cfg = {key: _coerce(key, value) for key, value in raw.items()}

    if cfg["phantom"]:
        try:
            cfg["phantom_text"] = Path(cfg["phantom"]).read_text(
                encoding="utf-8")
        except OSError as exc:
            raise ConfigError(
                f"cannot read phantom {cfg['phantom']}: {exc}") from None
    else:
        cfg["phantom_text"] = DEFAULT_PHANTOM
    try:
        spec = parse_phantom(cfg["phantom_text"])
    except PhantomParseError as exc:
        raise ConfigError(f"bad phantom: {exc}") from None

    # build the runtime objects once so bad combinations fail fast
    try:
        SensorGeometry(n=cfg["n"], pitch=cfg["pitch"],
                       n_angles=cfg["n_angles"], standoff=cfg["standoff"],
                       gaps=cfg["gaps"])
        FilterSpec(window=cfg["window"], interpolation=cfg["interpolation"],
                   size=cfg["image_size"], pixel_pitch=cfg["pixel_mm"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    for key in ("green_eps0", "x_pad", "z_max", "dx", "dz", "voxel_dx"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    if cfg["green_order"] < 1:
        raise ConfigError("green_order must be at least 1")
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
    bounds = spec.bounds()
    if bounds is not None:
        count = np.prod(_voxel_box(bounds, cfg["voxel_dx"])[0])
        if not count <= _MAX_VOXELS:   # NaN when h underflows the bounds
            raise ConfigError(
                f"voxel_dx={cfg['voxel_dx']!r} is too fine: the phantom "
                f"raster would exceed {_MAX_VOXELS} voxels")
    if cfg["render"] not in ("minmax", "symmetric", "fixed"):
        raise ConfigError("render must be minmax, symmetric or fixed")
    if cfg["render"] == "fixed" and cfg["render_hi"] <= cfg["render_lo"]:
        raise ConfigError("render_hi must exceed render_lo")
    return cfg


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
        raise ValueError("mode must be minmax, symmetric or fixed")
    if hi_v > lo_v:
        scaled = (image - lo_v) / (hi_v - lo_v) * 65535.0
        pixels = np.clip(np.floor(scaled + 0.5), 0, 65535).astype(">u2")
        note = f"map mode={mode} lo={lo_v!r} hi={hi_v!r}"
    else:
        pixels = np.zeros(image.shape, dtype=">u2")
        note = f"map mode={mode} constant value={lo_v!r}"
    h, w = image.shape
    header = f"P5\n# {note}\n{w} {h}\n65535\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header + pixels.tobytes())


def read_pgm(path):
    """Read a binary PGM written by render_pgm; returns (pixels, comments)."""
    blob = Path(path).read_bytes()
    comments = []
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if blob[pos:pos + 1] == b"#":
            end = blob.index(b"\n", pos)
            comments.append(blob[pos + 1:end].decode("ascii").strip())
            pos = end + 1
        elif blob[pos:pos + 1].isspace():
            pos += 1
        else:
            end = pos
            while not blob[end:end + 1].isspace():
                end += 1
            tokens.append(blob[pos:end].decode("ascii"))
            pos = end
    pos += 1  # single whitespace after maxval
    if tokens[0] != "P5":
        raise ValueError(f"not a binary PGM: {tokens[0]!r}")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval != 65535:
        raise ValueError("expected 16-bit data")
    pixels = np.frombuffer(blob[pos:], dtype=">u2")
    if pixels.size != w * h:
        raise ValueError("payload length does not match dimensions")
    return pixels.reshape(h, w), comments


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _plain(value):
    """A config value as JSON writes it: tuples become lists."""
    return list(value) if isinstance(value, tuple) else value


def _stage_weights(cfg, outdir):
    coeffs = potential_coefficients(order=cfg["green_order"],
                                    eps0=cfg["green_eps0"])
    grids = synthesize_weight(coeffs, cfg["gaps"], x_pad=cfg["x_pad"],
                              z_max=cfg["z_max"], dx=cfg["dx"], dz=cfg["dz"])
    for k, grid in grids.items():
        conditioned = condition_weight(grid, z_cut=cfg["z_cut"])
        save_weight(conditioned, outdir / _WEIGHTS.format(k))


def _voxel_box(bounds, h):
    """Shape (nx, ny, nz) and origin of the raster around the bounds.

    Both come as float arrays, so that a tiny h gives inf or NaN instead
    of raising.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.floor(np.asarray(bounds[0::2]) / h) - 1
        hi = np.ceil(np.asarray(bounds[1::2]) / h) + 1
        return hi - lo, lo * h


def _stage_phantom(cfg, outdir):
    spec = parse_phantom(cfg["phantom_text"])
    h = cfg["voxel_dx"]
    bounds = spec.bounds()
    if bounds is None:
        grid = VoxelGrid(values=np.ones((1, 1, 1)), spacing=(h, h, h),
                         origin=(0.0, 0.0, 0.0))
    else:
        shape, origin = _voxel_box(bounds, h)
        grid = rasterize(spec, tuple(int(n) for n in shape), h, origin,
                         supersample=cfg["supersample"])
    save_voxels(grid, outdir / _VOXELS)


def _stage_forward(cfg, outdir):
    grids = {k: load_weight(outdir / _WEIGHTS.format(k)) for k in cfg["gaps"]}
    spec = parse_phantom(cfg["phantom_text"])
    geometry = SensorGeometry(n=cfg["n"], pitch=cfg["pitch"],
                              n_angles=cfg["n_angles"],
                              standoff=cfg["standoff"], gaps=cfg["gaps"])
    sino = simulate_sweep(spec, grids, geometry)
    if cfg["quantize"]:
        sino = quantize(sino, cfg["quant_delta"] or None)
    save_sinogram(sino, outdir / _SWEEP)


def _stage_recon(cfg, outdir):
    sino = load_sinogram(outdir / _SWEEP)
    if sino.geometry.gaps != cfg["gaps"]:
        raise StageError(f"{_SWEEP} holds gaps {sino.geometry.gaps}, not "
                         f"{cfg['gaps']}; run the forward stage first")
    spec = FilterSpec(window=cfg["window"],
                      interpolation=cfg["interpolation"],
                      size=cfg["image_size"], pixel_pitch=cfg["pixel_mm"])
    stack = reconstruct_layers(sino, spec)
    for k in stack.gaps:
        save_layer(stack.images[k], k, stack.pixel_pitch,
                   outdir / _LAYER.format(k))
        if cfg["csv"]:
            export_layer_csv(stack.images[k], outdir / _LAYER_CSV.format(k))


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
    hashes_phantom: bool    # the cache key covers the phantom text
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
        False, lambda cfg: [], _per_gap(_WEIGHTS), _stage_weights),
    "phantom": _Stage(
        "rasterize the phantom to a voxel file", ("voxel_dx", "supersample"),
        True, lambda cfg: [], lambda cfg: [_VOXELS], _stage_phantom),
    "forward": _Stage(
        "simulate the rotating sweep",
        ("n", "pitch", "n_angles", "standoff", "gaps", "quantize",
         "quant_delta"),
        True, _per_gap(_WEIGHTS), lambda cfg: [_SWEEP], _stage_forward),
    "recon": _Stage(
        "reconstruct depth layers",
        ("window", "interpolation", "image_size", "pixel_mm", "csv"),
        False, lambda cfg: [_SWEEP], _layer_outputs, _stage_recon),
    "render": _Stage(
        "render layers to 16-bit PGM images",
        ("render", "render_lo", "render_hi"),
        False, _per_gap(_LAYER), _per_gap(_LAYER_PGM), _stage_render),
}


def _stage_key(cfg, name, artifacts):
    stage = _STAGE_TABLE[name]
    params = {"stage": name, **{key: _plain(cfg[key]) for key in stage.keys}}
    if stage.hashes_phantom:
        params["phantom_sha256"] = hashlib.sha256(
            cfg["phantom_text"].encode("utf-8")).hexdigest()
    if stage.inputs(cfg):
        params["inputs"] = {n: artifacts[n] for n in stage.inputs(cfg)}
    blob = json.dumps(params, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _load_cache(outdir):
    try:
        with open(outdir / "cache.json", "r", encoding="utf-8") as fh:
            cache = json.load(fh)
    except (OSError, ValueError):
        return {}
    return cache if isinstance(cache, dict) else {}


def _run_stage(cfg, name, outdir):
    """Run one stage after checking its inputs; returns its output names."""
    stage = _STAGE_TABLE[name]
    for needed in stage.inputs(cfg):
        if not (outdir / needed).exists():
            producer = next(other for other, record in _STAGE_TABLE.items()
                            if needed in record.outputs(cfg))
            raise StageError(f"missing {needed}; run the {producer} stage "
                             "first")
    stage.run(cfg, outdir)
    return stage.outputs(cfg)


def run_pipeline(cfg, echo=print):
    """Run every stage with caching; returns the manifest dictionary."""
    outdir = Path(cfg["outdir"])
    outdir.mkdir(parents=True, exist_ok=True)
    cache = _load_cache(outdir)
    artifacts = {}
    manifest_stages = []
    for name, stage in _STAGE_TABLE.items():
        key = _stage_key(cfg, name, artifacts)
        entry = cache.get(name)
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
            except Exception as exc:
                for output in stage.outputs(cfg):
                    (outdir / output).unlink(missing_ok=True)
                cache.pop(name, None)
                _write_cache(outdir, cache)
                raise StageError(f"{name} stage failed: {exc}") from exc
            outputs = {output: _sha256(outdir / output) for output in written}
            cache[name] = {"key": key, "outputs": outputs}
            _write_cache(outdir, cache)
        seconds = time.perf_counter() - start
        artifacts.update(outputs)
        manifest_stages.append({"name": name, "key": key, "cached": cached,
                                "seconds": round(seconds, 6),
                                "outputs": outputs})
        if echo:
            state = "cached" if cached else f"{seconds:.2f}s"
            echo(f"{name}: {state}")
    manifest = {"config": _manifest_config(cfg), "stages": manifest_stages}
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _write_cache(outdir, cache):
    with open(outdir / "cache.json", "w", encoding="utf-8") as fh:
        json.dump(cache, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest_config(cfg):
    return {key: _plain(cfg[key]) for key in _DEFAULTS}


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
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - stage failures map to exit 3
        print(f"error: {args.command} failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
