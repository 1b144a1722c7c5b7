import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import capradon
from capradon import cli
from capradon.cli import (
    ConfigError,
    main,
    parse_config_text,
    read_pgm,
    render_pgm,
    resolve_config,
)
from capradon.forward import load_sinogram
from capradon.phantom import load_voxels
from capradon.recon import import_layer_csv, load_layer
from capradon.weights import load_weight

SMALL = {
    "n": "6",
    "n_angles": "4",
    "gaps": "1,2",
    "green_order": "8",
    "x_pad": "2.0",
    "z_max": "2.0",
    "dx": "0.25",
    "dz": "0.25",
    "z_cut": "0.5",
    "image_size": "15",
    "voxel_dx": "2.0",
}


def small_args(tmp_path, outdir="out", **extra):
    phantom = tmp_path / "ball.txt"
    if not phantom.exists():
        phantom.write_text("sphere 4 -2 6 2.5 2.0\n")
    kv = dict(SMALL, phantom=str(phantom), outdir=str(tmp_path / outdir))
    kv.update({k: str(v) for k, v in extra.items()})
    args = []
    for key, value in kv.items():
        args += ["--set", f"{key}={value}"]
    return args


def artifact_bytes(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())
            if p.suffix in (".ectw", ".ectv", ".ects", ".ectl", ".pgm",
                            ".csv")}


def test_parse_config_text():
    cfg = parse_config_text("n = 12  # sites\n\n# comment\nwindow=hann\n")
    assert cfg == {"n": "12", "window": "hann"}


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("n = 12\nbogus = 1\n")


def test_parse_config_rejects_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words\n")


def test_resolve_defaults():
    cfg = resolve_config()
    assert cfg["n"] == 27
    assert cfg["pitch"] == 2.5
    assert cfg["gaps"] == (1, 2, 3, 4)
    assert cfg["quantize"] is True
    assert cfg["phantom_text"].startswith("#")


def test_resolve_precedence(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("n_angles = 30\nwindow = hann\n")
    cfg = resolve_config(path, ["window=ram-lak", "window=hamming"])
    assert cfg["n_angles"] == 30
    assert cfg["window"] == "hamming"


def test_resolve_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        resolve_config(None, ["n=soon"])
    with pytest.raises(ConfigError):
        resolve_config(None, ["quantize=yes"])
    with pytest.raises(ConfigError):
        resolve_config(None, ["gaps=1,9"])
    with pytest.raises(ConfigError):
        resolve_config(None, ["window=boxcar"])
    with pytest.raises(ConfigError):
        resolve_config(None, ["render=fixed", "render_lo=1", "render_hi=1"])
    with pytest.raises(ConfigError):
        resolve_config(None, ["phantom=/no/such/file.txt"])
    with pytest.raises(ConfigError):
        resolve_config(tmp_path / "missing.cfg")
    bad = tmp_path / "bad_phantom.txt"
    bad.write_text("torus 0 0 0 1 2\n")
    with pytest.raises(ConfigError, match="line 1"):
        resolve_config(None, [f"phantom={bad}"])


def test_render_pgm_minmax(tmp_path):
    path = tmp_path / "img.pgm"
    render_pgm(np.array([[0.0, 1.0], [2.0, 3.0]]), path, mode="minmax")
    pixels, comments = read_pgm(path)
    np.testing.assert_array_equal(pixels, [[0, 21845], [43690, 65535]])
    assert any("mode=minmax" in c for c in comments)


def test_render_pgm_symmetric_center(tmp_path):
    path = tmp_path / "img.pgm"
    render_pgm(np.array([[-1.0, 0.0], [0.5, 1.0]]), path, mode="symmetric")
    pixels, _ = read_pgm(path)
    np.testing.assert_array_equal(pixels, [[0, 32768], [49151, 65535]])


def test_render_pgm_constant_is_zero(tmp_path):
    path = tmp_path / "img.pgm"
    render_pgm(np.full((3, 4), 7.5), path, mode="minmax")
    pixels, comments = read_pgm(path)
    np.testing.assert_array_equal(pixels, 0)
    assert pixels.shape == (3, 4)
    assert any("constant" in c for c in comments)


def test_render_pgm_fixed_clips(tmp_path):
    path = tmp_path / "img.pgm"
    render_pgm(np.array([[-1.0, 0.0], [1.0, 3.0]]), path, mode="fixed",
               lo=0.0, hi=2.0)
    pixels, _ = read_pgm(path)
    np.testing.assert_array_equal(pixels, [[0, 0], [32768, 65535]])
    with pytest.raises(ValueError):
        render_pgm(np.zeros((2, 2)), path, mode="fixed", lo=1.0, hi=1.0)


def test_render_pgm_narrow_range_saturates_quietly(tmp_path):
    # 1 / 5e-324 overflows; the pixel clips to white with no warning
    path = tmp_path / "img.pgm"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        render_pgm(np.array([[-1.0, 0.0], [1e-310, 1.0]]), path,
                   mode="fixed", lo=0.0, hi=5e-324)
    pixels, _ = read_pgm(path)
    np.testing.assert_array_equal(pixels, [[0, 0], [65535, 65535]])


@pytest.mark.parametrize("mode, image, lo, hi", [
    ("fixed", np.zeros((2, 2)), -1e308, 1e308),
    ("minmax", np.array([[-1e308, 1e308]]), None, None),
    ("symmetric", np.array([[1e308, 0.0]]), None, None),
])
def test_render_pgm_rejects_a_range_that_overflows(tmp_path, mode, image,
                                                   lo, hi):
    # hi - lo is inf, which used to map every pixel to 0
    path = tmp_path / "img.pgm"
    with pytest.raises(ValueError, match="overflows"):
        render_pgm(image, path, mode=mode, lo=lo, hi=hi)
    assert not path.exists()


def test_render_range_that_overflows_exits_2(tmp_path, capsys):
    args = small_args(tmp_path, render="fixed", render_lo="-1e308",
                      render_hi="1e308")
    assert main(["pipeline"] + args) == 2
    assert "render_hi - render_lo must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_read_pgm_returns_comments_in_order(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# first\n# second\n2 1\n65535\n\x00\x01\xff\xfe")
    pixels, comments = read_pgm(path)
    np.testing.assert_array_equal(pixels, [[1, 65534]])
    assert comments == ["first", "second"]


def test_read_pgm_rejects_8_bit_data(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n2 1\n255\n\x00\x01\xff\xfe")
    with pytest.raises(ValueError):
        read_pgm(path)


@pytest.mark.parametrize("edit", [lambda b: b[:-1], lambda b: b + b"\x00"],
                         ids=["one byte short", "one byte long"])
def test_read_pgm_rejects_payload_of_wrong_length(tmp_path, edit):
    path = tmp_path / "img.pgm"
    render_pgm(np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]), path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError):
        read_pgm(path)


def test_read_pgm_rejects_every_header_prefix(tmp_path):
    # a token scan that does not stop at the end of a truncated header
    # never returns, so the reads run in a thread that must finish in time
    path = tmp_path / "img.pgm"
    render_pgm(np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]), path)
    blob = path.read_bytes()
    header = blob[:len(blob) - 12]
    assert header.endswith(b"\n65535\n")
    outcomes = []

    def read_prefixes():
        for end in range(len(header) + 1):
            path.write_bytes(header[:end])
            try:
                read_pgm(path)
            except ValueError:
                outcomes.append(None)
            else:
                outcomes.append(end)

    reader = threading.Thread(target=read_prefixes, daemon=True)
    reader.start()
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert outcomes == [None] * (len(header) + 1)


def test_import_leaves_csv_unloaded():
    # the layer CSV is written and read with numpy alone; a fresh process
    # shows what importing the CLI costs
    src = str(Path(capradon.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, capradon.cli; print('csv' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"

def test_pipeline_smoke(tmp_path):
    assert main(["pipeline"] + small_args(tmp_path)) == 0
    outdir = tmp_path / "out"
    for name in ("weights_k1.ectw", "weights_k2.ectw", "phantom.ectv",
                 "sweep.ects", "layer_k1.ectl", "layer_k2.ectl",
                 "layer_k1.pgm", "layer_k2.pgm", "manifest.json",
                 "cache.json"):
        assert (outdir / name).exists(), name
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert [s["name"] for s in manifest["stages"]] == [
        "weights", "phantom", "forward", "recon", "render"]
    assert all(not s["cached"] for s in manifest["stages"])
    assert manifest["config"]["n"] == 6


def test_pipeline_rerun_hits_cache(tmp_path):
    args = small_args(tmp_path)
    assert main(["pipeline"] + args) == 0
    before = artifact_bytes(tmp_path / "out")
    assert main(["pipeline"] + args) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert all(s["cached"] for s in manifest["stages"])
    assert artifact_bytes(tmp_path / "out") == before


def test_pipeline_partial_invalidation(tmp_path):
    assert main(["pipeline"] + small_args(tmp_path)) == 0
    assert main(["pipeline"] + small_args(tmp_path, window="ram-lak")) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    cached = {s["name"]: s["cached"] for s in manifest["stages"]}
    assert cached == {"weights": True, "phantom": True, "forward": True,
                      "recon": False, "render": False}


def test_stagewise_matches_pipeline(tmp_path):
    assert main(["pipeline"] + small_args(tmp_path, outdir="pipe")) == 0
    for command in ("weights", "phantom", "forward", "recon", "render"):
        assert main([command] + small_args(tmp_path, outdir="steps")) == 0
    assert artifact_bytes(tmp_path / "pipe") == artifact_bytes(
        tmp_path / "steps")


def test_pipeline_csv_option(tmp_path):
    assert main(["pipeline"] + small_args(tmp_path, csv=1)) == 0
    assert (tmp_path / "out" / "layer_k1.csv").exists()
    assert (tmp_path / "out" / "layer_k2.csv").exists()


def test_pipeline_empty_phantom(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing in view\n")
    assert main(["pipeline"] + small_args(tmp_path, phantom=str(empty))) == 0
    from capradon.forward import load_sinogram

    sino = load_sinogram(tmp_path / "out" / "sweep.ects")
    for k in (1, 2):
        np.testing.assert_array_equal(sino.data[k], 0.0)


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["pipeline", "--set", "bogus=1"]) == 2
    assert main(["pipeline", "--set", "n"]) == 2
    assert main(["pipeline", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_empty_outdir_exits_2(tmp_path, monkeypatch, capsys):
    # an empty outdir is a config error, not the working directory
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    args = small_args(tmp_path) + ["--set", "outdir="]
    assert main(["pipeline"] + args) == 2
    assert "outdir" in capsys.readouterr().err
    assert list(work.iterdir()) == []
    # "." still names the working directory
    args[-1] = "outdir=."
    assert main(["pipeline"] + args) == 0
    assert (work / "manifest.json").exists()


@pytest.mark.parametrize("key", ["standoff", "pixel_mm"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_values_exit_2(tmp_path, capsys, key, value):
    args = small_args(tmp_path) + ["--set", f"{key}={value}"]
    assert main(["pipeline"] + args) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", [
    "polygon 2 9 1.7 10 10 20 nan 15 20",   # used to run to the end
    "box -15 0 7 6 6 2.5 0 inf",            # used to fail in forward
    "box nan 0 7 6 6 2.5 0 2",              # used to blame voxel_dx
])
def test_non_finite_phantom_numbers_exit_2(tmp_path, capsys, line):
    phantom = tmp_path / "bad.txt"
    phantom.write_text(f"# scene\n{line}\n")
    args = small_args(tmp_path, phantom=str(phantom))
    assert main(["pipeline"] + args) == 2
    assert "line 2: non-finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting, message", [
    ("dx=0.03", "1/dx"),
    ("x_pad=0", "x_pad"),
    ("dz=2.0", "z_max"),
    ("z_cut=2.0", "z_cut"),
    ("z_cut=9", "z_cut"),
    ("voxel_dx=0.01", "voxels"),
    ("voxel_dx=1e-9", "voxels"),
    ("voxel_dx=5e-324", "voxels"),
    ("z_max=1e6", "weight grid"),
    ("x_pad=1e9", "weight grid"),
    ("n_angles=100000000", "sweep"),
    ("n=10000000", "sweep"),
    ("image_size=1000000", "layer stack"),
    ("image_size=1" + "0" * 400, "layer stack"),
    ("green_order=100000", "interpolation system"),
    ("pitch=1e300", "area of a weight cell"),
    ("quant_delta=5e-324", "quant_delta"),
    ("dx=5e-324", "1/dx overflows"),
    ("green_eps0=10", "interpolation system"),
    ("green_eps0=50", "interpolation system"),
    ("green_eps0=1e-300", "interpolation system"),
    ("green_eps0=1e300", "interpolation system"),
    ("pixel_mm=1e308", "image frame"),
    ("voxel_dx=1e308", "corners overflow"),
    # these never reached a stage; they run the checks no case above runs
    ("green_order=0", "order must be >= 1"),
    ("green_order=-1" + "0" * 400, "order must be >= 1"),
    ("green_eps0=-1", "eps0 must be positive"),
    ("z_cut=-1", "nonnegative"),
    ("quant_delta=-1", "nonnegative"),
    ("render=sepia", "render must be one of"),
    ("gaps=", "nonempty subset"),
    ("gaps=0,1", "nonempty subset"),
])
def test_late_failures_are_config_errors(tmp_path, capsys, setting,
                                         message):
    # the cases above used to fail inside a stage, after earlier stages had
    # written their files; the sizes of the voxel raster, the interpolation
    # system, the weight grid, the sweep and the layer stack are checked
    # before any is allocated, and so are the sweep's cell area, the
    # quantizer step that every sample is divided by, 1/dx, the solve of
    # the interpolation system, the raster's corners and the image frame
    args = small_args(tmp_path) + ["--set", setting]
    assert main(["pipeline"] + args) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("order", [8, 16, 64])
@pytest.mark.parametrize("eps0", [10, 50, 1e-300, 1e300])
def test_singular_interpolation_system_exits_2_quietly(tmp_path, capsys,
                                                       order, eps0):
    # the system is solved while the config is resolved, with numpy's
    # overflow and log warnings silenced: the condition guard rejects it
    args = small_args(tmp_path, green_order=order, green_eps0=eps0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["pipeline"] + args) == 2
    assert "interpolation system" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Values the fuzzer draws for each kind of key: each pool holds values that
# pass, values at a guard's edge and values past it.  The one large int is
# just past the 2**24 limit of every array it sizes, so a run that passes
# the guards stays as small as SMALL.
_FUZZ_POOLS = {
    "int": ["0", "1", "4", "-1", "x", str((1 << 24) + 1)],
    "float": ["0", "-1", "5e-324", "1e-300", "10", "1e300", "1e308", "nan",
              "inf"],
    "flag": ["0", "1", "2"],
    "gaps": ["", "5", "0,1", "4,1,1"],
    "window": ["hann", "none", "boxcar"],
    "interpolation": ["nearest", "cubic"],
    "render": ["minmax", "fixed", "sepia"],
}
_FUZZ_KEYS = {
    **{key: "int" for key in cli._INT_KEYS},
    **{key: "float" for key in cli._FLOAT_KEYS},
    **{key: "flag" for key in cli._BOOL_KEYS},
    **{key: key for key in ("gaps", "window", "interpolation", "render")},
}
_FUZZ_SETTING = st.sampled_from(sorted(_FUZZ_KEYS)).flatmap(
    lambda key: st.sampled_from(_FUZZ_POOLS[_FUZZ_KEYS[key]]).map(
        lambda value: f"{key}={value}"))
# each loader returns the numbers an artifact holds, header included
_LOADERS = {
    ".ectw": lambda path: [(grid := load_weight(path)).values, grid.scale,
                           grid.x_origin, grid.z_origin],
    ".ectv": lambda path: [(grid := load_voxels(path)).values, grid.origin,
                           grid.spacing],
    ".ects": lambda path: list(load_sinogram(path).data.values()),
    ".ectl": lambda path: list(load_layer(path)[1:]),
    ".csv": lambda path: [import_layer_csv(path)],
    ".pgm": lambda path: [read_pgm(path)[0]],
}


@settings(max_examples=80, deadline=None)
@given(sets=st.lists(_FUZZ_SETTING, min_size=1, max_size=3))
@example(sets=["dx=5e-324"])
@example(sets=["green_eps0=10"])
@example(sets=["pixel_mm=1e308"])
@example(sets=["voxel_dx=1e308"])
@example(sets=["render=fixed", "render_hi=5e-324"])
def test_random_settings_exit_2_or_give_loadable_artifacts(sets):
    # McKeeman's differential testing, on the CLI: a run either is turned
    # away before anything is written, or writes only finite artifacts that
    # the public loaders accept; a warning counts as a failure
    with tempfile.TemporaryDirectory() as tmp:
        args = small_args(Path(tmp))
        for setting in sets:
            args += ["--set", setting]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["pipeline"] + args)
        outdir = Path(tmp) / "out"
        if code == 2:
            assert not outdir.exists()
            return
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        names = [name for stage in manifest["stages"]
                 for name in stage["outputs"]]
        assert names
        for name in names:
            for values in _LOADERS[Path(name).suffix](outdir / name):
                assert np.isfinite(values).all(), name


def test_gaps_are_sorted_and_deduplicated():
    cfg = resolve_config(None, ["gaps=4,1,1"])
    assert cfg["gaps"] == cfg["geometry"].gaps == (1, 4)


def test_tiny_quant_delta_still_runs(tmp_path):
    # the samples' bound over 1e-300 stays finite; the step is applied
    args = small_args(tmp_path) + ["--set", "quant_delta=1e-300"]
    assert main(["pipeline"] + args) == 0
    sino = cli.load_sinogram(tmp_path / "out" / "sweep.ects")
    assert sino.geometry.quant_delta == 1e-300


@pytest.mark.parametrize("far", [True, False])
def test_phantom_outside_scan_circle_exits_2(tmp_path, capsys, far):
    # a box at x = 100 mm, or the default scene (boxes out to 21.8 mm)
    # under an n=4 head (scan radius 10 mm): the scan-circle check runs
    # before any stage writes
    if far:
        phantom = tmp_path / "far.txt"
        phantom.write_text("box 100 0 6 2 2 1 0 2.0\n")
        args = small_args(tmp_path, phantom=str(phantom))
    else:
        args = ["--set", "n=4", "--set", f"outdir={tmp_path / 'out'}"]
    assert main(["pipeline"] + args) == 2
    assert "beyond the scan radius" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stage_failures_exit_3(tmp_path, capsys, monkeypatch):
    # the forward stage fails to write its sweep -> exit 3; the weights
    # stay, and neither the sweep nor the manifest is left behind
    def no_space(sino, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "save_sinogram", no_space)
    assert main(["pipeline"] + small_args(tmp_path)) == 3
    err = capsys.readouterr().err
    assert "forward stage failed" in err
    outdir = tmp_path / "out"
    assert (outdir / "weights_k1.ectw").exists()
    assert not (outdir / "sweep.ects").exists()
    assert not (outdir / "manifest.json").exists()


def test_standalone_stage_failure_removes_its_outputs(tmp_path, capsys,
                                                      monkeypatch):
    # a stage run on its own fails as it does in the pipeline: the layer
    # of gap 1 was written before gap 2's failed, and is removed
    args = small_args(tmp_path)
    for command in ("weights", "forward"):
        assert main([command] + args) == 0
    save_layer, written = cli.save_layer, []

    def fail_on_second(image, k, pitch, path):
        if written:
            raise OSError(28, "No space left on device")
        written.append(k)
        save_layer(image, k, pitch, path)

    monkeypatch.setattr(cli, "save_layer", fail_on_second)
    capsys.readouterr()
    assert main(["recon"] + args) == 3
    assert "recon stage failed" in capsys.readouterr().err
    assert written == [1]
    assert list((tmp_path / "out").glob("layer_k*.ectl")) == []


def test_missing_prerequisite_exits_3(tmp_path, capsys):
    # each stage names the stage that writes its first missing input
    for command, missing, producer in (
            ("forward", "weights_k1.ectw", "weights"),
            ("recon", "sweep.ects", "forward"),
            ("render", "layer_k1.ectl", "recon")):
        assert main([command] + small_args(tmp_path, outdir="fresh")) == 3
        assert (f"missing {missing}; run the {producer} stage first"
                in capsys.readouterr().err), command


def test_recon_rejects_a_sweep_of_other_gaps(tmp_path, capsys):
    # the recon stage writes the layers of the configured gaps, so a sweep
    # made for other gaps is a stale input
    assert main(["pipeline"] + small_args(tmp_path)) == 0
    capsys.readouterr()
    assert main(["recon"] + small_args(tmp_path, gaps="1")) == 3
    assert "run the forward stage first" in capsys.readouterr().err


# hex digests of the default config's stage keys, with each input artifact's
# digest replaced by the digest of its name so that the keys do not depend
# on floating-point results
DEFAULT_STAGE_KEYS = {
    "weights": "54b16a3b7c5d335c9d25c92975c515fbf7789eb696a3ffdc600f767c4345479d",
    "phantom": "07de8409bcad1ea6028ea905f154e905503db05a46cfa758e8ca983b3835716d",
    "forward": "f4448cdd65b58862fdda25303ac323cfb336767eb61d43a253b4b5862e0969f4",
    "recon": "51686cd46ea5b932fddba166017f5bc20939dc54e1e2a8f0f02d4376235ac584",
    "render": "58e5da0a0625ede8cf3c521fa85193bf8c04b856401073126b70b431b5c715dd",
}


def test_default_stage_keys_are_pinned():
    # cache.json written by one version must keep hitting in the next: a
    # key that changes reruns every stage of every existing outdir
    cfg = resolve_config()
    names = ([f"weights_k{k}.ectw" for k in cfg["gaps"]]
             + ["phantom.ectv", "sweep.ects"]
             + [f"layer_k{k}.ectl" for k in cfg["gaps"]])
    artifacts = {name: hashlib.sha256(name.encode("ascii")).hexdigest()
                 for name in names}
    keys = {stage: cli._stage_key(cfg, stage, artifacts)
            for stage in DEFAULT_STAGE_KEYS}
    assert keys == DEFAULT_STAGE_KEYS


def _drop_outputs(entry, cache):
    del entry["outputs"]
    return entry


def _no_outputs(entry, cache):
    entry["outputs"] = {}
    return entry


def _outputs_as_list(entry, cache):
    entry["outputs"] = sorted(entry["outputs"])
    return entry


def _list_entry(entry, cache):
    return []


def _string_entry(entry, cache):
    return "phantom.ectv"


def _foreign_output(entry, cache):
    # a valid digest of a file that the stage does not write
    entry["outputs"]["sweep.ects"] = cache["forward"]["outputs"]["sweep.ects"]
    return entry


@pytest.mark.parametrize("stage, corrupt", [
    ("weights", _no_outputs),
    ("recon", _list_entry),
    ("forward", _drop_outputs),
    ("forward", _outputs_as_list),
    ("phantom", _string_entry),
    ("render", _foreign_output),
])
def test_malformed_cache_entry_is_a_miss(tmp_path, stage, corrupt):
    args = small_args(tmp_path)
    assert main(["pipeline"] + args) == 0
    outdir = tmp_path / "out"
    before = artifact_bytes(outdir)
    path = outdir / "cache.json"
    cache = json.loads(path.read_text())
    cache[stage] = corrupt(cache[stage], cache)
    path.write_text(json.dumps(cache))
    assert main(["pipeline"] + args) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    cached = {s["name"]: s["cached"] for s in manifest["stages"]}
    assert cached[stage] is False
    assert artifact_bytes(outdir) == before


def test_undecodable_cache_is_a_miss(tmp_path):
    args = small_args(tmp_path)
    assert main(["pipeline"] + args) == 0
    outdir = tmp_path / "out"
    before = artifact_bytes(outdir)
    (outdir / "cache.json").write_bytes(b"\xff\xfe{}")
    assert main(["pipeline"] + args) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert not any(s["cached"] for s in manifest["stages"])
    assert artifact_bytes(outdir) == before


def _benchmark_spans():
    # perfbench is a script directory, not a package, so load it by path
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_are_called(tmp_path):
    # the benchmark traces the names the pipeline calls through; a renamed
    # or bypassed target silently drops its per-layer metrics
    spans = _benchmark_spans()
    rec = spans.Recorder()
    assert rec.absent == []
    rec.install()
    try:
        assert main(["pipeline", "--set", "csv=1",
                     "--set", f"outdir={tmp_path / 'out'}"]) == 0
    finally:
        rec.uninstall()
    # one cold run with CSV export calls every traced target
    wanted = {span for _, _, span, _ in spans.FUNCTION_TARGETS}
    wanted |= {span for _, span, _ in spans.METHOD_TARGETS}
    assert wanted - {span[0] for span in rec.spans} == set()
    synth = [i for i, span in enumerate(rec.spans)
             if span[0] == "weights.synth"]
    potential = [span for span in rec.spans
                 if span[0] == "greenfn.potential"]
    assert len(synth) == 1
    assert len(potential) == 1 and potential[0][3] == synth[0]
    # recon filters each of the four default gaps and backprojects them in
    # one call
    layers = [i for i, span in enumerate(rec.spans)
              if span[0] == "recon.layers"]
    backproject = [span for span in rec.spans
                   if span[0] == "recon.backproject"]
    filters = [span for span in rec.spans if span[0] == "recon.filter"]
    assert len(layers) == 1
    assert len(backproject) == 1 and backproject[0][3] == layers[0]
    assert len(filters) == 4
