import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from capradon import cli
from capradon.cli import (
    ConfigError,
    main,
    parse_config_text,
    read_pgm,
    render_pgm,
    resolve_config,
)

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


@pytest.mark.parametrize("key", ["standoff", "pixel_mm"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_values_exit_2(tmp_path, capsys, key, value):
    args = small_args(tmp_path) + ["--set", f"{key}={value}"]
    assert main(["pipeline"] + args) == 2
    assert "finite" in capsys.readouterr().err
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
])
def test_late_failures_are_config_errors(tmp_path, capsys, setting,
                                         message):
    # each of these used to fail inside a stage, after earlier stages had
    # written their files; the voxel count is checked before any raster
    # is allocated
    args = small_args(tmp_path) + ["--set", setting]
    assert main(["pipeline"] + args) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stage_failures_exit_3(tmp_path, capsys):
    # phantom pokes out of the scan circle -> the forward stage fails
    far = tmp_path / "far.txt"
    far.write_text("sphere 100 0 6 2.5 2.0\n")
    assert main(["pipeline"] + small_args(tmp_path, phantom=str(far))) == 3
    err = capsys.readouterr().err
    assert "error" in err
    outdir = tmp_path / "out"
    assert (outdir / "weights_k1.ectw").exists()
    assert not (outdir / "sweep.ects").exists()
    assert not (outdir / "manifest.json").exists()


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
