"""Print the sha256 of every artifact of a few cold pipeline runs.

    python3 tests/artifact_digests.py [CHECKOUT]

CHECKOUT (default: the checkout holding this file) is the root of a
capradon checkout; its src/ and the mixed scene of its benchmark
(perfbench/run.py) are used.  Running this at two commits and diffing the
output shows whether a change moved any artifact byte.  Each run goes into
a fresh temporary directory; manifest.json is left out, since it records
the output directory and stage times.

Runs: the default scene with csv=1; the benchmark's mixed scene, plain and
perturbed with seed 7; the mixed scene plus a rotated box and a concave
polygon; the default scene with supersample=1 at voxel_dx=0.5; and the
empty scene with supersample 0 and 1.
"""

import contextlib
import hashlib
import importlib
import io
import random
import sys
import tempfile
from pathlib import Path

# a rotated oblong box and a concave polygon
EXTRA = """\
box 3 -12 8 7 3 4 30 1.6
polygon 3 12 2.5 -20 -20 -5 -20 -12 -12 -5 -5 -20 -5
"""


def cases(run):
    """(name, phantom text or None for the default, extra settings)."""
    mixed = ["n_angles=6"]
    return [
        ("default-csv", None, ["csv=1"]),
        ("mixed", run.mixed_scene(None), mixed),
        ("mixed-s7", run.mixed_scene(random.Random(7)), mixed),
        ("mixed-extra", run.mixed_scene(None) + EXTRA, mixed),
        ("supersample", None, ["supersample=1", "voxel_dx=0.5"]),
        ("empty", "", []),
        ("empty-supersample", "", ["supersample=1"]),
    ]


def digests(main, workdir, scene, sets):
    outdir = workdir / "out"
    if scene is not None:
        (workdir / "scene.txt").write_text(scene, encoding="utf-8")
        sets = sets + [f"phantom={workdir / 'scene.txt'}"]
    argv = ["pipeline", "--set", f"outdir={outdir}"]
    for item in sets:
        argv += ["--set", item]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        raise SystemExit(f"pipeline exited {rc}")
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.iterdir())
            if path.name != "manifest.json"}


def report(root):
    sys.path.insert(0, str(root / "perfbench"))
    run = importlib.import_module("run")   # puts root/src on sys.path
    main = importlib.import_module("capradon.cli").main
    for name, scene, sets in cases(run):
        with tempfile.TemporaryDirectory() as tmp:
            for artifact, digest in digests(main, Path(tmp), scene,
                                            sets).items():
                print(f"{name}/{artifact} {digest}")


if __name__ == "__main__":
    report(Path(sys.argv[1] if len(sys.argv) > 1
                else Path(__file__).resolve().parent.parent).resolve())
