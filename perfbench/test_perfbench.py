"""Self-tests of the benchmark: the exact-chord oracle and the count record.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import run  # first: puts the checkout's src/ on sys.path
import oracle
from capradon import phantom


def _midpoint(spec, theta, s, z, step, reach=40.0):
    m = int(np.ceil(2 * reach / step))
    dt = 2 * reach / m
    t = -reach + (np.arange(m) + 0.5) * dt
    x = s * np.cos(theta) - t * np.sin(theta)
    y = s * np.sin(theta) + t * np.cos(theta)
    return float(np.sum(phantom.eval_permittivity(spec, x, y, z) - 1.0) * dt)


# a rotated oblong box and a concave polygon, beside the mixed scene's
# square boxes and convex polygon
EXTRA = """\
box 3 -12 8 7 3 4 30 1.6
polygon 3 12 2.5 -20 -20 -5 -20 -12 -12 -5 -5 -20 -5
"""


def test_exact_chords_agree_with_fine_midpoint_rule():
    """On random lines the midpoint rule is within step/2 per unit jump.

    A jump of size J in the integrand moves a midpoint cell by at most
    step/2 * J, so |exact - midpoint| <= step/2 * total variation; for a
    line through one primitive that is step * |eps - 1|.
    """
    scene = run.mixed_scene(None) + EXTRA
    spec = phantom.parse_phantom(scene)
    prims = oracle.parse_scene(scene)
    step = 2.5 / 256
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(300):
        theta = rng.uniform(0, np.pi)
        s = rng.uniform(-25, 25)
        z = rng.uniform(1.5, 16.0)
        shapes = [(cs, p[2]) for p in prims
                  for cs in [oracle.cross_section(p, z)] if cs is not None]
        lengths, values = oracle.line_segments(shapes, theta, [s])
        exact = float(np.sum((values - 1.0) * lengths))
        padded = np.concatenate([[1.0], values[0], [1.0]])
        variation = float(np.sum(np.abs(np.diff(padded))))
        mid = _midpoint(spec, theta, s, z, step)
        assert abs(exact - mid) <= step / 2 * variation + 1e-9, (theta, s, z)
        hits += exact != 0.0
    assert hits >= 100


def _traced_counts(workload, seed):
    done = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    return {name: result["metrics"][name]["value"]
            for name in ("phantom.contains_calls", "phantom.contains_points",
                         "forward.rows_evaluated", "forward.window_macs",
                         "recon.bp_pixel_angles")}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload):
    first = _traced_counts(workload, 3)
    assert _traced_counts(workload, 3) == first
