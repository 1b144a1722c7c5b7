"""Benchmark of the capradon pipeline, run from the root of a checkout.

    python3 perfbench/run.py --workload twobox --seed 1 --seconds 25 --trace 0

Every workload calls the public entry point `capradon.cli.main(["pipeline",
...])` in this process, in a closed loop with one client, for --seconds
seconds.  Each invocation is checked by the output gate (gate.py).  The
last line of standard output is one JSON object with the metrics:

  --trace 0  end-to-end metrics, measured with tracing off: pipeline_s,
             setup_s, peak_rss_mb, minor_faults, sweep_err and ok_frac.
  --trace 1  per-layer metrics from spans around each module's public
             functions (spans.py), taken on alternate cycles; the cycles in
             between run untraced, and the difference is the tracing
             overhead.

One untimed cycle with the default allocator comes first and counts the
minor page faults per invocation; the timed loop then runs with freed
memory kept in the heap (see retain_freed_memory).

Times are scaled to a reference host speed.  The fixed calibration kernel
of calibrate.py runs between consecutive invocations, and each
invocation's wall time is multiplied by REFERENCE_S over the mean kernel
time before and after it; setup_s is scaled the same way.  On a shared
2-vCPU virtual machine the same code ran up to 1.45x slower for minutes
at a time: over ten 25 s runs of each workload the unscaled medians
spread by 21-34% of their median (first to third quartile), the scaled
ones by under 4%.
The unscaled wall times are printed and kept in the run record.

A run record (machine, input sizes, tracing overhead, stage cross-check,
gate problems) goes to .perfbench_out/<workload>-s<seed>-t<trace>.json,
and with --trace 1 the spans of the last traced invocation go next to it.

Workloads, and why each is here:

  twobox   the default config: the built-in two-box scene, n=27, p=180,
           gaps 1-4, quantized, into an empty outdir each time.  The forward
           sweep is most of it and footprints repeat across heights, so the
           window sums dominate.
  mixed    the two boxes plus a sphere, a cylinder and a polygon, p=6, cold.
           The sphere makes every height a footprint miss, so footprint
           evaluation (`contains`) dominates.  The seed moves every
           primitive by up to 0.5 mm in the plane.
  rerecon  one untimed default run fills the stage cache; each invocation
           then reuses it at image_size=255, pixel_mm=0.5 and cycles through
           every window x interpolation (csv alternating 0/1, order set by
           the seed).  Weights and forward are cache hits; only recon and
           render rerun, so forward and weights changes must not move it.

sweep_err compares a sweep with the exact-chord oracle (oracle.py) after
the timed loop: the last twobox sweep, the rerecon cache's default sweep,
and for mixed one extra untimed run of the unperturbed scene.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    from capradon import cli

    import calibrate
    import gate
    import oracle
    import spans
except ImportError as exc:
    cli = None
    IMPORT_ERROR = exc

WORKLOADS = ("twobox", "mixed", "rerecon")
SETUP_REPEATS = 9
# glibc mallopt parameters and the values the timed loop runs with
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
RETAINED = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 1 << 30))
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS")
# Six angles keep one mixed invocation near 2 s, so that a run holds about
# as many invocations as on twobox; every angle costs the same, so the
# share of footprint evaluation does not depend on the angle count.
MIXED_ANGLES = 6
MIXED_EXTRA = """\
sphere 4 -2 6 8 2.0
cylinder -10 5 3 12 6 1.5
polygon 2 9 1.7 10 10 20 10 15 20
"""
STAGES = ("weights", "phantom", "forward", "recon", "render")
COLD = dict.fromkeys(STAGES, False)
RERECON_CACHED = {"weights": True, "phantom": True, "forward": True,
                  "recon": False, "render": False}
# Layer tolerances of the output gate, as a share of the reference's peak
# block mean.  Exact chord integrals in place of the midpoint rule move
# the block means by at most 0.004 on twobox and rerecon and 0.010 on
# mixed; the mixed scene's seeded 0.5 mm jitter moves them by up to 0.12
# over 30 seeds and by 0.20 in a linearised worst case, so mixed gets the
# wider bound.
LAYER_RTOL = 0.03
MIXED_LAYER_RTOL = 0.25

# per-layer metric -> (span names summed, use self time instead of duration)
SPAN_METRICS = {
    "greenfn.solve_s": (("greenfn.solve",), False),
    "greenfn.potential_s": (("greenfn.potential",), False),
    "weights.synth_self_s": (("weights.synth",), True),
    "weights.condition_s": (("weights.condition",), False),
    "weights.io_s": (("weights.save", "weights.load"), False),
    "phantom.parse_s": (("phantom.parse",), False),
    "phantom.rasterize_s": (("phantom.rasterize",), False),
    "phantom.contains_s": (("phantom.contains",), False),
    "forward.sweep_s": (("forward.sweep",), False),
    # the sweep minus its footprint spans: the weighted window sums
    "forward.window_s": (("forward.sweep",), True),
    "forward.quantize_s": (("forward.quantize",), False),
    "forward.io_s": (("forward.save", "forward.load"), False),
    # reconstruct_layers minus filter and backprojection: the resampling
    "recon.resample_s": (("recon.layers",), True),
    "recon.filter_s": (("recon.filter",), False),
    "recon.backproject_s": (("recon.backproject",), False),
    "recon.io_s": (("recon.save", "recon.load"), False),
    "recon.csv_s": (("recon.csv",), False),
    "cli.render_s": (("cli.render",), False),
}
# counter -> the span whose wrapper counts it
COUNT_METRICS = {
    "greenfn.potential_points": "greenfn.potential",
    "phantom.voxels": "phantom.rasterize",
    "phantom.contains_calls": "phantom.contains",
    "phantom.contains_points": "phantom.contains",
    "forward.rows_evaluated": "phantom.contains",
    "recon.bp_pixel_angles": "recon.backproject",
}
# manifest stage -> spans of the calls the stage makes, for the cross-check
STAGE_SPANS = {
    "weights": ("greenfn.solve", "weights.synth", "weights.condition",
                "weights.save"),
    "phantom": ("phantom.rasterize",),
    "forward": ("weights.load", "forward.sweep", "forward.quantize",
                "forward.save"),
    "recon": ("forward.load", "recon.layers", "recon.save", "recon.csv"),
    "render": ("recon.load", "cli.render"),
}


@dataclass
class Workload:
    name: str
    scene: str
    variants: list       # (reference key, --set values) per invocation
    cold: bool           # empty the outdir before each invocation
    expect_cached: dict
    layer_rtol: float = LAYER_RTOL
    fill: list = None    # --set values of the untimed cache-filling run
    exact: tuple = None  # (scene, --set values) of an untimed unperturbed
                         # run for sweep_err; None uses the timed outdir


def mixed_scene(rng):
    """The mixed scene; with an rng each primitive moves up to 0.5 mm in xy."""
    lines = []
    for raw in (cli.DEFAULT_PHANTOM + MIXED_EXTRA).splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind, nums = tokens[0], [float(t) for t in tokens[1:]]
        if rng is not None:
            dx, dy = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
            # x and y positions: centre for box/cylinder/sphere, vertices
            # for a polygon
            xs = range(3, len(nums), 2) if kind == "polygon" else (0,)
            for i in xs:
                nums[i] += dx
                nums[i + 1] += dy
        lines.append(" ".join([kind] + [repr(v) for v in nums]))
    return "\n".join(lines) + "\n"


def make_workload(name, seed, workdir):
    """The workload's invocations; seed None gives the unperturbed inputs."""
    base = [f"outdir={workdir / 'out'}"]
    if name == "twobox":
        return Workload(name, cli.DEFAULT_PHANTOM, [("twobox", base)], True,
                        COLD)
    if name == "mixed":
        scenes = {}
        for tag, rng in (("mixed", None if seed is None
                          else random.Random(seed)), ("plain", None)):
            path = workdir / f"{tag}.txt"
            path.write_text(mixed_scene(rng), encoding="utf-8")
            scenes[tag] = (path.read_text(encoding="utf-8"),
                           [f"phantom={path}", f"n_angles={MIXED_ANGLES}"])
        scene, sets = scenes["mixed"]
        plain, plain_sets = scenes["plain"]
        return Workload(name, scene, [("mixed", base + sets)], True, COLD,
                        MIXED_LAYER_RTOL,
                        exact=(plain, [f"outdir={workdir / 'exact'}"]
                               + plain_sets))
    combos = [(w, i) for w in ("ram-lak", "hamming", "hann", "none")
              for i in ("linear", "nearest")]
    if seed is not None:
        random.Random(seed).shuffle(combos)
    variants = [(f"rerecon/{w}-{i}",
                 base + ["image_size=255", "pixel_mm=0.5", f"window={w}",
                         f"interpolation={i}", f"csv={pos % 2}"])
                for pos, (w, i) in enumerate(combos)]
    return Workload(name, cli.DEFAULT_PHANTOM, variants, False,
                    RERECON_CACHED, fill=base)


def invoke(sets):
    """One `capradon pipeline` call; returns (exit code, wall seconds)."""
    argv = ["pipeline"] + [arg for s in sets for arg in ("--set", s)]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash fails one invocation
            rc = f"raised {exc!r}"
        return rc, time.perf_counter() - start


def retain_freed_memory():
    """Make glibc keep freed memory in the heap instead of unmapping it.

    Each invocation allocates and frees about 2 GB of temporaries of about
    1 MB; with the default policy that is ~480k minor page faults on
    twobox, and on a virtual machine their cost varies up to twofold from
    minute to minute.  The timed loop runs with the memory kept, so its
    times follow the program's computation; the churn itself is reported
    separately as minor_faults.  Returns what was applied, for the record.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError as exc:
        return f"unchanged ({exc})"
    if not all(libc.mallopt(param, value) for param, value in RETAINED):
        return "unchanged (mallopt refused)"
    return "glibc mallopt: mmap threshold 32 MiB, trim threshold 1 GiB"


def measure_setup(sets):
    """Median over fresh processes of importing capradon and resolving sets.

    Each sample is scaled to the reference host speed by the calibration
    kernel timed before and after it.
    """
    code = ("import sys, time\n"
            "t = time.perf_counter()\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import capradon, capradon.cli\n"
            "capradon.cli.resolve_config(None, sys.argv[2:])\n"
            "print(repr(time.perf_counter() - t))\n")
    samples = []
    before = calibrate.kernel_seconds()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, str(SRC), *sets],
                              capture_output=True, text=True, check=True,
                              timeout=120)
        after = calibrate.kernel_seconds()
        samples.append(float(done.stdout.split()[-1])
                       * calibrate.REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(samples)


def input_sizes(cfg):
    spp = int(round(1.0 / cfg["dx"]))
    nz = gate.weight_shape(cfg, 1)[0]
    widths = {k: gate.weight_shape(cfg, k)[1] for k in cfg["gaps"]}
    ndet = {k: 2 * cfg["n"] + 1 - k for k in cfg["gaps"]}
    return {
        "n": cfg["n"], "n_angles": cfg["n_angles"], "gaps": list(cfg["gaps"]),
        "lattice_points": max((ndet[k] - 1) * spp + widths[k]
                              for k in cfg["gaps"]),
        "weight_rows": nz, "image_size": cfg["image_size"],
        "rows_total": cfg["n_angles"] * nz,
        "window_macs": cfg["n_angles"] * nz * sum(ndet[k] * widths[k]
                                                  for k in cfg["gaps"]),
    }


def layer_sample(rec, wall, manifest, cfg):
    """Per-layer values of one traced invocation."""
    totals = rec.totals()
    out = {}
    for metric, (names, use_self) in SPAN_METRICS.items():
        if all(n in rec.absent for n in names):
            continue
        out[metric] = sum(totals.get(n, (0.0, 0.0))[1 if use_self else 0]
                          for n in names)
    for metric, span in COUNT_METRICS.items():
        if span not in rec.absent:
            out[metric] = rec.counts[metric]
    stages = {s["name"]: s for s in manifest["stages"]}
    for name in STAGES:
        if name in stages:
            out[f"cli.stage.{name}_s"] = stages[name]["seconds"]
    out["cli.overhead_s"] = wall - sum(s["seconds"] for s in stages.values())
    out["cli.cache_hit_ratio"] = (sum(s["cached"] for s in stages.values())
                                  / len(stages))
    forward_ran = "forward" in stages and not stages["forward"]["cached"]
    sizes = input_sizes(cfg)
    for metric in ("rows_total", "window_macs"):
        out[f"forward.{metric}"] = sizes[metric] if forward_ran else 0
    cross = {}
    for name, names in STAGE_SPANS.items():
        if name in stages and not stages[name]["cached"]:
            cross[name] = (stages[name]["seconds"],
                           sum(totals.get(n, (0.0, 0.0))[0] for n in names))
    return out, cross


def sweep_error(wl, cfg, references, problems):
    """sweep_err of the workload's unperturbed scene, after the timed loop.

    The error peaks on a few lines whose position relative to the midpoint
    nodes is set by the scene's exact placement, so a seeded scene would
    make the metric vary with the seed; a perturbed workload therefore
    gets one extra, untimed, unperturbed invocation for it.
    """
    scene, outdir = wl.scene, cfg["outdir"]
    if wl.exact is not None:
        scene, sets = wl.exact
        rc, _ = invoke(sets)
        exact_cfg = cli.resolve_config(None, sets)
        found, _ = gate.check(rc, exact_cfg, COLD, references[wl.name],
                              wl.layer_rtol)
        problems += [f"unperturbed run: {p}" for p in found]
        outdir = exact_cfg["outdir"]
    return oracle.sweep_error(outdir, scene)


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    return "1" if metric.endswith("_ratio") else "count"


def run(workload, seed, seconds, trace):
    work = OUT / f"{workload}-s{seed}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = make_workload(workload, seed, work)
    configs = [cli.resolve_config(None, sets) for _, sets in wl.variants]
    references = json.loads(gate.REFERENCE.read_text(encoding="utf-8"))
    problems = []
    if wl.fill is not None:
        rc, _ = invoke(wl.fill)
        found, _ = gate.check(rc, cli.resolve_config(None, wl.fill), COLD,
                              references["twobox"], LAYER_RTOL)
        problems += [f"cache fill: {p}" for p in found]

    # one untimed cycle with the default allocator counts the page faults
    # of an invocation; on rerecon it ends on a different variant than the
    # timed loop starts with, so the loop's first invocation still reruns
    # recon
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for (ref_key, sets), cfg in zip(wl.variants, configs):
        if wl.cold:
            shutil.rmtree(cfg["outdir"], ignore_errors=True)
        rc, _ = invoke(sets)
        found, _ = gate.check(rc, cfg, wl.expect_cached,
                              references[ref_key], wl.layer_rtol)
        problems += [f"warm-up: {p}" for p in found]
    minor_faults = ((resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                     - faults) / len(wl.variants))
    allocator = retain_freed_memory()
    # after the fault count, whose allocator state the kernel would change
    calibrate.kernel_seconds()  # first pass allocates; not a sample
    setup_s = None if trace else measure_setup(wl.variants[0][1])

    rec = spans.Recorder() if trace else None
    # wall times by tracing state, then by variant, unscaled and scaled to
    # the reference host speed
    walls = {mode: {key: [] for key, _ in wl.variants}
             for mode in ("untraced", "traced")}
    scaled = {mode: {key: [] for key, _ in wl.variants} for mode in walls}
    kernel_s = [calibrate.kernel_seconds()]
    cycles = 0
    samples, crosses = [], []
    attempted = failed = 0
    first_digests = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (trace and cycles < 2):
        traced = trace and cycles % 2 == 0
        for (ref_key, sets), cfg in zip(wl.variants, configs):
            if wl.cold:
                shutil.rmtree(cfg["outdir"], ignore_errors=True)
            if traced:
                rec.reset()
                rec.install()
            try:
                rc, wall = invoke(sets)
            finally:
                if traced:
                    rec.uninstall()
            found, manifest = gate.check(rc, cfg, wl.expect_cached,
                                         references[ref_key],
                                         wl.layer_rtol)
            if manifest is not None:
                digests = {name: d for stage in manifest["stages"]
                           for name, d in stage["outputs"].items()}
                if digests != first_digests.setdefault(ref_key, digests):
                    found.append("output digests differ from the first "
                                 "invocation of the same config")
            attempted += 1
            if found:
                failed += 1
                problems += [f"invocation {attempted}: {p}" for p in found]
            elif traced:
                sample, cross = layer_sample(rec, wall, manifest, cfg)
                samples.append(sample)
                crosses.append(cross)
            kernel_s.append(calibrate.kernel_seconds())
            mode = "traced" if traced else "untraced"
            walls[mode][ref_key].append(wall)
            scaled[mode][ref_key].append(
                wall * calibrate.REFERENCE_S / statistics.fmean(kernel_s[-2:]))
        cycles += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the variants of rerecon differ in cost, so each gets its own median
    # and pipeline_s is their mean: one invocation of an average variant
    def per_mode(times):
        return {mode: statistics.fmean(statistics.median(w)
                                       for w in by_key.values())
                for mode, by_key in times.items() if all(by_key.values())}
    pipeline_wall_s = per_mode(walls)["untraced"]
    typical = per_mode(scaled)
    pipeline_s = typical["untraced"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}},
        "inputs": input_sizes(configs[0]),
        "allocator": allocator,
        "scene": wl.scene,
        "attempted": attempted, "failed": failed,
        "walls": walls,
        "scaled_walls": scaled,
        "pipeline_wall_s": pipeline_wall_s,
        "kernel_s": {"reference": calibrate.REFERENCE_S,
                     "median": statistics.median(kernel_s),
                     "samples": kernel_s},
        "problems": problems[:50],
    }
    if trace:
        metrics = {}
        names = sorted({m for s in samples for m in s})
        for m in names:
            metrics[m] = statistics.fmean(s.get(m, 0) for s in samples)
        overhead = typical["traced"] - pipeline_s
        metrics["trace.overhead_s"] = overhead
        record["tracing_overhead_s"] = overhead
        record["absent_spans"] = rec.absent
        record["idle"] = [m for m, v in metrics.items() if v == 0]
        record["count_errors"] = sorted(rec.count_errors)
        record["stage_crosscheck"] = {
            stage: {"manifest_s": statistics.fmean(c[stage][0] for c in cs),
                    "spans_s": statistics.fmean(c[stage][1] for c in cs)}
            for stage in STAGE_SPANS
            for cs in [[c for c in crosses if stage in c]] if cs}
        (OUT / f"{work.name}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent"],
             "spans": rec.spans}), encoding="utf-8")
        units = {m: unit(m) for m in metrics}
    else:
        metrics = {
            "pipeline_s": pipeline_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "minor_faults": minor_faults,
            "sweep_err": sweep_error(wl, configs[0], references, problems),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "minor_faults": "count", "sweep_err": "1", "ok_frac": "1"}
        record["fail_frac"] = failed / attempted
    record["metrics"] = metrics
    (OUT / f"{work.name}.json").write_text(json.dumps(record, indent=1),
                                          encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    for m, v in metrics.items():
        print(f"{workload} {m} {v:.6g} {units[m]}")
    if not trace:
        print(f"{workload} fail_frac {failed / attempted:.6g} 1")
        print(f"{workload} pipeline_wall_s {pipeline_wall_s:.6g} s "
              f"(unscaled; calibration kernel "
              f"{statistics.median(kernel_s):.4g} s, reference "
              f"{calibrate.REFERENCE_S:.4g} s)")
    for p in problems[:10]:
        print(f"gate: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()}}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if cli is None:
        print(f"error: cannot import the program from {SRC}: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: capradon was imported from {cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
