"""Regenerate reference.json, the layer block means the output gate checks.

    python3 perfbench/make_reference.py

Runs every workload config once with unperturbed inputs (no seed jitter)
and stores the block means of each reconstructed layer.  Regenerate only
with a change that is meant to move the layers, and say why in its notes.
"""

import json
import shutil

import run  # first: puts the checkout's src/ on sys.path
import gate
from capradon import cli
from capradon.recon import load_layer


def main():
    work = run.OUT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    refs = {}
    for name in run.WORKLOADS:
        wl = run.make_workload(name, None, work)
        if wl.fill is not None:
            run.invoke(wl.fill)
        for key, sets in wl.variants:
            cfg = cli.resolve_config(None, sets)
            if wl.cold:
                shutil.rmtree(cfg["outdir"], ignore_errors=True)
            rc, _ = run.invoke(sets)
            problems, _ = gate.check(rc, cfg, wl.expect_cached, None, 0.0)
            if problems:
                raise SystemExit(f"{key}: {problems}")
            refs[key] = {
                str(k): [[float(f"{v:.6g}") for v in row] for row in
                         gate.block_means(load_layer(
                             f"{cfg['outdir']}/layer_k{k}.ectl")[2],
                             cfg["pixel_mm"])]
                for k in cfg["gaps"]}
    shutil.rmtree(work, ignore_errors=True)
    gate.REFERENCE.write_text(json.dumps(refs, separators=(",", ":")) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main()
