"""Span tracing around the program's public functions, installed from outside.

Wrappers are set on the names the program calls through (for example
`capradon.cli.simulate_sweep`, which is the name the pipeline looks up),
so no code under src/ changes.  Each call records a span (name, start,
end, parent) in memory; a span's self time is its duration minus the
time its child spans cover.  A target that no longer exists is reported
as absent instead of failing the run.
"""

import importlib
import time
from collections import Counter

import numpy as np


# Counters read the positional arguments the pipeline passes; one that
# no longer fits the call is recorded in count_errors, not raised.
def _points(x, y):
    return int(np.broadcast(np.asarray(x), np.asarray(y)).size)


def _count_potential(rec, args, span):
    rec.counts["greenfn.potential_points"] += _points(args[1], args[2])


def _count_voxels(rec, args, span):
    rec.counts["phantom.voxels"] += int(np.prod(args[1]))


def _count_backproject(rec, args, span):
    rec.counts["recon.bp_pixel_angles"] += args[2].size ** 2 * len(args[1])


def _count_contains(rec, args, span):
    _, x, y, z = args
    rec.counts["phantom.contains_calls"] += 1
    rec.counts["phantom.contains_points"] += _points(x, y)
    parent = span[3]
    if parent >= 0 and rec.spans[parent][0] == "forward.sweep":
        # one sweep row is the run of contains calls on one sample lattice
        # at one height
        key = (id(x), float(z) if np.ndim(z) == 0 else id(z))
        if key != rec.last_row:
            rec.counts["forward.rows_evaluated"] += 1
            rec.last_row = key


# (module, attribute, span name, counter); the module attribute is the
# name the caller looks up, so the span covers exactly the program's call
FUNCTION_TARGETS = (
    ("capradon.cli", "potential_coefficients", "greenfn.solve", None),
    ("capradon.weights", "eval_potential", "greenfn.potential",
     _count_potential),
    ("capradon.cli", "synthesize_weight", "weights.synth", None),
    ("capradon.cli", "condition_weight", "weights.condition", None),
    ("capradon.cli", "save_weight", "weights.save", None),
    ("capradon.cli", "load_weight", "weights.load", None),
    ("capradon.cli", "parse_phantom", "phantom.parse", None),
    ("capradon.cli", "rasterize", "phantom.rasterize", _count_voxels),
    ("capradon.cli", "simulate_sweep", "forward.sweep", None),
    ("capradon.cli", "quantize", "forward.quantize", None),
    ("capradon.cli", "save_sinogram", "forward.save", None),
    ("capradon.cli", "load_sinogram", "forward.load", None),
    ("capradon.cli", "reconstruct_layers", "recon.layers", None),
    ("capradon.recon", "filter_sinogram", "recon.filter", None),
    ("capradon.recon", "backproject", "recon.backproject",
     _count_backproject),
    ("capradon.cli", "save_layer", "recon.save", None),
    ("capradon.cli", "load_layer", "recon.load", None),
    ("capradon.cli", "export_layer_csv", "recon.csv", None),
    ("capradon.cli", "render_pgm", "cli.render", None),
)
# methods wrapped on every public phantom class that defines them
METHOD_TARGETS = (
    ("contains", "phantom.contains", _count_contains),
    ("footprint_token", "phantom.token", None),
)


class Recorder:
    """In-memory spans and counters, with wrappers that can be switched."""

    def __init__(self):
        self.count_errors = set()
        self._installed = []
        self.targets = self._resolve_targets()
        wanted = {span for _, _, span, _ in FUNCTION_TARGETS}
        wanted |= {span for _, span, _ in METHOD_TARGETS}
        self.absent = sorted(wanted - {span for _, _, span, _ in self.targets})
        self.reset()

    @staticmethod
    def _resolve_targets():
        targets = []
        for module, attr, span, counter in FUNCTION_TARGETS:
            owner = importlib.import_module(module)
            if callable(vars(owner).get(attr)):
                targets.append((owner, attr, span, counter))
        phantom = importlib.import_module("capradon.phantom")
        for cls_name in getattr(phantom, "__all__", ()):
            cls = getattr(phantom, cls_name, None)
            if not isinstance(cls, type):
                continue
            for attr, span, counter in METHOD_TARGETS:
                if callable(vars(cls).get(attr)):
                    targets.append((cls, attr, span, counter))
        return targets

    def reset(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.last_row = None

    def install(self):
        for owner, attr, span, counter in self.targets:
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, span, counter))
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, counter):
        def wrapper(*args, **kwargs):
            # an override calling its base keeps one span, not two
            if self.stack and self.spans[self.stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                if counter is not None:
                    try:
                        counter(self, args, span)
                    except Exception:  # noqa: BLE001 - counts never fail a run
                        self.count_errors.add(name)

        return wrapper

    def totals(self):
        """Per span name: (sum of durations, sum of self times)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            dur, own = out.get(name, (0.0, 0.0))
            out[name] = (dur + end - start, own + end - start - child)
        return out
