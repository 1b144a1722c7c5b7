"""A fixed calibration kernel that measures how fast the host runs right now.

On a shared host the same code runs up to about 1.45x slower for minutes
at a time, because of what other tenants run on the same cores and
caches.  run.py times this kernel between invocations of the program and
reports each invocation's wall time scaled to REFERENCE_S, the kernel's
time at the host's usual speed:

    pipeline time at reference speed = wall * REFERENCE_S / kernel time

The kernel is the benchmark's own code and never changes with the
program, so a change to the program moves the scaled time as much as the
wall time.  Its parts mirror the kinds of work the pipeline does:
elementwise masks over a point grid (footprint tests), weighted sums
over sliding windows (the forward sweep), linear interpolation over an
image (backprojection), streaming over two 3 MiB arrays, together more
than a core's L2 cache (temporaries), and formatting floats as text (CSV
export).  Each part
takes a similar share of the kernel's time.
"""

import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Median kernel seconds between pipeline invocations on a 2-vCPU Xeon
# virtual machine (L2 4 MiB per core) at its usual speed, Python 3.11,
# numpy 2.  Any fixed value would do: it only sets the scale.
REFERENCE_S = 0.084


def kernel_seconds():
    """Wall seconds of one pass of the fixed kernel.

    The inputs are built anew on each call, outside the timed part, and
    freed on return, so that between invocations the program can reuse
    their memory and the kernel adds little to the peak resident set.
    """
    rng = np.random.default_rng(20180628)
    x, y = np.meshgrid(np.linspace(-20, 20, 320), np.linspace(-20, 20, 320))
    rows, weights = rng.random((40, 2000)), rng.random((40, 64))
    samples, profile = rng.uniform(-10, 200, 255 * 255), rng.random(181)
    stream = rng.random(3 << 17)
    stream_out = np.empty_like(stream)
    values = rng.random(1000).tolist()

    start = time.perf_counter()
    for k in range(10):
        inside = (np.abs(x - 0.2 * k) <= 6.0) & (np.abs(y + 0.2 * k) <= 4.0)
        inside |= (x - k) ** 2 + y ** 2 <= 9.0
    for _ in range(13):
        np.einsum("zdx,zx->d", sliding_window_view(rows, 64, axis=1), weights)
    image = np.zeros(samples.size)
    for k in range(5):
        image += np.interp(samples + k, np.arange(profile.size), profile,
                           left=0.0, right=0.0)
    for _ in range(32):
        np.multiply(stream, 1.0001, out=stream_out)
        np.add(stream_out, stream, out=stream_out)
    for _ in range(60):
        ",".join(f"{v:.6g}" for v in values)
    return time.perf_counter() - start
