"""The segment rule of `line_integrals` with a sort on every line, as an oracle.

The program orders each line's crossings without a sort where it can: a
lone convex member's (entry, exit) pair is used as it is, and two
members' pairs are merged by compare-exchange.  This module keeps the
plain form of the same rule: concatenate every member's crossings, sort
each line's ends with np.sort (NaN last), and overwrite each segment in
list order where an odd number of a member's crossings lie below the
segment's midpoint.  It takes the program's own crossings, so it checks
the ordering and the overwrite to the bit, not the crossings themselves.
"""

import numpy as np


def line_integrals(spec, theta, s, z):
    """Integral of (permittivity - 1) along each line, as the program's."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    cuts = [p.crossings(theta, s, z) for p in spec.primitives]
    if not cuts:
        return np.zeros(np.broadcast(np.asarray(theta), s,
                                     np.asarray(z)).shape)
    ends = np.sort(np.concatenate(cuts, axis=-1), axis=-1)
    lengths = np.nan_to_num(np.diff(ends, axis=-1))
    mids = 0.5 * (ends[..., 1:] + ends[..., :-1])
    values = np.ones(mids.shape)
    for prim, pts in zip(spec.primitives, cuts):
        inside = np.zeros(mids.shape, dtype=bool)
        for i in range(pts.shape[-1]):
            inside ^= pts[..., None, i] < mids
        values = np.where(inside, prim.contrast, values)
    return np.sum((values - 1.0) * lengths, axis=-1)
