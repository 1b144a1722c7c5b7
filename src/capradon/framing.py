"""Framing of the binary artifacts ECTW, ECTS, ECTL and ECTV: a little-endian
struct header led by a four-byte magic and (but for ECTV) a u16 version,
then finite f32 samples.  Checks raise the error type the loader passes.
Every output file of the package is written whole through `atomic_write`."""

import contextlib
import math
import os

import numpy as np


@contextlib.contextmanager
def atomic_write(path, mode="wb", **open_args):
    """Open a temporary file beside `path`; a clean exit renames it over
    `path`, an exception removes it and leaves `path` as it was."""
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, mode, **open_args) as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temporary)
        raise


def pack_samples(values, what="samples"):
    """The samples as <f4 bytes; raises ValueError unless each one is
    finite as a float32, the write-side twin of `read_samples`."""
    with np.errstate(over="ignore"):
        samples = np.asarray(values).astype("<f4")
    if not np.isfinite(samples).all():
        raise ValueError(f"{what} hold values that are not finite as float32")
    return samples.tobytes()


def read_header(blob, header, magic, version, error):
    """Check the header's length, magic and version (None: no version
    field); returns the fields after them."""
    if len(blob) < header.size:
        raise error(f"file shorter than the {magic.decode()} header")
    fields = header.unpack_from(blob)
    if fields[0] != magic:
        raise error(f"bad magic {fields[0]!r}, expected {magic!r}")
    if version is None:
        return fields[1:]
    if fields[1] != version:
        raise error(f"unsupported version {fields[1]}")
    return fields[2:]


def read_samples(blob, offset, shape, error, what="payload", tail=False):
    """The f32 samples of `shape` at `offset` as float64, and the offset
    past them; they must end the blob unless `tail` allows more bytes."""
    count = math.prod(shape)
    end = offset + 4 * count
    if end > len(blob) or (end < len(blob) and not tail):
        raise error(f"{what} length does not match the header")
    samples = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
    if not np.isfinite(samples).all():
        raise error(f"{what} holds non-finite samples")
    return samples.astype(float).reshape(shape), end
