"""What a run depends on outside its config: the OpenBLAS library numpy
loaded, and the dense field models kept on disk for the next process.

A dense model's bits depend on four things, and its file's key digests each
of them: numpy's version, the OpenBLAS kernel and thread count in force, the
lattice's sinc table (`channel._sinc_table`), which holds everything the
geometry gives the build, and channel.py, which builds, saves and loads the
model. No other fires module touches those bits, so the source part of the
key digests channel.py alone: an edit of any other module keeps the cached
files, and an edit of channel.py rebuilds each lattice's model once.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import tempfile
from contextlib import suppress
from functools import cache
from pathlib import Path

import numpy as np

from . import channel
from .geometry import SurfaceGeometry


def model_file(geom: SurfaceGeometry) -> Path | None:
    """Where the dense model of `geom` is kept: `<lattice>-<source>.npz`
    under fires/ in the user's cache, `$XDG_CACHE_HOME` or else ~/.cache.

    The keys are SHA-256 digests of what the model's bits depend on: numpy's
    version, the OpenBLAS kernel and thread count in force and the lattice's
    sinc table, then channel.py, so a file holds exactly the model this
    process would build. None, and no file, where numpy's BLAS is not an
    OpenBLAS this process can query or no home folder is known.
    """
    threads, config = openblas()
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    if config is None or not os.path.isabs(base):
        return None
    table = channel._sinc_table(geom)
    lattice = hashlib.sha256(repr((np.__version__, config, threads, table.shape)).encode())
    lattice.update(table.tobytes())
    return Path(base) / "fires" / f"{lattice.hexdigest()}-{_source_digest().hex()}.npz"


def store(model: channel.CorrelationModel, path: Path) -> None:
    """Write `model` to `path` through a temporary file in its folder, which
    replaces `path` at once, so readers see a whole file or none, then delete
    the lattice's files of other channel.py versions, which this one never
    reads. Where the folder or the file cannot be written, the model stays in
    memory only."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
        with open(fd, "wb") as fh:  # a file object: np.savez adds .npz to a bare path
            model.save(fh)
        os.replace(tmp, path)
        for stale in set(path.parent.glob(f"{path.name.split('-')[0]}-*.npz")) - {path}:
            with suppress(OSError):
                stale.unlink()
    except OSError:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)


@cache
def _source_digest() -> bytes:
    """SHA-256 of channel.py, read once per process."""
    return hashlib.sha256(Path(channel.__file__).read_bytes()).digest()


def openblas() -> tuple[int | None, str | None]:
    """(threads in force, configuration) of the OpenBLAS library numpy
    loaded, (None, None) where none is found. The configuration names the
    kernel in force on a DYNAMIC_ARCH build."""
    calls = _openblas_calls()
    if calls is None:
        return None, None
    get_threads, get_config = calls
    return get_threads(), get_config().decode()


@cache
def _openblas_calls():
    """OpenBLAS's get_num_threads and get_config, found among the libraries
    this process has mapped, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.argtypes = get_config.argtypes = []
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_threads, get_config
    return None
