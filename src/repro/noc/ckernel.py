"""Build-on-first-use loader for the C wormhole kernel (``wormhole.c``).

The kernel is compiled by the system C compiler (``cc``, else ``gcc``) with
fixed flags (``-O2``, no ``-march=native``, no ``-ffast-math``: the kernel
does integer work only, and a cached library must run on any host of the
same platform) and loaded with cffi in ABI mode (``ffi.dlopen``), so no
Python headers and no setuptools step are needed.

Built libraries are cached in ``~/.cache/repro/``, named by a hash of the C
source, the declared signature, the flags and the compiler's identity (its
resolved path, size and modification time, which change with its version)
plus a digest of the library's own bytes. A later process only stats the
compiler, checks the digest and loads the library; it never runs the
compiler. A library is published atomically (compiled to a temporary
file, then ``os.replace``), so concurrent first builds all end with a good
library; a cached file whose bytes no longer match its digest (truncated,
overwritten) is deleted and rebuilt; when the cache directory is not
writable the library is built in a temporary directory instead.

Nothing is compiled or loaded at import time: :func:`load` does it on the
first simulation. If the kernel cannot be built or loaded (no cffi, no
compiler, a compiler error), :func:`load` returns ``None`` after one
``RuntimeWarning`` naming the error, and the simulator runs on the numpy
lockstep loop of :mod:`repro.noc.batchengine` instead: same results,
slower.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

SOURCE = Path(__file__).with_name("wormhole.c")

CDEF = """
int wormhole_run(int64_t K, int64_t nl, int64_t F, int64_t L, int64_t depth,
                 int64_t cycles, int64_t warmup, int64_t drain_limit,
                 const int64_t *delay, const int64_t *is_eject,
                 const int64_t *route_off, const int64_t *route_flat,
                 int64_t n_out, const int64_t *out_ids,
                 const int64_t *out_in_off, const int64_t *out_in_flat,
                 const int64_t *pkt_off, const int64_t *pkt_flow,
                 const int64_t *pkt_cycle, int64_t *out, int64_t *pf,
                 const int64_t *ev_off, int64_t *events);
"""

FLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")


def cache_dir() -> Path:
    """The per-user directory built libraries are cached in."""
    return Path.home() / ".cache" / "repro"


@functools.lru_cache(maxsize=None)
def load():
    """The kernel as ``(ffi, lib)``, built or loaded once per process;
    ``None`` (after one ``RuntimeWarning``) if it cannot be had."""
    try:
        return _load(cache_dir())
    except (ImportError, OSError) as exc:
        warnings.warn(
            f"C wormhole kernel unavailable ({exc}); simulating on the "
            "slower numpy lockstep loop",
            RuntimeWarning,
            stacklevel=2,
        )
        return None


def _compiler() -> str:
    for name in ("cc", "gcc"):
        path = shutil.which(name)
        if path is not None:
            return path
    raise OSError("no C compiler (cc or gcc) on PATH")


def _build_key(cc: str) -> str:
    real = os.path.realpath(cc)
    st = os.stat(real)
    key = hashlib.sha256()
    for part in (SOURCE.read_bytes(), CDEF.encode(), " ".join(FLAGS).encode(),
                 f"{real}\0{st.st_size}\0{st.st_mtime_ns}".encode()):
        key.update(hashlib.sha256(part).digest())
    return f"wormhole-{key.hexdigest()[:24]}"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _intact(path: Path) -> bool:
    """Whether ``path`` still holds the bytes its name's digest records.
    A damaged library must never reach ``dlopen``: mapping a truncated one
    can kill the process with SIGBUS instead of raising."""
    try:
        data = path.read_bytes()
    except OSError:
        return False
    return path.stem.rsplit("-", 1)[-1] == _digest(data)


def _load(directory: Path):
    """Load the cached library in ``directory``, building it first if it
    is missing or damaged; build in a temporary directory if ``directory``
    cannot be written."""
    from cffi import FFI

    ffi = FFI()
    ffi.cdef(CDEF)
    cc = _compiler()
    key = _build_key(cc)
    directory = Path(directory)
    if directory.is_dir():
        for path in sorted(directory.glob(f"{key}-*.so")):
            if _intact(path):
                return ffi, _open(ffi, path)
            try:
                path.unlink()  # damaged (truncated, overwritten): rebuilt
            except OSError:
                pass
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp = _temp_file(directory)
    except OSError:  # the cache directory is not writable
        private = Path(tempfile.mkdtemp(prefix="repro-kernel-"))
        try:
            path = _build(cc, _temp_file(private), private / key)
            # The loaded mapping outlives the removed file.
            return ffi, _open(ffi, path)
        finally:
            shutil.rmtree(private, ignore_errors=True)
    return ffi, _open(ffi, _build(cc, tmp, directory / key))


def _temp_file(directory: Path) -> str:
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".so")
    os.close(fd)
    return tmp


def _build(cc: str, tmp: str, stem: Path) -> Path:
    """Compile ``SOURCE`` to ``tmp``, then publish it atomically as
    ``<stem>-<digest of its bytes>.so``; returns that path."""
    try:
        proc = subprocess.run(
            [cc, *FLAGS, "-o", tmp, str(SOURCE)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            raise OSError(
                f"{cc} exited with {proc.returncode}: {proc.stderr.strip()}"
            )
        path = stem.with_name(
            f"{stem.name}-{_digest(Path(tmp).read_bytes())}.so"
        )
        os.replace(tmp, path)
        return path
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open(ffi, path: Path):
    lib = ffi.dlopen(str(path))
    try:
        lib.wormhole_run
    except AttributeError as exc:
        raise OSError(f"{path}: {exc}") from None
    return lib
