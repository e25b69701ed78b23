"""Build, cache and load the compiled non-bonded evaluator.

``nonbonded.c`` (next to this file) is compiled with the host's C
compiler the first time an MD kernel resolves, into the per-user cache
directory, and loaded with :mod:`ctypes`.  The cache key hashes the
source, the flags, the compiler binary and the host CPU, so a shared
home never loads a build made for another ISA or compiler; a build goes
to a temporary name and is moved into place with :func:`os.replace`, so
processes building at once each load a complete library.

Finding a cached build starts no process.  The compiler enters the key
by identity (resolved path, size, mtime) rather than by ``cc
--version``: a child's ``ru_maxrss`` reports its parent's RSS at the
fork, so one such call per process read as a doubled ``peak_rss_mb``
(self + largest child) on the halo benchmark workloads.

The handle is module state: :class:`~repro.md.kernels.KernelImpl`
pickles to process workers, and workers forked after the kernel
resolved inherit the loaded library.  Nothing here runs at import.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import threading
from pathlib import Path

SOURCE = Path(__file__).with_name("nonbonded.c")

#: IEEE-exact optimisation: no FMA contraction, no fast-math;
#: ``-fno-math-errno`` only lets ``sqrt`` and ``rint`` inline.
FLAGS = (
    "-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math",
    "-fno-math-errno",
)


class CompilerNotFoundError(RuntimeError):
    """No C compiler on ``PATH``: the MD kernel cannot be built."""


def compiler() -> str:
    """Path of ``cc``, else of ``sysconfig``'s ``CC``."""
    names = ["cc"]
    cc = (sysconfig.get_config_var("CC") or "").split()
    if cc and cc[0] != "cc":
        names.append(cc[0])
    for name in names:
        path = shutil.which(name)
        if path:
            return path
    raise CompilerNotFoundError(
        f"the MD kernel needs a C compiler to build {SOURCE.name}: "
        f"no {' or '.join(repr(n) for n in names)} on PATH"
    )


def isa_flag() -> str:
    """The host-ISA flag: ``-mcpu=native`` on Arm, ``-march=native`` elsewhere."""
    arm = platform.machine().lower() in ("arm64", "aarch64")
    return "-mcpu=native" if arm else "-march=native"


def host_cpu() -> str:
    """What identifies the ISA of this host: machine, model and feature flags.
    (Not ``platform.processor()``: it runs ``uname -p``.)"""
    cpu = [platform.machine()]
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key = line.split(":", 1)[0].strip()
                if key in ("model name", "flags", "Features", "CPU part"):
                    cpu.append(line.strip())
                elif not line.strip() and len(cpu) > 1:
                    break  # the first processor is enough
    except OSError:
        pass
    return "\n".join(cpu)


def compiler_id(cc: str) -> str:
    """The compiler binary's identity: an upgrade or another compiler
    behind the same name changes it."""
    path = os.path.realpath(cc)
    st = os.stat(path)
    return f"{path} {st.st_size} {st.st_mtime_ns}"


def cache_key(source: bytes, flags: tuple[str, ...], compiler: str, cpu: str) -> str:
    """Hash of everything a build depends on."""
    h = hashlib.sha256()
    for part in (source, "\0".join(flags).encode(), compiler.encode(), cpu.encode()):
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()[:24]


def cache_dir() -> Path:
    """The platform's per-user cache directory for this package."""
    if sys.platform == "darwin":
        base = Path.home() / "Library" / "Caches"
    else:
        base = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    return base / "repro"


def build(directory: Path | None = None) -> Path:
    """The cached library for this host, built into ``directory`` (the
    per-user cache by default) if it is not there yet."""
    cc = compiler()
    flags = (*FLAGS, isa_flag())
    key = cache_key(SOURCE.read_bytes(), flags, compiler_id(cc), host_cpu())
    directory = Path(directory) if directory is not None else cache_dir()
    lib = directory / f"nonbonded-{key}.so"
    if lib.exists():
        return lib
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=lib.stem + ".", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, *flags, "-o", tmp, str(SOURCE)],
            capture_output=True, text=True, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"building {SOURCE.name} with {cc} failed:\n{done.stderr.strip()}"
            )
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def load(path: Path) -> ctypes.CDLL:
    """Open a built library and declare its two entry points."""
    lib = ctypes.CDLL(str(path))
    p, i64, i32, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int32, ctypes.c_double
    for fn in (lib.nb_block_forces_f64, lib.nb_block_forces_f32):
        fn.restype = i64
        fn.argtypes = [
            p, i64,            # positions (n, 3) in the chain dtype, n
            p, p, i64,         # pair i, pair j, pairs
            p, p, i64,         # segment starts, segment rows, segments
            p, p, p,           # c6, c12, qq
            f64, f64, f64, i32,  # box, minimum-image bit per dimension
            f64, f64, f64, f64,  # rc², 1/rc⁶, k_rf, c_rf
            i64, i64,          # chunk target, np.getbufsize()
            p, i64, p,         # chunk scratch, its rows, j accumulator
            p, i32, p,         # out_forces, out is float32, energies (2)
        ]
    return lib


_lock = threading.Lock()
_lib: ctypes.CDLL | None = None


def library() -> ctypes.CDLL:
    """The process's evaluator library, built and loaded on first use."""
    global _lib
    if _lib is None:
        with _lock:
            if _lib is None:
                _lib = load(build())
    return _lib
