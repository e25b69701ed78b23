"""Build, cache and load the MD kernel's compiled code.

``nonbonded.c`` (the non-bonded evaluator and the leap-frog) and
``pairsearch.c`` (the cluster search, the drift guard and the re-prune),
next to this file, are compiled into one library with the host's C
compiler the first time a simulator is made, into the per-user cache
directory, and loaded with :mod:`ctypes`.  The cache key hashes both sources, the flags, the
compiler binary and the host CPU, so a shared
home never loads a build made for another ISA or compiler; a build goes
to a temporary name and is moved into place with :func:`os.replace`, so
processes building at once each load a complete library.

Finding a cached build starts no process.  The compiler enters the key
by identity (resolved path, size, mtime) rather than by ``cc
--version``: a child's ``ru_maxrss`` reports its parent's RSS at the
fork, so one such call per process read as a doubled ``peak_rss_mb``
(self + largest child) on the halo benchmark workloads.

The handle is module state: the simulators load it at construction
(:func:`repro.md.kernels.load`), process workers forked after that
inherit the loaded library, and any other process loads it on first
use.  Nothing here runs at import.
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

#: The C sources of the one library, in link order.
SOURCES = tuple(
    Path(__file__).with_name(name) for name in ("nonbonded.c", "pairsearch.c")
)

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
        "the MD kernel needs a C compiler to build its evaluator and pair "
        f"search ({', '.join(p.name for p in SOURCES)}): "
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


def cache_key(
    sources: tuple[bytes, ...], flags: tuple[str, ...], compiler: str, cpu: str
) -> str:
    """Hash of everything a build depends on: each source on its own, so
    no edit that moves text from one file to the other keeps the key."""
    h = hashlib.sha256()
    for part in (*sources, "\0".join(flags).encode(), compiler.encode(), cpu.encode()):
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
    sources = tuple(p.read_bytes() for p in SOURCES)
    key = cache_key(sources, flags, compiler_id(cc), host_cpu())
    directory = Path(directory) if directory is not None else cache_dir()
    lib = directory / f"md-{key}.so"
    if lib.exists():
        return lib
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=lib.stem + ".", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, *flags, "-o", tmp, *map(str, SOURCES)],
            capture_output=True, text=True, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"building {', '.join(p.name for p in SOURCES)} with {cc} "
                f"failed:\n{done.stderr.strip()}"
            )
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


class Layout(ctypes.Structure):
    """``struct layout`` of ``pairsearch.c``: a cluster layout's arrays."""

    _fields_ = [
        ("n", ctypes.c_int64),
        *((name, ctypes.c_void_p)
          for name in ("x", "atoms", "center", "half", "col", "bits", "cut")),
    ]


class Windows(ctypes.Structure):
    """``struct windows`` of ``pairsearch.c``: a search's column windows,
    z queries and keys."""

    _fields_ = [
        *((name, ctypes.c_int64) for name in ("nix", "niy", "niz")),
        *((name, ctypes.c_void_p)
          for name in ("x0", "xn", "y0", "yn", "qlo", "qhi", "key_hi", "key_lo",
                       "band")),
        ("b_ny", ctypes.c_int64),
        ("zband", ctypes.c_double),
    ]


def address(a) -> int:
    """Data address of an array, for a C call: through a one-byte
    :mod:`ctypes` view of its buffer (≈1 µs) when it is writable,
    C-contiguous and not empty, else ``a.ctypes.data`` (≈3 µs)."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):  # read-only, not contiguous, empty
        return a.ctypes.data


def load(path: Path) -> ctypes.CDLL:
    """Open a built library and declare its entry points."""
    lib = ctypes.CDLL(str(path))
    p, i64, i32, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int32, ctypes.c_double
    lib.ps_cluster_pairs.restype = None
    lib.ps_cluster_pairs.argtypes = [
        ctypes.POINTER(Layout), ctypes.POINTER(Layout), ctypes.POINTER(Windows),
        p, i32, i32,       # box (3), minimum-image bit per dimension, same
        f64, f64, i64,     # box-test limit², r_list², key stride
        i64,               # every how many a clusters
        p, i64, p,         # key buffer (NULL: count only), its capacity, state (4)
    ]
    for fn in (lib.ps_drifted_f64, lib.ps_drifted_f32):
        fn.restype = ctypes.c_bool
        fn.argtypes = [p, p, i64, f64]  # positions, reference rows, rows, limit²
    for fn in (lib.ps_prune_count_f64, lib.ps_prune_count_f32):
        fn.restype = i32
        fn.argtypes = [
            p, i64,            # positions (n, 3) in their dtype, n
            p, p, i64,         # outer i, outer j (int32), pairs
            p, i32, f64,       # box (3), minimum-image bit per dimension, radius²
            p,                 # pulse per atom (int32) or NULL
            p, p,              # keep mask (uint8), counts (3)
        ]
    lib.ps_prune_fill.restype = None
    lib.ps_prune_fill.argtypes = [
        p, p, i64, p, p,       # outer i, outer j, to the last kept, keep mask, pulse per atom
        p, i64, p, p, p, f64,  # types (int32), n_types, c6, c12, charges, Coulomb factor
        p, p, p, p, p, p, p,   # i, j, segment starts, segment i, c6, c12, qq
    ]
    for fn in (lib.nb_leapfrog_f64, lib.nb_leapfrog_f32):
        fn.restype = None
        fn.argtypes = [
            p, p, p, p, p,     # positions, velocities, forces, masses, reference rows
            i64, f64, p,       # home rows, dt, (kinetic energy, max disp²)
        ]
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
