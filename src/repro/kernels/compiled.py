"""Build, cache and load the compiled pricing kernel (``_pricing.c``).

The C source ships inside the package and is compiled on first use by
the system C compiler with ``-O2 -ffp-contract=off`` (no fast-math, no
``-march=native``), so every floating-point operation runs in source
order and the results match the NumPy reference paths bit for bit.  The
shared object is cached under ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``), named by a digest of the source, flags and
machine, so a source change rebuilds and a second process reuses
the build.  Builds write a temporary file in the cache directory and
``os.replace`` it into place, so concurrent first uses are safe.

Loading runs a self-check against NumPy (``ndarray.sum()`` on buffers
straddling every pairwise-summation boundary, and ``np.cumsum`` prefix
sums on a small grid).  :func:`kernel` returns ``(None, reason)`` when
the kernel is unusable — ``"no_compiler"``, ``"build_failed"`` or
``"selfcheck_mismatch"`` — and callers fall back to the NumPy paths,
which give the same bits, only slower.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.kernels.backend import KernelBackend

__all__ = ["CFLAGS", "PricingKernel", "cache_dir", "kernel", "load"]

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_pricing.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-std=c99", "-fPIC", "-shared")

_ptr = ctypes.c_void_p
_size = ctypes.c_ssize_t


class PricingKernel:
    """Typed wrappers over the loaded shared object.

    Arguments must already have the documented dtype and be
    C-contiguous; :class:`~repro.kernels.numpy_backend.NumpyBackend`
    checks that before calling in.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._sum = lib.repro_pairwise_sum
        self._sum.argtypes = [_ptr, _size]
        self._sum.restype = ctypes.c_double
        self._price = lib.repro_price_bands
        self._price.argtypes = [_size, _ptr, _ptr, _ptr, _ptr, _ptr, _size,
                                _ptr, _ptr, _ptr]
        self._price.restype = ctypes.c_int
        self._cost = lib.repro_cost_integral
        self._cost.argtypes = [_ptr, _size, _size, _size, _size, _size, _ptr]
        self._cost.restype = ctypes.c_int
        self._active = lib.repro_active_integral
        self._active.argtypes = [_ptr, _size, _size, _size, _size, _size,
                                 ctypes.c_double, _ptr]
        self._active.restype = ctypes.c_int

    def pairwise_sum(self, values: np.ndarray) -> float:
        """``values.sum()`` of a float64 vector."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        return self._sum(values.ctypes.data, values.size)

    def price_bands(
        self,
        windows: np.ndarray,
        row_vals: np.ndarray,
        col_vals: np.ndarray,
        sign: np.ndarray,
        base: np.ndarray,
        active_integral: np.ndarray,
        cost_integral: np.ndarray,
    ) -> np.ndarray:
        out = np.empty(windows.shape[0], dtype=np.float64)
        status = self._price(
            windows.shape[0], windows.ctypes.data,
            row_vals.ctypes.data, col_vals.ctypes.data,
            sign.ctypes.data, base.ctypes.data, sign.shape[1],
            active_integral.ctypes.data, cost_integral.ctypes.data,
            out.ctypes.data,
        )
        if status:
            raise MemoryError("compiled pricing kernel: scratch allocation failed")
        return out

    def cost_integral(
        self, field: np.ndarray, box: tuple[int, int, int, int], out: np.ndarray
    ) -> np.ndarray:
        if self._cost(field.ctypes.data, field.shape[1], *box, out.ctypes.data):
            raise MemoryError("compiled cost integral: scratch allocation failed")
        return out

    def active_integral(
        self,
        field: np.ndarray,
        box: tuple[int, int, int, int],
        threshold: float,
        out: np.ndarray,
    ) -> np.ndarray:
        if self._active(
            field.ctypes.data, field.shape[1], *box, threshold, out.ctypes.data
        ):
            raise MemoryError("compiled active integral: scratch allocation failed")
        return out


def cache_dir() -> Path:
    """Directory holding built kernels (never the per-run temp dir)."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro"


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _target() -> Path:
    digest = hashlib.sha256()
    digest.update(SOURCE.read_bytes())
    for part in (*CFLAGS, platform.machine()):
        digest.update(b"\0" + part.encode())
    return cache_dir() / f"_pricing-{digest.hexdigest()[:16]}.so"


def _build(compiler: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=target.stem + ".", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _selfcheck(pk: PricingKernel) -> bool:
    """Compare against NumPy on inputs that cross every summation block
    boundary and include -0.0 entries; bitwise, never approximately."""
    rng = np.random.default_rng(20150607)
    for n in (1, 7, 8, 9, 127, 128, 129, 257, 1000, 8191, 8193):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n)
        values[rng.random(n) < 0.1] = -0.0
        got = np.float64(pk.pairwise_sum(values))
        if got.view(np.int64) != values.sum().view(np.int64):
            return False
    field = rng.standard_normal((23, 31))
    field[rng.random(field.shape) < 0.1] = -0.0
    box = (2, 19, 3, 29)
    expect = KernelBackend().cost_integral(field, box, np.zeros((24, 32)))
    got = pk.cost_integral(field, box, np.zeros((24, 32)))
    return np.array_equal(got.view(np.int64), expect.view(np.int64))


def load() -> tuple[PricingKernel | None, str | None]:
    """Build (if needed), load and self-check the kernel.

    Returns ``(kernel, None)`` or ``(None, reason)``.
    """
    target = _target()
    if not target.exists():
        compiler = _compiler()
        if compiler is None:
            log.warning("no C compiler found; pricing runs the NumPy loop")
            return None, "no_compiler"
        try:
            _build(compiler, target)
        except (OSError, subprocess.SubprocessError) as error:
            detail = getattr(error, "stderr", None) or b""
            log.warning(
                "building the compiled pricing kernel failed: %s %s",
                error, detail.decode(errors="replace").strip(),
            )
            return None, "build_failed"
    try:
        pk = PricingKernel(ctypes.CDLL(str(target)))
    except (OSError, AttributeError) as error:
        log.warning("loading the compiled pricing kernel failed: %s", error)
        return None, "build_failed"
    if not _selfcheck(pk):
        log.warning("compiled pricing kernel disagrees with NumPy; not used")
        return None, "selfcheck_mismatch"
    return pk, None


_LOCK = threading.Lock()
_LOADED: tuple[PricingKernel | None, str | None] | None = None


def kernel() -> tuple[PricingKernel | None, str | None]:
    """:func:`load`, once per process."""
    global _LOADED
    with _LOCK:
        if _LOADED is None:
            _LOADED = load()
        return _LOADED
