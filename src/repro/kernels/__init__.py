"""repro.kernels — array-backend seam for the vectorized hot spots.

The kernels that dominate refine/stitch wall time (signed-clamp batch
pricing and its prefix-sum fields, connected-component labeling, the
per-iteration stitch cost field) dispatch through one process-global
:class:`KernelBackend`: a :class:`~repro.kernels.numpy_backend.NumpyBackend`
(NumPy labeling plus the compiled pricing kernel of
:mod:`repro.kernels.compiled`), built lazily on first use so importing
this package neither imports NumPy kernels nor compiles anything.

Whether pricing runs compiled or, without a working C compiler, falls
back to the NumPy loop is decided by the platform, not by the user; the
choice and its reason are recorded in run manifests via
:func:`kernels_manifest` and surfaced as ``kernels.*`` telemetry.
:func:`use_backend` scopes a different backend instance — the hook the
equivalence tests use to run their oracle backend.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.kernels.backend import KernelBackend

__all__ = ["KernelBackend", "get_backend", "kernels_manifest", "use_backend"]

_LOCK = threading.Lock()
_ACTIVE: KernelBackend | None = None


def get_backend() -> KernelBackend:
    """The active backend (a :class:`NumpyBackend` unless scoped)."""
    global _ACTIVE
    backend = _ACTIVE
    if backend is None:
        from repro.kernels.numpy_backend import NumpyBackend

        backend = NumpyBackend()
        with _LOCK:
            if _ACTIVE is None:
                _ACTIVE = backend
            backend = _ACTIVE
    return backend


class use_backend:
    """Context manager installing ``backend`` process-wide, restoring
    the previous one on exit."""

    def __init__(self, backend: KernelBackend) -> None:
        self._backend = backend
        self._saved: KernelBackend | None = None

    def __enter__(self) -> KernelBackend:
        global _ACTIVE
        with _LOCK:
            self._saved = _ACTIVE
            _ACTIVE = self._backend
        return self._backend

    def __exit__(self, *exc: Any) -> None:
        global _ACTIVE
        with _LOCK:
            _ACTIVE = self._saved


def kernels_manifest() -> dict[str, Any]:
    """Manifest/telemetry record of the active backend and variants."""
    backend = get_backend()
    return {"backend": backend.name, "variants": backend.describe()}
