"""Pluggable array backends for the hot numeric core.

The seam is selected by a **backend spec** string, ``"<name>"`` or
``"<name>:<precision>"``:

* ``"numpy"`` (alias ``"numpy:float64"``) — the bitwise reference;
* ``"numpy:float32"`` — single precision on the host (scipy.fft);
* ``"torch"`` / ``"torch:float32"`` — torch tensors, CPU or CUDA;
* ``"cupy"`` / ``"cupy:float32"`` — CuPy device arrays.

Resolution order, everywhere a backend is accepted: explicit argument >
config field (``OpticsConfig.backend`` / ``OptimizerConfig.backend`` /
``FullChipConfig.backend``) > the ``REPRO_ARRAY_BACKEND`` environment
variable > ``"numpy"``.

:func:`get_backend` returns a **cached singleton per spec and process**.
That is what lets the fullchip scheduler batch every tile solved in one
worker through a single backend instance (one set of converted spectra
per kernel set and spec) instead of one per tile — see
``docs/backends.md``.  Specs are validated *without* importing the heavy
library (:func:`validate_backend_spec`), so configs can reject typos
eagerly while torch/cupy stay optional imports.
"""

from __future__ import annotations

import importlib.util
import os
import threading
from typing import Dict, Optional, Tuple, Union

from ..errors import OpticsError
from .base import (
    PRECISIONS,
    FLOAT32_FORWARD_RTOL,
    FLOAT64_CROSS_RTOL,
    ArrayBackend,
    DeviceKernelData,
)
from .numpy_backend import NumpyBackend

__all__ = [
    "ALL_BACKEND_SPECS",
    "ENV_VAR",
    "FLOAT32_FORWARD_RTOL",
    "FLOAT64_CROSS_RTOL",
    "PRECISIONS",
    "ArrayBackend",
    "DeviceKernelData",
    "NumpyBackend",
    "available_backend_specs",
    "backend_available",
    "get_backend",
    "parse_backend_spec",
    "resolve_backend",
    "validate_backend_spec",
]

#: Environment variable holding the default backend spec.
ENV_VAR = "REPRO_ARRAY_BACKEND"

#: Known backend library names (validated without importing them).
_KNOWN_NAMES = ("numpy", "torch", "cupy")

#: Every spec the equivalence battery parametrizes over; unavailable
#: libraries produce clean skips, not failures.
ALL_BACKEND_SPECS = (
    "numpy",
    "numpy:float32",
    "torch",
    "torch:float32",
    "cupy",
    "cupy:float32",
)

_instances: Dict[Tuple[str, str], ArrayBackend] = {}
_instances_lock = threading.Lock()


def parse_backend_spec(spec: str) -> Tuple[str, str]:
    """Split a spec into ``(name, precision)``, validating both parts.

    Raises:
        OpticsError: unknown backend name or precision, with the list of
            valid choices in the message.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise OpticsError(
            f"backend spec must be a non-empty string like 'numpy' or "
            f"'torch:float32', got {spec!r}"
        )
    name, _, precision = spec.strip().partition(":")
    precision = precision or "float64"
    if name not in _KNOWN_NAMES:
        raise OpticsError(
            f"unknown array backend {name!r}; known backends: "
            f"{', '.join(_KNOWN_NAMES)} (spec format '<name>[:<precision>]')"
        )
    if precision not in PRECISIONS:
        raise OpticsError(
            f"unknown backend precision {precision!r} in spec {spec!r}; "
            f"expected one of {', '.join(PRECISIONS)}"
        )
    return name, precision


def validate_backend_spec(spec: str) -> str:
    """Canonical form of a spec (``'numpy:float64'`` -> ``'numpy'``).

    Validates the grammar and names only — the library itself is *not*
    imported, so configs naming an uninstalled backend stay
    constructible; the import error surfaces when a simulator actually
    requests the backend.
    """
    name, precision = parse_backend_spec(spec)
    return name if precision == "float64" else f"{name}:{precision}"


def resolve_spec(spec: Optional[str] = None) -> str:
    """Apply the resolution chain: explicit > ``REPRO_ARRAY_BACKEND`` > numpy."""
    if spec is None:
        spec = os.environ.get(ENV_VAR, "").strip() or "numpy"
    return validate_backend_spec(spec)


def _make_backend(name: str, precision: str) -> ArrayBackend:
    if name == "numpy":
        return NumpyBackend(precision)
    try:
        if name == "torch":
            from .torch_backend import TorchBackend

            return TorchBackend(precision)
        from .cupy_backend import CupyBackend

        return CupyBackend(precision)
    except ImportError as exc:
        raise OpticsError(
            f"array backend {name!r} requested but {name} is not importable "
            f"({exc}); install it or select another backend "
            f"(e.g. REPRO_ARRAY_BACKEND=numpy)"
        ) from exc


def get_backend(spec: Optional[str] = None) -> ArrayBackend:
    """The process-wide backend instance for ``spec`` (cached singleton).

    ``spec=None`` resolves through ``REPRO_ARRAY_BACKEND`` and falls back
    to the numpy reference.  Instances are cached per (name, precision)
    so every consumer in a process — each tile solve in a fullchip
    worker, most importantly — shares one backend instance.

    Raises:
        OpticsError: invalid spec, or the named library is not installed.
    """
    name, precision = parse_backend_spec(resolve_spec(spec))
    key = (name, precision)
    hit = _instances.get(key)
    if hit is not None:
        return hit
    with _instances_lock:
        hit = _instances.get(key)
        if hit is None:
            hit = _make_backend(name, precision)
            _instances[key] = hit
    return hit


def resolve_backend(
    backend: Union[None, str, ArrayBackend] = None,
) -> ArrayBackend:
    """Normalize a backend argument (instance, spec string, or None)."""
    if isinstance(backend, ArrayBackend):
        return backend
    return get_backend(backend)


def backend_available(spec: str) -> bool:
    """True when the spec is valid *and* its library is importable.

    Checks importability via ``importlib.util.find_spec`` without
    importing, so probing for torch/cupy in test collection stays cheap.
    """
    try:
        name, _ = parse_backend_spec(spec)
    except OpticsError:
        return False
    if name == "numpy":
        return True
    try:
        return importlib.util.find_spec(name) is not None
    except (ImportError, ValueError):
        return False


def available_backend_specs() -> Tuple[str, ...]:
    """The subset of :data:`ALL_BACKEND_SPECS` importable right now."""
    return tuple(s for s in ALL_BACKEND_SPECS if backend_available(s))
