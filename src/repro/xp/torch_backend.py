"""Torch adapter for the array-API seam (CPU by default, CUDA-capable).

Imported lazily by the registry: this module must only be loaded when a
torch backend is actually requested, and it raises ``ImportError`` (which
the registry translates into :class:`~repro.errors.OpticsError`) when
torch is not installed.  Device selection: ``REPRO_TORCH_DEVICE`` if set,
else CUDA when available, else CPU — matching the CI torch-CPU lane,
which installs torch from the CPU wheel index.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Tuple

import numpy as np
import torch

from .base import ArrayBackend

#: Environment variable overriding the torch device ("cpu", "cuda:0", ...).
TORCH_DEVICE_ENV = "REPRO_TORCH_DEVICE"


def _default_device() -> str:
    explicit = os.environ.get(TORCH_DEVICE_ENV, "").strip()
    if explicit:
        return explicit
    return "cuda" if torch.cuda.is_available() else "cpu"


class TorchBackend(ArrayBackend):
    """Torch tensors at either precision, on CPU or CUDA."""

    name = "torch"

    def __init__(self, precision: str = "float64", device: str | None = None) -> None:
        super().__init__(precision)
        self.device = torch.device(device or _default_device())
        if precision == "float64":
            self._float_t, self._complex_t = torch.float64, torch.complex128
        else:
            self._float_t, self._complex_t = torch.float32, torch.complex64

    # -- array construction / crossing ------------------------------------

    def _dtype_for(self, kind: str) -> torch.dtype:
        if kind == "index":
            return torch.long
        return self._float_t if kind == "float" else self._complex_t

    def asarray(self, x: Any, kind: str = "float") -> Any:
        dtype = self._dtype_for(kind)
        if isinstance(x, torch.Tensor):
            return x.to(device=self.device, dtype=dtype)
        arr = np.ascontiguousarray(x)
        return torch.as_tensor(arr).to(device=self.device, dtype=dtype)

    def to_numpy(self, x: Any) -> np.ndarray:
        if isinstance(x, torch.Tensor):
            return x.detach().resolve_conj().cpu().numpy()
        return np.asarray(x)

    def zeros(self, shape: Tuple[int, ...], kind: str = "complex") -> Any:
        return torch.zeros(tuple(shape), dtype=self._dtype_for(kind), device=self.device)

    def empty(self, shape: Tuple[int, ...], kind: str = "complex") -> Any:
        return torch.empty(tuple(shape), dtype=self._dtype_for(kind), device=self.device)

    # -- transforms --------------------------------------------------------

    def fft2(self, x: Any, out: Any = None) -> Any:
        return torch.fft.fft2(x, dim=(-2, -1), out=out)

    def ifft2(self, x: Any, out: Any = None) -> Any:
        return torch.fft.ifft2(x, dim=(-2, -1), out=out)

    def fft(self, x: Any, axis: int, out: Any = None) -> Any:
        return torch.fft.fft(x, dim=axis, out=out)

    def ifft(self, x: Any, axis: int, out: Any = None) -> Any:
        return torch.fft.ifft(x, dim=axis, out=out)

    def einsum(self, subscripts: str, *operands: Any) -> Any:
        # torch.einsum requires a common dtype; numpy promotes implicitly
        # (float weights x complex spectra), so mirror that here.
        common = functools.reduce(torch.promote_types, (t.dtype for t in operands))
        return torch.einsum(subscripts, *(t.to(common) for t in operands))

    # -- elementwise -------------------------------------------------------

    def multiply(self, a: Any, b: Any, out: Any) -> Any:
        return torch.mul(a, b, out=out)

    def conj(self, x: Any) -> Any:
        return torch.conj(x).resolve_conj()

    def real(self, x: Any) -> Any:
        return torch.real(x)

    def abs(self, x: Any) -> Any:
        return torch.abs(x)

    def exp(self, x: Any) -> Any:
        return torch.exp(x)

    def log(self, x: Any) -> Any:
        return torch.log(x)

    def clip(self, x: Any, lo: float, hi: float) -> Any:
        return torch.clamp(x, lo, hi)

    def where(self, cond: Any, a: Any, b: Any) -> Any:
        return torch.where(cond, a, b)
