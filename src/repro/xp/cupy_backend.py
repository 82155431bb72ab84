"""CuPy adapter for the array-API seam (CUDA device arrays).

Imported lazily by the registry; raises ``ImportError`` when cupy is not
installed (translated into :class:`~repro.errors.OpticsError`).  CuPy
mirrors the numpy API closely — including single-precision FFTs, which
``numpy.fft`` itself lacks — so this adapter is a thin dispatch layer.
``cupy.fft`` takes no ``out=``; transform results are copied into it.
"""

from __future__ import annotations

from typing import Any, Tuple

import cupy as cp
import numpy as np

from .base import ArrayBackend, copy_into


class CupyBackend(ArrayBackend):
    """CuPy device arrays at either precision."""

    name = "cupy"

    # -- array construction / crossing ------------------------------------

    def _dtype_for(self, kind: str):
        if kind == "index":
            return cp.intp
        return self.float_dtype if kind == "float" else self.complex_dtype

    def asarray(self, x: Any, kind: str = "float") -> Any:
        return cp.asarray(x, dtype=self._dtype_for(kind))

    def to_numpy(self, x: Any) -> np.ndarray:
        return cp.asnumpy(x)

    def zeros(self, shape: Tuple[int, ...], kind: str = "complex") -> Any:
        return cp.zeros(shape, dtype=self._dtype_for(kind))

    def empty(self, shape: Tuple[int, ...], kind: str = "complex") -> Any:
        return cp.empty(shape, dtype=self._dtype_for(kind))

    # -- transforms --------------------------------------------------------

    def fft2(self, x: Any, out: Any = None) -> Any:
        return copy_into(out, cp.fft.fft2(x, axes=(-2, -1)))

    def ifft2(self, x: Any, out: Any = None) -> Any:
        return copy_into(out, cp.fft.ifft2(x, axes=(-2, -1)))

    def fft(self, x: Any, axis: int, out: Any = None) -> Any:
        return copy_into(out, cp.fft.fft(x, axis=axis))

    def ifft(self, x: Any, axis: int, out: Any = None) -> Any:
        return copy_into(out, cp.fft.ifft(x, axis=axis))

    def einsum(self, subscripts: str, *operands: Any) -> Any:
        return cp.einsum(subscripts, *operands)

    # -- elementwise -------------------------------------------------------

    def multiply(self, a: Any, b: Any, out: Any) -> Any:
        return cp.multiply(a, b, out=out)

    def conj(self, x: Any) -> Any:
        return cp.conj(x)

    def real(self, x: Any) -> Any:
        return cp.real(x)

    def abs(self, x: Any) -> Any:
        return cp.abs(x)

    def exp(self, x: Any) -> Any:
        return cp.exp(x)

    def log(self, x: Any) -> Any:
        return cp.log(x)

    def clip(self, x: Any, lo: float, hi: float) -> Any:
        return cp.clip(x, lo, hi)

    def where(self, cond: Any, a: Any, b: Any) -> Any:
        return cp.where(cond, a, b)
