"""Numpy backends: the float64 bitwise reference and a float32 mode.

``NumpyBackend("float64")`` is *the* reference implementation: every
method forwards to the exact numpy call the legacy (pre-seam) code made,
so the ported core reproduces the old results bitwise and the existing
golden/equivalence pins keep holding.

``NumpyBackend("float32")`` is the single-precision mode.  ``numpy.fft``
always computes in double precision, so the float32 transforms route
through ``scipy.fft`` (same pocketfft core), which preserves single
precision end to end — that is where the float32 speedup in
``BENCH_backend.json`` comes from.

Transforms with ``out=``: the float64 2-D transforms are the two 1-D
``numpy.fft`` passes ``fft2``/``ifft2`` themselves run (axis -1, then
axis -2), each given ``out=`` — bitwise-equal to ``numpy.fft.ifft2``,
which would ignore an ``out=`` (numpy 2.4 hands ``out=None`` to its
passes), and in place when ``out`` is ``x``.  ``scipy.fft`` has no
``out=``, so float32 results are copied into ``out``.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np
import scipy.fft

from .base import ArrayBackend, copy_into


def _two_passes(fft_1d: Any, x: Any, out: Any) -> Any:
    """The 2-D transform as ``numpy.fft`` runs it: axis -1, then axis -2."""
    out = fft_1d(x, axis=-1, out=out)
    return fft_1d(out, axis=-2, out=out)


class NumpyBackend(ArrayBackend):
    """Host-memory numpy backend at either precision."""

    name = "numpy"

    def __init__(self, precision: str = "float64") -> None:
        super().__init__(precision)
        # float64 keeps np.fft for bitwise identity with the legacy path;
        # float32 needs scipy.fft, which honours single precision.
        self._float64 = precision == "float64"

    # -- array construction / crossing ------------------------------------

    def asarray(self, x: Any, kind: str = "float") -> Any:
        if kind == "index":
            return np.asarray(x, dtype=np.intp)
        dtype = self.float_dtype if kind == "float" else self.complex_dtype
        return np.asarray(x, dtype=dtype)

    def to_numpy(self, x: Any) -> np.ndarray:
        return np.asarray(x)

    def zeros(self, shape: Tuple[int, ...], kind: str = "complex") -> Any:
        dtype = self.float_dtype if kind == "float" else self.complex_dtype
        return np.zeros(shape, dtype=dtype)

    def empty(self, shape: Tuple[int, ...], kind: str = "complex") -> Any:
        dtype = self.float_dtype if kind == "float" else self.complex_dtype
        return np.empty(shape, dtype=dtype)

    # -- transforms --------------------------------------------------------

    def fft2(self, x: Any, out: Any = None) -> Any:
        if self._float64:
            return _two_passes(np.fft.fft, x, out)
        return copy_into(out, scipy.fft.fft2(x, axes=(-2, -1)))

    def ifft2(self, x: Any, out: Any = None) -> Any:
        if self._float64:
            return _two_passes(np.fft.ifft, x, out)
        return copy_into(out, scipy.fft.ifft2(x, axes=(-2, -1)))

    def fft(self, x: Any, axis: int, out: Any = None) -> Any:
        if self._float64:
            return np.fft.fft(x, axis=axis, out=out)
        return copy_into(out, scipy.fft.fft(x, axis=axis))

    def ifft(self, x: Any, axis: int, out: Any = None) -> Any:
        if self._float64:
            return np.fft.ifft(x, axis=axis, out=out)
        return copy_into(out, scipy.fft.ifft(x, axis=axis))

    def einsum(self, subscripts: str, *operands: Any) -> Any:
        return np.einsum(subscripts, *operands)

    # -- elementwise -------------------------------------------------------

    def multiply(self, a: Any, b: Any, out: Any) -> Any:
        return np.multiply(a, b, out=out)

    def conj(self, x: Any) -> Any:
        return np.conj(x)

    def real(self, x: Any) -> Any:
        return np.real(x)

    def abs(self, x: Any) -> Any:
        return np.abs(x)

    def exp(self, x: Any) -> Any:
        return np.exp(x)

    def log(self, x: Any) -> Any:
        return np.log(x)

    def clip(self, x: Any, lo: float, hi: float) -> Any:
        return np.clip(x, lo, hi)

    def where(self, cond: Any, a: Any, b: Any) -> Any:
        return np.where(cond, a, b)
