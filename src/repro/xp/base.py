"""The array-API seam: the `ArrayBackend` contract and shared helpers.

The hot numeric core (Hopkins forward/adjoint FFT stack, sigmoid mask
transforms, :class:`~repro.optics.hopkins.ForwardCache`) is written
against this small protocol instead of ``numpy`` directly, so the same
code runs on numpy (the reference), CuPy, or torch arrays.  A backend
bundles three things:

* an **array library** (``numpy`` / ``cupy`` / ``torch``) supplying the
  FFTs, einsum and elementwise kernels;
* a **dtype policy** (``float64``/``complex128`` or
  ``float32``/``complex64``) applied by :meth:`ArrayBackend.asarray`;
* a **device-side kernel cache** (:meth:`ArrayBackend.kernel_data`):
  SOCS spectra, their conjugates, weights, and the flat support index
  converted once per kernel set, stored on the set, and reused across
  every forward/adjoint call — the "FFT-plan/workspace reuse" half of
  the seam.

Equivalence contract (enforced by ``tests/test_backend_seam.py`` and the
backend-parametrized equivalence suites):

* ``numpy``/``float64`` is the *reference*: it must execute the same
  numpy calls as the legacy code and reproduce it **bitwise**
  (``equivalence_rtol == 0``).
* other float64 backends must agree to ~1e-12 relative (FFT
  implementations differ in summation order, nothing more);
* float32 backends must agree to ``<= 1e-5`` relative on forward images
  (the float32 A/B gate, see CONTRIBUTING).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Optional, Tuple

import numpy as np

from ..errors import OpticsError

#: Precisions a backend spec may request.
PRECISIONS = ("float64", "float32")

#: Relative tolerance of the float32 A/B gate on forward images.
FLOAT32_FORWARD_RTOL = 1e-5

#: Relative tolerance allowed between float64 backends that are not the
#: numpy reference (different FFT libraries reorder the summation).
FLOAT64_CROSS_RTOL = 1e-12


@dataclass
class DeviceKernelData:
    """A SOCS kernel set converted to one backend's arrays, cached.

    Attributes:
        weights: real eigenvalue weights ``(h,)`` at the policy dtype.
        spectra: complex kernel spectra ``(h, support_size)``.
        flat: the support's positions in the row-major flattened grid
            (:meth:`~repro.optics.tcc.FrequencySupport.flat_index`):
            ``slice(None)`` for a full-grid support, so gathers and
            scatters through it are views, else an index array in the
            backend's index type.
        conj: the backend's ``conj``, which builds :attr:`conj_spectra`.
    """

    weights: Any
    spectra: Any
    flat: Any
    conj: Callable[[Any], Any] = field(repr=False, compare=False)

    @cached_property
    def conj_spectra(self) -> Any:
        """``conj(spectra)``, the adjoint's multiplier.

        Built on the first adjoint and kept from then on; a set that
        only ever images (the full-chip evaluation) never holds it.
        """
        return self.conj(self.spectra)

    @property
    def full_grid(self) -> bool:
        """True when the support is every grid sample, in row-major order."""
        return isinstance(self.flat, slice)


def copy_into(out: Any, result: Any) -> Any:
    """``result``, or its values written into ``out`` when one is given.

    For libraries whose FFTs take no ``out=``: the transform allocates
    its result and this copies it into the caller's array.
    """
    if out is None or result is out:
        return result
    out[...] = result
    return out


class ArrayBackend:
    """Contract every array backend implements.

    Subclasses provide the array library calls; this base class carries
    the dtype policy, the tolerance ladder, and the per-kernel-set device
    cache.  All methods accept and return *backend-native* arrays except
    :meth:`asarray` (numpy in) and :meth:`to_numpy` (numpy out), which
    are the only crossing points.
    """

    #: Library name: ``"numpy"`` / ``"cupy"`` / ``"torch"``.
    name: str = "abstract"

    def __init__(self, precision: str = "float64") -> None:
        if precision not in PRECISIONS:
            raise OpticsError(
                f"unknown backend precision {precision!r}; expected one of {PRECISIONS}"
            )
        self.precision = precision

    # -- identity / policy -------------------------------------------------

    @property
    def spec(self) -> str:
        """Canonical spec string (``"numpy"``, ``"torch:float32"``, ...)."""
        return self.name if self.precision == "float64" else f"{self.name}:{self.precision}"

    @property
    def float_dtype(self) -> np.dtype:
        """Numpy dtype describing the real policy dtype."""
        return np.dtype(np.float64 if self.precision == "float64" else np.float32)

    @property
    def complex_dtype(self) -> np.dtype:
        """Numpy dtype describing the complex policy dtype."""
        return np.dtype(np.complex128 if self.precision == "float64" else np.complex64)

    @property
    def is_reference(self) -> bool:
        """True for the bitwise-reference backend (numpy float64)."""
        return self.name == "numpy" and self.precision == "float64"

    @property
    def equivalence_rtol(self) -> float:
        """Per-dtype tolerance vs the numpy reference (0.0 == bitwise)."""
        if self.is_reference:
            return 0.0
        if self.precision == "float64":
            return FLOAT64_CROSS_RTOL
        return FLOAT32_FORWARD_RTOL

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.spec}>"

    # -- array construction / crossing ------------------------------------

    def asarray(self, x: Any, kind: str = "float") -> Any:
        """Convert ``x`` (numpy or native) to a native array of ``kind``.

        ``kind`` is ``"float"``, ``"complex"`` or ``"index"`` (integer
        arrays used for advanced indexing).
        """
        raise NotImplementedError

    def to_numpy(self, x: Any) -> np.ndarray:
        """Native array back to numpy (host memory, policy dtype kept)."""
        raise NotImplementedError

    def zeros(self, shape: Tuple[int, ...], kind: str = "complex") -> Any:
        raise NotImplementedError

    def empty(self, shape: Tuple[int, ...], kind: str = "complex") -> Any:
        raise NotImplementedError

    # -- transforms --------------------------------------------------------
    #
    # Every transform takes ``out=``, an existing complex array of the
    # result's shape (``out`` may be ``x`` itself), written and returned
    # the way :meth:`multiply` does; without it the result is a new array.
    # The hot path transforms the stacks it has filled in place.

    def fft2(self, x: Any, out: Any = None) -> Any:
        """2-D FFT over the last two axes (batched over leading axes)."""
        raise NotImplementedError

    def ifft2(self, x: Any, out: Any = None) -> Any:
        raise NotImplementedError

    def fft(self, x: Any, axis: int, out: Any = None) -> Any:
        raise NotImplementedError

    def ifft(self, x: Any, axis: int, out: Any = None) -> Any:
        raise NotImplementedError

    def einsum(self, subscripts: str, *operands: Any) -> Any:
        raise NotImplementedError

    # -- elementwise -------------------------------------------------------

    def multiply(self, a: Any, b: Any, out: Any) -> Any:
        """``a * b`` written into the existing array ``out``; returns ``out``."""
        raise NotImplementedError

    def conj(self, x: Any) -> Any:
        raise NotImplementedError

    def real(self, x: Any) -> Any:
        raise NotImplementedError

    def abs(self, x: Any) -> Any:
        raise NotImplementedError

    def exp(self, x: Any) -> Any:
        raise NotImplementedError

    def log(self, x: Any) -> Any:
        raise NotImplementedError

    def clip(self, x: Any, lo: float, hi: float) -> Any:
        raise NotImplementedError

    def where(self, cond: Any, a: Any, b: Any) -> Any:
        raise NotImplementedError

    # -- device kernel cache ----------------------------------------------

    def kernel_data(self, kernels: Any) -> DeviceKernelData:
        """Backend-side arrays for a SOCS kernel set, converted once.

        The converted spectra/weights/index arrays are kept on the kernel
        set itself (``kernels.device_data``, one entry per backend spec),
        so every forward and adjoint call reuses them, they are freed
        with the kernel set, and no other set can ever be handed them.
        """
        hit = kernels.device_data.get(self.spec)
        if hit is None:
            flat = kernels.support.flat_index()
            hit = DeviceKernelData(
                weights=self.asarray(kernels.weights, "float"),
                spectra=self.asarray(kernels.spectra, "complex"),
                flat=flat if isinstance(flat, slice) else self.asarray(flat, "index"),
                conj=self.conj,
            )
            kernels.device_data[self.spec] = hit
        return hit
