"""Hopkins Transmission Cross Coefficient (TCC) construction.

For a partially coherent system with source distribution ``J`` and pupil
``P``, the TCC is

    T(f1, f2) = sum_s  J(f_s) * P(f_s + f1) * conj(P(f_s + f2)).

Writing ``A[s, a] = sqrt(J_s) * P(f_s + f_a)`` over the band-limited
frequency support {f_a}, the TCC is the Gram matrix ``A^H A`` and its
eigen-decomposition (→ SOCS kernels) is obtained directly from the SVD of
``A`` — numerically stabler and cheaper than forming T explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from ..config import GridSpec, OpticsConfig
from ..errors import OpticsError
from .pupil import pupil_values
from .source import SourcePoint


@dataclass(frozen=True)
class FrequencySupport:
    """Band-limited frequency samples of the image grid.

    Attributes:
        rows: row indices into the unshifted FFT grid.
        cols: column indices into the unshifted FFT grid.
        fx: spatial frequencies (1/nm) at those samples.
        fy: spatial frequencies (1/nm) at those samples.
        shape: full FFT grid shape.
        freq_step: lattice frequency step (1/nm) along each axis.
    """

    rows: np.ndarray
    cols: np.ndarray
    fx: np.ndarray
    fy: np.ndarray
    shape: Tuple[int, int]
    freq_step: float

    @property
    def size(self) -> int:
        return len(self.rows)

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """Place per-sample values onto a full (unshifted) FFT grid."""
        full = np.zeros(self.shape, dtype=np.complex128)
        full[self.rows, self.cols] = values
        return full

    def gather(self, full: np.ndarray) -> np.ndarray:
        """Extract the support samples from a full FFT grid."""
        return full[self.rows, self.cols]

    def flat_index(self) -> Union[slice, np.ndarray]:
        """Positions of the samples in the row-major flattened grid.

        ``slice(None)`` when the support is the whole grid in row-major
        order, so indexing a flattened grid with it takes a view instead
        of a gather; otherwise the index array ``rows * n_cols + cols``.
        """
        flat = self.rows * self.shape[1] + self.cols
        size = self.shape[0] * self.shape[1]
        if len(flat) == size and np.array_equal(flat, np.arange(size)):
            return slice(None)
        return flat

    def zero_index(self) -> int:
        """Index of the DC (f = 0) sample within the support arrays."""
        hits = np.nonzero((self.rows == 0) & (self.cols == 0))[0]
        if len(hits) != 1:
            raise OpticsError("frequency support does not contain DC exactly once")
        return int(hits[0])


def build_frequency_support(grid: GridSpec, optics: OpticsConfig) -> FrequencySupport:
    """All image-grid frequencies the optical system can pass.

    The support covers |f| <= NA * (1 + sigma_outer) / lambda — the maximum
    frequency reachable by any source point through the pupil.
    """
    rows, cols = grid.shape
    fy = np.fft.fftfreq(rows, d=grid.pixel_nm)
    fx = np.fft.fftfreq(cols, d=grid.pixel_nm)
    fxx, fyy = np.meshgrid(fx, fy)
    cutoff = optics.cutoff_frequency
    keep = (fxx**2 + fyy**2) <= cutoff**2 + 1e-18
    r_idx, c_idx = np.nonzero(keep)
    if len(r_idx) < 9:
        raise OpticsError(
            f"grid {grid.shape} at {grid.pixel_nm} nm/px resolves only "
            f"{len(r_idx)} optical frequencies; use a larger clip or finer grid"
        )
    step = abs(fx[1] - fx[0]) if cols > 1 else abs(fy[1] - fy[0])
    return FrequencySupport(
        rows=r_idx,
        cols=c_idx,
        fx=fxx[keep],
        fy=fyy[keep],
        shape=(rows, cols),
        freq_step=step,
    )


def build_amplitude_matrix(
    support: FrequencySupport,
    optics: OpticsConfig,
    source_points: List[SourcePoint],
    defocus_nm: float = 0.0,
) -> np.ndarray:
    """Amplitude matrix A with ``A[s, a] = sqrt(J_s) P(f_s + f_a)``.

    Returns:
        Complex array of shape ``(num_source_points, support.size)``.
    """
    if not source_points:
        raise OpticsError("need at least one source point")
    a = np.empty((len(source_points), support.size), dtype=np.complex128)
    for s, pt in enumerate(source_points):
        p = pupil_values(
            support.fx + pt.fx, support.fy + pt.fy, optics, defocus_nm=defocus_nm
        )
        a[s, :] = np.sqrt(pt.weight) * p
    return a


def tcc_matrix(amplitude: np.ndarray) -> np.ndarray:
    """Explicit TCC Gram matrix ``A^H A`` (mainly for testing/analysis)."""
    return amplitude.conj().T @ amplitude


def decompose_amplitude(
    amplitude: np.ndarray, num_kernels: int
) -> Tuple[np.ndarray, np.ndarray]:
    """SVD-based eigendecomposition of the TCC.

    Args:
        amplitude: the matrix from :func:`build_amplitude_matrix`.
        num_kernels: number of coherent kernels h to retain.

    Returns:
        ``(weights, vectors)`` — weights are the top TCC eigenvalues
        (singular values squared, descending); vectors has shape
        ``(h, support.size)`` holding the kernel spectra.
    """
    _, svals, vh = np.linalg.svd(amplitude, full_matrices=False)
    h = min(num_kernels, len(svals))
    weights = svals[:h] ** 2
    vectors = vh[:h, :].conj()  # rows are TCC eigenvectors
    return weights, vectors
