"""End-to-end forward lithography simulator.

``LithographySimulator`` glues together the optical SOCS model, the resist
threshold model and the process corners into the forward map ``Z = f(M)``
(paper Eq. 5).  Kernel sets are built lazily per focus condition and
cached, since TCC decomposition is the expensive setup step; the cache
is observable through :meth:`LithographySimulator.cache_info` and the
``kernel_cache_hits`` / ``kernel_cache_misses`` metrics.

Multi-corner evaluation is batched by default (``batch_forward=True``):
:meth:`simulate_all_corners` computes ``fft2(M)`` once, stacks every
(focus x kernel) spectrum and runs a single vectorized inverse FFT, and
:meth:`gradient_all_corners` folds the whole multi-corner adjoint into
one batched forward FFT plus a single inverse FFT.  Passing
``batch_forward=False`` restores the historical one-FFT-per-kernel path,
kept as the A/B reference for the equivalence tests and the
``benchmarks/test_perf_forward_batching.py`` benchmark.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import LithoConfig
from ..obs import Instrumentation
from ..optics.hopkins import (
    ForwardCache,
    accumulate_backprojection,
    aerial_image,
    backproject_fields,
    batched_field_stacks,
    field_stack,
    weight_fields,
)
from ..xp import ArrayBackend, resolve_backend
from ..optics.kernels import SOCSKernels, build_socs_kernels
from ..process.corners import ProcessCorner, enumerate_corners, nominal_corner
from ..process.pvband import pv_band, pv_band_area
from ..resist.threshold import ThresholdResist

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class KernelCacheInfo:
    """Snapshot of the SOCS kernel cache (mirrors ``functools.cache_info``).

    Attributes:
        hits: lookups served from the cache.
        misses: lookups that triggered a kernel build.
        size: kernel sets currently cached.
        defocus_values_nm: the cached focus conditions.
    """

    hits: int
    misses: int
    size: int
    defocus_values_nm: tuple


class LithographySimulator:
    """Mask -> aerial image -> printed image, at any process condition.

    Example:
        >>> import numpy as np
        >>> from repro.config import LithoConfig
        >>> sim = LithographySimulator(LithoConfig.reduced())
        >>> mask = np.zeros(sim.grid.shape)
        >>> mask[96:160, 96:160] = 1.0
        >>> printed = sim.print_binary(mask)
        >>> bool(printed[128, 128])
        True

    Args:
        config: full lithography configuration.
        source: optional illumination source overriding the default
            annular source built from ``config.optics``.
        obs: optional instrumentation bundle; disabled (no-op) when
            omitted.  Downstream components (optimizer, objectives,
            harness) inherit the simulator's bundle by default.
        batch_forward: evaluate multi-corner forward models and adjoints
            through the batched shared-FFT engine (the default).  False
            restores the per-corner, one-FFT-per-kernel legacy path —
            numerically equivalent, kept as the A/B reference.
        backend: array backend for the numeric core — an
            :class:`~repro.xp.ArrayBackend` instance or a spec string
            (``"numpy"``, ``"numpy:float32"``, ``"torch"``, ...).
            Defaults to ``config.optics.backend``, then the
            ``REPRO_ARRAY_BACKEND`` environment variable, then the numpy
            float64 reference.  Raises
            :class:`~repro.errors.OpticsError` for unknown specs.
    """

    def __init__(
        self,
        config: LithoConfig,
        source: Optional[object] = None,
        obs: Optional[Instrumentation] = None,
        batch_forward: bool = True,
        backend: Optional[ArrayBackend | str] = None,
    ) -> None:
        self.config = config
        self.grid = config.grid
        self.resist = ThresholdResist(config.resist, pixel_nm=config.grid.pixel_nm)
        self.obs = obs or Instrumentation.disabled()
        self.batch_forward = batch_forward
        if backend is None:
            backend = config.optics.backend
        self.xp = resolve_backend(backend)
        self._source = source
        self._kernel_cache: Dict[float, SOCSKernels] = {}
        self._cache_hits = 0
        self._cache_misses = 0

    # -- kernel management ---------------------------------------------------

    def kernels_at(self, defocus_nm: float = 0.0) -> SOCSKernels:
        """SOCS kernel set at the given focus (built once, then cached)."""
        key = float(defocus_nm)
        cached = self._kernel_cache.get(key)
        if cached is not None:
            self._cache_hits += 1
            self.obs.metrics.counter("kernel_cache_hits").inc()
            return cached
        self._cache_misses += 1
        self.obs.metrics.counter("kernel_cache_misses").inc()
        logger.debug("building SOCS kernels at defocus %.1f nm", key)
        with self.obs.tracer.span("kernel_build"):
            kernels = build_socs_kernels(
                self.grid, self.config.optics, defocus_nm=key, source=self._source
            )
        self._kernel_cache[key] = kernels
        return kernels

    def cache_info(self) -> KernelCacheInfo:
        """Hit/miss statistics of the kernel cache since construction."""
        return KernelCacheInfo(
            hits=self._cache_hits,
            misses=self._cache_misses,
            size=len(self._kernel_cache),
            defocus_values_nm=tuple(sorted(self._kernel_cache)),
        )

    def corners(self, include_nominal: bool = True) -> List[ProcessCorner]:
        """Process corners for the configured process window."""
        return enumerate_corners(self.config.process, include_nominal=include_nominal)

    def prewarm(self) -> None:
        """Build all kernel sets up front (useful before timing runs)."""
        for corner in self.corners():
            self.kernels_at(corner.defocus_nm)

    # -- forward simulation ----------------------------------------------------

    def aerial(self, mask: np.ndarray, corner: Optional[ProcessCorner] = None) -> np.ndarray:
        """Aerial intensity image at a process condition (default nominal)."""
        corner = corner or nominal_corner()
        kernels = self.kernels_at(corner.defocus_nm)
        self.obs.metrics.counter("forward_evals_total").inc()
        with self.obs.tracer.span("aerial"):
            return aerial_image(mask, kernels, dose=corner.dose, xp=self.xp)

    def fields(self, mask: np.ndarray, corner: Optional[ProcessCorner] = None) -> np.ndarray:
        """Per-kernel coherent fields at a condition (for gradient reuse)."""
        corner = corner or nominal_corner()
        kernels = self.kernels_at(corner.defocus_nm)
        with self.obs.tracer.span("fields"):
            return field_stack(mask, kernels, xp=self.xp)

    def print_binary(self, mask: np.ndarray, corner: Optional[ProcessCorner] = None) -> np.ndarray:
        """Hard-threshold printed image Z (paper Eq. 3)."""
        return self.resist.develop(self.aerial(mask, corner))

    def print_soft(self, mask: np.ndarray, corner: Optional[ProcessCorner] = None) -> np.ndarray:
        """Sigmoid printed image (paper Eq. 4), differentiable in the mask."""
        return self.resist.develop_soft(self.aerial(mask, corner))

    def print_all_corners(
        self, mask: np.ndarray, corners: Optional[Sequence[ProcessCorner]] = None
    ) -> List[np.ndarray]:
        """Binary printed images at every process condition."""
        corners = list(corners) if corners is not None else self.corners()
        return [
            self.resist.develop(image)
            for image in self.simulate_all_corners(mask, corners)
        ]

    # -- batched multi-corner engine -------------------------------------------

    def context(self, mask: np.ndarray, batched: Optional[bool] = None):
        """A :class:`repro.opc.ForwardContext` wired to this simulator.

        The context inherits the simulator's forward engine
        (``batch_forward``) unless ``batched`` overrides it.
        """
        from ..opc.state import ForwardContext  # deferred: opc imports litho

        return ForwardContext(mask, self, batched=batched)

    def simulate_all_corners(
        self, mask: np.ndarray, corners: Optional[Sequence[ProcessCorner]] = None
    ) -> List[np.ndarray]:
        """Aerial images at every corner from one batched evaluation.

        Computes ``fft2(M)`` once, stacks all (focus x kernel) spectra
        into a single array and runs one vectorized ``ifft2`` over the
        leading axis, then applies each corner's dose.  Corners sharing
        a focus share one intensity image.  Falls back to per-corner
        :meth:`aerial` calls when ``batch_forward`` is off.

        Returns:
            Aerial intensity images aligned with ``corners``
            (default: :meth:`corners`).
        """
        corners = list(corners) if corners is not None else self.corners()
        if not self.batch_forward:
            return [self.aerial(mask, c) for c in corners]
        # Per-corner lookups keep kernel-cache accounting identical to
        # the legacy path: one hit/miss per corner, not per focus.
        kernel_by_corner = [self.kernels_at(c.defocus_nm) for c in corners]
        focus_kernels: Dict[float, SOCSKernels] = {}
        for corner, kernels in zip(corners, kernel_by_corner):
            focus_kernels.setdefault(float(corner.defocus_nm), kernels)
        cache = ForwardCache(mask, obs=self.obs, xp=self.xp)
        with self.obs.tracer.span("forward.batched"):
            stacks = batched_field_stacks(cache, list(focus_kernels.values()))
            intensity: Dict[float, np.ndarray] = {}
            for (focus, kernels), fields in zip(focus_kernels.items(), stacks):
                intensity[focus] = aerial_image(mask, kernels, fields=fields, xp=self.xp)
        self.obs.metrics.counter("forward_evals_total").inc(len(corners))
        return [c.dose * intensity[float(c.defocus_nm)] for c in corners]

    def gradient_all_corners(
        self,
        mask: np.ndarray,
        contributions: Sequence[Tuple[ProcessCorner, np.ndarray]],
        fields_by_focus: Optional[Dict[float, np.ndarray]] = None,
        batched: Optional[bool] = None,
    ) -> np.ndarray:
        """Mask-plane gradient accumulated across corners in one adjoint pass.

        Each contribution is a ``(corner, dF/dI_eff)`` pair (``I_eff`` is
        the post-diffusion intensity the resist thresholds, exactly as in
        :meth:`repro.opc.ForwardContext.intensity_gradient_to_mask`).
        Same-focus corners are dose-combined *before* the adjoint — FFTs
        are linear — so the whole set costs one batched forward FFT plus
        a single inverse FFT.

        Args:
            mask: the mask iterate the fields belong to.
            contributions: per-corner intensity-space gradients.
            fields_by_focus: optional precomputed field stacks keyed by
                defocus (e.g. a ForwardContext's) to reuse.
            batched: override the simulator's ``batch_forward`` setting.

        Returns:
            ``dF/dM`` summed over all contributions.
        """
        contributions = [
            (corner if corner is not None else nominal_corner(), df_di)
            for corner, df_di in contributions
        ]
        if not contributions:
            return np.zeros(self.grid.shape)
        batched = self.batch_forward if batched is None else batched
        # Dose-combine per focus BEFORE the diffusion blur: both are
        # linear, so the whole corner set costs one blur per focus.
        combined: Dict[float, np.ndarray] = {}
        for corner, df_di in contributions:
            key = float(corner.defocus_nm)
            scaled = corner.dose * np.asarray(df_di, dtype=np.float64)
            combined[key] = combined[key] + scaled if key in combined else scaled
        combined = {key: self.resist.diffuse(value) for key, value in combined.items()}
        if fields_by_focus is None or any(f not in fields_by_focus for f in combined):
            cache = ForwardCache(mask, obs=self.obs, xp=self.xp)
            kernel_sets = [self.kernels_at(f) for f in combined]
            with self.obs.tracer.span("forward.batched"):
                stacks = batched_field_stacks(cache, kernel_sets)
            fields_by_focus = dict(zip(combined, stacks))
        with self.obs.tracer.span("backproject.batched"):
            if batched:
                groups = [
                    (combined[f], fields_by_focus[f], self.kernels_at(f))
                    for f in combined
                ]
                return accumulate_backprojection(groups, xp=self.xp)
            total = np.zeros(self.grid.shape)
            for focus, df_di in combined.items():
                kernels = self.kernels_at(focus)
                total += backproject_fields(
                    weight_fields(df_di, fields_by_focus[focus], self.xp),
                    kernels,
                    xp=self.xp,
                )
            return total

    # -- process-window evaluation ----------------------------------------------

    def pv_band(self, mask: np.ndarray) -> np.ndarray:
        """Boolean PV-band mask across all configured corners."""
        with self.obs.tracer.span("pv_band"):
            return pv_band(self.print_all_corners(mask))

    def pv_band_area(self, mask: np.ndarray) -> float:
        """PV-band area in nm^2 across all configured corners."""
        with self.obs.tracer.span("pv_band"):
            return pv_band_area(self.print_all_corners(mask), self.grid.pixel_nm)
