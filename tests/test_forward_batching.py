"""Equivalence and accounting tests for the batched multi-corner engine.

The batched forward path (one shared ``fft2(M)``, one vectorized
``ifft2`` across all (focus x kernel) spectra, one accumulated adjoint
pass) must be numerically indistinguishable from imaging one corner at
a time — 1e-10 max abs diff on aerial images, and gradients reassociate
only at the 1e-12 level.

The per-corner reference is built from the single-corner primitives:
``sim.aerial`` / ``sim.print_soft`` / ``sim.print_binary`` per corner
for images, and ``ForwardContext.intensity_gradient_to_mask`` summed
over corners for the adjoint (the ``per_corner_context`` fixture).
The batched-vs-reference comparisons are parametrized over every
registered array backend (``backend`` fixture): the reference always
runs on the numpy float64 backend, so the float64 tolerances above
apply to float64 backends while single-precision backends are held to
the float32 forward gate instead.
"""

import tracemalloc

import numpy as np
import pytest

from repro.config import GridSpec, LithoConfig, OpticsConfig, ProcessConfig, ResistConfig
from repro.errors import OpticsError
from repro.litho.simulator import LithographySimulator
from repro.obs import Instrumentation
from repro.opc.objectives import (
    CompositeObjective,
    ImageDifferenceObjective,
    PVBandObjective,
)
from repro.optics.hopkins import (
    ForwardCache,
    accumulate_backprojection,
    backproject_fields,
    batched_field_stacks,
    field_stack,
    weight_fields,
)
from repro.optics.kernels import SOCSKernels, common_grid_shape
from repro.process.corners import ProcessCorner, nominal_corner
from repro.process.pvband import pv_band, pv_band_area
from repro.xp import get_backend

AERIAL_TOL = 1e-10  # max abs diff allowed on aerial images
GRAD_RTOL = 1e-9  # gradients only reassociate floating-point sums


def aerial_atol(backend, scale=1.0):
    """Max-abs-diff floor vs a float64 reference for this backend."""
    if backend.precision == "float64":
        return AERIAL_TOL
    return backend.equivalence_rtol * scale


def grad_tols(backend, scale=1.0):
    """(rtol, atol) for gradient comparisons vs a float64 reference."""
    if backend.precision == "float64":
        return GRAD_RTOL, GRAD_RTOL * scale
    return backend.equivalence_rtol, backend.equivalence_rtol * scale


def random_mask(rng, shape):
    """A structured random mask: blocky features plus continuous noise."""
    mask = 0.3 * rng.random(shape)
    r0, c0 = rng.integers(8, shape[0] // 2, size=2)
    mask[r0 : r0 + 16, c0 : c0 + 16] += 0.6
    return np.clip(mask, 0.0, 1.0)


ASYMMETRIC_CORNERS = [
    ProcessCorner("fminus_dplus", 25.0, 1.02),
    ProcessCorner("nom", 0.0, 1.0),
    ProcessCorner("fminus_dminus", 25.0, 0.98),
    ProcessCorner("odd_focus", 12.5, 1.01),
]


class TestHopkinsBatching:
    """Unit-level equivalence of the batched hopkins primitives."""

    def test_batched_field_stacks_match_field_stack(self, tiny_sim, rng, backend):
        mask = random_mask(rng, tiny_sim.grid.shape)
        kernel_sets = [tiny_sim.kernels_at(f) for f in (0.0, 25.0)]
        stacks = batched_field_stacks(ForwardCache(mask, xp=backend), kernel_sets)
        for kernels, batched in zip(kernel_sets, stacks):
            reference = field_stack(mask, kernels, xp="numpy")
            diff = np.max(np.abs(backend.to_numpy(batched) - reference))
            assert diff <= aerial_atol(backend, np.max(np.abs(reference)))

    def test_accumulate_matches_backprojection_sum(self, tiny_sim, rng, backend):
        mask = random_mask(rng, tiny_sim.grid.shape)
        groups = []
        reference = np.zeros(tiny_sim.grid.shape)
        for focus in (0.0, 25.0):
            kernels = tiny_sim.kernels_at(focus)
            df_di = rng.standard_normal(tiny_sim.grid.shape)
            groups.append((df_di, field_stack(mask, kernels, xp=backend), kernels))
            reference += backproject_fields(
                weight_fields(
                    df_di, field_stack(mask, kernels, xp="numpy"), "numpy"
                ),
                kernels,
                xp="numpy",
            )
        batched = accumulate_backprojection(groups, xp=backend)
        rtol, atol = grad_tols(backend, np.max(np.abs(reference)))
        assert np.allclose(batched, reference, rtol=rtol, atol=max(atol, 1e-12))

    def test_single_set_degenerate_case(self, tiny_sim, rng, backend):
        mask = random_mask(rng, tiny_sim.grid.shape)
        kernels = tiny_sim.kernels_at(0.0)
        (batched,) = batched_field_stacks(ForwardCache(mask, xp=backend), [kernels])
        reference = field_stack(mask, kernels, xp="numpy")
        diff = np.max(np.abs(backend.to_numpy(batched) - reference))
        assert diff <= aerial_atol(backend, np.max(np.abs(reference)))

    def test_empty_kernel_sets(self, tiny_sim, rng):
        assert batched_field_stacks(ForwardCache(random_mask(rng, (64, 64))), []) == []
        with pytest.raises(OpticsError):
            accumulate_backprojection([])

    def test_mixed_grids_rejected(self, tiny_sim, sim):
        with pytest.raises(OpticsError):
            common_grid_shape([tiny_sim.kernels_at(0.0), sim.kernels_at(0.0)])


def reference_field_stacks(mask, kernel_sets, xp):
    """The forward as written before flat support indices: a zeroed stack
    per set, filled through the 2-D ``[rows, cols]`` index."""
    spectrum = xp.fft2(xp.asarray(mask, "float"))
    stacks = []
    for ks in kernel_sets:
        rows = xp.asarray(ks.support.rows, "index")
        cols = xp.asarray(ks.support.cols, "index")
        stack = xp.zeros((ks.num_kernels,) + ks.shape, "complex")
        spectra = xp.asarray(ks.spectra, "complex")
        stack[:, rows, cols] = spectrum[rows, cols][None, :] * spectra
        stacks.append(xp.ifft2(stack))
    return stacks


def reference_backprojection(groups, xp):
    """The adjoint as written before flat support indices: per group, the
    weighted fields, the 2-D ``[rows, cols]`` gather and scatter, and
    ``conj`` of the spectra on every call.  A band-limited support ran
    the separable forward FFT rows-first (the row-pruned order)."""
    shape = groups[0][2].shape
    all_rows = np.concatenate([ks.support.rows for _, _, ks in groups])
    pruned = len(np.unique(all_rows)) * 2 < shape[0]
    accum = xp.zeros(shape, "complex")
    for df_di, fields, ks in groups:
        rows = xp.asarray(ks.support.rows, "index")
        cols = xp.asarray(ks.support.cols, "index")
        weighted = xp.asarray(df_di, "float")[None, :, :] * fields
        if pruned:
            w_hat = xp.fft(xp.fft(weighted, axis=-2), axis=-1)
        else:
            w_hat = xp.fft2(weighted)
        gathered = w_hat[:, rows, cols]
        spectra = xp.asarray(ks.spectra, "complex")
        accum[rows, cols] += xp.einsum(
            "k,ks->s", xp.asarray(ks.weights, "float"), gathered * xp.conj(spectra)
        )
    return xp.to_numpy(2.0 * xp.real(xp.ifft2(accum)))


@pytest.fixture(scope="module")
def window_sets():
    """Ambit window kernels (reduced litho, 120 px window): full-grid support."""
    from repro.fullchip import ambit_model_for

    model = ambit_model_for(LithoConfig.reduced())
    return [model.window_kernels((120, 120), f) for f in model.defocus_values_nm]


def _clip_sets(sim):
    """Band-limited clip kernels at two focus values."""
    return [sim.kernels_at(f) for f in (0.0, 25.0)]


def _wide_clip_sets(sim):
    """Band-limited sets with 32 kernels, whose adjoint products exceed
    numpy's temporary-elision size (see ``hopkins._ELIDE_BYTES``)."""
    return [
        SOCSKernels(
            support=ks.support,
            weights=np.tile(ks.weights, 4),
            spectra=np.tile(ks.spectra, (4, 1)),
            defocus_nm=ks.defocus_nm,
        )
        for ks in _clip_sets(sim)
    ]


def _fresh(ks):
    """A copy of a kernel set with an empty device cache."""
    return SOCSKernels(
        support=ks.support, weights=ks.weights, spectra=ks.spectra, defocus_nm=ks.defocus_nm
    )


def _pin_case(sets, xp, seed=3):
    rng = np.random.default_rng(seed)
    shape = sets[0].shape
    mask = random_mask(rng, shape)
    dfs = [rng.standard_normal(shape) for _ in sets]
    return mask, dfs


class TestSupportKinds:
    """Bitwise pins of the batched forward/adjoint on both support kinds
    (full-grid window kernels take views, band-limited clip kernels take
    index arrays), and the structure the view path rests on."""

    @pytest.fixture(params=["window", "clip", "wide_clip"])
    def kernel_sets(self, request, window_sets, sim):
        if request.param == "window":
            return window_sets
        return _clip_sets(sim) if request.param == "clip" else _wide_clip_sets(sim)

    def test_field_stacks_bitwise(self, kernel_sets):
        xp = get_backend("numpy")
        mask, _ = _pin_case(kernel_sets, xp)
        stacks = batched_field_stacks(ForwardCache(mask, xp=xp), kernel_sets)
        for got, want in zip(stacks, reference_field_stacks(mask, kernel_sets, xp)):
            assert np.array_equal(got.view(np.float64), want.view(np.float64))

    def test_backprojection_bitwise(self, kernel_sets):
        xp = get_backend("numpy")
        mask, dfs = _pin_case(kernel_sets, xp)
        stacks = reference_field_stacks(mask, kernel_sets, xp)
        groups = list(zip(dfs, stacks, kernel_sets))
        got = accumulate_backprojection(groups, xp=xp)
        assert np.array_equal(got, reference_backprojection(groups, xp))

    def test_float32_within_equivalence_rtol(self, kernel_sets):
        xp, ref = get_backend("numpy:float32"), get_backend("numpy")
        mask, dfs = _pin_case(kernel_sets, xp)
        want_fields = reference_field_stacks(mask, kernel_sets, ref)
        stacks = batched_field_stacks(ForwardCache(mask, xp=xp), kernel_sets)
        for got, want in zip(stacks, want_fields):
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= xp.equivalence_rtol * scale
        got = accumulate_backprojection(list(zip(dfs, stacks, kernel_sets)), xp=xp)
        want = reference_backprojection(list(zip(dfs, want_fields, kernel_sets)), ref)
        assert np.max(np.abs(got - want)) <= xp.equivalence_rtol * np.max(np.abs(want))

    def test_window_support_is_a_view(self, window_sets):
        xp = get_backend("numpy")
        ks = window_sets[0]
        assert xp.kernel_data(ks).flat == slice(None)
        assert xp.kernel_data(ks).full_grid
        cache = ForwardCache(random_mask(np.random.default_rng(0), ks.shape), xp=xp)
        assert np.shares_memory(cache.gathered(ks), cache.spectrum())

    def test_clip_support_is_an_index(self, sim):
        xp = get_backend("numpy")
        ks = sim.kernels_at(0.0)
        kd = xp.kernel_data(ks)
        assert isinstance(kd.flat, np.ndarray) and not kd.full_grid
        assert np.array_equal(kd.flat, ks.support.rows * ks.shape[1] + ks.support.cols)
        cache = ForwardCache(random_mask(np.random.default_rng(0), ks.shape), xp=xp)
        assert not np.shares_memory(cache.gathered(ks), cache.spectrum())

    def test_conj_spectra_built_once(self, window_sets, sim, monkeypatch):
        xp = get_backend("numpy")
        calls = []
        real_conj = xp.conj
        monkeypatch.setattr(xp, "conj", lambda x: calls.append(1) or real_conj(x))
        for sets in (window_sets, _clip_sets(sim)):
            sets = [_fresh(ks) for ks in sets]
            mask, dfs = _pin_case(sets, xp)
            calls.clear()
            stacks = batched_field_stacks(ForwardCache(mask, xp=xp), sets)
            assert not calls  # the forward never needs it
            groups = list(zip(dfs, stacks, sets))
            accumulate_backprojection(groups, xp=xp)
            first = [xp.kernel_data(ks).conj_spectra for ks in sets]
            accumulate_backprojection(groups, xp=xp)
            assert len(calls) == len(sets)  # once per set, on the first adjoint
            assert all(xp.kernel_data(ks).conj_spectra is c for ks, c in zip(sets, first))


@pytest.fixture(scope="module")
def tile_window_sets():
    """The ambit window kernels of a real full-chip tile (reduced litho,
    core plus two halos: 372 px) at both focus values."""
    from repro.fullchip import FullChipEngine
    from repro.workloads.spec import load_workload

    engine = FullChipEngine(LithoConfig.reduced())
    shape = next(iter(engine.plan_for(load_workload("synth:1024x1024:1")))).window_shape
    model = engine.model
    return [model.window_kernels(shape, f) for f in model.defocus_values_nm]


def _traced_peak(fn):
    """(result, peak bytes allocated while ``fn`` ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocationBudget:
    """The batched transforms run in place on the stack they fill: a
    window forward allocates its field stack and little else, an adjoint
    its weighted stack (allocating transforms held 3x the stack bytes)."""

    def test_window_forward_and_adjoint_peaks(self, tile_window_sets):
        sets = tile_window_sets
        xp = get_backend("numpy")
        mask, dfs = _pin_case(sets, xp)
        stack_bytes = sum(ks.num_kernels for ks in sets) * mask.size * 16
        # Warm the per-set device data (the conjugate spectra are built
        # on the first adjoint and kept on the set).
        accumulate_backprojection(
            list(zip(dfs, batched_field_stacks(ForwardCache(mask, xp=xp), sets), sets)),
            xp=xp,
        )
        cache = ForwardCache(mask, xp=xp)
        stacks, forward_peak = _traced_peak(lambda: batched_field_stacks(cache, sets))
        groups = list(zip(dfs, stacks, sets))
        _, adjoint_peak = _traced_peak(lambda: accumulate_backprojection(groups, xp=xp))
        assert forward_peak <= 1.6 * stack_bytes
        assert adjoint_peak <= 1.3 * stack_bytes

    def test_field_stacks_share_one_buffer(self, tile_window_sets):
        xp = get_backend("numpy")
        mask, _ = _pin_case(tile_window_sets, xp)
        stacks = batched_field_stacks(ForwardCache(mask, xp=xp), tile_window_sets)
        assert stacks[0].base is not None
        assert all(s.base is stacks[0].base for s in stacks)


class TestSimulatorEquivalence:
    """simulate_all_corners / gradient_all_corners vs the per-corner reference.

    The batched side runs on the parametrized backend; the reference
    (``tiny_sim``) stays on the numpy float64 backend, so this doubles
    as the cross-backend forward-model equivalence battery."""

    def test_aerial_images_match_per_corner(self, backend_tiny_sim, tiny_sim,
                                            backend, rng):
        mask = random_mask(rng, backend_tiny_sim.grid.shape)
        corners = backend_tiny_sim.corners()
        batched = backend_tiny_sim.simulate_all_corners(mask, corners)
        per_corner = [tiny_sim.aerial(mask, corner) for corner in corners]
        for b, ref in zip(batched, per_corner):
            diff = np.max(np.abs(b - ref))
            assert diff <= aerial_atol(backend, np.max(np.abs(ref)))

    def test_asymmetric_corner_set(self, backend_tiny_sim, backend, rng):
        mask = random_mask(rng, backend_tiny_sim.grid.shape)
        batched = backend_tiny_sim.simulate_all_corners(mask, ASYMMETRIC_CORNERS)
        for corner, image in zip(ASYMMETRIC_CORNERS, batched):
            reference = backend_tiny_sim.aerial(mask, corner)
            diff = np.max(np.abs(image - reference))
            # Same backend on both sides: float64-tight for f64, float32
            # reassociation noise for single precision.
            assert diff <= aerial_atol(backend, np.max(np.abs(reference)))

    def test_single_corner_degenerate_case(self, backend_tiny_sim, backend, rng):
        mask = random_mask(rng, backend_tiny_sim.grid.shape)
        corner = ProcessCorner("solo", 25.0, 0.97)
        (image,) = backend_tiny_sim.simulate_all_corners(mask, [corner])
        reference = backend_tiny_sim.aerial(mask, corner)
        diff = np.max(np.abs(image - reference))
        assert diff <= aerial_atol(backend, np.max(np.abs(reference)))

    def test_print_soft_matches(self, backend_tiny_sim, tiny_sim, backend, rng):
        mask = random_mask(rng, backend_tiny_sim.grid.shape)
        # The resist sigmoid amplifies aerial-image error by at most
        # steepness/4; fold that into the float32 floor.
        slope = backend_tiny_sim.config.resist.theta_z / 4.0
        for corner in backend_tiny_sim.corners():
            batched = backend_tiny_sim.context(mask).soft_image(corner)
            reference = tiny_sim.print_soft(mask, corner)
            tol = aerial_atol(backend, max(1.0, slope))
            assert np.max(np.abs(batched - reference)) <= tol

    def test_pv_band_matches(self, backend_tiny_sim, tiny_sim, backend, rng):
        mask = random_mask(rng, backend_tiny_sim.grid.shape)
        band = backend_tiny_sim.pv_band(mask)
        printed = [tiny_sim.print_binary(mask, c) for c in tiny_sim.corners()]
        reference = pv_band(printed)
        if backend.is_reference:
            assert np.array_equal(band, reference)
            assert backend_tiny_sim.pv_band_area(mask) == pv_band_area(
                printed, tiny_sim.grid.pixel_nm
            )
        else:
            # Binarization can flip pixels whose soft image sits within
            # the backend's noise floor of the threshold; demand the
            # flips stay negligible rather than exactly zero.
            assert np.mean(band != reference) <= 1e-3

    def test_gradient_all_corners_matches_per_corner(self, backend_tiny_sim,
                                                     backend, rng,
                                                     per_corner_context):
        mask = random_mask(rng, backend_tiny_sim.grid.shape)
        contributions = [
            (corner, rng.standard_normal(backend_tiny_sim.grid.shape))
            for corner in ASYMMETRIC_CORNERS
        ]
        batched = backend_tiny_sim.gradient_all_corners(mask, contributions)
        reference = per_corner_context(
            backend_tiny_sim, mask
        ).accumulate_intensity_gradients(contributions)
        rtol, atol = grad_tols(backend, np.max(np.abs(reference)))
        assert np.allclose(batched, reference, rtol=rtol, atol=atol)

    def test_gradient_matches_reference_backend(self, backend_tiny_sim, tiny_sim,
                                                backend, rng, per_corner_context):
        mask = random_mask(rng, backend_tiny_sim.grid.shape)
        contributions = [
            (corner, rng.standard_normal(backend_tiny_sim.grid.shape))
            for corner in ASYMMETRIC_CORNERS
        ]
        batched = backend_tiny_sim.gradient_all_corners(mask, contributions)
        reference = per_corner_context(tiny_sim, mask).accumulate_intensity_gradients(
            contributions
        )
        rtol, atol = grad_tols(backend, np.max(np.abs(reference)))
        assert np.allclose(batched, reference, rtol=rtol, atol=atol)

    def test_gradient_empty_contributions(self, backend_tiny_sim):
        grad = backend_tiny_sim.gradient_all_corners(
            np.zeros(backend_tiny_sim.grid.shape), []
        )
        assert np.array_equal(grad, np.zeros(backend_tiny_sim.grid.shape))


class TestContextEquivalence:
    """ForwardContext's batched adjoint vs the per-corner reference over
    whole objectives."""

    def _target(self, tiny_sim):
        target = np.zeros(tiny_sim.grid.shape)
        target[24:40, 24:40] = 1.0
        return target

    def _composite(self, target):
        return CompositeObjective(
            [
                (100.0, ImageDifferenceObjective(target, gamma=4)),
                (1.0, PVBandObjective(target)),
            ]
        )

    def test_composite_value_and_gradient_match(self, tiny_sim, rng,
                                                per_corner_context):
        target = self._target(tiny_sim)
        mask = np.clip(target + 0.1 * rng.standard_normal(target.shape), 0.05, 0.95)
        v_batched, g_batched = self._composite(target).value_and_gradient(
            tiny_sim.context(mask)
        )
        v_ref, g_ref = self._composite(target).value_and_gradient(
            per_corner_context(tiny_sim, mask)
        )
        assert v_batched == pytest.approx(v_ref, rel=1e-12)
        scale = np.max(np.abs(g_ref))
        assert np.allclose(g_batched, g_ref, rtol=GRAD_RTOL, atol=GRAD_RTOL * scale)

    def test_accumulate_matches_sequential_backprojection(self, tiny_sim, rng,
                                                          per_corner_context):
        mask = random_mask(rng, tiny_sim.grid.shape)
        contributions = [
            (corner, rng.standard_normal(tiny_sim.grid.shape))
            for corner in tiny_sim.corners()
        ]
        batched = tiny_sim.context(mask).accumulate_intensity_gradients(contributions)
        reference = per_corner_context(tiny_sim, mask).accumulate_intensity_gradients(
            contributions
        )
        scale = np.max(np.abs(reference))
        assert np.allclose(batched, reference, rtol=GRAD_RTOL, atol=GRAD_RTOL * scale)


class TestFFTAccounting:
    """Exactly one fft2(M) per mask per iteration, observable end to end."""

    def _instrumented_sim(self, tiny_config):
        simulator = LithographySimulator(tiny_config, obs=Instrumentation.collecting())
        simulator.prewarm()
        return simulator

    def test_simulate_all_corners_one_mask_fft(self, tiny_config, rng):
        sim = self._instrumented_sim(tiny_config)
        mask = random_mask(rng, sim.grid.shape)
        sim.simulate_all_corners(mask)
        assert sim.obs.metrics.counter("forward_mask_ffts").value == 1
        assert sim.obs.metrics.counter("forward_fft_reuse").value >= 1

    def test_full_objective_evaluation_one_mask_fft(self, tiny_config, rng):
        """A whole composite iteration (values + gradients at the nominal
        condition and all four corners) shares a single mask FFT."""
        sim = self._instrumented_sim(tiny_config)
        target = np.zeros(sim.grid.shape)
        target[24:40, 24:40] = 1.0
        mask = np.clip(target + 0.1 * rng.standard_normal(target.shape), 0.05, 0.95)
        objective = CompositeObjective(
            [
                (100.0, ImageDifferenceObjective(target, gamma=4)),
                (1.0, PVBandObjective(target)),
            ]
        )
        ctx = sim.context(mask)
        objective.value_and_gradient(ctx)
        info = ctx.cache_info()
        assert info.mask_ffts == 1
        assert info.reuses >= 1
        assert sim.obs.metrics.counter("forward_mask_ffts").value == 1
        assert sim.obs.metrics.counter("forward_fft_reuse").value == info.reuses

    def test_forward_batched_span_recorded(self, tiny_config, rng):
        sim = self._instrumented_sim(tiny_config)
        sim.simulate_all_corners(random_mask(rng, sim.grid.shape))
        assert "forward.batched" in sim.obs.tracer.stats()

    def test_backproject_batched_span_recorded(self, tiny_config, rng):
        sim = self._instrumented_sim(tiny_config)
        mask = random_mask(rng, sim.grid.shape)
        sim.gradient_all_corners(
            mask, [(nominal_corner(), np.ones(sim.grid.shape))]
        )
        assert "backproject.batched" in sim.obs.tracer.stats()

    def test_distinct_masks_get_distinct_ffts(self, tiny_config, rng):
        sim = self._instrumented_sim(tiny_config)
        sim.simulate_all_corners(random_mask(rng, sim.grid.shape))
        sim.simulate_all_corners(random_mask(rng, sim.grid.shape))
        assert sim.obs.metrics.counter("forward_mask_ffts").value == 2


class TestKernelCacheInfoOrdering:
    """Satellite: cache snapshots must compare deterministically."""

    def test_defocus_values_sorted_regardless_of_build_order(self, tiny_config):
        sim = LithographySimulator(tiny_config)
        sim.kernels_at(25.0)  # deliberately built out of order
        sim.kernels_at(0.0)
        assert sim.cache_info().defocus_values_nm == (0.0, 25.0)

    def test_two_build_orders_give_equal_snapshots(self, tiny_config):
        forward = LithographySimulator(tiny_config)
        forward.kernels_at(0.0)
        forward.kernels_at(25.0)
        backward = LithographySimulator(tiny_config)
        backward.kernels_at(25.0)
        backward.kernels_at(0.0)
        assert (
            forward.cache_info().defocus_values_nm
            == backward.cache_info().defocus_values_nm
        )
