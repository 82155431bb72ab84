"""Tile jobs: construction-time validation and pool result identity.

Pool workers send their :class:`~repro.fullchip.scheduler.TileResult`
back as an ordinary pickle, mask included, exactly like the inline path
hands it over; the masks must come back bit-identical.
"""

import numpy as np
import pytest

from repro.config import GridSpec, LithoConfig, OpticsConfig, OptimizerConfig
from repro.errors import OpticsError
from repro.fullchip import TileJob, build_tile_plan, run_tile_jobs
from repro.geometry.rect import Rect
from repro.workloads.generator import synthetic_canvas

PIXEL_NM = 16.0
PROBE_NM = 1024.0


@pytest.fixture(scope="module")
def fc_litho() -> LithoConfig:
    return LithoConfig(
        grid=GridSpec(shape=(64, 64), pixel_nm=PIXEL_NM),
        optics=OpticsConfig(num_kernels=4),
    )


def _jobs(fc_litho):
    plan = build_tile_plan(Rect(0, 0, 2048, 1024), 1024.0, 192.0, PIXEL_NM)
    layout = synthetic_canvas(2048.0, 1024.0, seed=2)
    return [
        TileJob(
            tile=tile,
            layout=tile.clip_layout(layout),
            litho=fc_litho,
            optimizer=OptimizerConfig(max_iterations=3, use_jump=False),
            probe_extent_nm=PROBE_NM,
        )
        for tile in plan
    ]


class TestJobValidation:
    def test_backend_spec_validated_and_canonicalized(self, fc_litho):
        plan = build_tile_plan(Rect(0, 0, 1024, 1024), 1024.0, 192.0, PIXEL_NM)
        tile = plan.tile_at((0, 0))
        window = tile.clip_layout(synthetic_canvas(1024.0, 1024.0, seed=2))
        good = TileJob(
            tile=tile, layout=window, litho=fc_litho, backend="numpy:float64"
        )
        assert good.backend == "numpy"
        with pytest.raises(OpticsError):
            TileJob(tile=tile, layout=window, litho=fc_litho, backend="bogus")


class TestPoolResults:
    @pytest.mark.slow
    def test_pool_masks_match_inline(self, fc_litho):
        """workers=2 (fork pool, pickled results) vs workers=1 (inline)."""
        pooled = run_tile_jobs(_jobs(fc_litho), workers=2)
        inline = run_tile_jobs(_jobs(fc_litho), workers=1)
        assert len(pooled) == len(inline) == 2
        assert all(r.ok for r in pooled) and all(r.ok for r in inline)
        for a, b in zip(pooled, inline):
            assert a.index == b.index
            np.testing.assert_array_equal(a.mask, b.mask)
