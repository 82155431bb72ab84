"""Workload-spec parsing shared by the CLI and the job service."""

import pytest

from repro.errors import ReproError
from repro.workloads import (
    load_workload,
    parse_synth_spec,
    validate_workload_spec,
)
from repro.workloads.generator import synthetic_canvas


class TestParseSynthSpec:
    def test_basic(self):
        assert parse_synth_spec("synth:2048x1024") == (2048.0, 1024.0, 0)

    def test_with_seed(self):
        assert parse_synth_spec("synth:2048x1024:7") == (2048.0, 1024.0, 7)

    def test_uppercase_x(self):
        assert parse_synth_spec("synth:1024X2048") == (1024.0, 2048.0, 0)

    @pytest.mark.parametrize(
        "spec",
        [
            "synth:",             # no dims
            "synth:2048",         # missing height
            "synth:ax2048",       # non-numeric width
            "synth:2048x2048:x",  # non-integer seed
            "synth:2048x2048:1:2",  # extra field
            "synth:0x2048",       # zero width
            "synth:-10x10",       # negative width
            "synth:512x512:1",    # smaller than one canvas cell
            "synth:2048x1000",    # height below one canvas cell
        ],
    )
    def test_malformed_rejected(self, spec):
        with pytest.raises(ReproError):
            parse_synth_spec(spec)

    def test_not_a_synth_spec(self):
        with pytest.raises(ReproError, match="not a synth spec"):
            parse_synth_spec("B1")


class TestValidateWorkloadSpec:
    def test_kinds(self, tmp_path):
        assert validate_workload_spec("B1") == "benchmark"
        assert validate_workload_spec("synth:1024x1024") == "synth"
        glp = tmp_path / "layout.glp"
        glp.write_text("")
        assert validate_workload_spec(str(glp)) == "path"

    def test_paths_rejected_when_disallowed(self, tmp_path):
        glp = tmp_path / "layout.glp"
        glp.write_text("")
        with pytest.raises(ReproError, match="file paths are not accepted"):
            validate_workload_spec(str(glp), allow_paths=False)

    def test_nonsense_rejected(self):
        with pytest.raises(ReproError, match="neither"):
            validate_workload_spec("definitely-not-a-layout")

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            validate_workload_spec("")

    def test_malformed_synth_fails_eagerly(self):
        # The service-side 400: validation must not require building
        # the layout (or a worker) to notice a bad spec.
        with pytest.raises(ReproError):
            validate_workload_spec("synth:balloonxcat", allow_paths=False)


class TestLoadWorkload:
    def test_synth_matches_generator(self):
        layout = load_workload("synth:1024x1024:3")
        direct = synthetic_canvas(1024.0, 1024.0, seed=3)
        assert layout.num_shapes == direct.num_shapes
        assert layout.clip == direct.clip

    def test_benchmark(self):
        assert load_workload("B1").num_shapes > 0

    def test_cli_delegates(self):
        # The CLI loader is the same code path (the satellite contract:
        # CLI and service validate identically).
        from repro.cli import _load_layout

        assert _load_layout("B1").name == load_workload("B1").name
