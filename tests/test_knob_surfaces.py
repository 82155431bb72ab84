"""Parity of the three surfaces derived from ``FullChipConfig``.

``repro fullchip`` flags, ``repro submit`` flags and the service payload
are generated from the config's field declarations.  The literals below
pin what each surface produced when it was still written by hand: the
config every flag builds, the options each ``--help`` lists, and the
canonical payload of every submission the service tests make.
"""

import pytest

import repro.fullchip
from repro.cli import build_parser, main
from repro.errors import FullChipError
from repro.fullchip import FullChipConfig
from repro.service import normalize_payload

#: (extra ``repro fullchip B1`` argv, config fields that differ from the
#: defaults).  One case per config flag, each set off its default.
ARGV_CASES = [
    ([], {}),
    (["--tile-nm", "512"], {"tile_nm": 512.0}),
    (["--halo-nm", "64"], {"halo_nm": 64.0}),
    (["--workers", "3"], {"workers": 3}),
    (["--executor", "serial"], {"executor": "serial"}),
    (
        ["--executor", "queue", "--telemetry-dir", "tel"],
        {"telemetry_dir": "tel", "executor": "queue"},
    ),
    (["--mode", "exact"], {"solver_mode": "exact"}),
    (["--keep-going"], {"keep_going": True}),
    (["--tile-timeout", "12.5"], {"tile_timeout_s": 12.5}),
    (["--max-retries", "2"], {"max_retries": 2}),
    (["--checkpoint-dir", "ck"], {"checkpoint_dir": "ck"}),
    (["--checkpoint-every", "3"], {"checkpoint_every": 3}),
    (
        ["--checkpoint-dir", "ck", "--resume"],
        {"checkpoint_dir": "ck", "resume": True},
    ),
    (["--telemetry-dir", "tel"], {"telemetry_dir": "tel"}),
    (["--lease-s", "7.5"], {"queue_lease_s": 7.5}),
    (["--max-requeues", "4"], {"queue_max_requeues": 4}),
    (["--queue-backoff", "0.25"], {"queue_backoff_s": 0.25}),
    (["--resource-interval", "0"], {"resource_interval_s": 0.0}),
    (["--watchdog-poll", "1.5"], {"watchdog_poll_s": 1.5}),
    (["--watchdog-stall-factor", "4"], {"watchdog_stall_factor": 4.0}),
    (["--watchdog-min-stall", "3"], {"watchdog_min_stall_s": 3.0}),
    (["--watchdog-cancel"], {"watchdog_cancel": True}),
]

FULLCHIP_OPTIONS = [
    "--backend", "--checkpoint-dir", "--checkpoint-every", "--csv",
    "--executor", "--halo-nm", "--help", "--keep-going", "--lease-s",
    "--log-json", "--max-requeues", "--max-retries", "--metrics-out",
    "--mode", "--out", "--queue-backoff", "--resource-interval", "--resume",
    "--scale", "--seam-csv", "--telemetry-dir", "--tile-nm", "--tile-timeout",
    "--trace", "--verbose", "--watchdog-cancel", "--watchdog-min-stall",
    "--watchdog-poll", "--watchdog-stall-factor", "--workers", "-h", "-v",
]

SUBMIT_OPTIONS = [
    "--executor", "--help", "--mode", "--request-timeout", "--retries",
    "--scale", "--tenant", "--tile-nm", "--timeout", "--trace-id", "--wait",
    "--workers", "-h",
]


def _canonical(layout, **changes):
    payload = {
        "layout": layout,
        "mode": "fast",
        "scale": "reduced",
        "tile_nm": 1024.0,
        "halo_nm": None,
        "workers": 1,
        "executor": "queue",
        "keep_going": False,
        "use_sraf": True,
        "backend": None,
    }
    payload.update(changes)
    return payload


SERIAL = {"layout": "synth:1024x1024:1", "mode": "fast", "executor": "serial"}

#: Every submission tests/test_service.py makes that the service accepts,
#: with the canonical payload it normalizes to.
PAYLOAD_CASES = [
    (dict(SERIAL), _canonical("synth:1024x1024:1", executor="serial")),
    (
        {**SERIAL, "workers": 4, "executor": "queue", "keep_going": True},
        _canonical("synth:1024x1024:1", workers=4, keep_going=True),
    ),
    (
        {**SERIAL, "layout": "synth:1024x1024:2"},
        _canonical("synth:1024x1024:2", executor="serial"),
    ),
    (
        {**SERIAL, "mode": "exact"},
        _canonical("synth:1024x1024:1", executor="serial", mode="exact"),
    ),
    (
        {**SERIAL, "tile_nm": 512.0},
        _canonical("synth:1024x1024:1", executor="serial", tile_nm=512.0),
    ),
    (
        {**SERIAL, "use_sraf": False},
        _canonical("synth:1024x1024:1", executor="serial", use_sraf=False),
    ),
    (
        {**SERIAL, "workers": 2},
        _canonical("synth:1024x1024:1", executor="serial", workers=2),
    ),
    ({"layout": "B1"}, _canonical("B1")),
    (
        {"layout": "synth:2048x2048:3", "mode": "fast", "executor": "queue",
         "workers": 1},
        _canonical("synth:2048x2048:3"),
    ),
]


class _Built(Exception):
    """Raised by the stub engine to hand the built config back."""


class _StubEngine:
    def __init__(self, litho, optimizer=None, config=None, obs=None):
        raise _Built(config)


@pytest.mark.parametrize(
    "extra, nondefault", ARGV_CASES, ids=[" ".join(a) or "none" for a, _ in ARGV_CASES]
)
def test_fullchip_flags_build_the_same_config(monkeypatch, extra, nondefault):
    monkeypatch.setattr(repro.fullchip, "FullChipEngine", _StubEngine)
    with pytest.raises(_Built) as built:
        main(["fullchip", "B1", *extra])
    assert built.value.args[0] == FullChipConfig(**nondefault)


@pytest.mark.parametrize(
    "knobs",
    [{"max_retries": -1}, {"tile_timeout_s": 0.0}, {"tile_timeout_s": -5.0},
     {"checkpoint_every": 0}],
    ids=["max_retries", "tile_timeout_zero", "tile_timeout_negative", "checkpoint_every"],
)
def test_config_rejects_bad_run_knobs(knobs):
    with pytest.raises(FullChipError, match=next(iter(knobs))):
        FullChipConfig(**knobs)


def test_bad_knob_fails_before_any_kernel_build(monkeypatch, capsys):
    def no_engine(*args, **kwargs):
        raise AssertionError("FullChipEngine built despite an invalid knob")

    monkeypatch.setattr(repro.fullchip, "FullChipEngine", no_engine)
    assert main(["fullchip", "B1", "--max-retries", "-1"]) == 1
    assert "max_retries must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, options",
    [("fullchip", FULLCHIP_OPTIONS), ("submit", SUBMIT_OPTIONS)],
)
def test_help_lists_the_same_options(command, options):
    subparsers = build_parser()._subparsers._group_actions[0].choices
    listed = sorted(
        flag for action in subparsers[command]._actions for flag in action.option_strings
    )
    assert listed == options


@pytest.mark.parametrize(
    "payload, expected", PAYLOAD_CASES, ids=[str(i) for i in range(len(PAYLOAD_CASES))]
)
def test_normalize_payload_matches(payload, expected):
    assert normalize_payload(payload) == expected
