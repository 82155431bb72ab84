"""BENCHMARK.json follows the schema; schedules stay in budget."""

import json

from mosaicbench.chip import CHIP_VARIANTS, chip_spec
from mosaicbench.clips import clip_names
from mosaicbench.schema import BENCHMARK_PATH
from mosaicbench.service import POOL_SIZE, schedule
from mosaicbench.stats import NAME_RE, UNIT_RE

BENCHMARK = json.loads(BENCHMARK_PATH.read_text())


def test_names_units_and_bounds_follow_the_schema():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names)
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    assert all(UNIT_RE.match(m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(BENCHMARK["workloads"][0]) == {"name", "why"}


def test_clip_set_is_fixed_by_seconds_and_ordered_by_seed():
    a, b = clip_names(25, seed=1), clip_names(25, seed=2)
    assert sorted(a) == sorted(b) and len(a) == 5
    assert clip_names(25, seed=1) == a
    assert clip_names(1, seed=0) == ["B1"]
    assert len(clip_names(1000, seed=0)) == 10


def test_chip_seed_maps_into_recorded_variants():
    assert chip_spec(3) == chip_spec(3 + CHIP_VARIANTS) == "synth:2048x2048:3"


def test_service_schedule_shares_round_zero_and_stays_in_budget():
    for seed in range(20):
        for seconds in (5, 25, 60, 1000):
            plans = schedule(seed, seconds)
            assert len(plans) == 2 and plans[0][0] == plans[1][0]
            specs = {spec for plan in plans for spec in plan}
            assert all(int(s.rsplit(":", 1)[1]) < POOL_SIZE for s in specs)
            for plan in plans:
                seen, hit_run, longest = set(), 0, 0
                for spec in plan:
                    # A re-submit of a spec this client saw DONE is a hit.
                    hit_run = hit_run + 1 if spec in seen else 0
                    longest = max(longest, hit_run)
                    seen.add(spec)
                # Quick submits in a row (hits plus the next miss) stay
                # within the default per-tenant burst of 5.
                assert longest + 1 <= 5
