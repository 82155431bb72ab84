"""Metric naming, percentiles, failure counting and the result line.

Everything here is pure Python so the benchmark's own tests can cover
it without running a workload.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: A metric or workload name: starts with a letter or digit, then at
#: most 63 more of ``[A-Za-z0-9_.-]``.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: A unit such as ``s``, ``ms``, ``1/min`` or ``count``.
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_metric_name(name: str) -> str:
    """Return ``name`` unchanged, or raise ``ValueError`` if it breaks the grammar."""
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError(f"bad metric name {name!r}: want {NAME_RE.pattern}")
    return name


def check_unit(unit: str) -> str:
    """Return ``unit`` unchanged, or raise ``ValueError`` if it breaks the grammar."""
    if not isinstance(unit, str) or not UNIT_RE.match(unit):
        raise ValueError(f"bad unit {unit!r}: want {UNIT_RE.pattern}")
    return unit


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample, with the number of samples behind it."""

    q: float
    value: float
    n: int

    def describe(self, unit: str) -> str:
        if self.n == 0:
            return f"p{self.q:g}=n/a (n=0)"
        return f"p{self.q:g}={self.value:.4g} {unit} (n={self.n})"


def percentile(values: Iterable[float], q: float) -> Percentile:
    """Linear-interpolation percentile (numpy's default), ``nan`` when empty."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return Percentile(q, math.nan, 0)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return Percentile(q, value, len(ordered))


def median(values: Iterable[float]) -> Percentile:
    return percentile(values, 50.0)


@dataclass
class OpCounter:
    """Operations attempted and failed (an error, a failed job or a refusal).

    ``failures`` keeps one line per failure so the report can say what
    went wrong; a 429 from the service is a refusal and counts as failed.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(reason)

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Checks:
    """Output checks; any failed check makes the run's result incorrect."""

    passed: int = 0
    problems: List[str] = field(default_factory=list)

    def expect(self, condition: bool, what: str) -> bool:
        if condition:
            self.passed += 1
        else:
            self.problems.append(what)
        return bool(condition)

    @property
    def correct(self) -> bool:
        return not self.problems


def metric_block(
    values: Mapping[str, float], units: Mapping[str, str]
) -> Dict[str, Dict[str, object]]:
    """``{name: {"value": v, "unit": u}}`` for exactly the names in ``units``.

    Raises ``ValueError`` for a missing, extra, non-finite or badly named
    metric, so a run never prints a result the schema would refuse.
    """
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, extra {extra}")
    block: Dict[str, Dict[str, object]] = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        block[check_metric_name(name)] = {"value": value, "unit": check_unit(unit)}
    return block


def result_line(
    correct: bool, ops: OpCounter, metrics: Dict[str, Dict[str, object]]
) -> str:
    """The single JSON line the benchmark prints last."""
    if ops.attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(ops.attempted),
            "failed": int(ops.failed),
            "metrics": metrics,
        },
        sort_keys=False,
    )


def union_seconds(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total
