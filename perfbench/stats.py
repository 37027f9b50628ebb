"""Arithmetic behind the benchmark's report.

Percentiles that refuse to report a tail thinner than ten samples,
ratios that carry their base, and span self times (a span's duration
minus the part of it its child spans cover). Tested by test_stats.py.
"""

import math
from typing import Dict, Iterable, List, NamedTuple, Optional

MIN_BEYOND = 10


def percentile(samples: Iterable[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100] (numpy's default)."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> float:
    """How many of n samples lie above the p-th percentile."""
    return n * (100.0 - p) / 100.0


def tail_percentile(samples: List[float], p: float,
                    min_beyond: int = MIN_BEYOND) -> float:
    """percentile(), refusing a tail with fewer than min_beyond samples."""
    if samples_beyond(len(samples), p) < min_beyond:
        raise ValueError(
            f"p{p:g} of {len(samples)} samples has fewer than "
            f"{min_beyond} samples beyond it")
    return percentile(samples, p)


def median(samples: Iterable[float]) -> float:
    return percentile(samples, 50.0)


class Ratio(NamedTuple):
    value: float
    base: int


def ratio(numerator: float, base: int,
          when_empty: Optional[float] = None) -> Ratio:
    """numerator / base with its base. A zero base raises, unless the
    caller names the value an empty ratio takes (e.g. nothing broke, so
    nothing needed recovering)."""
    if base < 0:
        raise ValueError("negative base")
    if base == 0:
        if when_empty is None:
            raise ValueError("ratio over an empty base")
        return Ratio(when_empty, 0)
    return Ratio(numerator / base, base)


class SpanTotals(NamedTuple):
    count: int
    busy_us: float  # summed span durations
    self_us: float  # busy time not covered by child spans


def self_times(spans: List[dict]) -> Dict[str, SpanTotals]:
    """Per span name: count, busy time and self time.

    Each span is a dict with "name", "ts" (start, us), "dur" (us) and
    "parent" (index into `spans`, -1 for a root). A span's self time is
    its duration minus the union of its children's intervals clipped to
    it, so overlapping or overhanging children are never counted twice.
    """
    children: Dict[int, List[int]] = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    totals: Dict[str, List[float]] = {}
    for i, s in enumerate(spans):
        start, end = s["ts"], s["ts"] + s["dur"]
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, []), key=lambda c: spans[c]["ts"]):
            c_start = max(spans[c]["ts"], reach)
            c_end = min(spans[c]["ts"] + spans[c]["dur"], end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        t = totals.setdefault(s["name"], [0, 0.0, 0.0])
        t[0] += 1
        t[1] += s["dur"]
        t[2] += s["dur"] - covered
    return {name: SpanTotals(int(t[0]), t[1], t[2])
            for name, t in totals.items()}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def coverage(totals: Dict[str, SpanTotals], wall_us: float,
             glue_layers: Iterable[str] = ("bench",)) -> float:
    """Share of wall time that layer spans cover by their self time.

    Spans of the benchmark's own glue layers do not count: their self
    time is the harness, not the program.
    """
    if wall_us <= 0.0:
        raise ValueError("coverage over no wall time")
    glue = set(glue_layers)
    covered = sum(t.self_us for name, t in totals.items()
                  if layer_of(name) not in glue)
    return covered / wall_us
