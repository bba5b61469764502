"""Sample statistics, host fingerprint and process memory.

Percentiles follow the rule the benchmark reports by: a percentile is
reported only when at least ten samples lie beyond it, so the tail it
names is measured, not extrapolated.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
from typing import Dict, List, Sequence

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100) by linear interpolation.

    Refuses when fewer than :data:`MIN_BEYOND` samples lie above the
    percentile's rank: p90 needs at least 100 samples, p50 at least 20.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    beyond = n - math.ceil(n * q / 100)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"at least {MIN_BEYOND} are needed"
        )
    ordered = sorted(samples)
    rank = (n - 1) * q / 100
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summary(samples: Sequence[float]) -> Dict[str, float]:
    """Count, quartiles and median of a sample (for the spread columns)."""
    n = len(samples)
    if n == 0:
        return {"n": 0}
    if n == 1:
        only = float(samples[0])
        return {"n": 1, "q1": only, "median": only, "q3": only}
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"n": n, "q1": q1, "median": median, "q3": q3}


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size of this process (plus the largest waited-for
    child when asked), in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def host_fingerprint() -> Dict[str, object]:
    """CPU model, Python version and CPU count of the measuring host."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def median(values: List[float]) -> float:
    """Median with no minimum sample count (0 when empty), for the
    informational per-layer figures."""
    return statistics.median(values) if values else 0.0
