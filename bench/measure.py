"""Arithmetic shared by the benchmark runner, the tracer and the result
collector: percentiles with the ten-beyond rule, span self time, row
checks against reference digests, and run-to-run spread."""

from __future__ import annotations

import hashlib
import math
import statistics
from collections import defaultdict

# Candidate tail percentiles, in tenths of a percent, highest first.
TAIL_PERMILLE = (999, 990, 900, 500)

# A sweep row whose excess lies below this is a solver or evaluation defect,
# the same threshold the harness uses to flag negative excess.
EXCESS_FLOOR = -1e-7


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between order
    statistics, the numpy default."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, permille: int) -> int:
    """Samples above the given percentile of n samples (integer arithmetic,
    so 99% of 1000 leaves exactly 10)."""
    return n * (1000 - permille) // 1000


def tail_permille(n: int) -> int | None:
    """Highest candidate percentile with at least ten samples beyond it, in
    tenths of a percent; None when even the median has fewer."""
    for permille in TAIL_PERMILLE:
        if samples_beyond(n, permille) >= 10:
            return permille
    return None


def tail(values) -> tuple[str, float]:
    """(label, value) of the highest percentile with ten samples beyond it.
    With fewer than 20 samples no candidate qualifies; a maximum of so few
    is mostly noise, so the median stands in, labelled "p50-fallback"."""
    permille = tail_permille(len(values))
    if permille is None:
        return "p50-fallback", percentile(values, 50.0)
    return f"p{permille / 10:g}", percentile(values, permille / 10.0)


def covered_time(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Self time per span name.

    ``spans`` is a sequence of (name, start, end, parent_index, ...) with
    parent_index -1 for a root.  A span's self time is its duration minus
    the part of its interval covered by its child spans.
    """
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out: dict = defaultdict(float)
    for idx, span in enumerate(spans):
        name, start, end = span[0], span[1], span[2]
        out[name] += (end - start) - covered_time(start, end, children.get(idx, ()))
    return dict(out)


def frac(numerator: float, denominator: float) -> float:
    """Ratio that reads 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def row_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mismatched_rows(digests, reference) -> list[bool]:
    """Per-row flags: True where the row differs from the reference row at
    the same position or has no reference row.  Reference rows missing from
    ``digests`` are not listed; count them with ``missing_rows``."""
    return [i >= len(reference) or d != reference[i] for i, d in enumerate(digests)]


def missing_rows(digests, reference) -> int:
    return max(0, len(reference) - len(digests))


def sweep_row_failed(row: dict) -> bool:
    """A sweep CSV row (strings, as read back) fails when it carries an
    error or an excess that is non-finite or below the floor."""
    if row["error"]:
        return True
    for key in ("excess_emp", "excess_pop"):
        value = float(row[key]) if row[key] else math.nan
        if not math.isfinite(value) or value < EXCESS_FLOOR:
            return True
    return False


def audit_row_failed(report: dict | None) -> bool:
    """An audit report fails when it is missing, inconclusive or non-finite."""
    if report is None or report["inconclusive"]:
        return True
    return not all(math.isfinite(report[k]) for k in ("max_log_ratio", "slack"))


def spread(values) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median), with the
    quartiles of ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, frac(q3 - q1, q2)
