"""Arithmetic of the end-to-end benchmark: percentiles, span self time,
output quality and fingerprint comparison.  Pure functions, tested by
test_metrics.py; run.py and compare.py apply them to the raw record the
benchmark binary writes."""

import math

# Percentiles the benchmark may report, highest first.
PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_TAIL_SAMPLES = 10


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples.  The
    product is rounded first so that 99.9% of 10000 is rank 9990, not the
    9991 that binary floating point would give."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p):
    """Nearest-rank p-th percentile: the smallest value with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(len(values), p) - 1]


def samples_beyond(n, p):
    """Samples ranked strictly above the nearest-rank p-th percentile."""
    return n - rank(n, p)


def tail_percentile(n):
    """The highest percentile in PERCENTILES with at least
    MIN_TAIL_SAMPLES samples beyond it, or None when n is too small."""
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_TAIL_SAMPLES:
            return p
    return None


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its direct children.  `spans` is a list of
    (name, parent_index, start, end) with parent_index -1 for roots."""
    children = [[] for _ in spans]
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered, reach = 0, start
        for c in sorted(children[i], key=lambda c: spans[c][2]):
            lo, hi = max(spans[c][2], reach), min(spans[c][3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans):
    """Per span name: count, total duration and total self time."""
    totals = {}
    for (name, _, start, end), own in zip(spans, self_times(spans)):
        t = totals.setdefault(name, {"count": 0, "total": 0, "self": 0})
        t["count"] += 1
        t["total"] += end - start
        t["self"] += own
    return totals


def kl_from_uniform(counts):
    """KL divergence (nats) of the empirical distribution `counts` from the
    uniform distribution over the same len(counts) ids."""
    total = sum(counts)
    if total <= 0:
        raise ValueError("empty histogram")
    n = len(counts)
    return sum(c / total * math.log(c / total * n) for c in counts if c > 0)


def pollution(malicious, total):
    """The adversary's share of `total` observations."""
    if total <= 0:
        raise ValueError("no observations")
    return malicious / total


# Fingerprint fields two results must share before a verdict is given.
FINGERPRINT_KEYS = ("nproc", "sketch_kernel", "compiler", "build_type",
                    "cpu_model")


def fingerprint_diff(a, b):
    """Fingerprint keys on which two results differ."""
    return [k for k in FINGERPRINT_KEYS if a.get(k) != b.get(k)]


def verdict(metric, base, new):
    """Compares two medians of one metric against its bound.  `metric` is
    a BENCHMARK.json metric entry; returns 'regression', 'improvement' or
    'same' (within the bound)."""
    if base == 0:
        return "same" if new == 0 else "regression"
    change = (new - base) / abs(base)
    worse = change > 0 if metric["better"] == "lower" else change < 0
    if abs(change) <= metric.get("bound", 0.0):
        return "same"
    return "regression" if worse else "improvement"
