"""Statistics the benchmark reports, kept apart so they can be tested.

Everything here is pure Python over lists of numbers or span tuples.
"""

import math
import statistics

# Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def worsening(before, after, better):
    """How much worse `after` is than `before`, as a share of `before`;
    negative when it is better. `better` is "lower" or "higher"."""
    change = (after - before) / before
    return change if better == "lower" else -change


def _rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples. The
    rounding keeps float noise (99.9 / 100 * 10000 = 9990.000000000002)
    from pushing an exact rank up by one."""
    return min(n, max(1, math.ceil(round(p * n / 100.0, 9))))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n, p):
    """Samples ranked above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(n, ladder=TAIL_LADDER, min_beyond=10):
    """The highest percentile on the ladder with at least `min_beyond`
    samples beyond it, or None when even the median has fewer."""
    for p in ladder:
        if beyond(n, p) >= min_beyond:
            return p
    return None


def _ranks(values):
    """1-based ranks, ties sharing the average of their positions."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs, ys):
    """Spearman rank correlation with average ranks for ties (the
    Pearson correlation of the rank vectors)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("spearman needs two equal-length series of >= 2")
    rx, ry = _ranks(xs), _ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return 0.0
    return sxy / math.sqrt(sxx * syy)


def open_loop(records):
    """Open-loop timing from (due, sent, done, ...) records, all on one
    clock; fields after the third are ignored.

    Latency runs from when a request was due, so a stall also charges
    the requests queued behind it; lateness is how far the generator ran
    behind its schedule. Returns (latencies, lateness)."""
    latencies = [r[2] - r[0] for r in records]
    lateness = [max(0.0, r[1] - r[0]) for r in records]
    return latencies, lateness


def mix_median(groups):
    """Typical cost of one item of a mix: the median of each group,
    weighted by the group's share of all items. `groups` maps a group
    to its values. Unlike the pooled median it never falls in the gap
    between two groups, and unlike the mean one outlier moves it little."""
    total = sum(len(vs) for vs in groups.values())
    if total == 0:
        raise ValueError("mix_median of no samples")
    return sum(len(vs) * median(vs) for vs in groups.values() if vs) / total


def closed_loop_rates(records):
    """Closed-loop capacity per slice from (slice, answered, seconds)
    records, one per connection and slice: each connection's answered
    requests over the time from the slice start to its last completion,
    summed over the connections. Returns {slice: requests per second}."""
    rates = {}
    for k, answered, seconds in records:
        if seconds <= 0:
            raise ValueError("slice %d has no measured time" % k)
        rates[int(k)] = rates.get(int(k), 0.0) + answered / seconds
    return rates


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time per span: its duration minus the part of its interval
    that its child spans cover (overlapping children counted once).

    `spans` are (id, parent, op, name, start, end) tuples. Returns
    {id: self_time}."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[4], s[5]))
    out = {}
    for sid, _, _, _, start, end in spans:
        out[sid] = (end - start) - _covered(children.get(sid, []), start, end)
    return out


def layer_table(spans):
    """Per span name: count, total and self time (ns), median duration.

    Returns {name: {"count", "total_ns", "self_ns", "median_ns"}}."""
    selfs = self_times(spans)
    table = {}
    durations = {}
    for sid, _, _, name, start, end in spans:
        row = table.setdefault(name, {"count": 0, "total_ns": 0.0,
                                      "self_ns": 0.0})
        row["count"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += selfs[sid]
        durations.setdefault(name, []).append(end - start)
    for name, row in table.items():
        row["median_ns"] = statistics.median(durations[name])
    return table
