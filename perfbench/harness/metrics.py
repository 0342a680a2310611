"""The benchmark's own arithmetic: percentiles, SLO and failure shares."""

import statistics

SLO_S = 1.0
MIN_BEYOND = 10


def percentile(values, q):
    """Linear-interpolated percentile (q in [0, 1]) of a non-empty sample."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_percentile(values, q, min_beyond=MIN_BEYOND):
    """(value, samples beyond it); value is None when fewer than
    `min_beyond` samples lie strictly beyond the percentile."""
    if not values:
        return None, 0
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return (value if beyond >= min_beyond else None), beyond


class Outcome:
    """One attempted request as the load generator saw it."""

    __slots__ = ("start", "sent", "done", "ok", "reads", "bytes", "error", "lane", "k")

    def __init__(self, start, sent, done, ok, reads, nbytes, error="", lane=0, k=0):
        self.start = start  # due time (open loop) or send time (closed loop)
        self.sent = sent
        self.done = done
        self.ok = ok
        self.reads = reads
        self.bytes = nbytes
        self.error = error
        self.lane = lane  # connection index
        self.k = k  # request number

    @property
    def latency(self):
        return self.done - self.start

    @property
    def lateness(self):
        return self.sent - self.start


def summarize(outcomes, wall_s):
    """End-to-end request figures over one measured window."""
    attempted = len(outcomes)
    good = [o for o in outcomes if o.ok]
    latencies_ms = [o.latency * 1e3 for o in good]
    p90, beyond = tail_percentile(latencies_ms, 0.9)
    reads = sum(o.reads for o in good)
    return {
        "attempted": attempted,
        "failed": attempted - len(good),
        "reads": reads,
        "reads_per_s": reads / wall_s,
        "req_p50_ms": statistics.median(latencies_ms) if latencies_ms else None,
        "req_p90_ms": p90,
        "p90_beyond": beyond,
        "samples": len(latencies_ms),
        "slo_frac": slo_frac(outcomes),
        "fail_frac": fail_frac(outcomes),
        "late_p50_ms": statistics.median(o.lateness * 1e3 for o in outcomes) if outcomes else 0.0,
        "late_max_ms": max((o.lateness * 1e3 for o in outcomes), default=0.0),
        "mean_service_ms": statistics.fmean((o.done - o.sent) * 1e3 for o in good) if good else None,
        "response_bytes": sum(o.bytes for o in good),
    }


def slo_frac(outcomes, limit_s=SLO_S):
    """Correct responses within the limit over requests attempted; a failed
    request misses the limit whatever its latency."""
    if not outcomes:
        return 0.0
    met = sum(1 for o in outcomes if o.ok and o.latency <= limit_s)
    return met / len(outcomes)


def fail_frac(outcomes):
    if not outcomes:
        return 0.0
    return sum(1 for o in outcomes if not o.ok) / len(outcomes)


def cpu_ms_per_kread(ticks, clk_tck, reads):
    return ticks * 1e3 / clk_tck / (reads / 1e3)


def self_times(events):
    """Self time (µs) of each complete trace event: its duration minus the
    part covered by its direct children (events whose 'parent' arg is its id)."""
    children = {}
    for e in events:
        parent = e["args"].get("parent")
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + e["dur"]
    return {e["args"]["id"]: e["dur"] - children.get(e["args"]["id"], 0.0) for e in events}
