"""Per-layer metrics of the traced run, from its spans and counters."""

import statistics

from .metrics import self_times

# name -> unit, in BENCHMARK.json order.
PER_LAYER = {
    "app.overhead_ms": "ms",
    "app.sam_bytes_per_read": "B/read",
    "io.parse_fastq_ms": "ms",
    "jobs.queue_wait_ms": "ms",
    "jobs.rss_growth_mb_per_req": "MB/req",
    "mapper.run_ms": "ms",
    "mapper.prepare_ms": "ms",
    "mapper.pack_ms": "ms",
    "mapper.search_ms": "ms",
    "mapper.locate_ms": "ms",
    "mapper.sam_ms": "ms",
    "mapper.hits_per_read": "hits/read",
    "mapper.mapped_frac": "frac",
    "store.acquire_ms": "ms",
    "store.bytes_per_base.text": "B/base",
    "store.bytes_per_base.bwt": "B/base",
    "store.bytes_per_base.occ": "B/base",
    "store.bytes_per_base.sa": "B/base",
    "store.bytes_per_base.kmer": "B/base",
    "store.bytes_per_base.epr": "B/base",
    "store.rollover_ms": "ms",
    "build.sa_bwt_ms": "ms",
    "build.encode_ms": "ms",
    "obs.trace_overhead_pct": "%",
}


def from_http(traced, untraced_p50_ms, stats_before, stats_after, rss_before_kb, rss_after_kb):
    """Layers seen from the HTTP side: `traced` is the summary of the traced
    window, the /stats and VmRSS samples bracket it."""
    waits = stats_after["queue_wait_n"] - stats_before["queue_wait_n"]
    runs = stats_after["run_n"] - stats_before["run_n"]
    queue_wait = (stats_after["queue_wait_ms"] - stats_before["queue_wait_ms"]) / waits
    run = (stats_after["run_ms"] - stats_before["run_ms"]) / runs
    return {
        "app.overhead_ms": traced["mean_service_ms"] - queue_wait - run,
        "app.sam_bytes_per_read": traced["response_bytes"] / traced["reads"],
        "jobs.queue_wait_ms": queue_wait,
        "jobs.rss_growth_mb_per_req": (rss_after_kb - rss_before_kb) / 1024 / traced["attempted"],
        "obs.trace_overhead_pct": (traced["req_p50_ms"] - untraced_p50_ms) / untraced_p50_ms * 100,
    }


def from_replay(events, sam_counts):
    """Layers of the replay's spans (Chrome trace events, µs). `sam_counts`
    is (reads, mapped reads, mapped lines) summed over the replayed SAMs."""
    selfs = self_times(events)
    by_name = {}
    for e in events:
        by_name.setdefault(e["name"], []).append(e)

    def mean_ms(name, values=None):
        spans = by_name.get(name, [])
        return statistics.fmean(values or [e["dur"] for e in spans]) / 1e3

    runs = by_name["mapper.run"]
    out = {
        "io.parse_fastq_ms": mean_ms("io.parse_fastq"),
        "mapper.run_ms": mean_ms("mapper.run"),
        "mapper.prepare_ms": mean_ms("mapper.run", [selfs[e["args"]["id"]] for e in runs]),
        "store.acquire_ms": mean_ms("store.acquire"),
        "store.rollover_ms": mean_ms("store.rollover"),
        "build.sa_bwt_ms": mean_ms("build.sa_bwt"),
        "build.encode_ms": mean_ms("build.encode"),
    }
    # A stage that never ran in a request counts as zero time in it.
    for stage in ("pack", "search", "locate", "sam"):
        total = sum(e["dur"] for e in by_name.get(f"mapper.{stage}", []))
        out[f"mapper.{stage}_ms"] = total / len(runs) / 1e3
    info = by_name["store.info"][0]["args"]
    for section in ("text", "bwt", "occ", "sa", "kmer", "epr"):
        out[f"store.bytes_per_base.{section}"] = (
            info["sections"].get(section, 0) / info["text_length"])
    reads, mapped, lines = sam_counts
    out["mapper.hits_per_read"] = lines / reads
    out["mapper.mapped_frac"] = mapped / reads
    return out
