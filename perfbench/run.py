#!/usr/bin/env python3
"""Served-request benchmark of `bwaver serve` (see perfbench/README.md).

    python3 perfbench/run.py --workload ecoli_bulk --seed 1 --seconds 25 --trace 0

Run from the root of a source tree. It builds `bwaver` (Release) under
.bench_build/, indexes the workload's reference with the commit's own
`bwaver index build`, serves a pristine copy of that store with one mapping
worker and drives it over HTTP. Every response is checked. Human-readable
lines go first; the last line of stdout is one JSON object with the
end-to-end metrics (--trace 0) or the per-layer metrics of a traced run and
a layer replay (--trace 1). Exit 0 when every check passed, 1 when one
failed, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

from harness import build, check, inputs, layers, loadgen, metrics, procfs, server
from harness.host import Noise


class Workload:
    def __init__(self, name, ref, reads, pool, conns, warmup, rate=None, rollover=False):
        self.name = name
        self.ref = ref
        self.reads = reads  # reads per request
        self.pool = pool  # distinct request bodies per seed
        self.conns = conns  # load-generator connections for mapping
        self.warmup = warmup  # fixed request list sent before the window
        self.rate = rate  # open-loop arrivals per second; None: closed loop
        self.rollover = rollover  # POST /admin/rollover beside the mapping


WORKLOADS = {w.name: w for w in (
    # Per-read work dominates: two connections keep the one worker busy.
    Workload("ecoli_bulk", inputs.ECOLI, reads=20_000, pool=6, conns=2, warmup=8),
    # Fixed per-request cost dominates: ~30% of one worker, Poisson arrivals.
    Workload("chr21_interactive", inputs.CHR21, reads=1_000, pool=32, conns=3, warmup=4,
             rate=1.4),
    # Writes beside reads: back-to-back rollovers next to a mapping loop.
    Workload("ecoli_rollover", inputs.ECOLI, reads=5_000, pool=8, conns=1, warmup=8,
             rollover=True),
)}

SETUP_TRIALS = 5

# name -> unit, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "reads_per_s": "reads/s",
    "req_p50_ms": "ms",
    "slo_frac": "frac",
    "server_cpu_ms_per_kread": "ms/kread",
    "peak_rss_mb": "MB",
    "archive_bytes_per_base": "B/base",
}


class CheckFailed(Exception):
    pass


def say(line):
    print(line, flush=True)


class Mapper:
    """Sends pool bodies to POST /map and checks every response. A response
    byte-identical to an already verified one for the same body is verified."""

    def __init__(self, pool, ref_name):
        self.pool = pool
        self.path = f"/map?ref={ref_name}"
        self.verified = {}

    def send(self, conn, k):
        i = k % len(self.pool)
        body, truth = self.pool[i]
        status, sam = server.post(conn, self.path, body)
        if status != 200:
            return False, 0, 0, f"HTTP {status}: {sam[:100]!r}"
        if self.verified.get(i) != sam:
            error = check.check_sam(sam, truth)
            if error:
                return False, 0, 0, error
            self.verified[i] = sam
        return True, len(truth.names), len(sam), ""


def listing(srv, ref_name):
    """The server's GET /references entry for `ref_name`."""
    for entry in srv.get_json("/references"):
        if entry["name"] == ref_name:
            return entry
    raise CheckFailed(f"reference {ref_name} not listed")


class Rollovers:
    """Back-to-back POST /admin/rollover of the served reference on its own
    connection; each must answer 200 with the next generation."""

    def __init__(self, srv, ref_name, fasta):
        self.srv = srv
        self.path = f"/admin/rollover?ref={ref_name}"
        self.fasta = fasta
        self.generation = listing(srv, ref_name)["generation"]
        self.outcomes = []

    def one(self, conn):
        sent = time.perf_counter()
        try:
            status, body = server.post(conn, self.path, self.fasta)
            ok = status == 200 and json.loads(body)["generation"] == self.generation + 1
            error = "" if ok else f"HTTP {status}: {body[:100]!r}"
        except Exception as exc:
            ok, error = False, f"{type(exc).__name__}: {exc}"
        if ok:
            self.generation += 1
        self.outcomes.append(metrics.Outcome(sent, sent, time.perf_counter(), ok, 0, 0, error))

    def loop(self, deadline):
        conn = self.srv.connect(timeout=170)
        while time.perf_counter() < deadline:
            self.one(conn)
        conn.close()


class Run:
    def __init__(self, wl, seed, seconds, binary, run_dir, pristine, fasta_path, genome):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.binary = binary
        self.run_dir = run_dir
        self.pristine = pristine
        self.fasta_path = fasta_path
        self.genome = genome
        self.pool = inputs.request_pool(genome, wl.pool, wl.reads, seed, wl.name)
        self.stores = 0

    def fresh_store(self):
        self.stores += 1
        dest = os.path.join(self.run_dir, f"store{self.stores}")
        shutil.copytree(self.pristine, dest)
        return dest

    def path(self, name):
        return os.path.join(self.run_dir, name)

    def setup(self, store):
        """SETUP_TRIALS timed boots: spawn to the first correct one-read
        /map. The last server stays up and serves the window."""
        one_body, one_truth = inputs.make_request(
            self.genome, 1, random.Random(f"setup:{self.seed}"), "setup")
        times = []
        for trial in range(SETUP_TRIALS):
            start = time.perf_counter()
            srv = server.Server(self.binary, store, False, self.path("serve.log"))
            try:
                srv.wait_port()
                conn = srv.connect()
                status, sam = server.post(conn, f"/map?ref={self.wl.ref.name}", one_body)
                conn.close()
            except Exception:
                srv.stop()
                raise
            times.append(time.perf_counter() - start)
            error = check.check_sam(sam, one_truth) if status == 200 else f"HTTP {status}"
            if error:
                srv.stop()
                raise CheckFailed(f"setup map: {error}")
            if trial + 1 < SETUP_TRIALS:
                srv.stop()
        return times, srv

    def warmup(self, srv, mapper, fasta):
        """The fixed request list every run sends first. Retained jobs make
        the server's RSS grow with each request, so peak RSS is read here,
        after the same number of requests in every run."""
        conns = self.wl.conns if self.wl.rate is None else 1
        outcomes = loadgen.fixed_list(srv.connect, mapper.send, conns, self.wl.warmup)
        if self.wl.rollover:
            rollovers = Rollovers(srv, self.wl.ref.name, fasta)
            conn = srv.connect(timeout=170)
            rollovers.one(conn)
            conn.close()
            outcomes += rollovers.outcomes
        bad = [o.error for o in outcomes if not o.ok]
        if bad:
            raise CheckFailed(f"warm-up: {bad[0]}")
        return srv.memory_kb()["VmHWM"]

    def window(self, srv, mapper, fasta):
        """The measured window. Returns (map outcomes, wall s, rollovers)."""
        rollovers = None
        rollover_thread = None
        if self.wl.rollover:
            rollovers = Rollovers(srv, self.wl.ref.name, fasta)
            rollover_thread = threading.Thread(
                target=rollovers.loop, args=(time.perf_counter() + self.seconds,))
            rollover_thread.start()
        if self.wl.rate is None:
            outcomes, wall = loadgen.closed_loop(srv.connect, mapper.send, self.wl.conns,
                                                 self.seconds, first=self.wl.warmup)
        else:
            due = loadgen.poisson_schedule(self.wl.rate, self.seconds, self.seed)
            outcomes, wall = loadgen.open_loop(srv.connect, mapper.send, due, self.wl.conns,
                                               first=self.wl.warmup)
        if rollover_thread is not None:
            rollover_thread.join()
        return outcomes, wall, rollovers

    def untraced(self, fasta):
        store = self.fresh_store()
        try:
            setup_times, srv = self.setup(store)
            try:
                mapper = Mapper(self.pool, self.wl.ref.name)
                peak_kb = self.warmup(srv, mapper, fasta)
                ticks = srv.cpu_ticks()
                outcomes, wall, rollovers = self.window(srv, mapper, fasta)
                ticks = srv.cpu_ticks() - ticks
                if rollovers:
                    archive = listing(srv, self.wl.ref.name)["archive_bytes"]
            finally:
                srv.stop()
        finally:
            shutil.rmtree(store)
        summary = metrics.summarize(outcomes, wall)
        if summary["req_p50_ms"] is None:
            raise CheckFailed(f"no correct response in the window: {outcomes[0].error}")
        summary["setup_times"] = setup_times
        summary["peak_rss_mb"] = peak_kb / 1024
        summary["server_cpu_ms_per_kread"] = metrics.cpu_ms_per_kread(
            ticks, procfs.CLK_TCK, summary["reads"])
        summary["rollovers"] = []
        if rollovers:
            summary["rollovers"] = rollovers.outcomes
            summary["rolled_archive_bytes"] = archive
        return summary, outcomes

    def traced(self, fasta, untraced_p50_ms, replay_binary):
        """The traced window plus the layer replay; returns (per-layer
        metrics, requests attempted, failed checks, trace events)."""
        store = self.fresh_store()
        try:
            srv = server.Server(self.binary, store, True, self.path("serve-traced.log"))
            try:
                srv.wait_port()
                mapper = Mapper(self.pool, self.wl.ref.name)
                self.warmup(srv, mapper, fasta)
                stats_before = server.stats_totals(srv.get_json("/stats"))
                rss_before = srv.memory_kb()["VmRSS"]
                t_origin = time.perf_counter()
                outcomes, wall, rollovers = self.window(srv, mapper, fasta)
                rss_after = srv.memory_kb()["VmRSS"]
                stats_after = server.stats_totals(srv.get_json("/stats"))
            finally:
                srv.stop()
        finally:
            shutil.rmtree(store)
        summary = metrics.summarize(outcomes, wall)
        if summary["req_p50_ms"] is None:
            raise CheckFailed(f"no correct response in the traced window: {outcomes[0].error}")
        writes = rollovers.outcomes if rollovers else []
        attempted = summary["attempted"] + len(writes)
        failed = summary["failed"] + sum(1 for o in writes if not o.ok)
        per_layer = layers.from_http(summary, untraced_p50_ms, stats_before, stats_after,
                                     rss_before, rss_after)
        events = http_events(outcomes, rollovers, t_origin)
        if replay_binary is None:
            say("layer replay: did not build; its per-layer metrics are missing")
            return per_layer, attempted, failed, events
        replay_events, mismatches, counts = self.replay(replay_binary, mapper)
        failed += mismatches
        per_layer.update(layers.from_replay(replay_events, counts))
        return per_layer, attempted, failed, events + replay_events

    def replay(self, replay_binary, mapper):
        replay_dir = self.path("replay")
        os.makedirs(replay_dir)
        lines = []
        counts = [0, 0, 0]
        for i, sam in sorted(mapper.verified.items()):
            body_path = os.path.join(replay_dir, f"b{i}.fq")
            sam_path = os.path.join(replay_dir, f"b{i}.sam")
            with open(body_path, "wb") as f:
                f.write(self.pool[i][0])
            with open(sam_path, "wb") as f:
                f.write(sam)
            lines.append(f"{body_path}\t{sam_path}\n")
            counts = [a + b for a, b in zip(counts, check.sam_counts(sam))]
        listing = os.path.join(replay_dir, "requests.tsv")
        with open(listing, "w") as f:
            f.writelines(lines)
        store = self.fresh_store()
        out_path = os.path.join(replay_dir, "trace.json")
        try:
            proc = subprocess.run(
                [replay_binary, "--store", store, "--ref", self.wl.ref.name,
                 "--fasta", self.fasta_path, "--requests", listing, "--out", out_path],
                capture_output=True, text=True, timeout=150)
        finally:
            shutil.rmtree(store)
        say(f"layer replay: {proc.stdout.strip()} {proc.stderr.strip()}".rstrip())
        if proc.returncode not in (0, 3):
            raise RuntimeError(f"layer replay failed with exit {proc.returncode}")
        with open(out_path) as f:
            events = json.load(f)
        for name in os.listdir(replay_dir):
            if name.endswith((".fq", ".sam")):
                os.remove(os.path.join(replay_dir, name))
        mismatches = sum(1 for e in events
                         if e["name"] == "mapper.run" and not e["args"]["sam_identical"])
        return events, mismatches, counts


def http_events(outcomes, rollovers, t_origin):
    """One Chrome trace event per HTTP call of the traced window."""
    events = []
    calls = [("http.map", o) for o in outcomes]
    calls += [("http.rollover", o) for o in (rollovers.outcomes if rollovers else [])]
    for n, (name, o) in enumerate(sorted(calls, key=lambda c: c[1].sent)):
        events.append({
            "name": name, "ph": "X", "pid": 1, "tid": o.lane + (100 if name == "http.rollover" else 1),
            "ts": (o.sent - t_origin) * 1e6, "dur": (o.done - o.sent) * 1e6,
            "args": {"id": n + 1, "request": o.k, "ok": o.ok,
                     "late_ms": (o.sent - o.start) * 1e3},
        })
    return events


def pristine_store(binary, work, ref, fasta_path):
    """The store this binary builds for `ref`, built once per binary.
    Stores of other binaries are deleted, never reused."""
    tag = build.file_digest(binary)
    stores = os.path.join(work, "stores")
    path = os.path.join(stores, f"{tag}-{ref.key()}")
    if os.path.isdir(path):
        return path, 0.0
    os.makedirs(stores, exist_ok=True)
    for name in os.listdir(stores):
        if name.endswith(ref.key()):
            shutil.rmtree(os.path.join(stores, name))
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    start = time.perf_counter()
    subprocess.run([binary, "index", "build", "--ref", fasta_path, "--store-dir", tmp,
                    "--name", ref.name], check=True, capture_output=True, timeout=600)
    elapsed = time.perf_counter() - start
    os.rename(tmp, path)
    return path, elapsed


def archive_bytes_per_base(store, ref):
    archives = [n for n in os.listdir(store) if n.endswith(".bwva")]
    if len(archives) != 1:
        raise RuntimeError(f"expected one archive in {store}, found {archives}")
    return os.path.getsize(os.path.join(store, archives[0])) / ref.length


def emit(correct, attempted, failed, values, units):
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    work = os.path.join(root, ".bench_build")
    os.makedirs(work, exist_ok=True)
    noise = Noise()

    binary, build_dir = build.bwaver(root, work)
    genome, fasta_path, fasta_digest = inputs.cached_reference(wl.ref, os.path.join(work, "inputs"))
    with open(fasta_path, "rb") as f:
        fasta = f.read()
    pristine, index_s = pristine_store(binary, work, wl.ref, fasta_path)
    run_dir = os.path.join(work, "runs", f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    run = Run(wl, args.seed, args.seconds, binary, run_dir, pristine, fasta_path, genome)
    say(f"workload {wl.name} seed {args.seed}: {wl.ref.name} {wl.ref.length} bp "
        f"(fasta {fasta_digest}), {wl.pool} bodies x {wl.reads} reads "
        f"(reads {inputs.pool_digest(run.pool)}), bwaver {build.file_digest(binary)}"
        + (f", store built in {index_s:.1f} s" if index_s else ""))

    untraced, outcomes = run.untraced(fasta)
    failed = untraced["failed"] + sum(1 for o in untraced["rollovers"] if not o.ok)
    attempted = untraced["attempted"] + len(untraced["rollovers"])
    for o in outcomes + untraced["rollovers"]:
        if not o.ok:
            say(f"FAILED request {o.k}: {o.error}")
            break
    values = {
        "setup_s": statistics.median(untraced["setup_times"]),
        "reads_per_s": untraced["reads_per_s"],
        "req_p50_ms": untraced["req_p50_ms"],
        "slo_frac": untraced["slo_frac"],
        "server_cpu_ms_per_kread": untraced["server_cpu_ms_per_kread"],
        "peak_rss_mb": untraced["peak_rss_mb"],
        "archive_bytes_per_base": archive_bytes_per_base(pristine, wl.ref),
    }
    report(wl, untraced, values)

    if args.trace:
        replay_binary = build.replay(root, work, build_dir)
        per_layer, traced_attempted, traced_failed, events = run.traced(
            fasta, untraced["req_p50_ms"], replay_binary)
        attempted += traced_attempted
        failed += traced_failed
        with open(os.path.join(run_dir, "trace.json"), "w") as f:
            json.dump(events, f)
        for name, unit in layers.PER_LAYER.items():
            if name in per_layer:
                say(f"{name:32s} {per_layer[name]:14.4f} {unit}")
        units = {k: u for k, u in layers.PER_LAYER.items() if k in per_layer}
        values = per_layer
    else:
        units = END_TO_END

    host = noise.finish()
    say("host: " + json.dumps(host))
    with open(os.path.join(run_dir, "host.json"), "w") as f:
        json.dump(host, f)
    correct = failed == 0
    emit(correct, attempted, failed, values, units)
    return 0 if correct else 1


def report(wl, s, values):
    for name, unit in END_TO_END.items():
        say(f"{name:32s} {values[name]:14.4f} {unit}")
    p90 = (f"{s['req_p90_ms']:.4f} ms" if s["req_p90_ms"] is not None
           else "withheld (fewer than 10 samples beyond it)")
    say(f"{'req_p90_ms':32s} {p90}, {s['p90_beyond']} of {s['samples']} samples beyond it")
    say(f"{'fail_frac':32s} {s['fail_frac']:14.4f} frac ({s['failed']} of {s['attempted']})")
    if wl.rollover:
        durations = [o.done - o.sent for o in s["rollovers"] if o.ok]
        say(f"{'rollover_s':32s} {statistics.median(durations):14.4f} s "
            f"(median of {len(durations)})" if durations else "rollover_s: no rollover finished")
        say(f"archive after rollover: {s['rolled_archive_bytes']} bytes "
            f"({s['rolled_archive_bytes'] / wl.ref.length:.2f} B/base)")
    if wl.rate is not None:
        say(f"generator lateness: p50 {s['late_p50_ms']:.2f} ms, max {s['late_max_ms']:.2f} ms")
    say(f"setup trials (s): {' '.join(f'{t:.4f}' for t in s['setup_times'])}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        sys.exit(1)
    except Exception as exc:  # no result: the benchmark could not run
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
