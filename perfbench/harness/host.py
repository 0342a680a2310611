"""Host noise recorded beside each run, so a noisy window can be told from a
regression. None of it is a benchmark metric."""

import os
import time

from . import procfs

FLAGS_OF_INTEREST = ("avx2", "avx512f", "avx512bw", "bmi2", "popcnt", "sse4_2")


def cpu_probe_ms():
    """Wall time of a fixed pure-Python loop; a slow host reads high."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return (time.perf_counter() - start) * 1e3


class Noise:
    def __init__(self):
        self.probe_before_ms = cpu_probe_ms()
        self.steal_before = procfs.steal_ticks(procfs.read("/proc/stat"))
        self.loadavg = os.getloadavg()
        self.t0 = time.perf_counter()

    def finish(self):
        flags = procfs.cpu_flags(procfs.read("/proc/cpuinfo"))
        return {
            "probe_before_ms": round(self.probe_before_ms, 2),
            "probe_after_ms": round(cpu_probe_ms(), 2),
            "steal_ticks": procfs.steal_ticks(procfs.read("/proc/stat")) - self.steal_before,
            "seconds": round(time.perf_counter() - self.t0, 1),
            "loadavg": [round(x, 2) for x in self.loadavg],
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_flags": [f for f in FLAGS_OF_INTEREST if f in flags],
        }
