"""One `bwaver serve` process and the HTTP calls the benchmark makes to it."""

import ctypes
import http.client
import json
import re
import signal
import subprocess
import threading
import time

from . import procfs

PORT_LINE = re.compile(rb"http://127\.0\.0\.1:(\d+)/")
START_TIMEOUT_S = 120
# The server closes a keep-alive connection after 5 s idle; a connection idle
# for longer than this is reopened before it is used.
IDLE_REOPEN_S = 2.0


def serve_argv(binary, store_dir, trace):
    # One mapping worker with one thread: the server plus the load generator
    # then stay under four vCPUs, and a request's latency is its own work.
    return [binary, "serve", "--port", "0", "--store-dir", store_dir,
            "--engine", "epr", "--load-mode", "mmap", "--workers", "1",
            "--threads", "1", "--trace", "on" if trace else "off"]


_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def _die_with_parent():
    # A server outlives no benchmark that is killed.
    _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


class Server:
    """Spawns `bwaver serve`, learns its port from stdout, and stops it."""

    def __init__(self, binary, store_dir, trace, log_path):
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(serve_argv(binary, store_dir, trace),
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     preexec_fn=_die_with_parent)
        self.port = None
        self._lines = []
        self._ready = threading.Event()
        self._drain = threading.Thread(target=self._read_stdout, daemon=True)
        self._drain.start()

    def _read_stdout(self):
        for line in self.proc.stdout:
            self.log.write(line)
            if self.port is None:
                match = PORT_LINE.search(line)
                if match:
                    self.port = int(match.group(1))
                    self._ready.set()
        self._ready.set()

    def wait_port(self):
        self._ready.wait(START_TIMEOUT_S)
        if self.port is None:
            raise RuntimeError(f"bwaver serve did not report a port (exit {self.proc.poll()})")
        return self.port

    def stop(self):
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=10)
        self.proc.stdout.close()
        self.log.close()

    def cpu_ticks(self):
        return procfs.cpu_ticks(procfs.read(f"/proc/{self.proc.pid}/stat"))

    def memory_kb(self):
        return procfs.memory_kb(procfs.read(f"/proc/{self.proc.pid}/status"))

    def connect(self, timeout=60):
        return Connection(self.port, timeout)

    def get_json(self, path):
        conn = self.connect()
        try:
            status, body = conn.call("GET", path)
            if status != 200:
                raise RuntimeError(f"GET {path} -> {status}")
            return json.loads(body)
        finally:
            conn.close()


class Connection:
    """One keep-alive HTTP connection of the load generator."""

    def __init__(self, port, timeout):
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        self.last_used = 0.0

    def call(self, method, path, body=None):
        """(status, response bytes); raises on transport errors, after which
        the next call reconnects."""
        if time.perf_counter() - self.last_used > IDLE_REOPEN_S:
            self.http.close()
        try:
            self.http.request(method, path, body=body,
                              headers={"Content-Type": "application/octet-stream"})
            response = self.http.getresponse()
            data = response.read()
        except Exception:
            self.http.close()
            raise
        self.last_used = time.perf_counter()
        return response.status, data

    def close(self):
        self.http.close()


def post(conn, path, body):
    return conn.call("POST", path, body)


def stats_totals(stats):
    """Queue-wait and run-time sums and counts from GET /stats."""
    hist = stats["histograms"]
    return {
        "queue_wait_ms": hist["queue_wait_ms"]["sum_ms"],
        "queue_wait_n": hist["queue_wait_ms"]["count"],
        "run_ms": hist["map_time_ms"]["sum_ms"],
        "run_n": hist["map_time_ms"]["count"],
    }
