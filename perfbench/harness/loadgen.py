"""Closed- and open-loop load generators over a few keep-alive connections."""

import random
import threading
import time

from .metrics import Outcome


class _Counter:
    def __init__(self, first=0):
        self.lock = threading.Lock()
        self.next = first
        self.outcomes = []

    def take(self):
        with self.lock:
            k = self.next
            self.next += 1
            return k

    def record(self, outcome):
        with self.lock:
            self.outcomes.append(outcome)


def wait_until(deadline):
    delay = deadline - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _drive(make_conn, n_conn, body):
    threads = [threading.Thread(target=body, args=(make_conn(), lane)) for lane in range(n_conn)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def _timed(send, conn, k, lane, due=None):
    sent = time.perf_counter()
    try:
        ok, reads, nbytes, error = send(conn, k)
    except Exception as exc:  # a transport error is a failed request
        ok, reads, nbytes, error = False, 0, 0, f"{type(exc).__name__}: {exc}"
    return Outcome(sent if due is None else due, sent, time.perf_counter(),
                   ok, reads, nbytes, error, lane, k)


def closed_loop(make_conn, send, n_conn, seconds, first=0):
    """Each connection sends its next request when the previous one returns,
    until `seconds` have passed; requests are numbered from `first`.
    Returns (outcomes, wall seconds from start to the last response)."""
    state = _Counter(first)
    t0 = time.perf_counter()
    deadline = t0 + seconds

    def body(conn, lane):
        while time.perf_counter() < deadline:
            state.record(_timed(send, conn, state.take(), lane))

    _drive(make_conn, n_conn, body)
    return state.outcomes, max(o.done for o in state.outcomes) - t0


def fixed_list(make_conn, send, n_conn, count):
    """Sends requests 0..count-1 in a closed loop (the warm-up list)."""
    state = _Counter()

    def body(conn, lane):
        while (k := state.take()) < count:
            state.record(_timed(send, conn, k, lane))

    _drive(make_conn, n_conn, body)
    return state.outcomes


def poisson_schedule(rate, seconds, seed):
    """Due offsets of a Poisson process of `rate` over [0, seconds],
    conditioned on round(rate * seconds) arrivals with the first at 0 and the
    last at `seconds`: the others are sorted uniform points. Pinning the count
    and the ends keeps the offered load and the window equal across seeds."""
    rng = random.Random(f"arrivals:{seed}")
    n = max(2, round(rate * seconds))
    return [0.0] + sorted(rng.uniform(0.0, seconds) for _ in range(n - 2)) + [float(seconds)]


def open_loop(make_conn, send, due_offsets, n_conn, first=0, lead_s=0.05):
    """Request k is due at start + due_offsets[k] and goes out on the first
    free connection. Latency counts from the due time, so a stall that holds
    every connection delays the clocks of the requests behind it.
    Returns (outcomes, wall seconds from start to the last response)."""
    state = _Counter()
    t0 = time.perf_counter() + lead_s

    def body(conn, lane):
        while (k := state.take()) < len(due_offsets):
            due = t0 + due_offsets[k]
            wait_until(due)
            state.record(_timed(send, conn, first + k, lane, due))

    _drive(make_conn, n_conn, body)
    return state.outcomes, max(o.done for o in state.outcomes) - t0
