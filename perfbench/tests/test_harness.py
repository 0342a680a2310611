"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover perfbench/tests
"""

import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from harness import check, inputs, layers, loadgen, metrics, procfs  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_withheld_below_ten_samples_beyond(self):
        value, beyond = metrics.tail_percentile(list(range(90)), 0.9)
        self.assertIsNone(value)
        self.assertEqual(beyond, 9)

    def test_reported_with_ten_samples_beyond(self):
        value, beyond = metrics.tail_percentile(list(range(101)), 0.9)
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)

    def test_ties_at_the_percentile_do_not_count_as_beyond(self):
        value, beyond = metrics.tail_percentile([5.0] * 200, 0.9)
        self.assertIsNone(value)
        self.assertEqual(beyond, 0)

    def test_median_interpolates(self):
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 0.5), 2.5)


class FakeConnection:
    pass


class OpenLoop(unittest.TestCase):
    def test_latency_counts_from_due_time_and_a_stall_delays_later_clocks(self):
        stall_s = 0.3

        def send(conn, k):
            time.sleep(stall_s if k == 0 else 0.001)
            return True, 1, 1, ""

        # One connection, three requests due 50 ms apart: the first stalls,
        # so the others go out late and their latency includes the wait.
        outcomes, wall = loadgen.open_loop(FakeConnection, send, [0.0, 0.05, 0.1], 1)
        by_k = {o.k: o for o in outcomes}
        self.assertGreaterEqual(by_k[1].latency, stall_s - 0.05)
        self.assertGreaterEqual(by_k[2].latency, stall_s - 0.1)
        self.assertGreaterEqual(by_k[1].lateness, stall_s - 0.05 - 0.01)
        self.assertLess(by_k[1].done - by_k[1].sent, 0.1)
        self.assertGreaterEqual(wall, stall_s)

    def test_closed_loop_latency_counts_from_send(self):
        outcomes, _ = loadgen.closed_loop(FakeConnection, lambda c, k: (True, 1, 1, ""), 1, 0.05)
        self.assertTrue(all(o.start == o.sent for o in outcomes))

    def test_schedule_pins_count_and_ends(self):
        due = loadgen.poisson_schedule(1.4, 20, seed=7)
        self.assertEqual(len(due), 28)
        self.assertEqual((due[0], due[-1]), (0.0, 20.0))
        self.assertEqual(due, sorted(due))
        self.assertEqual(due, loadgen.poisson_schedule(1.4, 20, seed=7))
        self.assertNotEqual(due, loadgen.poisson_schedule(1.4, 20, seed=8))

    def test_transport_error_is_a_failed_request(self):
        def send(conn, k):
            raise ConnectionResetError("reset")

        outcomes = loadgen.fixed_list(FakeConnection, send, 1, 2)
        self.assertEqual([o.ok for o in outcomes], [False, False])
        self.assertIn("ConnectionResetError", outcomes[0].error)


def outcome(latency, ok=True, reads=10):
    return metrics.Outcome(0.0, 0.0, latency, ok, reads if ok else 0, 0)


class SloAndFailures(unittest.TestCase):
    def test_failures_count_as_slo_misses(self):
        outcomes = [outcome(0.1), outcome(0.1, ok=False), outcome(2.0), outcome(0.5)]
        self.assertEqual(metrics.slo_frac(outcomes), 0.5)
        self.assertEqual(metrics.fail_frac(outcomes), 0.25)

    def test_summary_counts_reads_of_correct_responses_only(self):
        s = metrics.summarize([outcome(0.1), outcome(0.2, ok=False)], wall_s=2.0)
        self.assertEqual((s["attempted"], s["failed"], s["reads"]), (2, 1, 10))
        self.assertEqual(s["reads_per_s"], 5.0)
        self.assertAlmostEqual(s["req_p50_ms"], 100.0)


class Proc(unittest.TestCase):
    STAT = ("4242 (bwaver serve) x) S 1 4242 4242 0 -1 4194560 2961 0 0 0 "
            "137 25 0 0 20 0 12 0 1234 1234567 456 18446744073709551615 ...")
    STATUS = "Name:\tbwaver\nVmPeak:\t  900 kB\nVmHWM:\t  553128 kB\nVmRSS:\t  551484 kB\n"

    def test_cpu_ticks_skip_a_command_name_with_spaces_and_parens(self):
        self.assertEqual(procfs.cpu_ticks(self.STAT), 137 + 25)

    def test_memory_fields(self):
        self.assertEqual(procfs.memory_kb(self.STATUS), {"VmHWM": 553128, "VmRSS": 551484})

    def test_steal_ticks(self):
        text = "cpu  10 0 20 300 4 0 1 77 0 0\ncpu0 1 0 2 3 4 0 0 7 0 0\n"
        self.assertEqual(procfs.steal_ticks(text), 77)

    def test_cpu_per_kread(self):
        self.assertEqual(metrics.cpu_ms_per_kread(200, 100, 4000), 500.0)

    def test_live_process_parses(self):
        pid = os.getpid()
        self.assertGreaterEqual(procfs.cpu_ticks(procfs.read(f"/proc/{pid}/stat")), 0)
        mem = procfs.memory_kb(procfs.read(f"/proc/{pid}/status"))
        self.assertGreaterEqual(mem["VmHWM"], mem["VmRSS"])


class Checks(unittest.TestCase):
    def setUp(self):
        self.truth = inputs.Truth(["a", "b", "c"], [(9, False), (20, True), None])
        self.header = b"@HD\tVN:1.6\n@SQ\tSN:r\tLN:100\n"

    def sam(self, *lines):
        return self.header + b"".join(line + b"\t*\t0\t0\t*\t*\n" for line in lines)

    def test_accepts_true_positions(self):
        sam = self.sam(b"a\t0\tr\t10\t60\t5M", b"b\t16\tr\t21\t60\t5M", b"c\t4\t*\t0\t0\t*")
        self.assertEqual(check.check_sam(sam, self.truth), "")

    def test_missing_read(self):
        sam = self.sam(b"a\t0\tr\t10\t60\t5M", b"c\t4\t*\t0\t0\t*")
        self.assertIn("2 reads listed", check.check_sam(sam, self.truth))

    def test_wrong_strand(self):
        sam = self.sam(b"a\t0\tr\t10\t60\t5M", b"b\t0\tr\t21\t60\t5M", b"c\t4\t*\t0\t0\t*")
        self.assertIn("not at its origin", check.check_sam(sam, self.truth))

    def test_capped_read_may_miss_its_origin(self):
        others = [b"a\t0\tr\t%d\t60\t5M" % p for p in range(50, 50 + check.HIT_CAP)]
        sam = self.sam(*others, b"b\t16\tr\t21\t60\t5M", b"c\t4\t*\t0\t0\t*")
        self.assertEqual(check.check_sam(sam, self.truth), "")

    def test_absent_read_must_be_unmapped(self):
        sam = self.sam(b"a\t0\tr\t10\t60\t5M", b"b\t16\tr\t21\t60\t5M", b"c\t0\tr\t3\t60\t5M")
        self.assertIn("absent read", check.check_sam(sam, self.truth))

    def test_requests_round_trip_through_the_check(self):
        import random

        genome = inputs.make_genome(inputs.Reference("t", 5000, 0.5, 3, 2, 100, (2, 3)))
        body, truth = inputs.make_request(genome, 50, random.Random(1), "q")
        self.assertEqual(body.count(b"\n+\n"), 50)
        self.assertEqual(len(truth.names), 50)
        for name, origin in zip(truth.names, truth.origins):
            if origin is not None:
                pos, reverse = origin
                seq = genome[pos:pos + inputs.READ_LEN]
                read = body.split(b"@" + name.encode() + b"\n")[1].split(b"\n")[0]
                self.assertEqual(read, inputs.revcomp(seq) if reverse else seq)


class SelfTimes(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        events = [
            {"name": "mapper.run", "dur": 100.0, "args": {"id": 1}},
            {"name": "mapper.search", "dur": 60.0, "args": {"id": 2, "parent": 1}},
            {"name": "mapper.sam", "dur": 10.0, "args": {"id": 3, "parent": 1}},
        ]
        self.assertEqual(metrics.self_times(events), {1: 30.0, 2: 60.0, 3: 10.0})

    def test_replay_layers(self):
        events = [
            {"name": "store.acquire", "dur": 4000.0, "args": {"id": 1}},
            {"name": "store.info", "dur": 0.0,
             "args": {"id": 2, "text_length": 100, "sections": {"sa": 400, "epr": 50}}},
            {"name": "io.parse_fastq", "dur": 1000.0, "args": {"id": 3}},
            {"name": "mapper.run", "dur": 10000.0, "args": {"id": 4}},
            {"name": "mapper.search", "dur": 6000.0, "args": {"id": 5, "parent": 4}},
            {"name": "store.rollover", "dur": 2000.0, "args": {"id": 6}},
            {"name": "build.sa_bwt", "dur": 3000.0, "args": {"id": 7}},
            {"name": "build.encode", "dur": 500.0, "args": {"id": 8}},
        ]
        out = layers.from_replay(events, (10, 9, 12))
        self.assertEqual(out["mapper.prepare_ms"], 4.0)
        self.assertEqual(out["mapper.search_ms"], 6.0)
        self.assertEqual(out["mapper.pack_ms"], 0.0)
        self.assertEqual(out["store.bytes_per_base.sa"], 4.0)
        self.assertEqual(out["store.bytes_per_base.kmer"], 0.0)
        self.assertEqual((out["mapper.hits_per_read"], out["mapper.mapped_frac"]), (1.2, 0.9))


if __name__ == "__main__":
    unittest.main()
