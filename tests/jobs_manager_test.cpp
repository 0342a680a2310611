#include "jobs/job_manager.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "fmindex/dna.hpp"
#include "mapper/map_service.hpp"
#include "mapper/pipeline.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"

namespace bwaver {
namespace {

using namespace std::chrono_literals;

JobManagerConfig small_config(std::size_t workers = 2, std::size_t capacity = 8) {
  JobManagerConfig config;
  config.workers = workers;
  config.queue_capacity = capacity;
  return config;
}

TEST(JobManager, CompletesAndRetainsResult) {
  JobManager manager(small_config());
  const auto id = manager.submit("ref", [](const CancelToken&) { return "payload"; });
  const JobRecord record = manager.wait(id);
  EXPECT_EQ(record.state, JobState::kDone);
  EXPECT_TRUE(record.has_result);
  EXPECT_EQ(manager.result(id).value(), "payload");
  EXPECT_EQ(manager.stats().completed.load(), 1u);
  EXPECT_EQ(manager.stats().queue_wait.count(), 1u);
  EXPECT_EQ(manager.stats().map_time.count(), 1u);
}

TEST(JobManager, TakeResultMovesThePayloadOutOnce) {
  JobManager manager(small_config());
  const auto id = manager.submit("t", [](const CancelToken&) { return std::string("sam"); });
  manager.wait(id);
  EXPECT_TRUE(manager.status(id)->has_result);
  EXPECT_EQ(manager.take_result(id).value(), "sam");
  // Taken: the job is still retained, done, and holds no payload.
  EXPECT_EQ(manager.status(id)->state, JobState::kDone);
  EXPECT_FALSE(manager.status(id)->has_result);
  EXPECT_EQ(manager.result(id), std::nullopt);
  EXPECT_EQ(manager.take_result(id), std::nullopt);
  EXPECT_EQ(manager.take_result(id + 1), std::nullopt);
}

TEST(JobManager, FinishedJobsStopHoldingTheirClosures) {
  // The closure owns a request's parsed reads; a retained terminal job must
  // keep only its result. Every terminal path drops it before wait() returns.
  JobManager manager(small_config(1));
  const auto held = std::make_shared<int>(7);

  const auto done = manager.submit(
      "ref", [held](const CancelToken&) { return std::to_string(*held); });
  EXPECT_EQ(manager.wait(done).state, JobState::kDone);
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(manager.result(done).value(), "7");

  const auto failed = manager.submit("ref", [held](const CancelToken&) -> std::string {
    throw std::runtime_error("boom " + std::to_string(*held));
  });
  EXPECT_EQ(manager.wait(failed).state, JobState::kFailed);
  EXPECT_EQ(held.use_count(), 1);

  // Cancelled and timed out while queued, behind a job pinning the worker.
  std::atomic<bool> release{false};
  const auto pin = manager.submit("ref", [&release](const CancelToken&) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
    return std::string{};
  });
  const auto cancelled =
      manager.submit("ref", [held](const CancelToken&) { return std::to_string(*held); });
  const auto expired = manager.submit(
      "ref", [held](const CancelToken&) { return std::to_string(*held); },
      JobPriority::kNormal, 1ms);
  EXPECT_EQ(held.use_count(), 3);
  ASSERT_TRUE(manager.cancel(cancelled));
  EXPECT_EQ(manager.wait(cancelled).state, JobState::kCancelled);
  EXPECT_EQ(held.use_count(), 2);
  std::this_thread::sleep_for(5ms);
  release.store(true);
  manager.wait(pin);
  EXPECT_EQ(manager.wait(expired).state, JobState::kTimedOut);
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(manager.retained(), 5u);
}

TEST(JobManager, FailureIsTypedAndCarriesError) {
  JobManager manager(small_config());
  const auto id = manager.submit("ref", [](const CancelToken&) -> std::string {
    throw std::runtime_error("engine exploded");
  });
  const JobRecord record = manager.wait(id);
  EXPECT_EQ(record.state, JobState::kFailed);
  EXPECT_EQ(record.error, "engine exploded");
  EXPECT_EQ(manager.result(id), std::nullopt);
  EXPECT_EQ(manager.stats().failed.load(), 1u);
}

TEST(JobManager, CancelMidRunIsCooperative) {
  JobManager manager(small_config(1));
  std::atomic<bool> started{false};
  const auto id = manager.submit("ref", [&started](const CancelToken& cancel) {
    started.store(true);
    while (true) {
      cancel.throw_if_stopped();
      std::this_thread::sleep_for(1ms);
    }
    return std::string{};
  });
  while (!started.load()) std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(manager.cancel(id));
  const JobRecord record = manager.wait(id);
  EXPECT_EQ(record.state, JobState::kCancelled);
  EXPECT_EQ(manager.stats().cancelled.load(), 1u);
}

TEST(JobManager, CancelWhileQueuedNeverRuns) {
  // One worker pinned by a slow job; the second job is cancelled while it
  // is still queued and must transition without ever executing.
  JobManager manager(small_config(1));
  std::atomic<bool> release{false};
  std::atomic<bool> second_ran{false};
  manager.submit("ref", [&release](const CancelToken&) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
    return std::string{};
  });
  const auto id = manager.submit("ref", [&second_ran](const CancelToken&) {
    second_ran.store(true);
    return std::string{};
  });
  EXPECT_TRUE(manager.cancel(id));
  EXPECT_EQ(manager.status(id)->state, JobState::kCancelled);
  release.store(true);
  const JobRecord record = manager.wait(id);
  EXPECT_EQ(record.state, JobState::kCancelled);
  EXPECT_FALSE(second_ran.load());
  EXPECT_FALSE(manager.cancel(id)) << "cancel of a terminal job must return false";
}

TEST(JobManager, TimeoutMidRunBecomesTimedOut) {
  JobManager manager(small_config(1));
  const auto id = manager.submit(
      "ref",
      [](const CancelToken& cancel) {
        while (true) {
          cancel.throw_if_stopped();
          std::this_thread::sleep_for(1ms);
        }
        return std::string{};
      },
      JobPriority::kNormal, 50ms);
  const JobRecord record = manager.wait(id);
  EXPECT_EQ(record.state, JobState::kTimedOut);
  EXPECT_EQ(manager.stats().timed_out.load(), 1u);
}

TEST(JobManager, DeadlineSpentQueuedTimesOutWithoutRunning) {
  JobManager manager(small_config(1));
  std::atomic<bool> release{false};
  std::atomic<bool> victim_ran{false};
  manager.submit("ref", [&release](const CancelToken&) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
    return std::string{};
  });
  const auto id = manager.submit(
      "ref",
      [&victim_ran](const CancelToken&) {
        victim_ran.store(true);
        return std::string{};
      },
      JobPriority::kNormal, 30ms);
  std::this_thread::sleep_for(60ms);
  release.store(true);
  const JobRecord record = manager.wait(id);
  EXPECT_EQ(record.state, JobState::kTimedOut);
  EXPECT_FALSE(victim_ran.load());
}

TEST(JobManager, PriorityJobsJumpTheQueue) {
  JobManager manager(small_config(1, 8));
  std::atomic<bool> release{false};
  std::vector<int> order;
  std::mutex order_mutex;
  manager.submit("ref", [&release](const CancelToken&) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
    return std::string{};
  });
  const auto record_order = [&order, &order_mutex](int tag) {
    std::lock_guard<std::mutex> lock(order_mutex);
    order.push_back(tag);
  };
  const auto low = manager.submit(
      "ref", [&](const CancelToken&) { record_order(0); return std::string{}; },
      JobPriority::kLow);
  const auto high = manager.submit(
      "ref", [&](const CancelToken&) { record_order(1); return std::string{}; },
      JobPriority::kHigh);
  release.store(true);
  manager.wait(low);
  manager.wait(high);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1) << "high-priority job must run before the earlier low one";
}

TEST(JobManager, QueueFullRejectionIsCountedAndTyped) {
  JobManager manager(small_config(1, 1));
  std::atomic<bool> release{false};
  const auto pin = manager.submit("ref", [&release](const CancelToken&) {
    while (!release.load()) std::this_thread::sleep_for(1ms);
    return std::string{};
  });
  // The pin must be off the queue and on the worker before the accounting
  // below, or all three submissions could be rejected.
  while (manager.status(pin)->state != JobState::kRunning) {
    std::this_thread::sleep_for(1ms);
  }
  // Fill the single queue slot, then overflow it.
  std::uint64_t queued = 0;
  std::size_t rejections = 0;
  for (int i = 0; i < 3; ++i) {
    try {
      queued = manager.submit("ref", [](const CancelToken&) { return std::string{}; });
    } catch (const QueueFull&) {
      ++rejections;
    }
  }
  EXPECT_EQ(rejections, 2u);
  EXPECT_EQ(manager.stats().rejected_full.load(), 2u);
  release.store(true);
  manager.wait(queued);
}

// Satellite requirement: > queue-capacity submissions from many threads
// with exact accept/reject accounting, through the manager (not just the
// bare queue).
TEST(JobManager, ConcurrentSubmitStressExactAccounting) {
  JobManagerConfig config = small_config(4, 16);
  config.max_retained = 100000;  // keep every terminal job waitable
  JobManager manager(config);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 200;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> executed{0};
  std::vector<std::thread> submitters;
  std::mutex ids_mutex;
  std::vector<std::uint64_t> ids;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        try {
          const auto id = manager.submit("ref", [&executed](const CancelToken&) {
            executed.fetch_add(1);
            return std::string{};
          });
          accepted.fetch_add(1);
          std::lock_guard<std::mutex> lock(ids_mutex);
          ids.push_back(id);
        } catch (const QueueFull&) {
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();

  EXPECT_EQ(accepted.load() + rejected.load(), kThreads * kPerThread);
  EXPECT_EQ(manager.stats().submitted.load(), accepted.load());
  EXPECT_EQ(manager.stats().rejected_full.load(), rejected.load());

  for (const auto id : ids) {
    const JobRecord record = manager.wait(id);
    EXPECT_EQ(record.state, JobState::kDone);
  }
  EXPECT_EQ(executed.load(), accepted.load());
  EXPECT_EQ(manager.stats().completed.load(), accepted.load());
  // Ids are unique and dense.
  std::set<std::uint64_t> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), ids.size());
}

TEST(JobManager, RetentionGcDropsOldTerminalJobs) {
  JobManagerConfig config = small_config(2, 8);
  config.retention = 0ms;  // terminal jobs are immediately collectable
  JobManager manager(config);
  const auto id = manager.submit("ref", [](const CancelToken&) { return "x"; });
  manager.wait(id);
  // The next submit sweeps the finished job away.
  const auto id2 = manager.submit("ref", [](const CancelToken&) { return "y"; });
  manager.wait(id2);
  EXPECT_EQ(manager.status(id), std::nullopt) << "terminal job must be GC'd";
}

TEST(JobManager, MaxRetainedCapEvictsOldestTerminal) {
  JobManagerConfig config = small_config(1, 64);
  config.max_retained = 3;
  JobManager manager(config);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    const auto id = manager.submit("ref", [](const CancelToken&) { return "x"; });
    manager.wait(id);
    ids.push_back(id);
  }
  manager.submit("ref", [](const CancelToken&) { return "x"; });  // triggers GC
  EXPECT_LE(manager.retained(), config.max_retained + 1);  // +1 for the live job
  EXPECT_EQ(manager.status(ids.front()), std::nullopt);
}

TEST(JobManager, ShutdownDrainsAcceptedWork) {
  std::atomic<std::uint64_t> executed{0};
  {
    JobManager manager(small_config(2, 32));
    for (int i = 0; i < 20; ++i) {
      manager.submit("ref", [&executed](const CancelToken&) {
        executed.fetch_add(1);
        return std::string{};
      });
    }
    manager.shutdown();
    EXPECT_THROW(
        manager.submit("ref", [](const CancelToken&) { return std::string{}; }),
        std::runtime_error);
  }
  EXPECT_EQ(executed.load(), 20u) << "accepted jobs must run before shutdown returns";
}

// ------------------------------------------------ cancellation in map_service

class MapCancellationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GenomeSimConfig genome_config;
    genome_config.length = 30000;
    genome_config.seed = 11;
    const auto genome = simulate_genome(genome_config);
    pipeline_.build_from_sequence("cancel_ref", dna_decode_string(genome));

    ReadSimConfig read_config;
    read_config.num_reads = 5000;  // several cancellable chunks
    read_config.read_length = 36;
    const auto reads = simulate_reads(genome, read_config);
    records_ = reads_to_fastq(reads);
  }

  Pipeline pipeline_{PipelineConfig{}};
  std::vector<FastqRecord> records_;
};

TEST_F(MapCancellationTest, PreCancelledTokenAbortsBeforeMapping) {
  CancelToken cancel;
  cancel.request_cancel();
  EXPECT_THROW(map_records_over(*pipeline_.stored(), PipelineConfig{}, records_, nullptr,
                                &cancel),
               OperationCancelled);
}

TEST_F(MapCancellationTest, ExpiredDeadlineAbortsMapping) {
  CancelToken cancel;
  cancel.set_deadline(std::chrono::steady_clock::now() - 1ms);
  EXPECT_THROW(map_records_over(*pipeline_.stored(), PipelineConfig{}, records_, nullptr,
                                &cancel),
               OperationCancelled);
}

TEST_F(MapCancellationTest, CancellationMidMapThroughJobManager) {
  JobManager manager(JobManagerConfig{.workers = 1, .queue_capacity = 4});
  std::atomic<bool> started{false};
  const auto id = manager.submit("cancel_ref", [&](const CancelToken& cancel) {
    started.store(true);
    // Loop the whole batch so the job is guaranteed to still be inside
    // map_records_over whenever the cancel lands.
    for (;;) {
      const auto outcome =
          map_records_over(*pipeline_.stored(), PipelineConfig{}, records_, nullptr, &cancel);
      (void)outcome;
    }
    return std::string{};
  });
  while (!started.load()) std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(5ms);  // let it get into the map
  ASSERT_TRUE(manager.cancel(id));
  const JobRecord record = manager.wait(id);
  EXPECT_EQ(record.state, JobState::kCancelled);
}

TEST_F(MapCancellationTest, NullTokenMapsIdenticallyToTokenised) {
  // The chunked (cancellable) execution path must produce byte-identical
  // SAM to the single-batch path.
  CancelToken cancel;  // never triggered
  const auto plain = map_records_over(*pipeline_.stored(), PipelineConfig{}, records_);
  const auto chunked =
      map_records_over(*pipeline_.stored(), PipelineConfig{}, records_, nullptr, &cancel);
  EXPECT_EQ(plain.sam, chunked.sam);
  EXPECT_EQ(plain.reads, chunked.reads);
  EXPECT_EQ(plain.mapped, chunked.mapped);
  EXPECT_EQ(plain.occurrences, chunked.occurrences);
}

}  // namespace
}  // namespace bwaver
