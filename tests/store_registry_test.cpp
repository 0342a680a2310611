// IndexRegistry tests: manifest persistence across registry instances, LRU
// eviction under a memory budget, handle validity across eviction, the
// staged install (the handle served is the archive read back; a failed
// install changes nothing), and the headline concurrency guarantee — many
// threads mapping against two references while a third is being evicted and
// reloaded.
#include "store/index_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "fmindex/dna.hpp"
#include "io/byte_io.hpp"
#include "mapper/map_service.hpp"
#include "mapper/pipeline.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"

#include "test_temp_dir.hpp"

namespace bwaver {
namespace {

/// Builds a complete single-sequence index the way the web service does.
StoredIndex build_stored(const std::string& name,
                         const std::vector<std::uint8_t>& genome) {
  ReferenceSet reference;
  reference.add(name, genome);
  return build_stored_index(std::move(reference), PipelineConfig{});
}

std::vector<std::uint8_t> make_genome(std::size_t length, std::uint64_t seed) {
  GenomeSimConfig config;
  config.length = length;
  config.seed = seed;
  return simulate_genome(config);
}

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_test_dir("bwaver_store_registry_test");
    store_ = (dir_ / "store").string();
    genome_a_ = make_genome(30000, 41);
    genome_b_ = make_genome(20000, 43);
    genome_c_ = make_genome(15000, 47);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string store_;
  std::vector<std::uint8_t> genome_a_, genome_b_, genome_c_;
};

TEST_F(RegistryTest, AddPersistsAndReloadsThroughManifest) {
  {
    IndexRegistry registry(store_);
    registry.add("alpha", build_stored("alpha", genome_a_));
    registry.add("beta", build_stored("beta", genome_b_));
    EXPECT_EQ(registry.size(), 2u);
    EXPECT_TRUE(std::filesystem::exists(registry.archive_path("alpha")));
  }
  ASSERT_TRUE(std::filesystem::exists(std::filesystem::path(store_) / "manifest.tsv"));

  // A fresh registry sees both references from the manifest without loading
  // either index.
  IndexRegistry reloaded(store_);
  ASSERT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.contains("alpha"));
  EXPECT_TRUE(reloaded.contains("beta"));
  EXPECT_EQ(reloaded.resident_bytes(), 0u);
  for (const RegistryEntry& entry : reloaded.list()) {
    EXPECT_FALSE(entry.resident);
    EXPECT_GT(entry.archive_bytes, 0u);
    EXPECT_EQ(entry.num_sequences, 1u);
  }

  const IndexRegistry::Handle handle = reloaded.acquire("alpha");
  EXPECT_EQ(handle->reference.concatenated(), genome_a_);
  EXPECT_EQ(handle->index.size(), genome_a_.size());
  const std::span<const std::uint8_t> pattern(genome_a_.data() + 777, 25);
  EXPECT_GE(handle->index.count(pattern).count(), 1u);
  EXPECT_GT(reloaded.resident_bytes(), 0u);
}

TEST_F(RegistryTest, UnknownNamesThrow) {
  IndexRegistry registry(store_);
  EXPECT_THROW(registry.acquire("nope"), std::out_of_range);
  EXPECT_THROW(registry.archive_path("nope"), std::out_of_range);
  EXPECT_FALSE(registry.evict("nope"));
}

TEST_F(RegistryTest, InvalidNamesAreRejected) {
  IndexRegistry registry(store_);
  EXPECT_THROW(registry.add("", build_stored("x", genome_c_)),
               std::invalid_argument);
  EXPECT_THROW(registry.add("has space", build_stored("x", genome_c_)),
               std::invalid_argument);
  EXPECT_THROW(registry.add("a/b", build_stored("x", genome_c_)),
               std::invalid_argument);
}

TEST_F(RegistryTest, EvictionKeepsInFlightHandlesValid) {
  IndexRegistry registry(store_);
  registry.add("alpha", build_stored("alpha", genome_a_));

  const IndexRegistry::Handle handle = registry.acquire("alpha");
  EXPECT_TRUE(registry.evict("alpha"));
  EXPECT_FALSE(registry.evict("alpha"));  // already dropped
  EXPECT_FALSE(registry.list().front().resident);
  EXPECT_EQ(registry.resident_bytes(), 0u);

  // The evicted index stays fully usable through the outstanding handle.
  const std::span<const std::uint8_t> pattern(genome_a_.data() + 123, 30);
  EXPECT_GE(handle->index.count(pattern).count(), 1u);

  // And it is re-acquirable from its archive.
  const IndexRegistry::Handle again = registry.acquire("alpha");
  EXPECT_EQ(again->reference.concatenated(), genome_a_);
  EXPECT_TRUE(registry.list().front().resident);
}

TEST_F(RegistryTest, MemoryOnlyEntriesAreNeverEvicted) {
  // No store directory and a 1-byte budget: each resident copy is the only
  // copy, so neither evict() nor the LRU may drop one.
  IndexRegistry registry("", /*memory_budget_bytes=*/1);
  registry.add("alpha", build_stored("alpha", genome_a_));
  registry.add("beta", build_stored("beta", genome_b_));  // over budget: LRU runs
  EXPECT_EQ(registry.archive_path("alpha"), "");
  EXPECT_FALSE(registry.evict("alpha"));
  EXPECT_EQ(registry.evictions_explicit(), 0u);
  EXPECT_EQ(registry.evictions_budget(), 0u);
  for (const RegistryEntry& entry : registry.list()) {
    EXPECT_TRUE(entry.resident) << entry.name;
  }
  EXPECT_EQ(registry.acquire("alpha")->reference.concatenated(), genome_a_);
  EXPECT_EQ(registry.acquire("beta")->reference.concatenated(), genome_b_);
}

TEST_F(RegistryTest, AddServesTheArchiveItReadBack) {
  IndexRegistry registry(store_, IndexRegistry::kDefaultMemoryBudget, LoadMode::kMmap);
  const IndexRegistry::Handle handle = registry.add("alpha", build_stored("alpha", genome_a_));
  ASSERT_NE(handle->backing, nullptr) << "the handle must map the written archive";
  EXPECT_EQ(handle->load_mode, LoadMode::kMmap);
  EXPECT_NE(handle->epr, nullptr) << "the read-back carries the archive's epr section";
  EXPECT_EQ(registry.acquire("alpha"), handle);
  EXPECT_GT(registry.mapped_bytes(), 0u);
  EXPECT_EQ(handle->reference.concatenated(), genome_a_);
}

TEST_F(RegistryTest, InstallDestroysTheBuiltIndexBeforeItsReadBack) {
  // The read-back goes through the loader seam; from inside it, the index
  // an add() or rollover() was handed must already be gone, so the new
  // generation's mapping never coexists with the built copy.
  IndexRegistry registry(store_);
  std::weak_ptr<const KmerSeedTable> built_seeds;
  int read_backs = 0;
  registry.set_loader([&](const std::string& path, LoadMode mode) {
    ++read_backs;
    EXPECT_TRUE(built_seeds.expired()) << "the built index outlived its write: " << path;
    return read_index_archive(path, mode);
  });

  StoredIndex first = build_stored("alpha", genome_a_);
  built_seeds = first.index.shared_seed_table();
  ASSERT_FALSE(built_seeds.expired()) << "the build must carry a seed table to watch";
  registry.add("alpha", std::move(first));

  StoredIndex second = build_stored("alpha", genome_b_);
  built_seeds = second.index.shared_seed_table();
  ASSERT_FALSE(built_seeds.expired());
  registry.rollover("alpha", std::move(second));

  EXPECT_EQ(read_backs, 2);
  EXPECT_EQ(registry.acquire("alpha")->reference.concatenated(), genome_b_);
}

TEST_F(RegistryTest, MemoryOnlyInstallServesTheIndexItIsGiven) {
  IndexRegistry registry("");
  StoredIndex built = build_stored("alpha", genome_a_);
  const std::shared_ptr<const KmerSeedTable> seeds = built.index.shared_seed_table();
  ASSERT_NE(seeds, nullptr);
  const IndexRegistry::Handle handle = registry.add("alpha", std::move(built));
  EXPECT_EQ(handle->index.shared_seed_table(), seeds);
}

TEST_F(RegistryTest, FailedInstallLeavesTheRegistryUnchanged) {
  IndexRegistry registry(store_);
  const auto store_files = [this] {
    std::vector<std::string> names;
    for (const auto& file : std::filesystem::directory_iterator(store_)) {
      names.push_back(file.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  // A directory where an install's archive must go fails its rename.
  const auto block = [this](const std::string& file) {
    std::filesystem::create_directories(std::filesystem::path(store_) / file);
  };

  // A new name: no entry appears.
  block("gamma.bwva");
  EXPECT_THROW(registry.add("gamma", build_stored("gamma", genome_c_)), IoError);
  EXPECT_FALSE(registry.contains("gamma"));
  EXPECT_EQ(store_files(), (std::vector<std::string>{"gamma.bwva"}));

  // Replacing an entry, by add() and by rollover(): nothing about it moves.
  const IndexRegistry::Handle served = registry.add("alpha", build_stored("alpha", genome_a_));
  const std::string archive = registry.archive_path("alpha");
  const std::vector<std::uint8_t> manifest =
      read_file((std::filesystem::path(store_) / "manifest.tsv").string());
  block("alpha.g2.bwva");
  const auto files = store_files();
  EXPECT_THROW(registry.add("alpha", build_stored("alpha", genome_b_)), IoError);
  EXPECT_THROW(registry.rollover("alpha", build_stored("alpha", genome_b_)), IoError);
  EXPECT_EQ(registry.generation("alpha"), 1u);
  EXPECT_EQ(registry.archive_path("alpha"), archive);
  EXPECT_EQ(read_file((std::filesystem::path(store_) / "manifest.tsv").string()), manifest);
  EXPECT_EQ(registry.acquire("alpha"), served);
  EXPECT_EQ(store_files(), files) << "no stray file";

  // Once the way is clear the same rollover lands as generation 2.
  std::filesystem::remove(std::filesystem::path(store_) / "alpha.g2.bwva");
  registry.rollover("alpha", build_stored("alpha", genome_b_));
  EXPECT_EQ(registry.generation("alpha"), 2u);
  EXPECT_FALSE(std::filesystem::exists(archive)) << "the replaced archive is removed";
  EXPECT_EQ(registry.acquire("alpha")->reference.concatenated(), genome_b_);
}

TEST_F(RegistryTest, LruEvictionRespectsBudgetAndRecency) {
  StoredIndex a = build_stored("alpha", genome_a_);
  StoredIndex b = build_stored("beta", genome_b_);
  StoredIndex c = build_stored("gamma", genome_c_);
  // Budget fits any two of the three but not all three, so adding the third
  // must evict exactly one: the least recently used. What stays resident is
  // each archive's read-back (no raw BWT from v6 on), not the built index.
  const auto served_bytes = [this](const StoredIndex& stored) {
    const std::string path = (dir_ / "measure.bwva").string();
    write_index_archive(path, stored.reference, stored.index);
    return stored_index_bytes(read_index_archive(path));
  };
  const std::size_t budget = served_bytes(a) + served_bytes(b) + served_bytes(c) - 1;

  IndexRegistry registry(store_, budget);
  registry.add("alpha", std::move(a));
  registry.add("beta", std::move(b));
  registry.acquire("alpha");  // beta becomes the LRU entry
  registry.add("gamma", std::move(c));

  std::map<std::string, bool> resident;
  for (const RegistryEntry& entry : registry.list()) {
    resident[entry.name] = entry.resident;
  }
  EXPECT_TRUE(resident["alpha"]);
  EXPECT_FALSE(resident["beta"]);
  EXPECT_TRUE(resident["gamma"]);
  EXPECT_LE(registry.resident_bytes(), budget);

  // Acquiring beta again reloads it and evicts the new LRU (alpha).
  registry.acquire("beta");
  resident.clear();
  for (const RegistryEntry& entry : registry.list()) {
    resident[entry.name] = entry.resident;
  }
  EXPECT_FALSE(resident["alpha"]);
  EXPECT_TRUE(resident["beta"]);
}

TEST_F(RegistryTest, TinyBudgetKeepsOnlyTheNewestIndex) {
  IndexRegistry registry(store_, /*memory_budget_bytes=*/1);
  registry.add("alpha", build_stored("alpha", genome_a_));
  registry.add("beta", build_stored("beta", genome_b_));
  const auto entries = registry.list();
  ASSERT_EQ(entries.size(), 2u);
  // The entry being added is never its own victim, so exactly the newest
  // index stays resident even though it exceeds the budget alone.
  for (const RegistryEntry& entry : entries) {
    EXPECT_EQ(entry.resident, entry.name == "beta") << entry.name;
  }
}

TEST_F(RegistryTest, ConcurrentMappingWhileEvicting) {
  IndexRegistry registry(store_);
  registry.add("alpha", build_stored("alpha", genome_a_));
  registry.add("beta", build_stored("beta", genome_b_));
  registry.add("gamma", build_stored("gamma", genome_c_));

  PipelineConfig config;
  config.engine = MappingEngine::kCpu;

  // Expected per-reference SAM, computed single-threaded up front.
  std::map<std::string, std::vector<FastqRecord>> reads;
  std::map<std::string, std::string> expected_sam;
  const std::map<std::string, const std::vector<std::uint8_t>*> genomes = {
      {"alpha", &genome_a_}, {"beta", &genome_b_}};
  for (const auto& [name, genome] : genomes) {
    ReadSimConfig rc;
    rc.num_reads = 60;
    rc.read_length = 40;
    rc.mapping_ratio = 1.0;
    reads[name] = reads_to_fastq(simulate_reads(*genome, rc));
    const IndexRegistry::Handle handle = registry.acquire(name);
    expected_sam[name] =
        map_records_over(*handle, config, reads[name]).sam;
  }

  // 4 mapper threads split across alpha/beta; an evictor thread repeatedly
  // drops all three references, forcing reloads mid-traffic. Every mapping
  // must still produce the exact expected SAM.
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> mappers;
  for (int t = 0; t < 4; ++t) {
    mappers.emplace_back([&, t] {
      const std::string name = (t % 2 == 0) ? "alpha" : "beta";
      for (int i = 0; i < 8; ++i) {
        try {
          const IndexRegistry::Handle handle = registry.acquire(name);
          const MappingOutcome outcome =
              map_records_over(*handle, config, reads[name]);
          if (outcome.sam != expected_sam[name]) mismatches.fetch_add(1);
        } catch (const std::exception&) {
          errors.fetch_add(1);
        }
      }
    });
  }
  std::thread evictor([&] {
    const char* names[] = {"gamma", "alpha", "beta"};
    for (int i = 0; i < 30; ++i) {
      registry.evict(names[i % 3]);
      std::this_thread::yield();
    }
  });
  for (auto& thread : mappers) thread.join();
  evictor.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(errors.load(), 0);
  // All three references are still acquirable afterwards.
  EXPECT_EQ(registry.acquire("gamma")->reference.concatenated(), genome_c_);
}

TEST_F(RegistryTest, AddReplacesExistingEntry) {
  IndexRegistry registry(store_);
  registry.add("alpha", build_stored("alpha", genome_a_));
  registry.add("alpha", build_stored("alpha", genome_b_));  // re-register
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.acquire("alpha")->reference.concatenated(), genome_b_);

  // The replacement is what a fresh registry loads from disk.
  IndexRegistry reloaded(store_);
  EXPECT_EQ(reloaded.acquire("alpha")->reference.concatenated(), genome_b_);
}

/// A loader a test can hold open: each load reads its archive, then waits
/// until release() (so the file is open, as in a slow load of a large
/// archive) before it returns. Loads of the let_through() path (an
/// install's read-back) pass uncounted and ungated.
class GatedLoader {
 public:
  IndexRegistry::Loader loader() {
    return [this](const std::string& path, LoadMode mode) {
      StoredIndex stored = read_index_archive(path, mode);
      if (path == let_through_) return stored;
      calls_.fetch_add(1);
      gate_.wait();
      if (fail_.exchange(false)) throw IoError("gated load failed: " + path);
      return stored;
    };
  }
  void release() { release_.set_value(); }
  void fail_next() { fail_ = true; }
  void let_through(std::string path) { let_through_ = std::move(path); }
  int calls() const { return calls_.load(); }
  /// Waits (up to 10 s) until `n` loads have reached the gate.
  bool wait_for_calls(int n) const {
    for (int i = 0; i < 10000 && calls_.load() < n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return calls_.load() >= n;
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> gate_ = release_.get_future().share();
  std::atomic<int> calls_{0};
  std::atomic<bool> fail_{false};
  std::string let_through_;
};

class ColdLoadTest : public RegistryTest {
 protected:
  void SetUp() override {
    RegistryTest::SetUp();
    IndexRegistry seeder(store_);
    seeder.add("alpha", build_stored("alpha", genome_a_));
    seeder.add("beta", build_stored("beta", genome_b_));
  }

  bool resident(IndexRegistry& registry, const std::string& name) {
    for (const RegistryEntry& entry : registry.list()) {
      if (entry.name == name) return entry.resident;
    }
    return false;
  }
};

TEST_F(ColdLoadTest, ColdLoadHoldsNoLockOverOtherReferences) {
  IndexRegistry registry(store_);
  const IndexRegistry::Handle alpha = registry.acquire("alpha");  // resident
  GatedLoader gated;
  registry.set_loader(gated.loader());

  std::thread cold([&] { EXPECT_EQ(registry.acquire("beta")->reference.concatenated(), genome_b_); });
  ASSERT_TRUE(gated.wait_for_calls(1));
  // beta's load is parked at the gate: every other reference is served, and
  // the registry can be listed and evicted, without waiting for it (a
  // registry that loads under its lock would park these too, so they run
  // with a deadline before the gate opens).
  auto others = std::async(std::launch::async, [&] {
    EXPECT_EQ(registry.acquire("alpha"), alpha);
    EXPECT_TRUE(resident(registry, "alpha"));
    EXPECT_FALSE(resident(registry, "beta"));
    EXPECT_TRUE(registry.evict("alpha"));
  });
  const bool served = others.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  gated.release();
  cold.join();
  others.get();
  EXPECT_TRUE(served) << "other references waited for beta's cold load";
  EXPECT_TRUE(resident(registry, "beta"));
  EXPECT_EQ(gated.calls(), 1);
}

TEST_F(ColdLoadTest, ConcurrentAcquirersShareOneLoad) {
  IndexRegistry registry(store_);
  GatedLoader gated;
  registry.set_loader(gated.loader());
  std::vector<IndexRegistry::Handle> handles(4);
  std::vector<std::thread> acquirers;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    acquirers.emplace_back([&, i] { handles[i] = registry.acquire("beta"); });
  }
  ASSERT_TRUE(gated.wait_for_calls(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let the rest queue
  gated.release();
  for (auto& thread : acquirers) thread.join();
  EXPECT_EQ(gated.calls(), 1);
  for (const auto& handle : handles) EXPECT_EQ(handle, handles[0]);
  EXPECT_EQ(registry.acquire("beta"), handles[0]);
  EXPECT_EQ(registry.loads_copy() + registry.loads_mmap(), 1u);
}

TEST_F(ColdLoadTest, RolloverDuringALoadKeepsTheNewGeneration) {
  IndexRegistry registry(store_);
  GatedLoader gated;
  gated.let_through((std::filesystem::path(store_) / "beta.g2.bwva").string());
  registry.set_loader(gated.loader());
  IndexRegistry::Handle loaded;
  std::thread cold([&] { loaded = registry.acquire("beta"); });
  ASSERT_TRUE(gated.wait_for_calls(1));
  // The rollover writes generation 2, reads it back through the loader
  // (ungated) and flips while generation 1's load is parked (with a
  // deadline: a registry that loads under its lock would park the flip too).
  auto rollover = std::async(std::launch::async, [&] {
    return registry.rollover("beta", build_stored("beta", genome_c_));
  });
  const bool flipped = rollover.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  gated.release();
  cold.join();
  const IndexRegistry::Handle rolled = rollover.get();
  EXPECT_TRUE(flipped) << "the rollover waited for a cold load";
  // The late load answers its own acquire but is not published.
  EXPECT_EQ(loaded->reference.concatenated(), genome_b_);
  EXPECT_EQ(registry.acquire("beta"), rolled);
  EXPECT_EQ(registry.acquire("beta")->reference.concatenated(), genome_c_);
  EXPECT_EQ(registry.generation("beta"), 2u);
}

TEST_F(ColdLoadTest, EvictDuringALoadPublishesNothing) {
  IndexRegistry registry(store_);
  GatedLoader gated;
  registry.set_loader(gated.loader());
  IndexRegistry::Handle loaded;
  std::thread cold([&] { loaded = registry.acquire("beta"); });
  ASSERT_TRUE(gated.wait_for_calls(1));
  auto evict = std::async(std::launch::async, [&] { return registry.evict("beta"); });
  const bool evicted = evict.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  gated.release();
  cold.join();
  EXPECT_TRUE(evicted) << "the evict waited for a cold load";
  EXPECT_FALSE(evict.get());  // nothing resident to drop yet
  EXPECT_EQ(loaded->reference.concatenated(), genome_b_);
  EXPECT_FALSE(resident(registry, "beta"));
}

TEST_F(ColdLoadTest, FailedLoadIsSharedThenRetried) {
  IndexRegistry registry(store_);
  GatedLoader gated;
  registry.set_loader(gated.loader());
  gated.fail_next();
  std::atomic<int> failures{0};
  std::vector<std::thread> acquirers;
  for (int i = 0; i < 3; ++i) {
    acquirers.emplace_back([&] {
      try {
        registry.acquire("beta");
      } catch (const IoError&) {
        failures.fetch_add(1);
      }
    });
  }
  ASSERT_TRUE(gated.wait_for_calls(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gated.release();
  for (auto& thread : acquirers) thread.join();
  // One load failed, and every acquirer that shared it saw the error (a
  // late one may have started a second, successful load instead).
  EXPECT_GE(failures.load(), 1);
  EXPECT_FALSE(gated.calls() > 2);
  // The failure is not remembered: the next acquire loads again.
  EXPECT_EQ(registry.acquire("beta")->reference.concatenated(), genome_b_);
  EXPECT_TRUE(resident(registry, "beta"));
}

TEST_F(RegistryTest, MalformedManifestThrows) {
  std::filesystem::create_directories(store_);
  std::ofstream((std::filesystem::path(store_) / "manifest.tsv"))
      << "only_one_field\n";
  EXPECT_THROW(IndexRegistry registry(store_), IoError);
}

}  // namespace
}  // namespace bwaver
