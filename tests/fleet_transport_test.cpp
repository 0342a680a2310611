// MapTransport contract: InProcessTransport and HttpMapTransport produce
// byte-identical SAM for the same request, fail with the same typed
// errors, and both honor the hedge give-up flag by cancelling the backend
// job (the replica's cancel accounting must move — that is how the fleet
// returns capacity instead of leaking it).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "app/web_service.hpp"
#include "fleet/http_client.hpp"
#include "fleet/map_transport.hpp"
#include "fmindex/dna.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "jobs/job_manager.hpp"
#include "mapper/map_service.hpp"
#include "mapper/pipeline.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"
#include "store/index_registry.hpp"
#include "test_temp_dir.hpp"

namespace bwaver::fleet {
namespace {

StoredIndex build_stored(const std::string& name, const std::vector<std::uint8_t>& genome) {
  ReferenceSet reference;
  reference.add(name, genome);
  return build_stored_index(std::move(reference), PipelineConfig{});
}

class FleetTransportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.engine = MappingEngine::kCpu;

    GenomeSimConfig genome_config;
    genome_config.length = 20000;
    genome_config.seed = 71;
    genome_ = simulate_genome(genome_config);

    ReadSimConfig read_config;
    read_config.num_reads = 30;
    read_config.read_length = 36;
    read_config.mapping_ratio = 1.0;
    reads_ = reads_to_fastq(simulate_reads(genome_, read_config));
    fastq_ = format_fastq(reads_);

    Pipeline pipeline(config_);
    pipeline.build_from_sequence("refA", dna_decode_string(genome_));
    expected_sam_ = pipeline.map_records(reads_).sam;
  }

  MapRequest request(const std::string& ref) const {
    MapRequest req;
    req.ref = ref;
    req.fastq = fastq_;
    req.request_id = "fleet-transport-test";
    return req;
  }

  PipelineConfig config_;
  std::vector<std::uint8_t> genome_;
  std::vector<FastqRecord> reads_;
  std::string fastq_;
  std::string expected_sam_;
};

TEST_F(FleetTransportTest, InProcessMatchesDirectPipeline) {
  IndexRegistry registry;
  registry.add("refA", build_stored("refA", genome_));
  JobManager jobs;
  InProcessTransport transport(registry, jobs, config_);

  EXPECT_EQ(transport.map(request("refA")), expected_sam_);
  EXPECT_EQ(transport.name(), "inproc");
}

TEST_F(FleetTransportTest, InProcessUnknownRefIsKBadRequest) {
  IndexRegistry registry;
  registry.add("refA", build_stored("refA", genome_));
  JobManager jobs;
  InProcessTransport transport(registry, jobs, config_);

  try {
    transport.map(request("nope"));
    FAIL() << "unknown reference must throw";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.kind(), TransportErrorKind::kBadRequest);
    EXPECT_FALSE(error.retryable()) << "another replica has the same registry view";
  }
}

TEST_F(FleetTransportTest, InProcessMalformedFastqIsKBadRequest) {
  IndexRegistry registry;
  registry.add("refA", build_stored("refA", genome_));
  JobManager jobs;
  InProcessTransport transport(registry, jobs, config_);

  MapRequest bad = request("refA");
  bad.fastq = "this is not fastq\n";
  try {
    transport.map(bad);
    FAIL() << "malformed FASTQ must throw";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.kind(), TransportErrorKind::kBadRequest);
  }
}

TEST_F(FleetTransportTest, InProcessGiveUpCancelsTheJob) {
  IndexRegistry registry;
  registry.add("refA", build_stored("refA", genome_));
  JobManagerConfig jobs_config;
  jobs_config.workers = 1;
  JobManager jobs(jobs_config);

  // Pin the single worker so the transport's job stays queued; give_up then
  // cancels it deterministically before it can run.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  jobs.submit("blocker", [released](const CancelToken&) {
    released.wait();
    return std::string{};
  });

  InProcessTransport transport(registry, jobs, config_);
  std::atomic<bool> give_up{true};
  try {
    transport.map(request("refA"), &give_up);
    FAIL() << "a given-up attempt must throw";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.kind(), TransportErrorKind::kCancelled);
  }
  release.set_value();

  EXPECT_EQ(jobs.stats().cancelled.value(), 1u);
  const auto retained = jobs.list();
  bool saw_hedge_lost = false;
  for (const auto& record : retained) {
    if (record.cancel_reason == "hedge-lost") saw_hedge_lost = true;
  }
  EXPECT_TRUE(saw_hedge_lost) << "the cancel must be attributed to the hedge";
}

class FleetHttpTransportTest : public FleetTransportTest {
 protected:
  void SetUp() override {
    FleetTransportTest::SetUp();
    WebServiceOptions options;
    options.pipeline = config_;
    options.jobs.workers = 2;
    service_ = std::make_unique<WebService>(options);
    service_->start(0);

    client_ = std::make_shared<HttpClient>();
    FastaRecord ref{"refA", dna_decode_string(genome_)};
    const std::string fasta = format_fasta(std::span<const FastaRecord>(&ref, 1));
    const ClientResponse upload =
        client_->request("127.0.0.1", service_->port(), "POST", "/reference?name=refA", fasta);
    ASSERT_EQ(upload.status, 200);
  }

  void TearDown() override { service_->stop(); }

  std::unique_ptr<WebService> service_;
  std::shared_ptr<HttpClient> client_;
};

TEST_F(FleetHttpTransportTest, HttpMatchesInProcessByteForByte) {
  HttpMapTransport transport(client_, "127.0.0.1", service_->port());
  transport.set_poll_interval(std::chrono::milliseconds(1), std::chrono::milliseconds(5));
  EXPECT_EQ(transport.map(request("refA")), expected_sam_)
      << "replica-mapped SAM must match the local pipeline byte for byte";
}

TEST_F(FleetHttpTransportTest, HttpUnknownRefIsKBadRequestWith404) {
  HttpMapTransport transport(client_, "127.0.0.1", service_->port());
  try {
    transport.map(request("nope"));
    FAIL() << "unknown reference must throw";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.kind(), TransportErrorKind::kBadRequest);
    EXPECT_EQ(error.http_status(), 404);
  }
}

TEST_F(FleetHttpTransportTest, HttpFailedJobErrorArrivesWhole) {
  // A store-backed replica whose evicted reference lost its archive fails
  // the job at run time with an error that quotes the archive path, and so
  // the name — here one holding a quote and a backslash, which the
  // replica's JSON escapes.
  const std::filesystem::path dir = test::unique_test_dir("fleet_transport_failed_job");
  WebServiceOptions options;
  options.pipeline = config_;
  options.store_dir = (dir / "store").string();
  WebService replica(options);
  replica.start(0);

  const std::string name = "q\"uote\\back";
  FastaRecord ref{"refB", dna_decode_string(genome_)};
  const std::string fasta = format_fasta(std::span<const FastaRecord>(&ref, 1));
  const ClientResponse upload = client_->request(
      "127.0.0.1", replica.port(), "POST", "/reference?name=q%22uote%5Cback", fasta);
  ASSERT_EQ(upload.status, 200) << upload.body;
  const ClientResponse evict =
      client_->request("127.0.0.1", replica.port(), "POST", "/evict?ref=q%22uote%5Cback");
  ASSERT_EQ(evict.status, 200) << evict.body;
  ASSERT_TRUE(std::filesystem::remove(replica.registry().archive_path(name)));

  HttpMapTransport transport(client_, "127.0.0.1", replica.port());
  transport.set_poll_interval(std::chrono::milliseconds(1), std::chrono::milliseconds(5));
  try {
    transport.map(request(name));
    FAIL() << "a job on a reference whose archive is gone must fail";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.kind(), TransportErrorKind::kFailed);
    EXPECT_NE(std::string(error.what()).find(name + ".bwva"), std::string::npos)
        << error.what();
  }
  replica.stop();
  std::filesystem::remove_all(dir);
}

TEST_F(FleetHttpTransportTest, HttpGiveUpCancelsTheReplicaJob) {
  // Pin both replica workers so the submitted job stays queued until the
  // give-up DELETE lands. The transport submits at high priority, so a
  // blocker still queued would let it jump ahead onto a free worker and
  // finish before the DELETE: wait until both blockers run.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::vector<std::uint64_t> blockers;
  for (int i = 0; i < 2; ++i) {
    blockers.push_back(service_->jobs().submit("blocker", [released](const CancelToken&) {
      released.wait();
      return std::string{};
    }));
  }
  for (const std::uint64_t blocker : blockers) {
    while (service_->jobs().status(blocker)->state != JobState::kRunning) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  HttpMapTransport transport(client_, "127.0.0.1", service_->port());
  transport.set_poll_interval(std::chrono::milliseconds(1), std::chrono::milliseconds(5));
  std::atomic<bool> give_up{true};
  try {
    transport.map(request("refA"), &give_up);
    FAIL() << "a given-up attempt must throw";
  } catch (const TransportError& error) {
    EXPECT_EQ(error.kind(), TransportErrorKind::kCancelled);
  }
  release.set_value();

  // The acceptance check: the replica's cancel accounting moved, tagged
  // with the hedge reason.
  const ClientResponse metrics =
      client_->request("127.0.0.1", service_->port(), "GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("bwaver_jobs_cancel_requests_total{reason=\"hedge-lost\"}"),
            std::string::npos)
      << metrics.body;
}

}  // namespace
}  // namespace bwaver::fleet
