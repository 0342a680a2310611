// Multi-tenant web service tests: several references served side by side
// from a store directory, ?ref= selection, byte-identical SAM versus the
// in-process pipeline, concurrent /map requests racing /evict, uploads and
// rollovers writing the archive `index build` writes, and a restarted
// service picking the references back up from their archives.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "app/web_service.hpp"
#include "fmindex/dna.hpp"
#include "io/byte_io.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "mapper/pipeline.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"
#include "store/index_archive.hpp"

#include "test_temp_dir.hpp"

namespace bwaver {
namespace {

/// Blocking loopback HTTP client good enough for tests.
std::string http_request(std::uint16_t port, const std::string& method,
                         const std::string& path, const std::string& body = "") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::string request = method + " " + path + " HTTP/1.1\r\nHost: localhost\r\n";
  // These helpers read the response until EOF, so opt out of keep-alive.
  request += "Connection: close\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Strips the status line and headers off an HTTP response.
std::string response_body(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

class MultiRefServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_test_dir("bwaver_app_multiref_test");

    config_.engine = MappingEngine::kCpu;

    GenomeSimConfig ga;
    ga.length = 25000;
    ga.seed = 61;
    genome_a_ = simulate_genome(ga);
    GenomeSimConfig gb;
    gb.length = 18000;
    gb.seed = 67;
    genome_b_ = simulate_genome(gb);

    const FastaRecord ref_a{"refA", dna_decode_string(genome_a_)};
    const FastaRecord ref_b{"refB", dna_decode_string(genome_b_)};
    fasta_a_ = format_fasta(std::span<const FastaRecord>(&ref_a, 1));
    fasta_b_ = format_fasta(std::span<const FastaRecord>(&ref_b, 1));

    ReadSimConfig rc;
    rc.num_reads = 40;
    rc.read_length = 36;
    rc.mapping_ratio = 1.0;
    reads_a_ = reads_to_fastq(simulate_reads(genome_a_, rc));
    reads_b_ = reads_to_fastq(simulate_reads(genome_b_, rc));
    fastq_a_ = format_fastq(reads_a_);
    fastq_b_ = format_fastq(reads_b_);

    // Ground truth from the in-process pipeline with the same config — the
    // web service must reproduce these bytes exactly.
    Pipeline pipeline_a(config_);
    pipeline_a.build_from_sequence("refA", dna_decode_string(genome_a_));
    expected_sam_a_ = pipeline_a.map_records(reads_a_).sam;
    Pipeline pipeline_b(config_);
    pipeline_b.build_from_sequence("refB", dna_decode_string(genome_b_));
    expected_sam_b_ = pipeline_b.map_records(reads_b_).sam;

    WebServiceOptions options;
    options.pipeline = config_;
    options.store_dir = (dir_ / "store").string();
    service_ = std::make_unique<WebService>(options);
    service_->start(0);
  }

  void TearDown() override {
    if (service_) service_->stop();
    std::filesystem::remove_all(dir_);
  }

  void upload_both() {
    ASSERT_NE(http_request(service_->port(), "POST", "/reference?name=refA", fasta_a_)
                  .find("200 OK"),
              std::string::npos);
    ASSERT_NE(http_request(service_->port(), "POST", "/reference?name=refB", fasta_b_)
                  .find("200 OK"),
              std::string::npos);
  }

  std::filesystem::path dir_;
  PipelineConfig config_;
  std::vector<std::uint8_t> genome_a_, genome_b_;
  std::vector<FastqRecord> reads_a_, reads_b_;
  std::string fasta_a_, fasta_b_, fastq_a_, fastq_b_;
  std::string expected_sam_a_, expected_sam_b_;
  std::unique_ptr<WebService> service_;
};

TEST_F(MultiRefServiceTest, ListsUploadedReferences) {
  upload_both();

  const std::string json =
      response_body(http_request(service_->port(), "GET", "/references"));
  EXPECT_NE(json.find("\"name\":\"refA\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"refB\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"resident\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"length_bp\":25000"), std::string::npos) << json;

  const std::string status = http_request(service_->port(), "GET", "/status");
  EXPECT_NE(status.find("state: ready"), std::string::npos);
  EXPECT_NE(status.find("references: 2 (2 resident)"), std::string::npos) << status;
  EXPECT_NE(status.find("store_dir:"), std::string::npos);
}

TEST_F(MultiRefServiceTest, MapSelectsReferenceAndMatchesPipelineByteForByte) {
  upload_both();

  const std::string sam_a = response_body(
      http_request(service_->port(), "POST", "/map?ref=refA", fastq_a_));
  EXPECT_EQ(sam_a, expected_sam_a_);

  const std::string sam_b = response_body(
      http_request(service_->port(), "POST", "/map?ref=refB", fastq_b_));
  EXPECT_EQ(sam_b, expected_sam_b_);
}

TEST_F(MultiRefServiceTest, AmbiguousAndUnknownRefsAreRejected) {
  upload_both();

  const std::string ambiguous =
      http_request(service_->port(), "POST", "/map", fastq_a_);
  EXPECT_NE(ambiguous.find("HTTP/1.1 409"), std::string::npos);
  EXPECT_NE(ambiguous.find("multiple references"), std::string::npos);

  const std::string unknown =
      http_request(service_->port(), "POST", "/map?ref=missing", fastq_a_);
  EXPECT_NE(unknown.find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(unknown.find("unknown reference 'missing'"), std::string::npos);
}

TEST_F(MultiRefServiceTest, SingleReferenceStillMapsWithoutRefParam) {
  ASSERT_NE(http_request(service_->port(), "POST", "/reference?name=refA", fasta_a_)
                .find("200 OK"),
            std::string::npos);
  const std::string sam =
      response_body(http_request(service_->port(), "POST", "/map", fastq_a_));
  EXPECT_EQ(sam, expected_sam_a_);
}

TEST_F(MultiRefServiceTest, ConcurrentMapsAcrossReferencesWhileEvicting) {
  upload_both();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&, t] {
      const bool use_a = (t % 2 == 0);
      for (int i = 0; i < 4; ++i) {
        const std::string response = http_request(
            service_->port(), "POST", use_a ? "/map?ref=refA" : "/map?ref=refB",
            use_a ? fastq_a_ : fastq_b_);
        if (response.find("200 OK") == std::string::npos ||
            response_body(response) != (use_a ? expected_sam_a_ : expected_sam_b_)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  // Evictions race the mapping traffic; in-flight requests keep their
  // handles and later requests transparently reload from the archive.
  std::thread evictor([&] {
    for (int i = 0; i < 10; ++i) {
      http_request(service_->port(), "POST",
                   i % 2 == 0 ? "/evict?ref=refA" : "/evict?ref=refB");
      std::this_thread::yield();
    }
  });
  for (auto& client : clients) client.join();
  evictor.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(MultiRefServiceTest, EvictEndpointDropsResidency) {
  upload_both();
  EXPECT_NE(http_request(service_->port(), "POST", "/evict")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(http_request(service_->port(), "POST", "/evict?ref=refA")
                .find("evicted: refA"),
            std::string::npos);
  EXPECT_NE(http_request(service_->port(), "POST", "/evict?ref=refA")
                .find("not resident"),
            std::string::npos);
  EXPECT_NE(http_request(service_->port(), "GET", "/status").find("on disk"),
            std::string::npos);

  // Mapping against the evicted reference reloads it from its archive.
  const std::string sam = response_body(
      http_request(service_->port(), "POST", "/map?ref=refA", fastq_a_));
  EXPECT_EQ(sam, expected_sam_a_);
}

TEST_F(MultiRefServiceTest, SectionBytesGaugeFollowsResidentReferences) {
  const auto scrape = [this] {
    return response_body(http_request(service_->port(), "GET", "/metrics"));
  };
  const std::string sa_a =
      "bwaver_index_section_bytes{ref=\"refA\",section=\"sa\"} ";
  const std::string sa_b =
      "bwaver_index_section_bytes{ref=\"refB\",section=\"sa\"} ";
  EXPECT_EQ(scrape().find(sa_a), std::string::npos);

  // Adding a reference adds its sections at their packed widths: the SA at
  // suffix_array_width(n) bits per row and the text at 2 bits per base, in
  // whole 64-bit words. A v6 index holds no raw BWT.
  ASSERT_NE(http_request(service_->port(), "POST", "/reference?name=refA", fasta_a_)
                .find("200 OK"),
            std::string::npos);
  std::string metrics = scrape();
  const std::size_t n = genome_a_.size();
  const std::size_t sa_bytes = 8 * (((n + 1) * suffix_array_width(n) + 63) / 64);
  EXPECT_NE(metrics.find(sa_a + std::to_string(sa_bytes) + "\n"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("bwaver_index_section_bytes{ref=\"refA\",section=\"text\"} " +
                         std::to_string(8 * ((n + 31) / 32)) + "\n"),
            std::string::npos)
      << metrics;
  EXPECT_EQ(metrics.find("bwaver_index_section_bytes{ref=\"refA\",section=\"bwt\"}"),
            std::string::npos)
      << metrics;
  EXPECT_EQ(metrics.find(sa_b), std::string::npos);

  ASSERT_NE(http_request(service_->port(), "POST", "/reference?name=refB", fasta_b_)
                .find("200 OK"),
            std::string::npos);
  metrics = scrape();
  EXPECT_NE(metrics.find(sa_a), std::string::npos) << metrics;
  const std::size_t n_b = genome_b_.size();
  EXPECT_NE(metrics.find(sa_b + std::to_string(8 * (((n_b + 1) * suffix_array_width(n_b) + 63) / 64)) +
                         "\n"),
            std::string::npos)
      << metrics;

  // An evicted reference holds no sections, so its series go.
  ASSERT_NE(http_request(service_->port(), "POST", "/evict?ref=refA").find("evicted"),
            std::string::npos);
  metrics = scrape();
  EXPECT_EQ(metrics.find(sa_a), std::string::npos) << metrics;
  EXPECT_NE(metrics.find(sa_b), std::string::npos) << metrics;
}

TEST_F(MultiRefServiceTest, ServedBuildsWriteTheIndexBuildArchive) {
  // What `index build` writes for a FASTA under a config.
  const auto index_build = [this](const std::string& fasta, const PipelineConfig& config) {
    const std::string path = (dir_ / "index_build.bwva").string();
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(fasta.data());
    Pipeline::build_archive(
        path, reference_from_fasta(parse_fasta(std::span(bytes, fasta.size()))), config);
    return read_file(path);
  };
  const auto has_kmer = [](const std::string& archive) {
    for (const ArchiveSection& section : read_index_archive_info(archive).sections) {
      if (section.name == kSectionKmer) return true;
    }
    return false;
  };

  for (const std::optional<unsigned> seed_k : {std::optional<unsigned>{}, std::optional(0u)}) {
    PipelineConfig config = config_;
    config.seed_k = seed_k;
    WebServiceOptions options;
    options.pipeline = config;
    options.store_dir = (dir_ / (seed_k ? "unseeded" : "seeded")).string();
    WebService service(options);
    service.start(0);

    ASSERT_NE(http_request(service.port(), "POST", "/reference?name=refA", fasta_a_)
                  .find("200 OK"),
              std::string::npos);
    const std::string uploaded = service.registry().archive_path("refA");
    EXPECT_EQ(read_file(uploaded), index_build(fasta_a_, config));
    EXPECT_EQ(has_kmer(uploaded), !seed_k);

    const std::string rolled = http_request(service.port(), "POST",
                                            "/admin/rollover?ref=refA", fasta_b_);
    ASSERT_NE(rolled.find("\"generation\":2"), std::string::npos) << rolled;
    const std::string rolled_archive = service.registry().archive_path("refA");
    EXPECT_NE(rolled_archive, uploaded);
    EXPECT_EQ(read_file(rolled_archive), index_build(fasta_b_, config));
    EXPECT_EQ(has_kmer(rolled_archive), !seed_k);
    service.stop();
  }
}

TEST_F(MultiRefServiceTest, RestartedServiceServesArchivesFromStore) {
  upload_both();
  service_->stop();
  service_.reset();

  // A brand-new service on the same store directory serves both references
  // straight from their archives, with identical SAM bytes.
  WebServiceOptions options;
  options.pipeline = config_;
  options.store_dir = (dir_ / "store").string();
  WebService restarted(options);
  restarted.start(0);

  const std::string json =
      response_body(http_request(restarted.port(), "GET", "/references"));
  EXPECT_NE(json.find("\"name\":\"refA\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"refB\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"resident\":false"), std::string::npos) << json;

  const std::string sam_b = response_body(
      http_request(restarted.port(), "POST", "/map?ref=refB", fastq_b_));
  EXPECT_EQ(sam_b, expected_sam_b_);
  restarted.stop();
}

}  // namespace
}  // namespace bwaver
