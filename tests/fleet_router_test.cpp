// Router/gateway behaviour against real WebService replicas: sharded
// byte-identity with the single-replica document, failover when a replica
// dies, hedging with loser cancellation (against a scripted slow backend),
// per-tenant 429s, and zero-5xx index rollover under live mapping load;
// plus the rollover fan-out's request and report bytes against a raw
// scripted backend.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "app/http_server.hpp"
#include "app/web_service.hpp"
#include "fleet/hash_ring.hpp"
#include "fleet/http_client.hpp"
#include "fleet/router.hpp"
#include "fmindex/dna.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "mapper/pipeline.hpp"
#include "scripted_server.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"

namespace bwaver::fleet {
namespace {

std::vector<std::uint8_t> make_genome(std::size_t length, std::uint64_t seed) {
  GenomeSimConfig config;
  config.length = length;
  config.seed = seed;
  return simulate_genome(config);
}

std::string fasta_for(const std::string& name, const std::vector<std::uint8_t>& genome) {
  FastaRecord record{name, dna_decode_string(genome)};
  return format_fasta(std::span<const FastaRecord>(&record, 1));
}

class FleetRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.engine = MappingEngine::kCpu;
    genome_ = make_genome(20000, 83);

    ReadSimConfig read_config;
    read_config.num_reads = 30;
    read_config.read_length = 36;
    read_config.mapping_ratio = 1.0;
    reads_ = reads_to_fastq(simulate_reads(genome_, read_config));
    fastq_ = format_fastq(reads_);

    Pipeline pipeline(config_);
    pipeline.build_from_sequence("refA", dna_decode_string(genome_));
    expected_sam_ = pipeline.map_records(reads_).sam;

    client_ = std::make_shared<HttpClient>();
  }

  /// Starts a replica and registers refA (and the caller's extras) on it.
  std::unique_ptr<WebService> start_replica() {
    WebServiceOptions options;
    options.pipeline = config_;
    options.jobs.workers = 2;
    auto replica = std::make_unique<WebService>(options);
    replica->start(0);
    upload(*replica, "refA", genome_);
    return replica;
  }

  void upload(WebService& replica, const std::string& name,
              const std::vector<std::uint8_t>& genome) {
    const ClientResponse response = client_->request(
        "127.0.0.1", replica.port(), "POST", "/reference?name=" + name, fasta_for(name, genome));
    ASSERT_EQ(response.status, 200) << response.body;
  }

  RouterOptions router_options(const std::vector<std::uint16_t>& ports) {
    RouterOptions options;
    for (const std::uint16_t port : ports) {
      options.backends.push_back(BackendAddress{"127.0.0.1", port});
    }
    // Tests drive health state explicitly via check_health_now().
    options.health_interval = std::chrono::seconds(10);
    return options;
  }

  ClientResponse router_map(const RouterService& router, const std::string& ref,
                            const std::string& body,
                            const std::vector<std::pair<std::string, std::string>>& headers = {}) {
    return client_->request("127.0.0.1", router.port(), "POST", "/map?ref=" + ref, body, headers);
  }

  PipelineConfig config_;
  std::vector<std::uint8_t> genome_;
  std::vector<FastqRecord> reads_;
  std::string fastq_;
  std::string expected_sam_;
  std::shared_ptr<HttpClient> client_;
};

TEST_F(FleetRouterTest, ShardedMapIsByteIdenticalToSingleReplica) {
  auto replica_a = start_replica();
  auto replica_b = start_replica();

  RouterOptions options = router_options({replica_a->port(), replica_b->port()});
  options.shard_reads = 8;  // 30 reads -> 4 shards, spread across both
  RouterService router(options);
  router.start(0);

  const ClientResponse response = router_map(router, "refA", fastq_);
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.header("x-bwaver-shards"), "4");
  EXPECT_EQ(response.body, expected_sam_)
      << "spliced shard SAM must match the single-replica document byte for byte";

  router.stop();
  replica_a->stop();
  replica_b->stop();
}

TEST_F(FleetRouterTest, FailsOverWhenAReplicaDies) {
  auto replica_a = start_replica();
  auto replica_b = start_replica();

  RouterOptions options = router_options({replica_a->port(), replica_b->port()});
  options.shard_reads = 8;
  RouterService router(options);
  router.start(0);

  replica_b->stop();
  // Demotion needs unhealthy_after (2) consecutive probe failures.
  router.check_health_now();
  router.check_health_now();

  bool saw_down = false;
  for (const BackendSnapshot& backend : router.backends()) {
    if (!backend.up) saw_down = true;
  }
  EXPECT_TRUE(saw_down) << "stopped replica must leave the ring";

  const ClientResponse response = router_map(router, "refA", fastq_);
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.body, expected_sam_) << "all shards must land on the surviving replica";

  router.stop();
  replica_a->stop();
}

TEST_F(FleetRouterTest, NoHealthyBackendsIsAnUpstreamError) {
  auto replica = start_replica();
  RouterOptions options = router_options({replica->port()});
  RouterService router(options);
  router.start(0);

  replica->stop();
  router.check_health_now();
  router.check_health_now();

  const ClientResponse response = router_map(router, "refA", fastq_);
  EXPECT_GE(response.status, 500);
  router.stop();
}

TEST_F(FleetRouterTest, ClientErrorsLeaveBackendsInTheRing) {
  auto replica_a = start_replica();
  auto replica_b = start_replica();
  RouterOptions options = router_options({replica_a->port(), replica_b->port()});
  options.shard_reads = 8;  // every bad request fails 4 shards on the replicas
  RouterService router(options);
  router.start(0);

  for (int i = 0; i < 3; ++i) {
    const ClientResponse bad = router_map(router, "refA&engine=bogus", fastq_);
    EXPECT_EQ(bad.status, 400) << bad.body;
  }
  for (const BackendSnapshot& backend : router.backends()) {
    EXPECT_TRUE(backend.up) << backend.key << " left the ring over a client's mistake";
  }
  const ClientResponse good = router_map(router, "refA", fastq_);
  EXPECT_EQ(good.status, 200) << good.body;
  EXPECT_EQ(good.body, expected_sam_);

  router.stop();
  replica_a->stop();
  replica_b->stop();
}

TEST_F(FleetRouterTest, HedgesSlowPrimaryAndCancelsTheLoser) {
  auto fast_replica = start_replica();

  // A scripted backend that speaks just enough of the jobs API to accept a
  // mapping job and then never finish it; DELETE records the cancellation.
  std::atomic<int> cancels{0};
  std::string cancel_reason;
  std::mutex reason_mutex;
  HttpServer slow_backend;
  slow_backend.route("GET", "/healthz",
                     [](const HttpRequest&) { return HttpResponse::text(200, "ok\n"); });
  slow_backend.route("GET", "/stats", [](const HttpRequest&) {
    return HttpResponse::json(200, "{\"queue\":{\"depth\":0}}\n");
  });
  slow_backend.route("POST", "/jobs", [](const HttpRequest&) {
    return HttpResponse::json(202, "{\"id\":1}\n");
  });
  slow_backend.route("GET", "/jobs/{id}", [](const HttpRequest&) {
    return HttpResponse::json(200, "{\"id\":1,\"state\":\"running\"}\n");
  });
  slow_backend.route("DELETE", "/jobs/{id}",
                     [&cancels, &cancel_reason, &reason_mutex](const HttpRequest& request) {
                       cancels.fetch_add(1);
                       std::lock_guard<std::mutex> lock(reason_mutex);
                       cancel_reason = request.query_param("reason");
                       return HttpResponse::json(200, "{\"cancelled\":true}\n");
                     });
  slow_backend.start(0);

  RouterOptions options = router_options({fast_replica->port(), slow_backend.port()});
  options.hedge_min_delay = std::chrono::milliseconds(10);
  options.max_attempts = 2;
  RouterService router(options);
  router.start(0);

  // Find a reference name whose single-shard key hashes onto the *slow*
  // backend, so the hedge (not plain routing) is what reaches the fast one.
  HashRing ring(options.vnodes);
  ring.add("127.0.0.1:" + std::to_string(fast_replica->port()));
  const std::string slow_key = "127.0.0.1:" + std::to_string(slow_backend.port());
  ring.add(slow_key);
  std::string ref;
  for (int i = 0; i < 256 && ref.empty(); ++i) {
    const std::string candidate = "hedged" + std::to_string(i);
    if (ring.pick(candidate + "/0") == slow_key) ref = candidate;
  }
  ASSERT_FALSE(ref.empty()) << "no candidate name routed to the slow backend";

  const auto genome = make_genome(15000, 89);
  upload(*fast_replica, ref, genome);
  ReadSimConfig read_config;
  read_config.num_reads = 10;
  read_config.read_length = 36;
  read_config.mapping_ratio = 1.0;
  const auto reads = reads_to_fastq(simulate_reads(genome, read_config));

  Pipeline pipeline(config_);
  pipeline.build_from_sequence(ref, dna_decode_string(genome));
  const std::string expected = pipeline.map_records(reads).sam;

  const ClientResponse response = router_map(router, ref, format_fastq(reads));
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.body, expected) << "the hedge winner's SAM is the answer";

  EXPECT_GE(cancels.load(), 1) << "the losing attempt must cancel its replica-side job";
  {
    std::lock_guard<std::mutex> lock(reason_mutex);
    EXPECT_EQ(cancel_reason, "hedge-lost");
  }
  const ClientResponse metrics =
      client_->request("127.0.0.1", router.port(), "GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("bwaver_router_hedges_total 1"), std::string::npos)
      << metrics.body;

  router.stop();
  slow_backend.stop();
  fast_replica->stop();
}

TEST_F(FleetRouterTest, TenantOverRateLimitGets429WithRetryAfter) {
  auto replica = start_replica();
  RouterOptions options = router_options({replica->port()});
  options.tenant_rate = 0.5;  // one request per two seconds
  options.tenant_burst = 1.0;
  RouterService router(options);
  router.start(0);

  const std::vector<std::pair<std::string, std::string>> alice{{"X-Tenant", "alice"}};
  const std::vector<std::pair<std::string, std::string>> bob{{"X-Tenant", "bob"}};

  EXPECT_EQ(router_map(router, "refA", fastq_, alice).status, 200);
  const ClientResponse limited = router_map(router, "refA", fastq_, alice);
  EXPECT_EQ(limited.status, 429);
  EXPECT_FALSE(limited.header("retry-after").empty()) << "429 must carry Retry-After";

  // Buckets are per tenant: bob is unaffected by alice's burn.
  EXPECT_EQ(router_map(router, "refA", fastq_, bob).status, 200);

  const ClientResponse metrics =
      client_->request("127.0.0.1", router.port(), "GET", "/metrics");
  EXPECT_NE(metrics.body.find("bwaver_router_tenant_rejections_total{tenant=\"alice\"} 1"),
            std::string::npos)
      << metrics.body;

  router.stop();
  replica->stop();
}

TEST_F(FleetRouterTest, RolloverServesZero5xxUnderLiveLoad) {
  auto replica_a = start_replica();
  auto replica_b = start_replica();

  RouterOptions options = router_options({replica_a->port(), replica_b->port()});
  options.shard_reads = 8;
  // The router's own replica hops must also outlast a rebuild.
  options.client.header_timeout = std::chrono::seconds(120);
  options.client.body_timeout = std::chrono::seconds(120);
  RouterService router(options);
  router.start(0);

  // Hammer /map from two tenants' worth of threads while the fleet rolls
  // refA over to a new genome. Every response must be a success: mapping
  // keeps running on generation 1 until generation 2 is proven loadable.
  // The replicas' index rebuilds are CPU-heavy, so every client here gets
  // patient timeouts: a *slow* response is fine, only a failed one counts.
  HttpClientOptions patient;
  patient.header_timeout = std::chrono::seconds(120);
  patient.body_timeout = std::chrono::seconds(120);

  std::atomic<bool> stop_load{false};
  std::atomic<int> failures{0};
  std::atomic<int> completed{0};
  std::vector<std::thread> load;
  for (int t = 0; t < 2; ++t) {
    load.emplace_back([this, &router, &stop_load, &failures, &completed, patient] {
      HttpClient local_client(patient);
      while (!stop_load.load()) {
        try {
          const ClientResponse response = local_client.request(
              "127.0.0.1", router.port(), "POST", "/map?ref=refA", fastq_);
          if (response.status < 200 || response.status >= 300) failures.fetch_add(1);
        } catch (const TransportError&) {
          failures.fetch_add(1);
        }
        completed.fetch_add(1);
      }
    });
  }

  const auto new_genome = make_genome(20000, 97);
  HttpClient rollover_client(patient);
  const ClientResponse rollover = rollover_client.request(
      "127.0.0.1", router.port(), "POST", "/admin/rollover?ref=refA",
      fasta_for("refA", new_genome));
  EXPECT_EQ(rollover.status, 200) << rollover.body;
  EXPECT_NE(rollover.body.find("\"ok\":true"), std::string::npos) << rollover.body;

  // Keep load flowing a beat past the flip, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop_load.store(true);
  for (std::thread& thread : load) thread.join();

  EXPECT_GT(completed.load(), 0);
  EXPECT_EQ(failures.load(), 0) << "rollover must not surface any failed mapping request";

  // Both replicas now serve generation 2...
  for (const WebService* replica : {replica_a.get(), replica_b.get()}) {
    const ClientResponse references =
        client_->request("127.0.0.1", replica->port(), "GET", "/references");
    EXPECT_NE(references.body.find("\"generation\":2"), std::string::npos) << references.body;
  }

  // ...and a post-rollover map matches the new genome's direct pipeline.
  ReadSimConfig read_config;
  read_config.num_reads = 20;
  read_config.read_length = 36;
  read_config.mapping_ratio = 1.0;
  const auto new_reads = reads_to_fastq(simulate_reads(new_genome, read_config));
  Pipeline pipeline(config_);
  pipeline.build_from_sequence("refA", dna_decode_string(new_genome));
  const std::string expected = pipeline.map_records(new_reads).sam;
  const ClientResponse after = router_map(router, "refA", format_fastq(new_reads));
  EXPECT_EQ(after.status, 200);
  EXPECT_EQ(after.body, expected);

  router.stop();
  replica_a->stop();
  replica_b->stop();
}

/// Reads one request (head, then a Content-Length body) from `fd` and
/// returns its head; answers a rollover with a 500 whose body carries
/// control bytes, anything else (the health probes) with 200.
std::string answer_scripted_request(int fd) {
  std::string seen;
  char chunk[4096];
  std::size_t head_end = std::string::npos;
  while ((head_end = seen.find("\r\n\r\n")) == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return seen;
    seen.append(chunk, static_cast<std::size_t>(n));
  }
  std::string head = seen.substr(0, head_end + 2);
  std::string lower = head;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  constexpr std::string_view kLengthHeader = "\r\ncontent-length:";
  std::size_t body_length = 0;
  if (const std::size_t at = lower.find(kLengthHeader); at != std::string::npos) {
    body_length = std::stoul(head.substr(at + kLengthHeader.size()));
  }
  std::size_t have = seen.size() - (head_end + 4);
  while (have < body_length) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    have += static_cast<std::size_t>(n);
  }
  const bool rollover = head.rfind("POST /admin/rollover", 0) == 0;
  const std::string body = rollover ? std::string("bad\r\n\tbuild\x01\n") : "ok\n";
  const std::string response = std::string("HTTP/1.1 ") +
                               (rollover ? "500 Internal Server Error" : "200 OK") +
                               "\r\nContent-Length: " + std::to_string(body.size()) +
                               "\r\nConnection: close\r\n\r\n" + body;
  ::send(fd, response.data(), response.size(), MSG_NOSIGNAL);
  return head;
}

TEST(FleetRouterRollover, ForwardsRefPercentEncodedAndReportsValidJson) {
  std::mutex heads_mutex;
  std::vector<std::string> rollover_heads;
  test::ScriptedServer backend([&](int fd) {
    const std::string head = answer_scripted_request(fd);
    if (head.rfind("POST /admin/rollover", 0) != 0) return;
    std::lock_guard<std::mutex> lock(heads_mutex);
    rollover_heads.push_back(head);
  });
  RouterOptions options;
  options.backends.push_back(BackendAddress{"127.0.0.1", backend.port()});
  options.health_interval = std::chrono::seconds(10);
  RouterService router(options);
  router.start(0);
  HttpClient client;

  // `&` must reach the replica as data, not as a second query parameter.
  ClientResponse response = client.request("127.0.0.1", router.port(), "POST",
                                           "/admin/rollover?ref=a%26b", ">a\nACGT\n");
  EXPECT_EQ(response.status, 502) << response.body;

  // A CR LF in the name must not end the forwarded request line.
  response = client.request("127.0.0.1", router.port(), "POST",
                            "/admin/rollover?ref=x%0D%0AX-Injected:%201", ">x\nACGT\n");
  EXPECT_EQ(response.status, 502) << response.body;
  // The replica's error body and the name carry CR, LF, TAB and 0x01; the
  // report escapes them all, so only its final newline is below 0x20.
  ASSERT_FALSE(response.body.empty());
  EXPECT_EQ(response.body.back(), '\n');
  for (std::size_t i = 0; i + 1 < response.body.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(response.body[i]), 0x20)
        << "raw control byte at " << i << " in " << response.body;
  }
  EXPECT_NE(response.body.find("\"ref\":\"x\\r\\nX-Injected: 1\""), std::string::npos)
      << response.body;
  EXPECT_NE(response.body.find("bad\\r\\n\\tbuild\\u0001\\n"), std::string::npos)
      << response.body;
  client.close_idle();
  router.stop();

  std::lock_guard<std::mutex> lock(heads_mutex);
  ASSERT_EQ(rollover_heads.size(), 2u);
  EXPECT_EQ(rollover_heads[0].rfind("POST /admin/rollover?ref=a%26b HTTP/1.1\r\n", 0), 0u)
      << rollover_heads[0];
  EXPECT_EQ(rollover_heads[1].rfind(
                "POST /admin/rollover?ref=x%0D%0AX-Injected%3A%201 HTTP/1.1\r\n", 0),
            0u)
      << rollover_heads[1];
  for (const std::string& head : rollover_heads) {
    EXPECT_EQ(head.find("\nX-Injected"), std::string::npos) << head;
  }
}

}  // namespace
}  // namespace bwaver::fleet
