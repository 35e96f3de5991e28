// Tests for the twilld service stack (src/serve): the HTTP parser, the
// TwillService v1 API driven in-process, the real-socket server, and the
// twilld binary end to end (path injected by CMake as TWILLD_PATH, with
// TWILLC_PATH for the report-equality oracle).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>

#include "src/serve/http.h"
#include "src/serve/service.h"

namespace {

using twill::HttpRequest;
using twill::HttpResponse;
using twill::ServiceConfig;
using twill::TwillService;

#ifndef TWILLD_PATH
#error "TWILLD_PATH must be defined to the twilld binary location"
#endif
#ifndef TWILLC_PATH
#error "TWILLC_PATH must be defined to the twillc binary location"
#endif

// Small programs with a pinned failure class each (mirrors twillc_test's
// exit-code contract suite).
const char* kQuickProgram =
    "int data[64];\n"
    "int main(void) {\n"
    "  unsigned x = 12345u;\n"
    "  for (int i = 0; i < 64; i++) {\n"
    "    x = x * 1664525u + 1013904223u;\n"
    "    data[i] = (int)(x >> 24);\n"
    "  }\n"
    "  int sum = 0;\n"
    "  for (int i = 0; i < 64; i++) sum += data[i];\n"
    "  return sum;\n"
    "}\n";

const char* kTwoCallSiteProgram =
    "int acc[8];\n"
    "int f(int s) {\n"
    "  int t = 0;\n"
    "  for (int i = 0; i < 8; i++) { acc[i] = acc[i] * 3 + s + i; t += acc[i]; }\n"
    "  for (int i = 0; i < 8; i++) { t ^= acc[i] << (i & 3); }\n"
    "  return t;\n"
    "}\n"
    "int main(void) { int a = f(3); int b = f(a & 15); return a + b; }\n";

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string sourceRequest(const std::string& source, const std::string& extraGroups = "") {
  std::string doc = "{\"source\": \"" + jsonEscape(source) + "\"";
  if (!extraGroups.empty()) doc += ", " + extraGroups;
  return doc + "}";
}

HttpRequest post(const std::string& target, const std::string& body) {
  HttpRequest req;
  req.method = "POST";
  req.target = target;
  req.version = "HTTP/1.1";
  req.body = body;
  return req;
}

HttpRequest get(const std::string& target) {
  HttpRequest req;
  req.method = "GET";
  req.target = target;
  req.version = "HTTP/1.1";
  return req;
}

/// Submits and waits for completion; returns the report response.
HttpResponse submitAndFetch(TwillService& svc, const std::string& body) {
  HttpResponse sub = svc.handle(post("/v1/jobs", body));
  EXPECT_EQ(sub.status, 202) << sub.body;
  const size_t idPos = sub.body.find("\"job_id\": ");
  EXPECT_NE(idPos, std::string::npos) << sub.body;
  const std::string id = sub.body.substr(idPos + 10, sub.body.find(',', idPos) - idPos - 10);
  svc.drain();
  return svc.handle(get("/v1/jobs/" + id + "/report"));
}

/// The *_wall_ms fields are the only nondeterministic report content; the
/// bench gate treats them the same way (warn-only in bench_diff).
std::string normalizeWallTimes(const std::string& doc) {
  static const std::regex kWall("(\"[a-z_]*wall_ms\": )[0-9.e+-]+");
  return std::regex_replace(doc, kWall, "$1X");
}

/// Value of a label-less or fully-labelled series in a Prometheus text
/// document (exact match of everything before the space). UINT64_MAX when
/// the series is absent.
uint64_t promValue(const std::string& text, const std::string& series) {
  const std::string needle = series + " ";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n')
      return std::stoull(text.substr(pos + needle.size()));
    pos += needle.size();
  }
  return UINT64_MAX;
}

// --- HTTP parser ------------------------------------------------------------

TEST(HttpParserTest, ParsesRequestLineHeadersAndBody) {
  HttpRequest req;
  std::string error;
  ASSERT_TRUE(parseHttpRequest(
      "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbodyEXTRA", req, error))
      << error;
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/v1/jobs");
  EXPECT_EQ(req.header("host"), "x");  // names are lowercased
  EXPECT_EQ(req.body, "body");         // Content-Length bounds the body
}

TEST(HttpParserTest, RejectsMalformedInput) {
  HttpRequest req;
  std::string error;
  EXPECT_FALSE(parseHttpRequest("GET /\r\n\r\n", req, error));              // no version
  EXPECT_FALSE(parseHttpRequest("GET / HTTP/1.1\r\nbad\r\n\r\n", req, error));  // colonless
  EXPECT_FALSE(parseHttpRequest("get / HTTP/1.1\r\n\r\n", req, error));     // lowercase method
  EXPECT_FALSE(parseHttpRequest("GET x HTTP/1.1\r\n\r\n", req, error));     // no leading /
  EXPECT_FALSE(parseHttpRequest("GET / HTTP/1.1\r\nContent-Length: zz\r\n\r\n", req, error));
  EXPECT_FALSE(
      parseHttpRequest("GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", req, error));
  EXPECT_FALSE(parseHttpRequest("GET / HTTP/1.1\r\n", req, error));         // truncated head
}

// --- service: lifecycle and caching ----------------------------------------

TEST(ServeTest, SubmitPollFetchLifecycle) {
  TwillService svc{ServiceConfig{}};
  HttpResponse sub = svc.handle(post("/v1/jobs", sourceRequest(kQuickProgram)));
  ASSERT_EQ(sub.status, 202) << sub.body;
  EXPECT_NE(sub.body.find("\"job_id\": 1"), std::string::npos) << sub.body;
  svc.drain();
  HttpResponse status = svc.handle(get("/v1/jobs/1"));
  EXPECT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("\"state\": \"done\""), std::string::npos) << status.body;
  EXPECT_NE(status.body.find("\"ok\": true"), std::string::npos) << status.body;
  HttpResponse report = svc.handle(get("/v1/jobs/1/report"));
  EXPECT_EQ(report.status, 200);
  EXPECT_NE(report.body.find("\"schema_version\": 1"), std::string::npos) << report.body;
  EXPECT_NE(report.body.find("\"cycles\""), std::string::npos) << report.body;
  HttpResponse health = svc.handle(get("/v1/healthz"));
  EXPECT_EQ(health.status, 200);
}

TEST(ServeTest, RepeatRequestIsAnsweredFromTheResponseCache) {
  TwillService svc{ServiceConfig{}};
  HttpResponse first = submitAndFetch(svc, sourceRequest(kQuickProgram));
  HttpResponse second = submitAndFetch(svc, sourceRequest(kQuickProgram));
  ASSERT_EQ(first.status, 200);
  // The cached answer is the stored document: byte-identical, wall times
  // included (nothing re-ran).
  EXPECT_EQ(first.body, second.body);
  twill::ServiceStats s = svc.stats();
  EXPECT_EQ(s.cacheMisses, 1u);
  EXPECT_EQ(s.cacheFullHits, 1u);
  EXPECT_EQ(s.cacheArtifactHits, 0u);
}

TEST(ServeTest, SimAxisChangeReusesTheCachedCompile) {
  // The second case is larger than the default 4 MiB simulated memory and
  // runs under an 8 MiB ceiling: the cached decode must be laid out under
  // the request's own ceiling.
  const std::string big =
      "int big[1400000];\n"
      "int main(void) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 64; i++) big[i * 1000] = i * 3;\n"
      "  for (int i = 0; i < 64; i++) s += big[i * 1000] ^ i;\n"
      "  return s;\n"
      "}\n";
  struct Case {
    std::string source;
    std::string extra;  // groups shared by both requests
    unsigned capacity;  // the second request's queue capacity
  };
  const Case cases[] = {
      {kQuickProgram, "", 16},
      {big, "\"limits\": {\"max_memory_mb\": 8}, ", 4},
  };
  for (const Case& c : cases) {
    const std::string first = sourceRequest(c.source, c.extra + "\"sim\": {\"queue_capacity\": 8}");
    const std::string second = sourceRequest(
        c.source, c.extra + "\"sim\": {\"queue_capacity\": " + std::to_string(c.capacity) + "}");
    TwillService warm{ServiceConfig{}};
    HttpResponse miss = submitAndFetch(warm, first);
    ASSERT_EQ(miss.status, 200) << miss.body;
    HttpResponse reused = submitAndFetch(warm, second);
    twill::ServiceStats s = warm.stats();
    EXPECT_EQ(s.cacheMisses, 1u);
    EXPECT_EQ(s.cacheArtifactHits, 1u) << "sim-only change should not recompile";

    // The reuse path must be invisible in the report: a cold service running
    // the same request from scratch produces the identical document.
    TwillService cold{ServiceConfig{}};
    HttpResponse fresh = submitAndFetch(cold, second);
    ASSERT_EQ(reused.status, 200) << reused.body;
    EXPECT_EQ(normalizeWallTimes(reused.body), normalizeWallTimes(fresh.body));
  }
}

TEST(ServeTest, ByteBudgetEvictsLeastRecentlyUsedEntries) {
  // A budget far below one kept module's arena footprint forces the byte
  // sweep to evict on every insertion; distinct compile keys create distinct
  // artifact entries, so only the newest survives.
  ServiceConfig cfg;
  cfg.maxCacheBytes = 4096;
  TwillService svc{cfg};
  (void)submitAndFetch(svc, sourceRequest(kQuickProgram));
  (void)submitAndFetch(svc, sourceRequest(kQuickProgram, "\"compile\": {\"partitions\": 2}"));
  (void)submitAndFetch(svc, sourceRequest(kTwoCallSiteProgram));

  const std::string text = svc.handle(get("/v1/metrics")).body;
  EXPECT_EQ(promValue(text, "twilld_cache_misses_total"), 3u) << text;
  // Every kept module's arena alone dwarfs the 4 KiB budget, so no artifact
  // entry can survive its own insertion sweep.
  EXPECT_EQ(promValue(text, "twilld_cache_artifact_entries"), 0u) << text;
  EXPECT_EQ(promValue(text, "twilld_cache_evictions_total{cache=\"artifact\"}"), 3u) << text;
  // Whatever survives (small response documents) fits the budget.
  EXPECT_LE(promValue(text, "twilld_cache_bytes"), 4096u) << text;

  // An unlimited-budget service keeps everything: the byte sweep is opt-in.
  TwillService unbounded{ServiceConfig{}};
  (void)submitAndFetch(unbounded, sourceRequest(kQuickProgram));
  (void)submitAndFetch(unbounded, sourceRequest(kTwoCallSiteProgram));
  const std::string utext = unbounded.handle(get("/v1/metrics")).body;
  EXPECT_EQ(promValue(utext, "twilld_cache_evictions_total{cache=\"artifact\"}"), 0u) << utext;
}

TEST(ServeTest, CompileAxisChangeMissesTheCache) {
  TwillService svc{ServiceConfig{}};
  (void)submitAndFetch(svc, sourceRequest(kQuickProgram));
  (void)submitAndFetch(svc,
                       sourceRequest(kQuickProgram, "\"compile\": {\"partitions\": 2}"));
  twill::ServiceStats s = svc.stats();
  EXPECT_EQ(s.cacheMisses, 2u);
  EXPECT_EQ(s.cacheArtifactHits, 0u);
}

// --- service: FailureKind -> HTTP status -----------------------------------

TEST(ServeTest, CompileFailureMapsTo422) {
  TwillService svc{ServiceConfig{}};
  HttpResponse report = submitAndFetch(svc, sourceRequest("int main( {"));
  EXPECT_EQ(report.status, 422) << report.body;
  EXPECT_NE(report.body.find("\"failure_kind\": \"compile\""), std::string::npos)
      << report.body;
}

TEST(ServeTest, VerifyFailureMapsTo412WithDiagnostics) {
  TwillService svc{ServiceConfig{}};
  HttpResponse report = submitAndFetch(
      svc, sourceRequest(kTwoCallSiteProgram,
                         "\"compile\": {\"inline_threshold\": 0, \"partitions\": 2}, "
                         "\"verify\": {\"unseed_semaphores\": true}"));
  EXPECT_EQ(report.status, 412) << report.body;
  EXPECT_NE(report.body.find("\"failure_kind\": \"verify\""), std::string::npos)
      << report.body;
  // Structured diagnostics, produced without entering the simulator.
  EXPECT_NE(report.body.find("\"verify_diagnostics\""), std::string::npos) << report.body;
}

TEST(ServeTest, SimFailureMapsTo500) {
  TwillService svc{ServiceConfig{}};
  HttpResponse report = submitAndFetch(
      svc, sourceRequest(kQuickProgram, "\"sim\": {\"max_cycles\": 2}"));
  EXPECT_EQ(report.status, 500) << report.body;
  EXPECT_NE(report.body.find("\"failure_kind\": \"sim\""), std::string::npos) << report.body;
}

TEST(ServeTest, ResourceBreachMapsTo413) {
  // ~1.2 MB of globals against a 1 MiB request-side ceiling.
  TwillService svc{ServiceConfig{}};
  HttpResponse report = submitAndFetch(
      svc, sourceRequest("int g[300000];\nint main() { g[0] = 7; return g[0]; }\n",
                         "\"limits\": {\"max_memory_mb\": 1}"));
  EXPECT_EQ(report.status, 413) << report.body;
  EXPECT_NE(report.body.find("\"failure_kind\": \"resource\""), std::string::npos)
      << report.body;
}

TEST(ServeTest, ServerCeilingTightensRequestLimits) {
  // Same program, no request-side limit — the server's own 1 MiB ceiling
  // must reject it (requests can only tighten, never widen).
  ServiceConfig cfg;
  cfg.maxMemoryBytes = 1 << 20;
  TwillService svc{cfg};
  HttpResponse report = submitAndFetch(
      svc, sourceRequest("int g[300000];\nint main() { g[0] = 7; return g[0]; }\n"));
  EXPECT_EQ(report.status, 413) << report.body;
}

// --- service: malformed requests and routing --------------------------------

TEST(ServeTest, MalformedSubmissionsAreRejectedWith400) {
  TwillService svc{ServiceConfig{}};
  EXPECT_EQ(svc.handle(post("/v1/jobs", "")).status, 400);
  EXPECT_EQ(svc.handle(post("/v1/jobs", "{not json")).status, 400);
  EXPECT_EQ(svc.handle(post("/v1/jobs", "{\"no_source_or_kernel\": 1}")).status, 400);
  EXPECT_EQ(svc.handle(post("/v1/jobs", sourceRequest("int main() { return 0; }",
                                                      "\"typo_group\": {}")))
                .status,
            400);
  twill::ServiceStats s = svc.stats();
  EXPECT_EQ(s.rejectedRequests, 4u);
  EXPECT_EQ(s.submitted, 0u) << "rejected submissions must not become jobs";
}

TEST(ServeTest, RoutingErrors) {
  TwillService svc{ServiceConfig{}};
  EXPECT_EQ(svc.handle(get("/v1/nope")).status, 404);
  EXPECT_EQ(svc.handle(get("/v1/jobs/99")).status, 404);       // unknown job
  EXPECT_EQ(svc.handle(get("/v1/jobs/xyz")).status, 404);      // malformed id
  EXPECT_EQ(svc.handle(get("/v1/jobs")).status, 405);          // GET on POST-only
  EXPECT_EQ(svc.handle(post("/v1/stats", "{}")).status, 405);  // POST on GET-only
}

// --- service: observability -------------------------------------------------

TEST(ServeTest, HealthzReportsSchemaBuildAndDispatcher) {
  TwillService svc{ServiceConfig{}};
  HttpResponse health = svc.handle(get("/v1/healthz"));
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"schema_version\": 1"), std::string::npos) << health.body;
  EXPECT_NE(health.body.find("\"ok\": true"), std::string::npos) << health.body;
  EXPECT_NE(health.body.find("\"build\": "), std::string::npos) << health.body;
  const bool threaded = health.body.find("\"dispatcher\": \"threaded\"") != std::string::npos;
  const bool portable = health.body.find("\"dispatcher\": \"portable\"") != std::string::npos;
  EXPECT_TRUE(threaded || portable) << health.body;
}

TEST(ServeTest, MetricsEndpointRendersTheRequiredFamilies) {
  TwillService svc{ServiceConfig{}};
  (void)submitAndFetch(svc, sourceRequest(kQuickProgram));
  (void)submitAndFetch(svc, sourceRequest(kQuickProgram));  // full cache hit
  (void)svc.handle(post("/v1/jobs", "{not json"));          // rejected
  HttpResponse metrics = svc.handle(get("/v1/metrics"));
  ASSERT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.contentType, "text/plain; version=0.0.4");
  const std::string& text = metrics.body;

  EXPECT_EQ(promValue(text, "twilld_jobs_submitted_total"), 2u) << text;
  EXPECT_EQ(promValue(text, "twilld_jobs_completed_total"), 2u);
  EXPECT_EQ(promValue(text, "twilld_requests_rejected_total"), 1u);
  EXPECT_EQ(promValue(text, "twilld_cache_hits_total{level=\"full\"}"), 1u);
  EXPECT_EQ(promValue(text, "twilld_cache_hits_total{level=\"artifact\"}"), 0u);
  EXPECT_EQ(promValue(text, "twilld_cache_misses_total"), 1u);
  EXPECT_EQ(promValue(text, "twilld_jobs_outcome_total{failure_kind=\"none\"}"), 2u);
  EXPECT_EQ(promValue(text, "twilld_pool_queue_depth"), 0u);
  EXPECT_EQ(promValue(text, "twilld_pool_in_flight"), 0u);
  EXPECT_EQ(promValue(text, "twilld_cache_response_entries"), 1u);
  EXPECT_NE(promValue(text, "twilld_http_bytes_in_total"), UINT64_MAX);
  EXPECT_NE(promValue(text, "twilld_http_bytes_out_total"), UINT64_MAX);
  EXPECT_NE(promValue(text, "twilld_cache_evictions_total{cache=\"response\"}"), UINT64_MAX);
  // Per-endpoint latency histograms: /v1/jobs saw 3 requests (2 accepted +
  // 1 rejected), and every HELP/TYPE header renders exactly once.
  EXPECT_EQ(promValue(text, "twilld_http_requests_total{endpoint=\"/v1/jobs\"}"), 3u);
  EXPECT_EQ(promValue(text, "twilld_http_request_duration_us_count{endpoint=\"/v1/jobs\"}"),
            3u);
  EXPECT_NE(text.find("# TYPE twilld_http_request_duration_us histogram"), std::string::npos);
  EXPECT_NE(text.find("twilld_http_request_duration_us_bucket{endpoint=\"/v1/jobs\",le=\"+Inf\"} 3"),
            std::string::npos);

  // The sacred /v1/stats document still carries its exact field set.
  HttpResponse stats = svc.handle(get("/v1/stats"));
  for (const char* key : {"\"submitted\"", "\"completed\"", "\"queued\"", "\"running\"",
                          "\"rejected_requests\"", "\"full_hits\"", "\"artifact_hits\"",
                          "\"misses\"", "\"response_entries\"", "\"artifact_entries\"",
                          "\"ok\"", "\"compile\"", "\"verify\"", "\"sim\"", "\"resource\""})
    EXPECT_NE(stats.body.find(key), std::string::npos) << key << " missing: " << stats.body;
}

// The metrics-under-concurrency contract: totals are exact after a drain,
// no matter how many threads hammered the API (runs under TSan in CI, so
// this doubles as the data-race proof for the registry and the service).
TEST(ServeTest, MetricsStayExactUnderConcurrentSubmissions) {
  constexpr int kThreads = 4, kPerThread = 8;
  ServiceConfig cfg;
  cfg.jobs = 3;
  TwillService svc{cfg};
  std::atomic<bool> stop{false};
  // A scraper races the submitters so rendering overlaps sampling.
  std::thread scraper([&svc, &stop] {
    while (!stop.load()) (void)svc.handle(get("/v1/metrics"));
  });
  std::vector<std::thread> posters;
  for (int t = 0; t < kThreads; ++t)
    posters.emplace_back([&svc] {
      for (int i = 0; i < kPerThread; ++i)
        EXPECT_EQ(svc.handle(post("/v1/jobs", sourceRequest(kQuickProgram))).status, 202);
    });
  for (auto& th : posters) th.join();
  stop.store(true);
  scraper.join();
  svc.drain();

  const std::string text = svc.handle(get("/v1/metrics")).body;
  constexpr uint64_t kTotal = static_cast<uint64_t>(kThreads * kPerThread);
  EXPECT_EQ(promValue(text, "twilld_jobs_submitted_total"), kTotal);
  EXPECT_EQ(promValue(text, "twilld_jobs_completed_total"), kTotal);
  EXPECT_EQ(promValue(text, "twilld_jobs_outcome_total{failure_kind=\"none\"}"), kTotal);
  EXPECT_EQ(promValue(text, "twilld_http_requests_total{endpoint=\"/v1/jobs\"}"), kTotal);
  EXPECT_EQ(promValue(text, "twilld_http_request_duration_us_count{endpoint=\"/v1/jobs\"}"),
            kTotal);
  EXPECT_EQ(promValue(text, "twilld_pool_queue_depth"), 0u);
  EXPECT_EQ(promValue(text, "twilld_pool_in_flight"), 0u);
  // One miss, the rest answered from the response cache.
  EXPECT_EQ(promValue(text, "twilld_cache_misses_total") +
                promValue(text, "twilld_cache_hits_total{level=\"full\"}"),
            kTotal);

  // Histogram buckets are cumulative: counts must be monotone in le order.
  const std::string prefix = "twilld_http_request_duration_us_bucket{endpoint=\"/v1/jobs\",";
  uint64_t prev = 0;
  size_t pos = 0, buckets = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    const size_t space = text.find(' ', pos);
    const uint64_t v = std::stoull(text.substr(space + 1));
    EXPECT_GE(v, prev) << "cumulative bucket counts must be monotone";
    prev = v;
    ++buckets;
    pos = space;
  }
  EXPECT_GE(buckets, 2u);
  EXPECT_EQ(prev, kTotal) << "the +Inf bucket must equal the series count";
}

TEST(ServeTest, TraceDirWritesOneTracePerJob) {
  ServiceConfig cfg;
  cfg.traceDir = testing::TempDir();
  TwillService svc{cfg};
  (void)submitAndFetch(svc, sourceRequest(kQuickProgram));
  (void)submitAndFetch(svc, sourceRequest(kQuickProgram));  // cached: still traced
  for (const char* name : {"job-1.trace.json", "job-2.trace.json"}) {
    std::ifstream f(cfg.traceDir + name);
    ASSERT_TRUE(f.good()) << "missing " << name;
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string doc = ss.str();
    EXPECT_EQ(doc.compare(0, 17, "{\"traceEvents\": ["), 0) << name;
    EXPECT_NE(doc.find("\"queued\""), std::string::npos) << name;
    EXPECT_NE(doc.find("\"run\""), std::string::npos) << name;
    std::remove((cfg.traceDir + name).c_str());
  }
}

// --- real-socket server -----------------------------------------------------

/// One HTTP exchange over a real socket: connect, write `raw`, read to EOF.
std::string httpExchange(uint16_t port, const std::string& raw) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  size_t off = 0;
  while (off < raw.size()) {
    ssize_t n = ::send(fd, raw.data() + off, raw.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) out.append(buf, static_cast<size_t>(n));
  ::close(fd);
  return out;
}

std::string rawPost(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

struct RunningServer {
  twill::HttpServer server;
  std::thread thread;

  explicit RunningServer(twill::HttpServerConfig cfg, TwillService& svc)
      : server(std::move(cfg)) {
    std::string error;
    EXPECT_TRUE(server.start(error)) << error;
    thread = std::thread(
        [this, &svc] { server.serve([&svc](const HttpRequest& r) { return svc.handle(r); }); });
  }
  ~RunningServer() {
    server.stop();
    thread.join();
  }
};

TEST(HttpServerTest, ServesTheV1ApiOverARealSocket) {
  TwillService svc{ServiceConfig{}};
  RunningServer rs{twill::HttpServerConfig{}, svc};
  std::string resp =
      httpExchange(rs.server.port(), rawPost("/v1/jobs", sourceRequest(kQuickProgram)));
  EXPECT_NE(resp.find("HTTP/1.1 202 Accepted"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"job_id\": 1"), std::string::npos) << resp;
  svc.drain();
  resp = httpExchange(rs.server.port(), "GET /v1/jobs/1/report HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  EXPECT_NE(resp.find("Content-Type: application/json"), std::string::npos) << resp;
  EXPECT_NE(resp.find("\"schema_version\": 1"), std::string::npos) << resp;
}

TEST(HttpServerTest, OversizedAndMalformedRequestsAreRejectedAtTheSocket) {
  TwillService svc{ServiceConfig{}};
  twill::HttpServerConfig cfg;
  cfg.maxBodyBytes = 256;
  cfg.maxHeaderBytes = 512;
  RunningServer rs{cfg, svc};
  // Declared body over the cap: rejected from the Content-Length alone.
  std::string big(1024, 'x');
  std::string resp = httpExchange(rs.server.port(), rawPost("/v1/jobs", big));
  EXPECT_NE(resp.find("HTTP/1.1 413 "), std::string::npos) << resp;
  // Head over the cap.
  resp = httpExchange(rs.server.port(),
                      "GET / HTTP/1.1\r\nX-Pad: " + std::string(2048, 'y') + "\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 431 "), std::string::npos) << resp;
  // Garbage request line.
  resp = httpExchange(rs.server.port(), "NOT-HTTP\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 400 "), std::string::npos) << resp;
  // The server survives all of the above and still serves.
  resp = httpExchange(rs.server.port(), "GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
}

// --- twilld end to end ------------------------------------------------------

std::string runCommand(const std::string& cmd) {
  std::string out;
  std::FILE* p = popen((cmd + " 2>&1").c_str(), "r");
  if (!p) return out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0) out.append(buf, n);
  pclose(p);
  return out;
}

TEST(TwilldTest, DaemonMatchesTwillcByteForByteModuloWallTimes) {
  const std::string dir = testing::TempDir();
  const std::string portFile = dir + "twilld_e2e.port";
  const std::string reqFile = dir + "twilld_e2e.request.json";
  std::remove(portFile.c_str());
  {
    std::ofstream f(reqFile);
    f << sourceRequest(kQuickProgram, "\"name\": \"e2e\"");
  }

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    execl(TWILLD_PATH, "twilld", "--port", "0", "--port-file", portFile.c_str(), "--jobs",
          "2", static_cast<char*>(nullptr));
    _exit(127);
  }
  // Wait for the port file (the daemon writes it before serving). Bail out
  // immediately if the child died — e.g. exec failed — instead of timing out.
  uint16_t port = 0;
  for (int i = 0; i < 300 && port == 0; ++i) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, WNOHANG), 0)
        << "twilld exited before writing its port file, status " << status;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::ifstream f(portFile);
    unsigned p = 0;
    if (f >> p && p != 0) port = static_cast<uint16_t>(p);
  }
  ASSERT_NE(port, 0) << "twilld never wrote its port file";

  std::ifstream rf(reqFile);
  std::stringstream reqBody;
  reqBody << rf.rdbuf();
  std::string resp = httpExchange(port, rawPost("/v1/jobs", reqBody.str()));
  ASSERT_NE(resp.find("202"), std::string::npos) << resp;

  // Poll until done, then fetch the report.
  std::string report;
  for (int i = 0; i < 200; ++i) {
    std::string s = httpExchange(port, "GET /v1/jobs/1 HTTP/1.1\r\nHost: t\r\n\r\n");
    if (s.find("\"state\": \"done\"") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  report = httpExchange(port, "GET /v1/jobs/1/report HTTP/1.1\r\nHost: t\r\n\r\n");
  ASSERT_NE(report.find("HTTP/1.1 200 OK"), std::string::npos) << report;
  const std::string daemonDoc = report.substr(report.find("\r\n\r\n") + 4);

  // The oracle: the same request document through twillc.
  std::string cliDoc = runCommand(std::string(TWILLC_PATH) + " --json --request " + reqFile);
  EXPECT_EQ(normalizeWallTimes(daemonDoc), normalizeWallTimes(cliDoc))
      << "daemon report and twillc --json must be byte-identical modulo wall times";

  // Clean shutdown: SIGTERM -> exit 0.
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "twilld must exit 0 on SIGTERM, status=" << status;
}

}  // namespace
